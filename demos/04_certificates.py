"""The full certificate pipeline on the built-in reference kernels.

Criteria run in a fixed order -- absolute-sum, renewal-theorem, real-axis
root scan, then the finite-approximation window at increasing degree, the
stability and then the instability test at each -- and the report keeps every
attempt.  A rigorous certificate ends the run; if only
the heuristic circle-zero test fires, a simulated trajectory is attached as
corroborating (never overriding) evidence.

Run:  python demos/04_certificates.py
"""

import json

from volterra_stability import certify, fixture_names, load_fixture, report_to_dict

for name in fixture_names():
    kernel = load_fixture(name)
    report = certify(kernel, steps=2000)
    print(f"{name:26s} {report.final_verdict:22s} ({report.final_criterion}, {report.final_rigor})")
    if name == "rouche_table":
        attempts = [a for a in report.attempts if a["criterion"] == "RoucheStable"]
        outcome = ", ".join(f"n={a['n']}:{'fired' if a['verdict'] != 'not_applicable' else 'na'}" for a in attempts)
        print(f"{'':26s} window attempts: {outcome}")

# Reports serialize to a stable JSON layout: kernel id, final block with the
# deciding witness, the ordered attempt log, and the empirical block when a
# simulation ran.
report = certify(load_fixture("rouche_stable_pair_plus"))
print()
print(json.dumps(report_to_dict(report)["final"], indent=2, sort_keys=True))
