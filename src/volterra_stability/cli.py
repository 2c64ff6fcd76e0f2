"""Command-line surface: simulate, roots, certify, reproduce-paper.

Outputs carry no timestamps and are byte-identical across repeated runs on
the same inputs.  Exit codes: 0 success, 1 reference-value mismatch in
reproduce-paper, 2 usage or kernel-parse errors, 3 root-finding
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import Report, certify, report_to_dict
from .charfun import NonConvergence, pn_roots
from .fixtures import _EXPECTED_FINALS, fixture_names, load_fixture
from .kernel import KernelFormatError, load_kernel, tail_abs_sum
from .simulate import solve, solve_fast, trajectory_to_csv

_TABLE_R = {4: 0.913, 5: 0.781, 6: 0.667}
_TABLE_L = {4: 0.24716, 5: 0.04963, 6: 0.00024}
_R_TOL = 5e-4
_L_TOL = 5e-6

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="volstab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="compute a trajectory and export it")
    sim.add_argument("--kernel", required=True, help="kernel JSON file")
    sim.add_argument("--steps", type=int, default=10_000)
    sim.add_argument("--x0", type=float, default=1.0)
    sim.add_argument("--fast", action="store_true", help="use the blocked-convolution path")
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(run=_cmd_simulate)

    ro = sub.add_parser("roots", help="roots of the degree-n reversed polynomial")
    ro.add_argument("--kernel", required=True)
    ro.add_argument("--n", type=int, required=True)
    ro.add_argument("--out", default=None)
    ro.set_defaults(run=_cmd_roots)

    ce = sub.add_parser("certify", help="run the certificate pipeline")
    ce.add_argument("--kernel", required=True)
    ce.add_argument("--max-degree", type=int, default=32)
    ce.add_argument("--steps", type=int, default=10_000)
    ce.add_argument("--grid-points", type=int, default=4096)
    ce.add_argument("--out", default=None)
    ce.set_defaults(run=_cmd_certify)

    rp = sub.add_parser("reproduce-paper", help="rerun the built-in reference kernels")
    rp.add_argument("--steps", type=int, default=10_000)
    rp.add_argument("--grid-points", type=int, default=4096)
    rp.add_argument("--out", default=None, help="write the full-precision JSON here")
    rp.set_defaults(run=_cmd_reproduce)
    return p


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _verdict_line(report: Report) -> str:
    return f"{report.final_verdict} ({report.final_criterion}, {report.final_rigor})"


def _cmd_simulate(args) -> int:
    kernel = load_kernel(args.kernel)
    runner = solve_fast if args.fast else solve
    traj = runner(kernel, args.steps, args.x0)
    if args.format == "csv":
        _emit(trajectory_to_csv(traj), args.out)
    else:
        payload = {**vars(traj), "values": traj.values.tolist()}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_roots(args) -> int:
    kernel = load_kernel(args.kernel)
    rs = pn_roots(kernel, args.n)
    payload = {
        "n": rs.degree,
        "roots": [{"re": z.real, "im": z.imag} for z in rs.roots],
        "r_n": rs.r_n,
        "residual_bound": rs.residual_bound,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_certify(args) -> int:
    kernel = load_kernel(args.kernel)
    report = certify(kernel, args.max_degree, args.steps, args.grid_points)
    print(_verdict_line(report))
    _emit(json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_reproduce(args) -> int:
    failures: list[str] = []
    table_kernel = load_fixture("rouche_table")
    rows = []
    lines = ["n, r_n, L_n, (1-r_n)^n"]
    for n in range(1, 7):
        r_n = pn_roots(table_kernel, n).r_n
        row = {"n": n, "r_n": r_n, "L_n": None, "threshold": None}
        ln = th = "-"
        if r_n < 1.0:
            row["L_n"] = tail_abs_sum(table_kernel, n).hi
            row["threshold"] = (1.0 - r_n) ** n
            ln, th = f"{row['L_n']:.5f}", f"{row['threshold']:.5f}"
        rows.append(row)
        lines.append(f"{n}, {r_n:.3f}, {ln}, {th}")
        if n in _TABLE_R:
            if abs(r_n - _TABLE_R[n]) > _R_TOL:
                failures.append(f"r_{n} = {r_n:.6f} deviates from {_TABLE_R[n]}")
            if row["L_n"] is None or abs(row["L_n"] - _TABLE_L[n]) > _L_TOL:
                failures.append(f"L_{n} deviates from {_TABLE_L[n]}")
    print("\n".join(lines))
    print()

    verdicts: dict[str, dict] = {}
    for name in fixture_names():
        kernel = load_fixture(name)
        report = certify(kernel, 32, args.steps, args.grid_points)
        verdicts[name] = report_to_dict(report)
        print(f"{name}: {_verdict_line(report)}")
        expected = _EXPECTED_FINALS[name]
        got = (report.final_verdict, report.final_criterion, report.final_rigor)
        if got != expected:
            failures.append(f"{name}: expected {expected}, got {got}")
        if name == "rouche_table":
            fired = [a for a in report.attempts if a["criterion"] == "RoucheStable" and a["verdict"] != "not_applicable"]
            if len(fired) != 1 or fired[0].get("n") != 6:
                failures.append("rouche_table: stability certificate did not fire exactly at n = 6")

    if not args.out:
        print()
    _emit(json.dumps({"table": rows, "verdicts": verdicts}, indent=2, sort_keys=True) + "\n", args.out)

    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KernelFormatError as e:
        print(f"kernel error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"argument error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return 2
    except NonConvergence as e:
        print(f"root finding failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
