"""Benchmark of the volterra-stability decider.

    python3 perfbench/run.py --workload {paper_fixtures,kernel_sweep,trajectories}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Passes run one after another, each in a
fresh process (``worker.py``), until the next pass would end after
``--seconds``; at least three passes run unless that would take the run
past 150 s.  A fresh process per pass
means no operation is ever timed on an input its process has seen before, so
a cache that outlives one call cannot pass for a speed-up.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
pass twice, untraced and then traced on the same inputs, and reports the
per-layer metrics of the traced ones plus ``trace.overhead_s``; spans go to
``.perfbench_out/spans/``.  The
human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record, with sample counts, regime shares and the environment, is written
to ``.perfbench_out/``.  README.md maps each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPANS = OUT / "spans"

WORKLOADS = ("paper_fixtures", "kernel_sweep", "trajectories")
# operations per pass: reproduce-paper is one, a sweep block 20 kernels,
# a trajectories pass 13 cases
OPS_PER_PASS = {"paper_fixtures": 1, "kernel_sweep": 20, "trajectories": 13}
MIN_PASSES = 3
# start no pass that would end after this, so a run stays inside 180 s
RUN_LIMIT_S = 150
MIN_SETUPS = 5
PASS_TIMEOUT_S = 140
# single-threaded BLAS, capped at nproc: one caller, no pool contention noise
BLAS_THREADS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run_child(args, pass_index: int, traced: bool, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--pass-index", str(pass_index),
        "--trace", "1" if traced else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], capture_output=True, text=True,
                              env=_child_env(), timeout=PASS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"crashed": f"no result within {PASS_TIMEOUT_S} s", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", "traced": traced}
    out = json.loads(lines[-1])
    out["traced"] = traced
    return out


def _run_unit(args, index: int) -> tuple[float, list[dict]]:
    t0 = time.monotonic()
    unit = [_run_child(args, index, traced) for traced in ((False, True) if args.trace else (False,))]
    return time.monotonic() - t0, unit


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "volterra_stability" / "__init__.py").is_file():
        print(f"no src/volterra_stability under {ROOT}: run from a checkout of the repository", file=sys.stderr)
        return 2
    SPANS.mkdir(parents=True, exist_ok=True)

    # a unit is one pass, or with --trace 1 an untraced and a traced pass
    # on the same inputs, so that trace.overhead_s compares like with like
    min_units = 2 if args.trace else MIN_PASSES
    start = time.monotonic()
    units = [_run_unit(args, 0)]
    while True:
        ends_at = time.monotonic() - start + statistics.median(t for t, _ in units)
        if ends_at > RUN_LIMIT_S or (len(units) >= min_units and ends_at > args.seconds):
            break
        units.append(_run_unit(args, len(units)))
    passes = [r for _, unit in units for r in unit if "crashed" not in r]
    crashes = [r for _, unit in units for r in unit if "crashed" in r]
    if not passes:
        for r in crashes:
            print(f"pass crashed: {r['crashed']}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in passes if not r["traced"]]
    index = len(units)
    while not args.trace and len(setups) < MIN_SETUPS:
        r = _run_child(args, index, False, setup_only=True)
        index += 1
        if "crashed" in r:
            print(f"setup probe crashed: {r['crashed']}", file=sys.stderr)
            return 1
        setups.append(r["setup_s"])

    # outcomes, with reproduce-paper output required to be byte-identical
    ok = sum(r["outcomes"]["ok"] for r in passes)
    raised = sum(r["outcomes"]["raised"] for r in passes) + OPS_PER_PASS[args.workload] * len(crashes)
    wrong = sum(r["outcomes"]["wrong"] for r in passes)
    notes = [n for r in passes for n in r["notes"]] + [r["crashed"] for r in crashes]
    digests = [r["output_sha256"] for r in passes if r["output_sha256"]]
    if len(set(digests)) > 1:
        extra = len(digests) - digests.count(digests[0])
        ok -= extra
        wrong += extra
        notes.append("reproduce-paper output differs between passes")
    attempted = ok + raised + wrong
    failed = raised + wrong

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    # latency percentiles are taken per pass, then the median over passes:
    # the operations of one pass share one period of the shared machine's
    # speed, while a pool over the run would mix fast and slow periods
    deciles = [statistics.quantiles(r["latencies"], n=10) for r in untraced if len(r["latencies"]) >= 2]
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in untraced],
        "latency_p50_s": [d[4] for d in deciles],
        "latency_p90_s": [d[8] for d in deciles],
        "steps_per_s": [r["steps"] / r["wall_s"] for r in untraced if r["wall_s"] > 0],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    counts = {name: len(v) for name, v in samples.items()}
    operations = sum(len(r["latencies"]) for r in untraced)

    if args.trace:
        pairs = [unit for _, unit in units if len(unit) == 2 and not any("crashed" in r for r in unit)]
        if not pairs:
            print("no traced pass completed next to its untraced twin", file=sys.stderr)
            return 1
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        layers["trace.overhead_s"] = statistics.median(b["wall_s"] - a["wall_s"] for a, b in pairs)
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        **passes[0]["versions"],
        "nproc": os.cpu_count(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
    }
    regime_ops: dict[str, int] = {}
    for r in passes:
        for regime, n in r["regimes"].items():
            regime_ops[regime] = regime_ops.get(regime, 0) + n
    regimes = {k: n / sum(regime_ops.values()) for k, n in sorted(regime_ops.items())}
    correct = wrong == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "traced_passes": len(traced), "crashed_passes": len(crashes),
        "attempted": attempted, "failed": failed, "raised": raised, "wrong": wrong,
        "fail_ratio": failed / attempted if attempted else 0.0,
        "metrics": metrics, "sample_counts": counts, "latency_operations": operations,
        "regime_shares": regimes, "environment": env, "notes": notes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} (traced {len(traced)})")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    if regimes:
        print("regime shares " + " ".join(f"{k}={v:.2f}" for k, v in regimes.items()))
    for name, m in metrics.items():
        n = counts.get(name)
        note = f"  (n={n} passes, {operations} operations)" if name.startswith("latency") else f"  (n={n})"
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}" + (note if n else ""))
    print(f"  {'fail_ratio':48s} {record['fail_ratio']:.6g} ratio  ({failed} of {attempted} operations)")
    for n in sorted(set(notes)):
        print(f"  note: {n}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
