"""One benchmark pass in a fresh process.

Started by ``run.py``; prints one JSON object as its last line of output.
The process imports the library from ``src/`` of the checkout it sits in,
builds the pass's inputs, and reports ``setup_s`` from the moment the parent
started it (``--spawned-at``, a ``time.monotonic()`` reading, which is
system-wide on Linux) to the moment it is ready to time.  With
``--setup-only`` it stops there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import volterra_stability

    if Path(volterra_stability.__file__).resolve().parent != ROOT / "src" / "volterra_stability":
        print(f"imported {volterra_stability.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed, args.pass_index)
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(workloads.fixture_kernels())
        recorder.install()
    setup_s = time.monotonic() - args.spawned_at
    out = {
        "setup_s": setup_s,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if not args.setup_only:
        res = workloads.run_pass(args.workload, inputs, recorder)
        out.update(dataclasses.asdict(res))
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            from run import SPANS  # here, so that setup_s does not include it

            out["layers"] = recorder.layer_metrics()
            name = f"{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl.gz"
            recorder.write(SPANS / name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
