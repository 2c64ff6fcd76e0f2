"""Inputs, passes and correctness checks of the three benchmark workloads.

Every workload is single-process and closed-loop with one caller: the next
operation starts when the previous one has returned.  A pass is the unit that
runs in a fresh process (see ``worker.py``); ``build_inputs`` makes a pass's
inputs from the workload seed and the pass index, so two passes never share
an input and the same (seed, pass) always gives the same input.

Operation outcomes are ``ok``, ``raised`` (an exception or a non-zero exit)
or ``wrong`` (the operation returned but failed its correctness check).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import volterra_stability as vs

# import_module, because the package rebinds the name ``certify`` to the function
certify_mod = importlib.import_module("volterra_stability.certify")
cli_mod = importlib.import_module("volterra_stability.cli")
simulate_mod = importlib.import_module("volterra_stability.simulate")

# --------------------------------------------------------------------------
# kernel_sweep: one pass is a block of 20 distinct kernels whose regime
# counts are fixed, so every pass does the same mix of work:
#   early exit (AbsoluteSum 4, EFP 1)                          5  = 25%
#   |q| < 1 tails with polynomial factors                      9  = 45%
#     (real-axis root on (0, 1) 2 and on (-1, 0) 2, Rouche-stable 2,
#      Rouche-unstable 1, unit mass at z = 1 2)
#   q = -1 alternating tails                                   5  = 25%
#     (real-axis root 3, unit alternating mass at z = -1 2)
#   edge of the envelope (overflows today)                     1  =  5%
# The "unit mass" constructions put a characteristic root within 1e-9 of
# the unit circle, so no certificate decides them and certify() runs the
# whole pipeline, the marginal heuristic and the trajectory fallback.  They
# are 4 of the 19 kernels that return, about 21%, so latency_p90_s falls
# inside that class rather than on the edge between two classes.
SWEEP_BLOCK = (
    ("early.absolute_sum", 4),
    ("early.efp", 1),
    ("poly.real_root_pos", 2),
    ("poly.real_root_neg", 2),
    ("poly.rouche_stable", 2),
    ("poly.rouche_unstable", 1),
    ("poly.unit_mass", 2),
    ("alternating.real_root", 3),
    ("alternating.unit_mass_s2", 1),
    ("alternating.unit_mass_s3", 1),
    ("edge.overflow", 1),
)

# Sum_{n>=1} 1/(n^alpha (n+1)^beta) in closed form, for alpha + beta >= 3
_ALT_MASS = {
    (2.0, 1.0): math.pi**2 / 6.0 - 1.0,
    (3.0, 0.0): 1.2020569031595942,
    (3.0, 1.0): 1.2020569031595942 - math.pi**2 / 6.0 + 1.0,
    (4.0, 0.0): math.pi**4 / 90.0,
}


def _tail_mass(npre, q, alpha, beta) -> float:
    """Float estimate of sum_{n>npre} |q|^n / (n^alpha (n+1)^beta), |q| < 1."""
    n = np.arange(npre + 1, npre + 4097, dtype=float)
    return float(np.sum(abs(q) ** n / (n**alpha * (n + 1.0) ** beta)))


def _scaled(prefix, c, q, alpha, beta, target) -> vs.KernelSpec:
    """The kernel (prefix, c q^n / ...) rescaled to absolute mass ``target``."""
    s = target / (float(np.sum(np.abs(prefix))) + abs(c) * _tail_mass(len(prefix), q, alpha, beta))
    return vs.KernelSpec(tuple(float(v) * s for v in prefix), vs.TailModel.parametric(c * s, q, alpha, beta))


def _early_absolute_sum(rng) -> vs.KernelSpec:
    npre = int(rng.integers(0, 6))
    c = float(rng.normal()) or 0.3
    return _scaled(
        rng.normal(size=npre), c, float(rng.uniform(-0.9, 0.9)),
        float(rng.integers(0, 3)), float(rng.integers(0, 2)), float(rng.uniform(0.2, 0.9)),
    )


def _early_efp(rng) -> vs.KernelSpec:
    # dyadic prefix and c make prefix + c/(N+1) equal 1 exactly
    npre = int(rng.integers(1, 4))
    prefix = [int(k) / 1024.0 for k in rng.integers(1, 200, size=npre)]
    c = (1.0 - sum(prefix)) * (npre + 1)
    return vs.KernelSpec(tuple(prefix), vs.TailModel.parametric(c, 1.0, 1.0, 1.0))


def _poly_real_root(rng, side: float) -> vs.KernelSpec:
    # a_n * side^n >= 0 with absolute mass slightly above 1: a(side * t)
    # crosses 1 late in t in (0, 1), after the scan of the other half-axis
    # when side = -1
    npre = int(rng.integers(0, 5))
    prefix = rng.uniform(0.0, 1.0, size=npre) * side ** np.arange(1, npre + 1)
    return _scaled(
        prefix, 1.0, side * float(rng.uniform(0.3, 0.9)),
        float(rng.integers(1, 3)), float(rng.integers(0, 2)), float(rng.uniform(1.02, 1.1)),
    )


def _poly_rouche_stable(rng) -> vs.KernelSpec:
    # prefix = reversed polynomial with real roots in [0.35, 0.6] plus a tail
    # far below (1 - r)^N: stable, with absolute mass above 1
    npre = int(rng.integers(3, 6))
    rho = rng.uniform(0.35, 0.6, size=npre)
    coeffs = np.poly(rho)  # z^N + c_1 z^(N-1) + ... ; a_k = -c_k
    prefix = -coeffs[1:]
    q = float(rng.uniform(-0.9, 0.9))
    alpha, beta = float(rng.integers(1, 3)), float(rng.integers(0, 2))
    target = float(rng.uniform(0.05, 0.2)) * (1.0 - float(np.max(rho))) ** npre
    c = float(rng.choice([-1.0, 1.0])) * target / _tail_mass(npre, q, alpha, beta)
    return vs.KernelSpec(tuple(float(v) for v in prefix), vs.TailModel.parametric(c, q, alpha, beta))


def _poly_rouche_unstable(rng) -> vs.KernelSpec:
    # prefix (2 r cos t, -r^2): p_2 has the complex pair r e^(+-it), r > 1,
    # and b(t) has no real zero.  |a_1| > 1 puts p_1's root outside the
    # disk, so e_bounds and maximize_delta both run, and fail, at n = 1;
    # a tail below (r - 1)^2 then lets E1 decide at n = 2
    r = float(rng.uniform(1.3, 1.8))
    cos_t = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.45, 0.7))
    prefix = [2.0 * r * cos_t, -r * r]
    q = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.3, 0.9))
    alpha, beta = float(rng.integers(1, 3)), float(rng.integers(0, 2))
    target = float(rng.uniform(0.05, 0.2)) * (r - 1.0) ** 2
    c = target / _tail_mass(2, q, alpha, beta)
    return vs.KernelSpec(tuple(prefix), vs.TailModel.parametric(c, q, alpha, beta))


def _poly_unit_mass(rng) -> vs.KernelSpec:
    # nonnegative, sum a_n = u = 1 + (a draw below 1e-9): a characteristic
    # root within 1e-9 of z = 1, which no float test tells from one on the
    # circle; u keeps the kernels distinct while they all take one path
    q = float(rng.uniform(0.35, 0.65))
    alpha, beta = ((1.0, 0.0), (0.0, 1.0))[int(rng.integers(0, 2))]
    full = -math.log1p(-q) if alpha == 1.0 else (-math.log1p(-q) - q) / q
    u = 1.0 + float(rng.uniform(0.0, 1e-9))
    return vs.KernelSpec((), vs.TailModel.parametric(u / full, q, alpha, beta))


def _alternating_real_root(rng) -> vs.KernelSpec:
    # c > 0, q = -1: a(-t) rises to c * S > 1, a real root inside (-1, 0)
    alpha, beta = list(_ALT_MASS)[int(rng.integers(0, len(_ALT_MASS)))]
    c = float(rng.uniform(1.3, 2.0)) / _ALT_MASS[(alpha, beta)]
    return vs.KernelSpec((), vs.TailModel.parametric(c, -1.0, alpha, beta))


def _alternating_unit_mass(rng, pairs) -> vs.KernelSpec:
    # a_n (-1)^n >= 0 summing to u as above: a root next to z = -1, like
    # alternating_cubic
    alpha, beta = pairs[int(rng.integers(0, len(pairs)))]
    u = 1.0 + float(rng.uniform(0.0, 1e-9))
    return vs.KernelSpec((), vs.TailModel.parametric(u / _ALT_MASS[(alpha, beta)], -1.0, alpha, beta))


def _edge_overflow(rng, which: int) -> vs.KernelSpec:
    if which % 2 == 0:
        # q = 1, alpha just above 1: the integral-test cutoff overflows
        alpha = 1.0 + float(rng.uniform(1e-8, 1e-7))
        return vs.KernelSpec((), vs.TailModel.parametric(float(rng.uniform(0.5, 2.0)), 1.0, alpha, 0.0))
    # a prefix near the top of the float range: its fsum overflows
    return vs.KernelSpec(tuple(float(v) * 1e308 for v in rng.uniform(1.0, 1.7, size=2)), vs.TailModel.zero())


_MAKERS = {
    "early.absolute_sum": _early_absolute_sum,
    "early.efp": _early_efp,
    "poly.real_root_pos": lambda rng: _poly_real_root(rng, 1.0),
    "poly.real_root_neg": lambda rng: _poly_real_root(rng, -1.0),
    "poly.rouche_stable": _poly_rouche_stable,
    "poly.rouche_unstable": _poly_rouche_unstable,
    "poly.unit_mass": _poly_unit_mass,
    "alternating.real_root": _alternating_real_root,
    # alpha + beta - 1 = 2 makes the first absolute moment a long sum, = 3 a
    # short one: one of each per block keeps the blocks' cost alike
    "alternating.unit_mass_s2": lambda rng: _alternating_unit_mass(rng, ((2.0, 1.0), (3.0, 0.0))),
    "alternating.unit_mass_s3": lambda rng: _alternating_unit_mass(rng, ((3.0, 1.0), (4.0, 0.0))),
}


def sweep_block(seed: int, pass_index: int) -> list[tuple[str, vs.KernelSpec]]:
    """The 20 (class, kernel) pairs of one kernel_sweep pass, in run order."""
    rng = np.random.default_rng([seed, pass_index, 1])
    out = []
    for cls, count in SWEEP_BLOCK:
        for _ in range(count):
            if cls == "edge.overflow":
                out.append((cls, _edge_overflow(rng, seed + pass_index)))
            else:
                out.append((cls, _MAKERS[cls](rng)))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


# --------------------------------------------------------------------------
# trajectories: the fixture cases of ROADMAP aim 1 plus two seeded bounded
# geometric-tail kernels as in acceptance test A9.  Each case is one
# operation: the solver call followed by classify().  Only simulate and
# kernel.terms do work here.

TRAJECTORY_CASES = (
    ("renewal", "solve", 10_000),
    ("renewal", "solve_fast", 10_000),
    ("renewal", "solve", 2**14),
    ("renewal", "solve_fast", 2**14),
    ("renewal", "solve_fast", 2**17),
    ("alternating_cubic", "solve_fast", 2**17),
    ("geometric_half", "solve_fast", 2**17),
    ("geometric_null", "solve", 2**14),
    ("geometric_null", "solve_fast", 2**14),
    ("bounded_0", "solve", 2**14),
    ("bounded_0", "solve_fast", 2**14),
    ("bounded_1", "solve", 2**14),
    ("bounded_1", "solve_fast", 2**14),
)
# classify() kinds of the fixture cases, pinned at every step count above
EXPECTED_KINDS = {
    "renewal": "bounded_non_decaying",
    "alternating_cubic": "bounded_non_decaying",
    "geometric_half": "bounded_non_decaying",
    "geometric_null": "decaying",
    # absolute mass below 1 forces geometric decay
    "bounded_0": "decaying",
    "bounded_1": "decaying",
}
# acceptance test A9's agreement tolerance between solve and solve_fast
AGREE_TOL = 1e-9


def _bounded_kernel(rng) -> vs.KernelSpec:
    npre = int(rng.integers(0, 6))
    c = float(rng.normal()) or 0.3
    return _scaled(
        rng.normal(size=npre), c, float(rng.uniform(-0.9, 0.9)),
        float(rng.integers(0, 3)), float(rng.integers(0, 2)), float(rng.uniform(0.1, 0.95)),
    )


def build_inputs(workload: str, seed: int, pass_index: int):
    """A pass's inputs; built before the timed region starts."""
    if workload == "paper_fixtures":
        return ["reproduce-paper"]
    if workload == "kernel_sweep":
        return sweep_block(seed, pass_index)
    if workload == "trajectories":
        rng = np.random.default_rng([seed, pass_index, 2])
        kernels = {name: vs.load_fixture(name) for name in vs.fixture_names()}
        kernels["bounded_0"] = _bounded_kernel(rng)
        kernels["bounded_1"] = _bounded_kernel(rng)
        return [(name, solver, steps, kernels[name]) for name, solver, steps in TRAJECTORY_CASES]
    raise ValueError(f"unknown workload {workload!r}")


def fixture_kernels() -> dict:
    """Kernel -> fixture name, so a traced run can label certify() calls."""
    return {vs.load_fixture(name): name for name in vs.fixture_names()}


# --------------------------------------------------------------------------
# passes.  Each returns the timed wall, the per-operation latencies of the
# operations that returned, the outcome counts, and the recursion steps
# computed.  Correctness checks run outside the timed region.


@dataclass
class PassResult:
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    outcomes: dict[str, int] = field(default_factory=lambda: {"ok": 0, "raised": 0, "wrong": 0})
    steps: int = 0
    notes: list[str] = field(default_factory=list)
    output_sha256: str | None = None
    regimes: dict[str, int] = field(default_factory=dict)


def run_pass(workload: str, inputs, recorder=None) -> PassResult:
    runner = {"paper_fixtures": _pass_paper, "kernel_sweep": _pass_sweep, "trajectories": _pass_trajectories}
    return runner[workload](inputs, recorder)


def _pass_paper(argv, recorder) -> PassResult:
    """One in-process ``volstab reproduce-paper``.  Latency samples are the
    nine certify() calls inside it, timed at the cli -> certify boundary."""
    res = PassResult()
    inner = cli_mod.certify

    def timed_certify(*args, **kwargs):
        t0 = time.perf_counter()
        report = inner(*args, **kwargs)
        res.latencies.append(time.perf_counter() - t0)
        return report

    cli_mod.certify = timed_certify
    buf = io.StringIO()
    if recorder is not None:
        recorder.op = 0
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli_mod.main(list(argv))
        res.wall_s = time.perf_counter() - t0
    except Exception as e:  # counted as a failed operation
        res.wall_s = time.perf_counter() - t0
        res.outcomes["raised"] += 1
        res.notes.append(f"reproduce-paper raised {type(e).__name__}: {e}")
        return res
    finally:
        cli_mod.certify = inner
    text = buf.getvalue()
    res.output_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if rc != 0:
        res.outcomes["wrong"] += 1
        res.notes.append(f"reproduce-paper exited {rc}")
        return res
    payload = json.loads(text[text.index("\n{") + 1 :])
    for report in payload["verdicts"].values():
        if "empirical" in report:
            res.steps += report["empirical"]["trajectory"]["length"] - 1
    res.outcomes["ok"] += 1
    return res


def _pass_sweep(block, recorder) -> PassResult:
    """Each operation: certify(k) with default arguments, report_to_dict, json.dumps."""
    res = PassResult()
    for i, (cls, kernel) in enumerate(block):
        regime = cls.split(".")[0]
        res.regimes[regime] = res.regimes.get(regime, 0) + 1
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            report = certify_mod.certify(kernel)
            text = json.dumps(certify_mod.report_to_dict(report), sort_keys=True)
        except Exception as e:  # counted as a failed operation, the pass goes on
            res.wall_s += time.perf_counter() - t0
            res.outcomes["raised"] += 1
            res.notes.append(f"{cls}: {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        res.wall_s += dt
        res.latencies.append(dt)
        data = json.loads(text)
        # the check's solve_fast is not the operation's work: trace none of it
        with recorder.paused() if recorder is not None else contextlib.nullcontext():
            problem = check_report(kernel, data)
        if problem:
            res.outcomes["wrong"] += 1
            res.notes.append(f"{cls}: {problem}")
            continue
        res.outcomes["ok"] += 1
        if "empirical" in data:
            res.steps += data["empirical"]["trajectory"]["length"] - 1
    return res


def _deciding_inequality_holds(criterion: str, w: dict) -> bool:
    if criterion == "AbsoluteSum":
        return w["sum_hi"] < 1.0
    if criterion == "EFP":
        return w["sum_lo"] <= 1.0 <= w["sum_hi"] and w["first_moment"] == "divergent"
    if criterion == "RealAxisRoot":
        return w["b_hi"] < 0.0
    if criterion == "RoucheStable":
        return w["tail_hi"] < w["threshold"]
    if criterion == "RoucheUnstable":
        bound = w["delta"] if w["bound"] == "delta" else w["bound_value"]
        return w["tail_hi"] < bound
    return False


_STABLE = ("asymptotically_stable", "stable")


def check_report(kernel: vs.KernelSpec, data: dict) -> str | None:
    """None when the report passes, else what is wrong with it.

    A rigorous witness must satisfy its deciding inequality, and a rigorous
    verdict must not contradict a 10^4-step solve_fast trajectory: stable
    against ``unbounded``, unstable against ``decaying``.
    """
    final = data["final"]
    verdict, rigor = final["verdict"], final["rigor"]
    if verdict not in _STABLE + ("unstable", "inconclusive"):
        return f"unknown verdict {verdict!r}"
    if rigor != "rigorous":
        return None
    if not _deciding_inequality_holds(final["criterion"], final["witness"]):
        return f"{final['criterion']} witness fails its inequality: {final['witness']}"
    kind = simulate_mod.classify(simulate_mod.solve_fast(kernel, 10_000)).kind
    if verdict in _STABLE and kind == "unbounded":
        return f"rigorous {verdict} but the trajectory is unbounded"
    if verdict == "unstable" and kind == "decaying":
        return "rigorous unstable but the trajectory decays"
    return None


def _pass_trajectories(cases, recorder) -> PassResult:
    res = PassResult()
    done = {}
    for i, (name, solver, steps, kernel) in enumerate(cases):
        if recorder is not None:
            recorder.op = i
        fn = getattr(simulate_mod, solver)
        t0 = time.perf_counter()
        try:
            traj = fn(kernel, steps)
            kind = simulate_mod.classify(traj).kind
        except Exception as e:  # counted as a failed operation, the pass goes on
            res.wall_s += time.perf_counter() - t0
            res.outcomes["raised"] += 1
            res.notes.append(f"{solver}({name}, {steps}): {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        res.wall_s += dt
        res.latencies.append(dt)
        res.steps += len(traj.values) - 1
        problem = None
        if kind != EXPECTED_KINDS[name]:
            problem = f"classify gave {kind}, expected {EXPECTED_KINDS[name]}"
        other = done.get((name, steps))
        if problem is None and other is not None:
            problem = _disagreement(name, other.values, traj.values)
        done[(name, steps)] = traj
        if problem:
            res.outcomes["wrong"] += 1
            res.notes.append(f"{solver}({name}, {steps}): {problem}")
        else:
            res.outcomes["ok"] += 1
    return res


def _disagreement(name: str, a: np.ndarray, b: np.ndarray) -> str | None:
    """A9's rule: relative to max(1, |x|) on fixtures, absolute on the bounded kernels."""
    if len(a) != len(b):
        return f"solve and solve_fast lengths differ: {len(a)} != {len(b)}"
    diff = np.abs(a - b)
    if not name.startswith("bounded_"):
        diff = diff / np.maximum(1.0, np.abs(a))
    worst = float(np.max(diff))
    if not worst <= AGREE_TOL:
        return f"solve and solve_fast differ by {worst:.3e} > {AGREE_TOL:.0e}"
    return None
