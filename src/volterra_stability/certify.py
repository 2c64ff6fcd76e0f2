"""Ordered stability-certificate pipeline with rigor-tagged verdicts.

Each test either fires with a certificate whose witness carries the numbers
that prove it, or reports NotApplicable; it never guesses.  A certificate is
Rigorous only when the deciding comparison runs on certified enclosures
strictly on one side of the threshold.  The single Heuristic test (isolated
order-one zeros on the unit circle) is labelled as such everywhere.

For convergent alternating weightings, instability is certified through a
sign-change scan of b(t) = 1 - a(t) on the real axis rather than a literal
closed-form threshold on the alternating sum: the scan is what an
intermediate-value argument actually supports, and it needs no assumption on
the inequality's direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfun import (
    NonConvergence,
    RootSet,
    _circle_modulus,
    e_bounds,
    maximize_delta,
    pn_roots,
)
from .kernel import (
    _MAX_DEGREE,
    _MAX_GRID_POINTS,
    _MAX_STEPS,
    KernelSpec,
    SumEnclosure,
    _require,
    _value_upper_bound,
    kernel_id,
    power_series_value,
    radius_of_convergence,
    series_sum,
    support_gcd,
    tail_abs_sum,
)
from .simulate import (
    BOUNDED_NON_DECAYING,
    DECAYING,
    INCONCLUSIVE,
    UNBOUNDED,
    EmpiricalVerdict,
    Trajectory,
    classify,
    solve_fast,
)

__all__ = [
    "Certificate",
    "Report",
    "ASYMPTOTICALLY_STABLE",
    "STABLE",
    "UNSTABLE",
    "NOT_APPLICABLE",
    "RIGOROUS",
    "HEURISTIC",
    "test_absolute_sum",
    "test_efp",
    "test_real_axis_root",
    "test_rouche_stable",
    "test_rouche_unstable",
    "test_marginal_stable",
    "certify",
    "report_to_dict",
]

ASYMPTOTICALLY_STABLE = "asymptotically_stable"
STABLE = "stable"
UNSTABLE = "unstable"
NOT_APPLICABLE = "not_applicable"

RIGOROUS = "rigorous"
HEURISTIC = "heuristic"

# EFP unit-sum acceptance needs the enclosure at least this tight
_EFP_SUM_WIDTH = 1e-9
# target widths of the enclosures of Sum |a_n| and of a(t) on the real axis
_ABS_SUM_PRECISION = 1e-12
_AXIS_PRECISION = 1e-10
# p_n root moduli may poke outside the unit circle by at most this much
# before the marginal heuristic gives up (zeros of s_n inside 1 - 1e-6)
_MARGINAL_ROOT_SLACK = 1.0 / (1.0 - 1e-6)
_CIRCLE_NEAR_ZERO = 0.05


@dataclass(frozen=True)
class Certificate:
    verdict: str  # asymptotically_stable | stable | unstable | not_applicable
    criterion: str  # AbsoluteSum | EFP | RealAxisRoot | RoucheStable | RoucheUnstable | MarginalStable
    rigor: str  # rigorous | heuristic
    witness: dict = field(default_factory=dict)

    @property
    def fired(self) -> bool:
        return self.verdict != NOT_APPLICABLE


def _na(criterion: str, rigor: str = RIGOROUS, **witness) -> Certificate:
    return Certificate(NOT_APPLICABLE, criterion, rigor, witness)


def _sum_witness(enc: SumEnclosure) -> dict:
    """The status of a sum that decided nothing, with its bounds when finite."""
    return {"status": enc.status, **({"sum_lo": enc.lo, "sum_hi": enc.hi} if enc.is_finite else {})}


# ---------------------------------------------------------------------------
# individual criteria


def test_absolute_sum(kernel: KernelSpec) -> Certificate:
    """Sum |a_n| < 1 certified by enclosure implies asymptotic stability."""
    enc = series_sum(kernel, "absolute", _ABS_SUM_PRECISION)
    if enc.is_finite and enc.hi < 1.0:
        return Certificate(
            ASYMPTOTICALLY_STABLE,
            "AbsoluteSum",
            RIGOROUS,
            {"sum_lo": enc.lo, "sum_hi": enc.hi},
        )
    return _na("AbsoluteSum", **_sum_witness(enc))


def test_efp(kernel: KernelSpec) -> Certificate:
    """Renewal-theorem certificate: nonnegative aperiodic unit-mass kernel
    with infinite first moment is asymptotically stable."""
    t = kernel.tail
    if any(v < 0.0 for v in kernel.prefix) or not (t.q == 0.0 or (t.c > 0.0 and t.q > 0.0)):
        return _na("EFP", reason="negative terms")
    g = support_gcd(kernel)
    if g != 1:
        return _na("EFP", reason="support gcd", gcd=g)
    total = series_sum(kernel, "plain", _EFP_SUM_WIDTH)
    if not (total.is_finite and total.width <= _EFP_SUM_WIDTH and total.contains(1.0)):
        return _na("EFP", reason="sum not certified equal to 1", **_sum_witness(total))
    moment = series_sum(kernel, "first_moment", _EFP_SUM_WIDTH)
    if not moment.is_divergent:
        return _na("EFP", reason="first moment not divergent", status=moment.status)
    return Certificate(
        ASYMPTOTICALLY_STABLE,
        "EFP",
        RIGOROUS,
        {"gcd": g, "sum_lo": total.lo, "sum_hi": total.hi, "first_moment": "divergent"},
    )


def test_real_axis_root(kernel: KernelSpec, grid_points: int = 4096) -> Certificate:
    """Certified sign change of b(t) = 1 - a(t) on the real segment inside
    both the unit disk and the convergence disk proves a real characteristic
    root there, hence instability.

    The grid is scanned outward from 0 on each half-axis.  Certified
    enclosures of a(t) are computed only where a float upper bound on a(t)
    exceeds 1, plus the walk back to the last point with certified b > 0,
    which anchors the bracket; the verdict and witness are those of a scan
    that encloses a(t) at every grid point.
    """
    _require("grid_points", grid_points, 2, _MAX_GRID_POINTS)
    span = min(1.0, radius_of_convergence(kernel))
    grid = np.linspace(0.0, span, grid_points // 2 + 2)[1:-1]
    bound = _value_upper_bound(kernel, grid)
    for points, upper in zip((grid, -grid), bound):
        # b_hi < 0 needs a(t) >= enc.lo > 1, so only points with U > 1 can fire
        for j in np.flatnonzero(~(upper <= 1.0)):
            enc = power_series_value(kernel, float(points[j]), _AXIS_PRECISION)
            if not enc.is_finite or 1.0 - enc.lo >= 0.0:
                continue
            # anchor: the last point before t with certified b > 0, else b(0) = 1
            anchor = 0.0
            for i in range(j - 1, -1, -1):
                prev = power_series_value(kernel, float(points[i]), _AXIS_PRECISION)
                if prev.is_finite and 1.0 - prev.hi > 0.0:
                    anchor = float(points[i])
                    break
            t = float(points[j])
            return Certificate(
                UNSTABLE,
                "RealAxisRoot",
                RIGOROUS,
                {"root_bracket": sorted((anchor, t)), "b_hi": 1.0 - enc.lo, "t": t},
            )
    return _na("RealAxisRoot", reason="no certified sign change", span=span)


class _Analysis:
    """What the criteria of one ``certify`` call share, computed once: the
    roots of p_n per degree, or the NonConvergence raised."""

    def __init__(self, kernel: KernelSpec):
        self.kernel = kernel
        self._roots: dict[int, RootSet | NonConvergence] = {}

    def roots(self, n: int) -> RootSet | NonConvergence:
        if n not in self._roots:
            try:
                self._roots[n] = pn_roots(self.kernel, n)
            except NonConvergence as e:
                self._roots[n] = e
        return self._roots[n]


def test_rouche_stable(kernel: KernelSpec, n: int) -> Certificate:
    """Root-free truncation: r_n < 1 and L_n < (1 - r_n)^n force the full
    characteristic function to stay root-free on the closed unit disk."""
    _require("n", n, 1, _MAX_DEGREE)
    return _rouche_stable(_Analysis(kernel), n)


def _rouche_stable(analysis: _Analysis, n: int) -> Certificate:
    # R < 1: c != 0 and |q| > 1, so L_n diverges at every n and no roots are needed
    if radius_of_convergence(analysis.kernel) < 1.0:
        return _na("RoucheStable", tail_status="divergent", n=n)
    roots = analysis.roots(n)
    if isinstance(roots, NonConvergence):
        return _na("RoucheStable", reason=str(roots), n=n)
    r_up = roots.r_n + roots.margin()
    witness = {"n": n, "r_n": roots.r_n, "margin": roots.margin()}
    if r_up >= 1.0:
        return _na("RoucheStable", **witness)
    tail = tail_abs_sum(analysis.kernel, n)
    if not tail.is_finite:
        return _na("RoucheStable", tail_status=tail.status, **witness)
    threshold = (1.0 - r_up) ** n
    witness.update(tail_hi=tail.hi, threshold=threshold)
    if tail.hi < threshold:
        return Certificate(ASYMPTOTICALLY_STABLE, "RoucheStable", RIGOROUS, witness)
    return _na("RoucheStable", **witness)


def test_rouche_unstable(kernel: KernelSpec, n: int) -> Certificate:
    """Truncation with r_n > 1 plus a small tail pushes a root inside the
    disk: cheap E-bounds first, the maximized delta profile as backup."""
    _require("n", n, 1, _MAX_DEGREE)
    return _rouche_unstable(_Analysis(kernel), n)


def _rouche_unstable(analysis: _Analysis, n: int) -> Certificate:
    # R < 1: L_n diverges at every n, as in _rouche_stable
    if radius_of_convergence(analysis.kernel) < 1.0:
        return _na("RoucheUnstable", tail_status="divergent", n=n)
    roots = analysis.roots(n)
    if isinstance(roots, NonConvergence):
        return _na("RoucheUnstable", reason=str(roots), n=n)
    r_down = roots.r_n - roots.margin()
    witness = {"n": n, "r_n": roots.r_n, "margin": roots.margin()}
    if r_down <= 1.0:
        return _na("RoucheUnstable", **witness)
    tail = tail_abs_sum(analysis.kernel, n)
    if not tail.is_finite:
        return _na("RoucheUnstable", tail_status=tail.status, **witness)
    witness.update(tail_hi=tail.hi)
    eb = e_bounds(roots)
    if eb.kind != "not_applicable" and tail.hi < eb.value:
        witness.update(bound=eb.kind, bound_value=eb.value, rho=eb.rho)
        return Certificate(UNSTABLE, "RoucheUnstable", RIGOROUS, witness)
    dm = maximize_delta(roots)
    witness.update(rho0=dm.rho0, delta=dm.value)
    if tail.hi < dm.value:
        witness["bound"] = "delta"
        return Certificate(UNSTABLE, "RoucheUnstable", RIGOROUS, witness)
    return _na("RoucheUnstable", **witness)


def test_marginal_stable(kernel: KernelSpec, n: int = 200, grid_points: int = 4096) -> Certificate:
    """Heuristic: finite first absolute moment, no certified root inside the
    disk, and isolated near-zeros of |s_n| on the circle growing linearly in
    their grid neighborhoods (the order-one signature) suggest plain
    stability.  Never rigorous: zero order is not certified numerically."""
    _require("n", n, 16, _MAX_DEGREE)
    _require("grid_points", grid_points, 2, _MAX_GRID_POINTS)
    # certify runs the real-axis scan before it reaches _marginal_stable
    if test_real_axis_root(kernel, grid_points).fired:
        return _na("MarginalStable", HEURISTIC, reason="certified real root inside the disk")
    return _marginal_stable(_Analysis(kernel), n, grid_points)


def _marginal_stable(analysis: _Analysis, n: int, g: int) -> Certificate:
    moment = series_sum(analysis.kernel, "first_moment_abs", 1e-6)
    if not moment.is_finite:
        return _na("MarginalStable", HEURISTIC, reason="first absolute moment not finite", status=moment.status)
    theta, z, vals = _circle_modulus(analysis.kernel, n, g)
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    idx = np.nonzero((vals < _CIRCLE_NEAR_ZERO) & (vals <= left) & (vals <= right))[0]
    if idx.size == 0:
        return _na("MarginalStable", HEURISTIC, reason="no near-zero on the circle", circle_min=float(np.min(vals)))
    if idx.size > 1 and np.min(np.diff(idx, append=idx[0] + g)) < 8:
        return _na("MarginalStable", HEURISTIC, reason="circle zeros not isolated on the grid")
    zeros = []
    for i in idx:
        m0 = float(vals[i])
        m1 = 0.5 * (vals[(i - 1) % g] + vals[(i + 1) % g])
        m2 = 0.5 * (vals[(i - 2) % g] + vals[(i + 2) % g])
        if m1 <= 0.0 or not (m0 <= 0.6 * m1 and 1.4 <= m2 / m1 <= 2.6):
            return _na(
                "MarginalStable",
                HEURISTIC,
                reason="near-zero without locally linear growth",
                theta=float(theta[i]),
                profile=[m0, float(m1), float(m2)],
            )
        zeros.append({"theta": float(theta[i]), "re": float(z[i].real), "im": float(z[i].imag), "value": m0})
    # the roots of p_n last: they cost most, and the circle checks decline most kernels
    found = analysis.roots(n)
    if isinstance(found, NonConvergence):
        return _na("MarginalStable", HEURISTIC, reason=str(found))
    if found.r_n > _MARGINAL_ROOT_SLACK:
        return _na("MarginalStable", HEURISTIC, reason="truncation root inside the unit disk", r_n=found.r_n)
    return Certificate(STABLE, "MarginalStable", HEURISTIC, {"circle_zeros": zeros, "degree": n})


# ---------------------------------------------------------------------------
# pipeline


_EMPIRICAL_VERDICT_NAMES = {
    DECAYING: ASYMPTOTICALLY_STABLE,
    BOUNDED_NON_DECAYING: STABLE,
    UNBOUNDED: UNSTABLE,
    INCONCLUSIVE: "inconclusive",
}


@dataclass
class Report:
    """Deterministic record of every certificate attempt plus the outcome."""

    kernel_id: str
    attempts: list[dict]
    certificate: Certificate | None
    empirical: EmpiricalVerdict | None
    trajectory_summary: dict | None
    final_verdict: str
    final_criterion: str
    final_rigor: str
    final_witness: dict


def _summarize(traj: Trajectory) -> dict:
    vals = traj.values
    return {
        "length": int(len(vals)),
        "max_abs": float(np.max(np.abs(vals))),
        "last": float(vals[-1]),
        "truncated": bool(traj.truncated),
        "overflow": bool(traj.overflow),
    }


def certify(kernel: KernelSpec, max_degree: int = 32, steps: int = 10_000, grid_points: int = 4096) -> Report:
    """Run the criteria in fixed order, stop at the first rigorous hit, and
    fall back to trajectory classification when only heuristics (or nothing)
    apply.  A heuristic verdict contradicted by an Unbounded trajectory is
    downgraded to inconclusive with both records kept.

    The fallback trajectory comes from ``solve_fast`` (same contract as
    ``solve``, which it calls itself when R < 1).  When R < 1 the Rouche
    criteria decline without computing any roots: L_n is divergent at every n.
    """
    _require("max_degree", max_degree, 1, _MAX_DEGREE)
    _require("steps", steps, 100, _MAX_STEPS)
    _require("grid_points", grid_points, 2, _MAX_GRID_POINTS)
    attempts: list[dict] = []
    analysis = _Analysis(kernel)

    def rigorous():
        yield test_absolute_sum(kernel), {}
        yield test_efp(kernel), {}
        yield test_real_axis_root(kernel, grid_points), {}
        for rouche in (_rouche_stable, _rouche_unstable):
            for n in range(1, max_degree + 1):
                yield rouche(analysis, n), {"n": n}

    def record(cert: Certificate, extra: dict) -> bool:
        entry = {"criterion": cert.criterion, "verdict": cert.verdict, **extra}
        if cert.fired:
            entry["rigor"] = cert.rigor
            entry["witness"] = cert.witness
        attempts.append(entry)
        return cert.fired

    emp = summary = None
    for cert, extra in rigorous():
        if record(cert, extra):
            break
    else:
        cert = _marginal_stable(analysis, max(200, max_degree), grid_points)
        record(cert, {})
        traj = solve_fast(kernel, steps)
        emp, summary = classify(traj), _summarize(traj)

    if not cert.fired:
        witness = {"witness_index": emp.witness_index, "witness_value": emp.witness_value}
        final = (_EMPIRICAL_VERDICT_NAMES[emp.kind], "Empirical", "empirical", witness)
    elif emp is not None and emp.kind == UNBOUNDED:
        # heuristics never override an observed blow-up
        witness = {"heuristic": cert.witness, "empirical_kind": emp.kind}
        final = ("inconclusive", "MarginalStable+Empirical", HEURISTIC, witness)
    else:
        final = (cert.verdict, cert.criterion, cert.rigor, cert.witness)
    return Report(kernel_id(kernel), attempts, cert if cert.fired else None, emp, summary, *final)


def report_to_dict(report: Report) -> dict:
    """JSON form: kernel_id, final block, attempts, optional empirical block."""
    out = {
        "kernel_id": report.kernel_id,
        "final": {
            "verdict": report.final_verdict,
            "criterion": report.final_criterion,
            "rigor": report.final_rigor,
            "witness": report.final_witness,
        },
        "attempts": report.attempts,
    }
    if report.empirical is not None:
        out["empirical"] = {**vars(report.empirical), "trajectory": report.trajectory_summary}
    return out
