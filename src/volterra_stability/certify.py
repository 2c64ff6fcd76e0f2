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

import functools
import math
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
    _EPS,
    KernelSpec,
    TailModel,
    kernel_id,
    power_series_value,
    radius_of_convergence,
    series_sum,
    support_gcd,
    tail_abs_sum,
    terms,
)
from .simulate import (
    BOUNDED_NON_DECAYING,
    DECAYING,
    INCONCLUSIVE,
    UNBOUNDED,
    EmpiricalVerdict,
    Thresholds,
    Trajectory,
    classify,
    solve,
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


# ---------------------------------------------------------------------------
# individual criteria


def test_absolute_sum(kernel: KernelSpec, precision: float = 1e-12) -> Certificate:
    """Sum |a_n| < 1 certified by enclosure implies asymptotic stability."""
    enc = series_sum(kernel, "absolute", precision)
    if enc.is_finite and enc.hi < 1.0:
        return Certificate(
            ASYMPTOTICALLY_STABLE,
            "AbsoluteSum",
            RIGOROUS,
            {"sum_lo": enc.lo, "sum_hi": enc.hi},
        )
    w = {"status": enc.status}
    if enc.is_finite:
        w.update(sum_lo=enc.lo, sum_hi=enc.hi)
    return _na("AbsoluteSum", **w)


def _tail_nonnegative(kernel: KernelSpec) -> bool:
    t = kernel.tail
    if t.is_zero or t.q == 0.0:
        return True
    return t.c > 0.0 and t.q > 0.0


def test_efp(kernel: KernelSpec) -> Certificate:
    """Renewal-theorem certificate: nonnegative aperiodic unit-mass kernel
    with infinite first moment is asymptotically stable."""
    if any(v < 0.0 for v in kernel.prefix) or not _tail_nonnegative(kernel):
        return _na("EFP", reason="negative terms")
    g = support_gcd(kernel)
    if g != 1:
        return _na("EFP", reason="support gcd", gcd=g)
    total = series_sum(kernel, "plain", _EFP_SUM_WIDTH)
    if not (total.is_finite and total.width <= _EFP_SUM_WIDTH and total.contains(1.0)):
        w = {"reason": "sum not certified equal to 1", "status": total.status}
        if total.is_finite:
            w.update(sum_lo=total.lo, sum_hi=total.hi)
        return _na("EFP", **w)
    moment = series_sum(kernel, "first_moment", _EFP_SUM_WIDTH)
    if not moment.is_divergent:
        return _na("EFP", reason="first moment not divergent", status=moment.status)
    return Certificate(
        ASYMPTOTICALLY_STABLE,
        "EFP",
        RIGOROUS,
        {"gcd": g, "sum_lo": total.lo, "sum_hi": total.hi, "first_moment": "divergent"},
    )


def _value_upper_bound(kernel: KernelSpec, grid: np.ndarray) -> np.ndarray:
    """Float bounds U >= a(t) at t = +grid (row 0) and t = -grid (row 1).

    a_1..a_K by Horner, K = max(N, 512), padded by (4K + 64) eps times the
    Horner sum of |a_k| |t|^k, which covers the rounding of the computed a_k,
    of Horner (gamma_2K) and of the final additions, plus (K + 1)(|c| + 2)
    times the smallest subnormal for terms that underflow.  The rest is at most
    E (|t|/g)^(K+1) with E = Sum_{k>K} |a_k| g^k certified at the grid's far
    end g.  Entries are inf or nan where the coefficients or E leave float
    range, so those points count as candidates.
    """
    k_max = max(kernel.prefix_len, 512)
    a = terms(kernel, k_max)
    g = float(grid[-1])
    tm = kernel.tail
    if tm.is_zero or tm.q == 0.0:
        far = 0.0
    else:
        # the ratio rounded up bounds every term of the true tail from above
        ratio = math.nextafter(abs(tm.q) * g, math.inf)
        enc = tail_abs_sum(KernelSpec((), TailModel.parametric(abs(tm.c), ratio, tm.alpha, tm.beta)), k_max)
        far = enc.hi if enc.is_finite else math.inf
    x = np.stack([grid, -grid])
    with np.errstate(all="ignore"):
        val = np.zeros_like(x)
        mag = np.zeros_like(grid)
        for ak in a[:0:-1]:
            val = (val + ak) * x
            mag = (mag + abs(ak)) * grid
        rest = far * (grid / g) ** (k_max + 1) * (1.0 + 4.0 * (k_max + 2) * _EPS)
        tiny = (k_max + 1) * (abs(tm.c) + 2.0) * math.ulp(0.0)
        return val + rest + ((4 * k_max + 64) * _EPS * (mag + rest) + tiny)


def test_real_axis_root(kernel: KernelSpec, grid_points: int = 4096, precision: float = 1e-10) -> Certificate:
    """Certified sign change of b(t) = 1 - a(t) on the real segment inside
    both the unit disk and the convergence disk proves a real characteristic
    root there, hence instability.

    The grid is scanned outward from 0 on each half-axis.  Certified
    enclosures of a(t) are computed only where a float upper bound on a(t)
    exceeds 1, plus the walk back to the last point with certified b > 0,
    which anchors the bracket; the verdict and witness are those of a scan
    that encloses a(t) at every grid point.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    span = min(1.0, radius_of_convergence(kernel))
    grid = np.linspace(0.0, span, grid_points // 2 + 2)[1:-1]
    bound = _value_upper_bound(kernel, grid)
    for points, upper in zip((grid, -grid), bound):
        enclose = functools.cache(lambda i, points=points: power_series_value(kernel, float(points[i]), precision))
        # b_hi < 0 needs a(t) >= enc.lo > 1, so only points with U > 1 can fire
        for j in np.flatnonzero(~(upper <= 1.0)):
            enc = enclose(j)
            if not enc.is_finite or 1.0 - enc.lo >= 0.0:
                continue
            # anchor: the last point before t with certified b > 0, else b(0) = 1
            anchor = 0.0
            for i in range(j - 1, -1, -1):
                prev = enclose(i)
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


def _roots(kernel: KernelSpec, n: int) -> RootSet | NonConvergence:
    """pn_roots(kernel, n), or the NonConvergence it raised."""
    try:
        return pn_roots(kernel, n)
    except NonConvergence as e:
        return e


def test_rouche_stable(kernel: KernelSpec, n: int) -> Certificate:
    """Root-free truncation: r_n < 1 and L_n < (1 - r_n)^n force the full
    characteristic function to stay root-free on the closed unit disk."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rouche_stable(kernel, n, _roots(kernel, n))


def _rouche_stable(kernel: KernelSpec, n: int, roots: RootSet | NonConvergence) -> Certificate:
    if isinstance(roots, NonConvergence):
        return _na("RoucheStable", reason=str(roots), n=n)
    r_up = roots.r_n + roots.margin()
    witness = {"n": n, "r_n": roots.r_n, "margin": roots.margin()}
    if r_up >= 1.0:
        return _na("RoucheStable", **witness)
    tail = tail_abs_sum(kernel, n)
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
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rouche_unstable(kernel, n, _roots(kernel, n))


def _rouche_unstable(kernel: KernelSpec, n: int, roots: RootSet | NonConvergence) -> Certificate:
    if isinstance(roots, NonConvergence):
        return _na("RoucheUnstable", reason=str(roots), n=n)
    r_down = roots.r_n - roots.margin()
    witness = {"n": n, "r_n": roots.r_n, "margin": roots.margin()}
    if r_down <= 1.0:
        return _na("RoucheUnstable", **witness)
    tail = tail_abs_sum(kernel, n)
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


def _circle_zero_candidates(kernel: KernelSpec, n: int, grid_points: int):
    theta, _, vals = _circle_modulus(kernel, n, grid_points)
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    idx = np.nonzero((vals < _CIRCLE_NEAR_ZERO) & (vals <= left) & (vals <= right))[0]
    return theta, vals, idx


def test_marginal_stable(kernel: KernelSpec, n: int = 200, grid_points: int = 4096) -> Certificate:
    """Heuristic: finite first absolute moment, no certified root inside the
    disk, and isolated near-zeros of |s_n| on the circle growing linearly in
    their grid neighborhoods (the order-one signature) suggest plain
    stability.  Never rigorous: zero order is not certified numerically."""
    if n < 16:
        raise ValueError("n must be >= 16")
    return _marginal_stable(
        kernel, n, grid_points, lambda: test_real_axis_root(kernel, grid_points), lambda: _roots(kernel, n)
    )


def _marginal_stable(kernel: KernelSpec, n: int, grid_points: int, axis, roots) -> Certificate:
    """test_marginal_stable with the real-axis certificate from ``axis()``
    and the degree-n roots, or their NonConvergence, from ``roots()``."""
    moment = series_sum(kernel, "first_moment_abs", 1e-6)
    if not moment.is_finite:
        return _na("MarginalStable", HEURISTIC, reason="first absolute moment not finite", status=moment.status)
    if axis().fired:
        return _na("MarginalStable", HEURISTIC, reason="certified real root inside the disk")
    found = roots()
    if isinstance(found, NonConvergence):
        return _na("MarginalStable", HEURISTIC, reason=str(found))
    if found.r_n > _MARGINAL_ROOT_SLACK:
        return _na("MarginalStable", HEURISTIC, reason="truncation root inside the unit disk", r_n=found.r_n)
    theta, vals, idx = _circle_zero_candidates(kernel, n, grid_points)
    if idx.size == 0:
        return _na("MarginalStable", HEURISTIC, reason="no near-zero on the circle", circle_min=float(np.min(vals)))
    if idx.size > 1 and np.min(np.diff(np.sort(idx))) < 8:
        return _na("MarginalStable", HEURISTIC, reason="circle zeros not isolated on the grid")
    zeros = []
    g = grid_points
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
        z = complex(np.exp(1j * theta[i]))
        zeros.append({"theta": float(theta[i]), "re": z.real, "im": z.imag, "value": m0})
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


def certify(
    kernel: KernelSpec,
    max_degree: int = 32,
    steps: int = 10_000,
    grid_points: int = 4096,
    thresholds: Thresholds | None = None,
) -> Report:
    """Run the criteria in fixed order, stop at the first rigorous hit, and
    fall back to trajectory classification when only heuristics (or nothing)
    apply.  A heuristic verdict contradicted by an Unbounded trajectory is
    downgraded to inconclusive with both records kept."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    attempts: list[dict] = []
    kid = kernel_id(kernel)

    def record(cert: Certificate, **extra):
        entry = {"criterion": cert.criterion, "verdict": cert.verdict}
        entry.update(extra)
        if cert.fired:
            entry["rigor"] = cert.rigor
            entry["witness"] = cert.witness
        attempts.append(entry)

    def finish(cert: Certificate) -> Report:
        return Report(
            kid, attempts, cert, None, None, cert.verdict, cert.criterion, cert.rigor, cert.witness
        )

    cert = test_absolute_sum(kernel)
    record(cert)
    if cert.fired:
        return finish(cert)
    cert = test_efp(kernel)
    record(cert)
    if cert.fired:
        return finish(cert)
    axis = test_real_axis_root(kernel, grid_points)
    record(axis)
    if axis.fired:
        return finish(axis)
    # each degree's roots (or their NonConvergence) once per call
    roots_at = functools.cache(lambda n: _roots(kernel, n))
    for rouche in (_rouche_stable, _rouche_unstable):
        for n in range(1, max_degree + 1):
            cert = rouche(kernel, n, roots_at(n))
            record(cert, n=n)
            if cert.fired:
                return finish(cert)
    n = max(200, max_degree)
    heuristic = _marginal_stable(kernel, n, grid_points, lambda: axis, lambda: roots_at(n))
    record(heuristic)

    traj = solve(kernel, steps, 1.0, thresholds)
    emp = classify(traj, thresholds)
    summary = _summarize(traj)

    if heuristic.fired:
        if emp.kind == UNBOUNDED:
            # heuristics never override an observed blow-up
            return Report(
                kid,
                attempts,
                heuristic,
                emp,
                summary,
                "inconclusive",
                "MarginalStable+Empirical",
                HEURISTIC,
                {"heuristic": heuristic.witness, "empirical_kind": emp.kind},
            )
        return Report(
            kid, attempts, heuristic, emp, summary,
            heuristic.verdict, heuristic.criterion, heuristic.rigor, heuristic.witness,
        )
    return Report(
        kid,
        attempts,
        None,
        emp,
        summary,
        _EMPIRICAL_VERDICT_NAMES[emp.kind],
        "Empirical",
        "empirical",
        {"witness_index": emp.witness_index, "witness_value": emp.witness_value},
    )


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
        out["empirical"] = {
            "kind": report.empirical.kind,
            "witness_index": report.empirical.witness_index,
            "witness_value": report.empirical.witness_value,
            "trajectory": report.trajectory_summary,
        }
    return out
