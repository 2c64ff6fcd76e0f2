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

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .charfun import (
    NonConvergence,
    RootSet,
    _circle_values,
    _zeros_inside,
    e_bounds,
    maximize_delta,
    pn_roots,
    sn_coefficients,
)
from .kernel import (
    _MAX_DEGREE,
    _MAX_GRID_POINTS,
    _MAX_STEPS,
    KernelSpec,
    SumEnclosure,
    _require,
    _gamma,
    _value_upper_bound,
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
_CIRCLE_NEAR_ZERO = 0.05
# the power sums P_1..P_M of p_n's roots that bound r_n from below; degrees
# n >= M share them, since P_m reads a_1..a_m alone once m <= n
_POWER_SUMS = 128


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
    enc = series_sum(kernel, "absolute")
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
    that encloses a(t) at every grid point.  The bound (kernel._value_upper_bound)
    is one Horner pass in t/g over a_k g^k, g the grid's far end, up to the
    first power of two K >= max(N, 16) whose far-end rest is at most 1e-6, or
    512 if none below it is (K = N for a prefix past 512).
    """
    _require("grid_points", grid_points, 2, _MAX_GRID_POINTS)
    span = min(1.0, radius_of_convergence(kernel))
    grid = np.linspace(0.0, span, grid_points // 2 + 2)[1:-1]
    bound = _value_upper_bound(kernel, grid)
    for points, upper in zip((grid, -grid), bound):
        # b_hi < 0 needs a(t) >= enc.lo > 1, so only points with U > 1 can fire
        for j in np.flatnonzero(~(upper <= 1.0)):
            enc = power_series_value(kernel, float(points[j]))
            if not enc.is_finite or 1.0 - enc.lo >= 0.0:
                continue
            # anchor: the last point before t with certified b > 0, else b(0) = 1
            anchor = 0.0
            for i in range(j - 1, -1, -1):
                prev = power_series_value(kernel, float(points[i]))
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


def _roots(kernel: KernelSpec, n: int) -> RootSet | dict:
    """The roots of p_n, or the witness of why there are none: R < 1, where
    c != 0 and |q| > 1, so L_n diverges at every n, or pn_roots' NonConvergence."""
    _require("n", n, 1, _MAX_DEGREE)
    if radius_of_convergence(kernel) < 1.0:
        return {"tail_status": "divergent"}
    try:
        return pn_roots(kernel, n)
    except NonConvergence as e:
        return {"reason": str(e)}


def _rouche_degrees(kernel: KernelSpec, max_degree: int) -> Iterator[bool]:
    """For n = 1..N = max_degree, whether a Rouché test may fire at degree n,
    by certify's two skip conditions.  A generator: nothing is computed before
    degree 1 is asked for.  The Cauchy gate's sums are padded by gamma_(N+1)
    (N - 1 roundings in the sum, 2 in the pad), the lower end of L_n by
    gamma_(N+11) (9 in a tail term, as in kernel._explicit, N - 1 in the sum, 1
    adding L_N.lo, 2 in the pad).
    """
    a = terms(kernel, max_degree)
    size = np.abs(a)
    with np.errstate(over="ignore"):  # a sum past float range passes no gate
        inside = int(np.count_nonzero(np.cumsum(size)[1:] * (1.0 + _gamma(max_degree + 1)) <= 1.0))
        if inside:  # the degrees 1..inside, where Sum_{k<=n} |a_k| <= 1
            sums = np.abs(_power_sums(a, min(inside, _POWER_SUMS)))
            tail = tail_abs_sum(kernel, max_degree)
            rest = np.append(np.cumsum(size[:0:-1])[::-1], 0.0)  # rest[n] = Sum_{n<k<=N} |a_k|
            floor = ((tail.lo if tail.is_finite else 0.0) + rest) * (1.0 - _gamma(max_degree + 11))
    inverse = 1.0 / np.arange(1, _POWER_SUMS + 1)
    for n in range(1, inside + 1):
        # |P_m| <= n r_n^m, and every P_m is finite: the roots lie in the closed unit disk
        r_lo = (1.0 - 1e-6) * float(np.max((sums[min(n, _POWER_SUMS) - 1] / n) ** inverse))
        yield not (r_lo >= 1.0 or 2.0 * (1.0 - r_lo) ** n <= floor[n])
    yield from itertools.repeat(True, max_degree - inside)


def _power_sums(a: np.ndarray, rows: int) -> np.ndarray:
    """P[n - 1, m - 1] = Sum_i z_i^m over the roots z_i of p_n, for n = 1..rows
    and m = 1..M, by Newton's identities, which are the Volterra recursion
    P_m = Sum_{k<=min(m-1,n)} a_k P_(m-k) + m a_m, the last term only for m <= n.
    One step per m serves every row."""
    m_max = _POWER_SUMS
    k = np.arange(m_max + 1)
    coef = np.zeros((rows, 1, m_max + 1))  # coef[n - 1, 0, k] = a_k for k <= n, else 0
    coef[:, 0, 1 : len(a)] = a[1 : m_max + 1]
    coef[k > np.arange(1, rows + 1)[:, None, None]] = 0.0
    forcing = k * coef[:, 0]
    rev = np.zeros((rows, m_max))  # rev[:, M - m] = P_m, so that a_1..a_(m-1) meet P_(m-1)..P_1
    column = rev[:, :, None]
    for m in range(1, m_max + 1):
        rev[:, m_max - m] = (coef[:, :, 1:m] @ column[:, m_max - m + 1 :])[:, 0, 0] + forcing[:, m]
    return rev[:, ::-1]


def test_rouche_stable(kernel: KernelSpec, n: int) -> Certificate:
    """Root-free truncation: r_n < 1 and L_n < (1 - r_n)^n force the full
    characteristic function to stay root-free on the closed unit disk."""
    return _rouche_stable(kernel, _roots(kernel, n), n)


def _rouche_stable(kernel: KernelSpec, roots: RootSet | dict, n: int) -> Certificate:
    if isinstance(roots, dict):
        return _na("RoucheStable", **roots, n=n)
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
    return _rouche_unstable(kernel, _roots(kernel, n), n)


def _rouche_unstable(kernel: KernelSpec, roots: RootSet | dict, n: int) -> Certificate:
    if isinstance(roots, dict):
        return _na("RoucheUnstable", **roots, n=n)
    r_down = roots.r_n - roots.margin()
    witness = {"n": n, "r_n": roots.r_n, "margin": roots.margin()}
    if r_down <= 1.0:
        return _na("RoucheUnstable", **witness)
    tail = tail_abs_sum(kernel, n)
    if not tail.is_finite:
        return _na("RoucheUnstable", tail_status=tail.status, **witness)
    witness.update(tail_hi=tail.hi)
    eb = e_bounds(roots)
    if tail.hi < eb.value:
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
    # the scan checks grid_points; certify runs it before it reaches _marginal_stable
    if test_real_axis_root(kernel, grid_points).fired:
        return _na("MarginalStable", HEURISTIC, reason="certified real root inside the disk")
    return _marginal_stable(kernel, n, grid_points)


def _marginal_stable(kernel: KernelSpec, n: int, g: int) -> Certificate:
    moment = series_sum(kernel, "first_moment_abs", 1e-6)
    if not moment.is_finite:
        return _na("MarginalStable", HEURISTIC, reason="first absolute moment not finite", status=moment.status)
    coeffs = sn_coefficients(kernel, n)
    vals = np.abs(_circle_values(coeffs[::-1], g))
    idx = np.flatnonzero((vals < _CIRCLE_NEAR_ZERO) & (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))
    if idx.size == 0:
        return _na("MarginalStable", HEURISTIC, reason="no near-zero on the circle", circle_min=float(np.min(vals)))
    if idx.size > 1 and np.min(np.diff(idx, append=idx[0] + g)) < 8:
        return _na("MarginalStable", HEURISTIC, reason="circle zeros not isolated on the grid")
    zeros = []
    for i in idx:
        theta, m0 = float(i * (2.0 * np.pi / g)), float(vals[i])
        m1 = 0.5 * (vals[(i - 1) % g] + vals[(i + 1) % g])
        m2 = 0.5 * (vals[(i - 2) % g] + vals[(i + 2) % g])
        if m1 <= 0.0 or not (m0 <= 0.6 * m1 and 1.4 <= m2 / m1 <= 2.6):
            return _na(
                "MarginalStable",
                HEURISTIC,
                reason="near-zero without locally linear growth",
                theta=theta,
                profile=[m0, float(m1), float(m2)],
            )
        z = np.exp(1j * theta)
        zeros.append({"theta": theta, "re": float(z.real), "im": float(z.imag), "value": m0})
    # s_n has no zero in |z| < 1 - 1e-6 when the winding count, its wide steps
    # bisected, reads 0; a positive count, or none, declines with the count
    count = _zeros_inside(coeffs, 1.0 - 1e-6)
    if count != 0:
        reason = "zero count unresolved" if count is None else "truncation root inside the unit disk"
        return _na("MarginalStable", HEURISTIC, reason=reason, zeros_inside=count)
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
        "max_abs": float(max(np.max(vals), -np.min(vals))),  # no temporary as long as the values
        "last": float(vals[-1]),
        "truncated": bool(traj.truncated),
        "overflow": bool(traj.overflow),
    }


def certify(kernel: KernelSpec, max_degree: int = 32, steps: int = 10_000, grid_points: int = 4096) -> Report:
    """Run the criteria in fixed order, stop at the first rigorous hit, and
    fall back to trajectory classification when only the last criterion, the
    heuristic MarginalStable, or none fired.  A heuristic verdict contradicted
    by an Unbounded trajectory is downgraded to inconclusive, both records kept.

    The fallback trajectory comes from ``solve_fast`` (same contract as
    ``solve``, which it calls itself when R < 1).  Per degree n, RoucheStable
    then RoucheUnstable run on one root set of p_n, and on none when R < 1.

    The roots of p_n are computed only where a Rouché test may fire.  While
    Sum_{k<=n} |a_k| <= 1 (Cauchy's bound: every root of p_n then lies in
    |z| <= 1), RoucheUnstable, which needs r_n > 1, cannot fire, and the
    degree is skipped when RoucheStable cannot fire either: r_lo >= 1 or
    2 (1 - r_lo)^n <= L_N.lo + Sum_{n<k<=N} |a_k| <= L_n, N = max_degree, with
    r_lo = (1 - 1e-6) max_{m<=128} (|P_m| / n)^(1/m) <= r_n from the power sums
    P_m of p_n's roots (Newton's identities).  A skipped degree is recorded as
    a degree whose tests decline, {criterion, not_applicable, n}: a skip
    decides nothing, so it can lose a certificate but never forge one.
    """
    _require("max_degree", max_degree, 1, _MAX_DEGREE)
    _require("steps", steps, 100, _MAX_STEPS)
    _require("grid_points", grid_points, 2, _MAX_GRID_POINTS)
    attempts: list[dict] = []

    def criteria():
        yield test_absolute_sum(kernel), {}
        yield test_efp(kernel), {}
        yield test_real_axis_root(kernel, grid_points), {}
        for n, may_fire in enumerate(_rouche_degrees(kernel, max_degree), 1):
            roots = _roots(kernel, n) if may_fire else {}
            yield _rouche_stable(kernel, roots, n), {"n": n}
            yield _rouche_unstable(kernel, roots, n), {"n": n}
        yield _marginal_stable(kernel, max(200, max_degree), grid_points), {}

    emp = summary = None
    for cert, extra in criteria():
        attempts.append({"criterion": cert.criterion, "verdict": cert.verdict, **extra})
        if cert.fired:
            attempts[-1].update(rigor=cert.rigor, witness=cert.witness)
            if cert.rigor == RIGOROUS:
                break
    else:
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
