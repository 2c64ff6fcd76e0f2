import importlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

certify_mod = importlib.import_module("volterra_stability.certify")
cli_mod = importlib.import_module("volterra_stability.cli")
kernel_mod = importlib.import_module("volterra_stability.kernel")
from volterra_stability import (
    ASYMPTOTICALLY_STABLE,
    HEURISTIC,
    NOT_APPLICABLE,
    RIGOROUS,
    STABLE,
    UNSTABLE,
    Certificate,
    KernelSpec,
    NonConvergence,
    TailModel,
    certify,
    circle_min_modulus,
    classify,
    kernel_from_dict,
    partial_sum_eval,
    pn_roots,
    power_series_value,
    radius_of_convergence,
    report_to_dict,
    series_sum,
    solve,
    solve_fast,
    tail_abs_sum,
    term,
    terms,
    test_absolute_sum as check_absolute_sum,
    test_efp as check_efp,
    test_marginal_stable as check_marginal_stable,
    test_real_axis_root as check_real_axis_root,
    test_rouche_stable as check_rouche_stable,
    test_rouche_unstable as check_rouche_unstable,
)
from volterra_stability.charfun import pn_coefficients, sn_coefficients

from conftest import (
    alternating_cubic_kernel,
    geometric_half_kernel,
    geometric_null_kernel,
    paper_kernels,
    random_bounded_kernel,
    renewal_kernel,
    rouche_stable_pair_kernel,
    rouche_table_kernel,
    rouche_unstable_pair_kernel,
    small_radius_unstable_kernel,
    zero_q_pairs,
)


# ---------------------------------------------------------------------------
# absolute-sum test


def test_absolute_sum_small_prefix():
    cert = check_absolute_sum(KernelSpec((0.5,), TailModel.zero()))
    assert cert.verdict == ASYMPTOTICALLY_STABLE and cert.rigor == RIGOROUS
    assert cert.witness["sum_hi"] < 1.0


def test_absolute_sum_geometric_third():
    cert = check_absolute_sum(KernelSpec((), TailModel.parametric(1.0, 1.0 / 3.0)))
    assert cert.verdict == ASYMPTOTICALLY_STABLE
    assert cert.witness["sum_hi"] == pytest.approx(0.5, abs=1e-12)


def test_absolute_sum_renewal_not_applicable():
    assert check_absolute_sum(renewal_kernel()).verdict == NOT_APPLICABLE


def test_absolute_sum_divergent_not_applicable():
    assert check_absolute_sum(small_radius_unstable_kernel()).verdict == NOT_APPLICABLE


# ---------------------------------------------------------------------------
# renewal-theorem test


def test_efp_renewal_fires():
    cert = check_efp(renewal_kernel())
    assert cert.verdict == ASYMPTOTICALLY_STABLE and cert.rigor == RIGOROUS
    assert cert.witness["gcd"] == 1
    assert cert.witness["sum_lo"] <= 1.0 <= cert.witness["sum_hi"]


def test_efp_geometric_half_finite_moment():
    cert = check_efp(geometric_half_kernel())
    assert cert.verdict == NOT_APPLICABLE
    assert "first moment" in cert.witness["reason"]


def test_efp_negative_terms():
    cert = check_efp(geometric_null_kernel())
    assert cert.verdict == NOT_APPLICABLE
    assert cert.witness["reason"] == "negative terms"


def test_efp_unit_mass_finite_moment_of_rounded_exponent():
    # a_n = 0.5 / (n^2 (n+1)^(2^-60)) past a_1, total mass 1: the first moment
    # converges (its exponent is 1 + 2^-60), so x_n -> 1/mean != 0 and EFP
    # has no divergent moment to certify asymptotic stability with
    t = 0.5 * (math.pi**2 / 6.0 - 1.0)
    k = KernelSpec((1.0 - t,), TailModel.parametric(0.5, 1.0, 2.0, 2.0**-60))
    assert check_efp(k).verdict == NOT_APPLICABLE
    rep = certify(k)
    assert (rep.final_verdict, rep.final_criterion) != (ASYMPTOTICALLY_STABLE, "EFP")
    assert rep.final_rigor != RIGOROUS


def test_efp_gcd_two_rejected():
    k = KernelSpec((0.0, 0.5, 0.0, 0.5), TailModel.zero())
    cert = check_efp(k)
    assert cert.verdict == NOT_APPLICABLE and cert.witness["gcd"] == 2


# ---------------------------------------------------------------------------
# real-axis scan


def test_real_axis_single_prefix_two():
    cert = check_real_axis_root(KernelSpec((2.0,), TailModel.zero()))
    assert cert.verdict == UNSTABLE and cert.rigor == RIGOROUS
    lo, hi = cert.witness["root_bracket"]
    assert lo <= 0.5 <= hi


def test_real_axis_geometric_supercritical():
    # sum (3/4)(1/2)^(n-1) = 3/2 > 1: b changes sign inside (0, 1)
    k = KernelSpec((), TailModel.parametric(1.5, 0.5))
    cert = check_real_axis_root(k)
    assert cert.verdict == UNSTABLE
    lo, hi = cert.witness["root_bracket"]
    # oracle: a(t) = (3t/4)/(1 - t/2), and b(t) = 1 - a(t) = 0  <=>  1 - t/2 = 3t/4  <=>  t = 4/5
    t_root = 4.0 / 5.0
    assert abs(1.0 - (3 * t_root / 4) / (1 - t_root / 2)) < 1e-12
    assert lo <= t_root <= hi


def test_real_axis_small_radius_not_applicable():
    assert check_real_axis_root(small_radius_unstable_kernel()).verdict == NOT_APPLICABLE


def test_real_axis_negative_side():
    # negative mass at odd lags: b(t) = 1 + 2t has a certified sign change at t = -1/2
    cert = check_real_axis_root(KernelSpec((-2.0,), TailModel.zero()))
    assert cert.verdict == UNSTABLE
    lo, hi = cert.witness["root_bracket"]
    assert lo <= -0.5 <= hi


def test_real_axis_validates_grid():
    with pytest.raises(ValueError):
        check_real_axis_root(renewal_kernel(), grid_points=1)


def _full_scan(kernel, grid_points=4096, precision=1e-10):
    """Reference real-axis scan: a certified enclosure at every grid point."""
    span = min(1.0, radius_of_convergence(kernel))
    grid = np.linspace(0.0, span, grid_points // 2 + 2)[1:-1]
    for sign in (1.0, -1.0):
        anchor = 0.0
        for t in sign * grid:
            enc = power_series_value(kernel, float(t), precision)
            if not enc.is_finite:
                continue
            b_lo, b_hi = 1.0 - enc.hi, 1.0 - enc.lo
            if b_hi < 0.0:
                lo_t, hi_t = (anchor, float(t)) if sign > 0 else (float(t), anchor)
                return UNSTABLE, {"root_bracket": [lo_t, hi_t], "b_hi": b_hi, "t": float(t)}
            if b_lo > 0.0:
                anchor = float(t)
    return NOT_APPLICABLE, {"reason": "no certified sign change", "span": span}


def _assert_scan_matches(kernel, grid_points=4096):
    cert = check_real_axis_root(kernel, grid_points)
    assert (cert.verdict, cert.witness) == _full_scan(kernel, grid_points), kernel


def test_real_axis_filtered_scan_matches_full_scan(rng):
    kernels = list(paper_kernels().values())
    kernels += [random_bounded_kernel(rng, 0.5, 2.5) for _ in range(30)]
    for k in kernels:
        _assert_scan_matches(k)
    assert sum(check_real_axis_root(k).fired for k in kernels) >= 10


def test_real_axis_prefilter_bounds_every_enclosure(rng):
    # the scan skips a point only when its float bound U(t) <= 1; U must sit
    # above the lower end of every finite enclosure of a(t)
    kernels = list(paper_kernels().values())
    kernels += [random_bounded_kernel(rng, 0.5, 2.5) for _ in range(30)]
    for k in kernels:
        grid = np.linspace(0.0, min(1.0, radius_of_convergence(k)), 130)[1:-1]
        bound = kernel_mod._value_upper_bound(k, grid)
        for row, sign in enumerate((1.0, -1.0)):
            for t, u in zip(sign * grid, bound[row]):
                enc = power_series_value(k, float(t))
                assert not enc.is_finite or not u < enc.lo, (k, t)


def test_real_axis_anchor_skips_undecided_points():
    # a(t) = 2t on the grid 1/4, 1/2, 3/4: the enclosure at 1/2 straddles 1,
    # so the bracket reaches back to the last certified b > 0, at 1/4
    k = KernelSpec((2.0,), TailModel.zero())
    assert check_real_axis_root(k, 6).witness["root_bracket"] == [0.25, 0.75]
    _assert_scan_matches(k, 6)


@pytest.mark.parametrize(
    "kernel, grid_points",
    [
        # a_k = (-1000)^k leaves float range before k = 512, so the float
        # bound is inf or nan; a(-t) = 1000t / (1 - 1000t) crosses 1
        (KernelSpec((), TailModel.parametric(1.0, -1e3)), 4096),
        # Horner overflows to -inf at t = 1/2, so the bound is nan, while
        # a(1/2) = 3e307 has a finite enclosure
        (KernelSpec((1.7e308, -1.7e308, -1e308), TailModel.zero()), 2),
        # Sum |a_k| t^k leaves float range while the alternating tail of
        # a(-1/33) does not
        (KernelSpec((1.0, 1.0), TailModel.parametric(1.7e308, -1.0, 0.5)), 64),
    ],
)
def test_real_axis_scans_points_without_a_finite_bound(kernel, grid_points):
    assert check_real_axis_root(kernel, grid_points).fired
    _assert_scan_matches(kernel, grid_points)


@st.composite
def _scan_edge_kernel(draw):
    """Kernels whose float bound on a(t) is loose, overflows or is not
    finite: unit or wide tail ratios, bare prefixes, prefixes near 1e308."""
    kind = draw(st.sampled_from(["unit_ratio", "wide_ratio", "prefix_only", "huge_prefix"]))
    prefix = tuple(draw(st.lists(st.floats(-3.0, 3.0), max_size=4)))
    c = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    if kind == "unit_ratio":
        alpha = 1.0 + draw(st.sampled_from([1e-7, 1e-3, 0.5]))
        tail = TailModel.parametric(c, draw(st.sampled_from([1.0, -1.0])), alpha, draw(st.sampled_from([0.0, 1.0])))
    elif kind == "wide_ratio":
        q = draw(st.floats(1.01, 1e3)) * draw(st.sampled_from([1.0, -1.0]))
        tail = TailModel.parametric(c, q, float(draw(st.integers(0, 2))))
    elif kind == "prefix_only":
        prefix = tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8)))
        tail = TailModel.zero()
    else:
        prefix = tuple(1e308 * v for v in draw(st.lists(st.floats(-1.7, 1.7), min_size=1, max_size=3)))
        tail = draw(st.sampled_from([TailModel.zero(), TailModel.parametric(c, 0.5)]))
    return KernelSpec(prefix, tail)


@given(kernel=_scan_edge_kernel(), grid_points=st.sampled_from([2, 64, 512]))
def test_real_axis_filtered_scan_matches_full_scan_on_edges(kernel, grid_points):
    _assert_scan_matches(kernel, grid_points)


# ---------------------------------------------------------------------------
# Rouché stability


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_rouche_stable_pair_fires_at_two(sign):
    cert = check_rouche_stable(rouche_stable_pair_kernel(sign), 2)
    assert cert.verdict == ASYMPTOTICALLY_STABLE and cert.rigor == RIGOROUS
    assert cert.witness["r_n"] == pytest.approx(0.75, abs=1e-9)
    assert cert.witness["tail_hi"] == pytest.approx(1.0 / 19.0, abs=1e-12)
    assert cert.witness["tail_hi"] < cert.witness["threshold"] <= 0.0625


def test_rouche_stable_table_degrees():
    k = rouche_table_kernel()
    assert check_rouche_stable(k, 4).verdict == NOT_APPLICABLE
    assert check_rouche_stable(k, 5).verdict == NOT_APPLICABLE
    cert = check_rouche_stable(k, 6)
    assert cert.verdict == ASYMPTOTICALLY_STABLE
    assert cert.witness["tail_hi"] == pytest.approx(0.00024414, abs=1e-8)


def test_rouche_stable_zero_kernel():
    cert = check_rouche_stable(KernelSpec((), TailModel.zero()), 1)
    assert cert.verdict == ASYMPTOTICALLY_STABLE
    assert cert.witness["r_n"] == 0.0 and cert.witness["tail_hi"] == 0.0


def test_rouche_stable_divergent_tail_not_applicable():
    assert check_rouche_stable(small_radius_unstable_kernel(), 3).verdict == NOT_APPLICABLE


# ---------------------------------------------------------------------------
# Rouché instability


def test_rouche_unstable_pair_via_e1():
    cert = check_rouche_unstable(rouche_unstable_pair_kernel(), 2)
    assert cert.verdict == UNSTABLE and cert.rigor == RIGOROUS
    assert cert.witness["bound"] == "E1"
    assert cert.witness["bound_value"] == pytest.approx(1.0, abs=1e-9)
    assert cert.witness["tail_hi"] == pytest.approx(0.5, abs=1e-12)


def test_rouche_unstable_pair_zero_tail():
    cert = check_rouche_unstable(rouche_unstable_pair_kernel(zero_tail=True), 2)
    assert cert.verdict == UNSTABLE
    # oracle: the trajectory genuinely blows up
    assert classify(solve(rouche_unstable_pair_kernel(zero_tail=True), 200)).kind == "unbounded"


def test_rouche_unstable_divergent_tail():
    assert check_rouche_unstable(small_radius_unstable_kernel(), 4).verdict == NOT_APPLICABLE


def test_rouche_unstable_inside_roots_not_applicable():
    assert check_rouche_unstable(geometric_half_kernel(), 8).verdict == NOT_APPLICABLE


_DIVERGENT_AT_UNIT_RADIUS = TailModel.parametric(0.01, 1.0, 0.5, 0.0)


@pytest.mark.parametrize(
    "check, kernel, n, witness",
    [
        # R = 1, so the R < 1 exit does not fire, and L_n diverges
        (check_rouche_stable, KernelSpec((0.1,), _DIVERGENT_AT_UNIT_RADIUS), 1, {"tail_status": "divergent", "r_n": 0.1}),
        (check_rouche_unstable, KernelSpec((2.0,), _DIVERGENT_AT_UNIT_RADIUS), 1, {"tail_status": "divergent"}),
        # p_10's roots near 1e50 overflow the residual
        (
            check_rouche_unstable,
            KernelSpec((0.0, -1e100), TailModel.zero()),
            10,
            {"reason": "residual nan above 1e-08 for p_10"},
        ),
    ],
    ids=["stable-divergent-tail", "unstable-divergent-tail", "unstable-nonconvergence"],
)
def test_rouche_not_applicable_exits(check, kernel, n, witness):
    cert = check(kernel, n)
    assert cert.verdict == NOT_APPLICABLE
    assert {key: cert.witness[key] for key in witness} == witness


def test_rouche_unstable_delta_fallback():
    # roots 2 and 1.0 make E3 applicable; engineered tail between E3 and delta max
    # p_2(z) = (z-2)(z-1) = z^2 - 3z + 2  =>  a_1 = 3, a_2 = -2
    # E3 = (1/3)^2 = 1/9; delta max at rho=1: |1-2||1-1| = 0 -> delta via interior max
    k = KernelSpec((3.0, -2.0), TailModel.parametric(0.12, 0.5))
    cert = check_rouche_unstable(k, 2)
    # tail = 0.12 * (0.5^3)/(0.5) = 0.03 < 1/9: E3 already decides
    assert cert.verdict == UNSTABLE
    assert cert.witness["bound"] in ("E3", "delta")


# ---------------------------------------------------------------------------
# marginal heuristic


def test_marginal_alternating_cubic():
    cert = check_marginal_stable(alternating_cubic_kernel())
    assert cert.verdict == STABLE and cert.rigor == HEURISTIC
    zeros = cert.witness["circle_zeros"]
    assert len(zeros) == 1
    assert abs(zeros[0]["theta"] - math.pi) <= 2.0 * math.pi / 4096 + 1e-9


def test_marginal_geometric_half():
    cert = check_marginal_stable(geometric_half_kernel())
    assert cert.verdict == STABLE and cert.rigor == HEURISTIC
    zeros = cert.witness["circle_zeros"]
    assert len(zeros) == 1
    theta = zeros[0]["theta"]
    assert min(theta, 2.0 * math.pi - theta) <= 2.0 * math.pi / 4096 + 1e-9


def test_marginal_plain_contraction_not_applicable():
    cert = check_marginal_stable(KernelSpec((0.5,), TailModel.zero()))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.witness["reason"] == "no near-zero on the circle"


def test_marginal_divergent_moment_not_applicable():
    cert = check_marginal_stable(small_radius_unstable_kernel())
    assert cert.verdict == NOT_APPLICABLE


def test_marginal_requires_min_degree():
    with pytest.raises(ValueError):
        check_marginal_stable(renewal_kernel(), n=8)


def test_marginal_rejects_certified_root():
    cert = check_marginal_stable(KernelSpec((2.0,), TailModel.zero()))
    assert cert.verdict == NOT_APPLICABLE
    assert "root" in cert.witness["reason"]


def test_marginal_checks_the_real_axis_first():
    # the public test runs the real-axis scan before anything else, as certify
    # does before it reaches MarginalStable: this kernel has both a certified
    # real root and an infinite first absolute moment
    cert = check_marginal_stable(KernelSpec((2.0,), TailModel.parametric(1.0, 1.0, 1.0)))
    assert cert.witness == {"reason": "certified real root inside the disk"}


def test_marginal_double_circle_zero_not_applicable():
    # s(z) = (1 - z)^2: |s| grows quadratically away from z = 1, not linearly
    cert = check_marginal_stable(KernelSpec((2.0, -1.0), TailModel.zero()))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.witness["reason"] == "near-zero without locally linear growth"
    assert cert.witness["theta"] == 0.0
    assert cert.witness["profile"] == pytest.approx([0.0, 2.353e-6, 9.412e-6], rel=1e-3, abs=1e-18)


def test_marginal_root_failure_not_applicable(monkeypatch):
    # the roots come last: alternating_cubic passes every circle check, then p_200 fails
    def fail(kernel, n):
        raise NonConvergence(f"residual nan above 1e-08 for p_{n}")

    monkeypatch.setattr(certify_mod, "pn_roots", fail)
    cert = check_marginal_stable(alternating_cubic_kernel())
    assert cert.verdict == NOT_APPLICABLE
    assert cert.witness == {"reason": "residual nan above 1e-08 for p_200"}


def test_marginal_truncation_root_inside_disk_not_applicable():
    # s(z) = (1 - z)(1 + 1.5625 z^2): a simple zero at z = 1 passes the circle
    # checks, and the zeros +-0.8i inside the disk give r_n = 1.25
    cert = check_marginal_stable(KernelSpec((1.0, -1.5625, 1.5625), TailModel.zero()))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.witness["reason"] == "truncation root inside the unit disk"
    assert cert.witness["r_n"] == pytest.approx(1.25, rel=1e-12)


def _circle_pair(center):
    """Zero tail whose s_n has its circle zeros at the angles +-center +- 0.004:
    on a 4,096-point grid, pairs 6 grid steps apart."""
    if center == 0.0:
        return KernelSpec((2.0 * math.cos(0.004), -1.0), TailModel.zero())
    a, b = 2.0 * math.cos(center + 0.004), 2.0 * math.cos(center - 0.004)
    # s(z) = (1 - a z + z^2)(1 - b z + z^2)
    return KernelSpec((a + b, -(2.0 + a * b), a + b, -1.0), TailModel.zero())


@pytest.mark.parametrize("center", [0.0, 1.0])
def test_marginal_close_circle_zeros_not_isolated(center):
    # the gap between the zeros just above and below theta = 0 wraps around the grid
    cert = check_marginal_stable(_circle_pair(center))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.witness["reason"] == "circle zeros not isolated on the grid"


# ---------------------------------------------------------------------------
# pipeline


def test_certify_linear_rise_inconclusive():
    # x_n = n + 1 is unbounded; the marginal heuristic declines (double zero at z = 1)
    rep = certify(KernelSpec((2.0, -1.0), TailModel.zero()))
    assert (rep.final_verdict, rep.final_criterion, rep.final_rigor) == ("inconclusive", "Empirical", "empirical")


def test_certify_renewal_stops_at_efp():
    rep = certify(renewal_kernel())
    assert (rep.final_verdict, rep.final_criterion, rep.final_rigor) == (
        ASYMPTOTICALLY_STABLE,
        "EFP",
        RIGOROUS,
    )
    assert rep.empirical is None and rep.trajectory_summary is None
    assert [a["criterion"] for a in rep.attempts] == ["AbsoluteSum", "EFP"]


@pytest.mark.parametrize("q", [0.5, 1.0, -1.0])
def test_certify_tail_with_alpha_plus_beta_past_float_range(q):
    # every |a_n| is below ulp(0), at |q| = 1 as at q = 0.5
    rep = certify(KernelSpec((), TailModel.parametric(1.0, q, 1e308, 1e308)))
    assert (rep.final_verdict, rep.final_criterion, rep.final_rigor) == (ASYMPTOTICALLY_STABLE, "AbsoluteSum", RIGOROUS)


def test_certify_small_radius_all_na_then_unbounded():
    rep = certify(small_radius_unstable_kernel())
    assert rep.final_verdict == UNSTABLE and rep.final_rigor == "empirical"
    assert rep.certificate is None
    assert all(a["verdict"] == NOT_APPLICABLE for a in rep.attempts)
    assert rep.empirical.kind == "unbounded"


def test_certify_table_fires_exactly_at_six():
    rep = certify(rouche_table_kernel(), max_degree=6)
    assert rep.final_criterion == "RoucheStable" and rep.final_witness["n"] == 6
    fired = [a for a in rep.attempts if a["criterion"] == "RoucheStable" and a["verdict"] != NOT_APPLICABLE]
    assert len(fired) == 1 and fired[0]["n"] == 6


def test_certify_unstable_pair_real_axis_first():
    rep = certify(rouche_unstable_pair_kernel())
    assert rep.final_verdict == UNSTABLE and rep.final_rigor == RIGOROUS
    assert rep.final_criterion == "RealAxisRoot"


def test_certify_geometric_null_empirical_decay():
    rep = certify(geometric_null_kernel())
    assert rep.final_verdict == ASYMPTOTICALLY_STABLE
    assert rep.final_criterion == "Empirical"
    assert rep.empirical.kind == "decaying"


def test_certify_marginal_kernels_heuristic_stable():
    for k in (alternating_cubic_kernel(), geometric_half_kernel()):
        rep = certify(k, steps=2000)
        assert rep.final_verdict == STABLE and rep.final_rigor == HEURISTIC
        assert rep.empirical is not None and rep.empirical.kind != "unbounded"


def test_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify(renewal_kernel(), max_degree=0)
    with pytest.raises(ValueError):
        certify(renewal_kernel(), steps=50)


# every public function that sizes its work: (id, argument name, call with the
# argument's value v, least value, cap or None)
_SIZE_ARGUMENTS = [
    ("certify", "max_degree", lambda k, v: certify(k, max_degree=v), 1, 2000),
    ("certify", "steps", lambda k, v: certify(k, steps=v), 100, 2**24),
    ("certify", "grid_points", lambda k, v: certify(k, grid_points=v), 2, 2**22),
    ("real_axis", "grid_points", check_real_axis_root, 2, 2**22),
    ("marginal", "n", check_marginal_stable, 16, 2000),
    ("marginal", "grid_points", lambda k, v: check_marginal_stable(k, 200, v), 2, 2**22),
    ("rouche_stable", "n", check_rouche_stable, 1, 2000),
    ("rouche_unstable", "n", check_rouche_unstable, 1, 2000),
    ("pn_roots", "n", pn_roots, 1, 2000),
    ("partial_sum_eval", "n", lambda k, v: partial_sum_eval(k, v, 0.5), 1, 2**24),
    ("circle", "grid_points", lambda k, v: circle_min_modulus(k, 8, v), 16, 2**22),
    ("circle", "n", lambda k, v: circle_min_modulus(k, v, 64), 1, 2**24),
    ("solve", "steps", solve, 1, 2**24),
    ("solve_fast", "steps", solve_fast, 1, 2**24),
    ("tail_abs_sum", "n", tail_abs_sum, 0, None),
    ("term", "n", term, 1, None),
    # the kernels here have no prefix, so terms' cap max(2^24, N) is 2^24
    ("terms", "count", terms, 0, 2**24),
    ("sn_coefficients", "n", sn_coefficients, 0, 2**24),
    ("pn_coefficients", "n", pn_coefficients, 0, 2**24),
]


@pytest.mark.parametrize("kernel", [small_radius_unstable_kernel(), renewal_kernel()], ids=["R<1", "renewal"])
@pytest.mark.parametrize(
    "name, call, value, message",
    [
        case
        for fid, name, call, lo, hi in _SIZE_ARGUMENTS
        for case in [pytest.param(name, call, lo - 1, f"{name} must be >= {lo}", id=f"{fid}-{name}-low")]
        + ([pytest.param(name, call, hi + 1, f"{name} must be <= {hi}", id=f"{fid}-{name}-high")] if hi else [])
    ],
)
def test_size_argument_out_of_range_raises_on_every_kernel(kernel, name, call, value, message):
    # checked before any work: the R < 1 shortcut of the Rouche criteria and the
    # early declines of MarginalStable do not make a size valid
    with pytest.raises(ValueError) as e:
        call(kernel, value)
    assert str(e.value) == message


@pytest.mark.parametrize("kernel", [small_radius_unstable_kernel(), renewal_kernel()], ids=["R<1", "renewal"])
@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, value, id=f"{fid}-{name}-{value}")
        for fid, name, call, lo, _ in _SIZE_ARGUMENTS
        for value in (lo + 1.5, math.nan, float(lo + 1))
    ],
)
def test_size_argument_not_an_integer_raises(kernel, name, call, value):
    # pn_roots(k, 2.5) ended in numpy's TypeError, and NaN passed both range
    # comparisons: certify(k, steps=nan) returned a report
    with pytest.raises(ValueError) as e:
        call(kernel, value)
    assert str(e.value) == f"{name} must be an integer"


def test_size_argument_accepts_numpy_integers():
    k = renewal_kernel()
    assert pn_roots(k, np.int64(3)).roots == pn_roots(k, 3).roots
    assert np.array_equal(terms(k, np.int32(5)), terms(k, 5))
    assert np.array_equal(solve(k, np.uint16(50)).values, solve(k, 50).values)


def test_terms_cap_grows_with_the_prefix(monkeypatch):
    # the prefix is already in memory, so terms reads all of it past the cap
    monkeypatch.setattr(kernel_mod, "_MAX_STEPS", 4)
    k = KernelSpec((1.0,) * 6, TailModel.zero())
    assert terms(k, 6).tolist() == [0.0] + [1.0] * 6
    with pytest.raises(ValueError, match=r"^count must be <= 6$"):
        terms(k, 7)
    with pytest.raises(ValueError, match=r"^count must be <= 4$"):
        terms(renewal_kernel(), 5)


def test_certify_deterministic():
    a = report_to_dict(certify(rouche_table_kernel(), max_degree=6))
    b = report_to_dict(certify(rouche_table_kernel(), max_degree=6))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_heuristic_never_overrides_unbounded(monkeypatch):
    fake = Certificate(STABLE, "MarginalStable", HEURISTIC, {"circle_zeros": []})
    monkeypatch.setattr(certify_mod, "_marginal_stable", lambda *a, **kw: fake)
    rep = certify_mod.certify(small_radius_unstable_kernel())
    assert rep.final_verdict == "inconclusive"
    assert rep.certificate is fake
    assert rep.empirical.kind == "unbounded"


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_certify_computes_each_analysis_once(monkeypatch):
    roots = _counting(monkeypatch, certify_mod, "pn_roots")
    scans = _counting(monkeypatch, certify_mod, "test_real_axis_root")
    rep = certify_mod.certify(alternating_cubic_kernel(), steps=200)
    assert rep.final_criterion == "MarginalStable"
    degrees = Counter(n for _, n in roots)
    assert set(degrees) == set(range(1, 33)) | {200}
    assert set(degrees.values()) == {1}
    assert len(scans) == 1


# the reports of the two R < 1 fixtures, less their 64 Rouche attempts
_PINNED_SMALL_RADIUS = {
    "small_radius_unstable": {
        "kernel_id": "7364a355478aea1f839c3160bfa5070fc8180bca01b2b777de726093a727e226",
        "empirical": {
            "kind": "unbounded",
            "trajectory": {
                "last": 14997861450720.8,
                "length": 55,
                "max_abs": 14997861450720.8,
                "overflow": False,
                "truncated": True,
            },
            "witness_index": 50,
            "witness_value": 1100606069203.528,
        },
        "final": {
            "criterion": "Empirical",
            "rigor": "empirical",
            "verdict": "unstable",
            "witness": {"witness_index": 50, "witness_value": 1100606069203.528},
        },
    },
    "geometric_null": {
        "kernel_id": "a25506f36b49fed4c2a26aa38800c5ea511fac64017d0a8966683af14e1416cb",
        "empirical": {
            "kind": "decaying",
            "trajectory": {"last": 0.0, "length": 10001, "max_abs": 3.0, "overflow": False, "truncated": False},
            "witness_index": 9901,
            "witness_value": 0.0,
        },
        "final": {
            "criterion": "Empirical",
            "rigor": "empirical",
            "verdict": "asymptotically_stable",
            "witness": {"witness_index": 9901, "witness_value": 0.0},
        },
    },
}


@pytest.mark.parametrize("name", list(_PINNED_SMALL_RADIUS))
def test_certify_small_radius_computes_no_roots(monkeypatch, name):
    # R < 1 makes L_n divergent at every n, so both Rouche criteria decline
    # before any root of p_n is computed, and the report does not change
    roots = _counting(monkeypatch, certify_mod, "pn_roots")
    d = report_to_dict(certify_mod.certify(paper_kernels()[name]))
    assert roots == []
    rouche = [{"criterion": c, "verdict": NOT_APPLICABLE, "n": n} for c in ("RoucheStable", "RoucheUnstable") for n in range(1, 33)]
    early = [{"criterion": c, "verdict": NOT_APPLICABLE} for c in ("AbsoluteSum", "EFP", "RealAxisRoot")]
    marginal = [{"criterion": "MarginalStable", "verdict": NOT_APPLICABLE}]
    assert d == {**_PINNED_SMALL_RADIUS[name], "attempts": early + rouche + marginal}


@pytest.mark.parametrize("name", ["alternating_cubic", "geometric_half"])
def test_certify_fallback_runs_solve_fast(name):
    k = paper_kernels()[name]
    rep = certify(k)
    assert rep.trajectory_summary == certify_mod._summarize(solve_fast(k, 10_000))


def _seeded_kernels():
    """Seeded kernels, alternately with R < 1 and generic l^1 ones (prefix of
    0-4 entries in [-1.2, 1.2], |c| in [0.01, 1], |q| in [0.05, 0.98])."""
    rng = np.random.default_rng(2026)
    for i in itertools.count():
        prefix = tuple(rng.uniform(-1.2, 1.2, int(rng.integers(0, 5))))
        c = float(rng.uniform(0.01, 1.0)) * float(rng.choice([-1.0, 1.0]))
        q = float(rng.uniform(1.05, 2.5) if i % 2 else rng.uniform(0.05, 0.98)) * float(rng.choice([-1.0, 1.0]))
        yield KernelSpec(prefix, TailModel.parametric(c, q, float(rng.integers(0, 3))))


def test_fallback_kind_matches_direct_solver():
    # the fallback runs solve_fast; solve stays the reference for its verdict, on
    # the four fixtures that reach the fallback and the first 20 seeded kernels that do
    names = ("small_radius_unstable", "geometric_null", "alternating_cubic", "geometric_half")
    reports = [(k, certify(k)) for k in (paper_kernels()[name] for name in names)]
    assert all(rep.empirical is not None for _, rep in reports)
    seeded = ((k, certify(k)) for k in _seeded_kernels())
    reports += itertools.islice(((k, rep) for k, rep in seeded if rep.empirical is not None), 20)
    for k, rep in reports:
        assert rep.empirical.kind == classify(solve(k, 10_000)).kind, k


def _window(criterion, verdict, lo, hi):
    return [(criterion, verdict, n) for n in range(lo, hi + 1)]


# per fixture: (criterion, verdict, n) of each attempt, then the final
# (verdict, criterion, rigor); no witness values, which move with LAPACK
_NA = NOT_APPLICABLE
_NO_AXIS = [("AbsoluteSum", _NA, None), ("EFP", _NA, None), ("RealAxisRoot", _NA, None)]
_NO_WINDOW = _NO_AXIS + _window("RoucheStable", _NA, 1, 32) + _window("RoucheUnstable", _NA, 1, 32)
_STABLE_AT_TWO = _NO_AXIS + _window("RoucheStable", _NA, 1, 1) + _window("RoucheStable", ASYMPTOTICALLY_STABLE, 2, 2)
_DECISION_TRACES = {
    "renewal": (
        [("AbsoluteSum", _NA, None), ("EFP", ASYMPTOTICALLY_STABLE, None)],
        (ASYMPTOTICALLY_STABLE, "EFP", RIGOROUS),
    ),
    "small_radius_unstable": (_NO_WINDOW + [("MarginalStable", _NA, None)], (UNSTABLE, "Empirical", "empirical")),
    "geometric_null": (_NO_WINDOW + [("MarginalStable", _NA, None)], (ASYMPTOTICALLY_STABLE, "Empirical", "empirical")),
    "rouche_stable_pair_plus": (_STABLE_AT_TWO, (ASYMPTOTICALLY_STABLE, "RoucheStable", RIGOROUS)),
    "rouche_stable_pair_minus": (_STABLE_AT_TWO, (ASYMPTOTICALLY_STABLE, "RoucheStable", RIGOROUS)),
    "rouche_table": (
        _NO_AXIS + _window("RoucheStable", _NA, 1, 5) + _window("RoucheStable", ASYMPTOTICALLY_STABLE, 6, 6),
        (ASYMPTOTICALLY_STABLE, "RoucheStable", RIGOROUS),
    ),
    "rouche_unstable_pair": (_NO_AXIS[:2] + [("RealAxisRoot", UNSTABLE, None)], (UNSTABLE, "RealAxisRoot", RIGOROUS)),
    "alternating_cubic": (_NO_WINDOW + [("MarginalStable", STABLE, None)], (STABLE, "MarginalStable", HEURISTIC)),
    "geometric_half": (_NO_WINDOW + [("MarginalStable", STABLE, None)], (STABLE, "MarginalStable", HEURISTIC)),
}


@pytest.mark.parametrize("name", list(_DECISION_TRACES))
def test_certify_decision_trace(name):
    rep = certify(paper_kernels()[name], 6 if name == "rouche_table" else 32, steps=500, grid_points=512)
    attempts, final = _DECISION_TRACES[name]
    assert [(a["criterion"], a["verdict"], a.get("n")) for a in rep.attempts] == attempts
    assert (rep.final_verdict, rep.final_criterion, rep.final_rigor) == final


def test_shared_analysis_matches_fresh_calls(monkeypatch, rng):
    # certify shares the roots of p_n across criteria; each attempt must
    # still equal the public criterion run with fresh state
    marginal = []
    inner = certify_mod._marginal_stable

    def recording(*args):
        marginal.append(inner(*args))
        return marginal[-1]

    monkeypatch.setattr(certify_mod, "_marginal_stable", recording)
    kernels = list(paper_kernels().values()) + [random_bounded_kernel(rng, 0.1, 1.8) for _ in range(30)]
    for k in kernels:
        marginal.clear()
        rep = certify_mod.certify(k, 8, steps=500, grid_points=512)
        shared = list(marginal)
        fresh = {
            "AbsoluteSum": lambda n: check_absolute_sum(k),
            "EFP": lambda n: check_efp(k),
            "RealAxisRoot": lambda n: check_real_axis_root(k, 512),
            "RoucheStable": lambda n: check_rouche_stable(k, n),
            "RoucheUnstable": lambda n: check_rouche_unstable(k, n),
            "MarginalStable": lambda n: check_marginal_stable(k, 200, 512),
        }
        for a in rep.attempts:
            cert = fresh[a["criterion"]](a.get("n"))
            assert (cert.criterion, cert.verdict) == (a["criterion"], a["verdict"]), k
            if cert.fired:
                assert a["witness"] == cert.witness, k
        assert len(shared) == (rep.attempts[-1]["criterion"] == "MarginalStable")
        if shared:
            assert shared[0] == check_marginal_stable(k, 200, 512), k


def test_reproduce_paper_encloses_few_values(monkeypatch, capsys):
    values = _counting(monkeypatch, certify_mod, "power_series_value")
    assert cli_mod.main(["reproduce-paper"]) == 0
    capsys.readouterr()
    assert 0 < len(values) <= 100


def test_report_json_interface():
    rep = certify(renewal_kernel())
    d = report_to_dict(rep)
    assert set(d) >= {"kernel_id", "final", "attempts"}
    assert d["final"]["verdict"] in {"asymptotically_stable", "stable", "unstable", "inconclusive"}
    assert isinstance(d["attempts"], list) and d["attempts"]
    rep2 = certify(small_radius_unstable_kernel())
    d2 = report_to_dict(rep2)
    assert d2["empirical"]["kind"] == "unbounded"
    assert d2["final"]["verdict"] == "unstable"
    json.dumps(d), json.dumps(d2)


# ---------------------------------------------------------------------------
# cross-criterion invariants


def _all_rigorous_certs(kernel, max_degree=8):
    certs = [check_absolute_sum(kernel), check_efp(kernel), check_real_axis_root(kernel, 512)]
    for n in range(1, max_degree + 1):
        certs.append(check_rouche_stable(kernel, n))
        certs.append(check_rouche_unstable(kernel, n))
    return [c for c in certs if c.fired]


def test_exclusivity_no_conflicting_rigorous_certificates(rng):
    kernels = list(paper_kernels().values())
    for _ in range(20):
        kernels.append(random_bounded_kernel(rng, 0.1, 1.8))
    for k in kernels:
        fired = _all_rigorous_certs(k)
        verdicts = {c.verdict for c in fired}
        assert not ({ASYMPTOTICALLY_STABLE, UNSTABLE} <= verdicts), f"conflict on {k}"


def test_rouche_window_monotone_under_refinement(rng):
    # a certificate with strict slack keeps firing when tail terms move into the prefix
    hits = 0
    for _ in range(40):
        k = random_bounded_kernel(rng, 0.1, 0.8, q_max=0.45)
        fired_n = None
        for n in range(1, 9):
            cert = check_rouche_stable(k, n)
            if cert.fired and cert.witness["tail_hi"] < 0.5 * cert.witness["threshold"]:
                fired_n = n
                break
        if fired_n is None:
            continue
        hits += 1
        extra = int(rng.integers(1, 6))
        longer = KernelSpec(
            k.prefix + tuple(term(k, len(k.prefix) + i + 1) for i in range(extra)), k.tail
        )
        assert any(check_rouche_stable(longer, n).fired for n in range(1, 33))
    assert hits >= 10


def test_theorem1_rouche_agreement_small_ratio(rng):
    # absolute mass < 1 with a slowly decaying tail cannot be resolved by the
    # finite window: (1-r_n)^n shrinks faster than the tail; agreement is
    # checked where it is attainable, |q| <= 0.45
    for _ in range(25):
        k = random_bounded_kernel(rng, 0.1, 0.9, q_max=0.45)
        assert check_absolute_sum(k).fired
        assert any(check_rouche_stable(k, n).fired for n in range(1, 33))


def test_rigorous_certificates_match_long_simulation(rng):
    # desk-scale soundness: a rigorous certificate never contradicts the
    # observed trajectory class
    for name, k in paper_kernels().items():
        fired = _all_rigorous_certs(k, max_degree=6)
        if not fired:
            continue
        verdict = fired[0].verdict
        emp = classify(solve(k, 20_000))
        if verdict == ASYMPTOTICALLY_STABLE:
            assert emp.kind != "unbounded", name
        if verdict == UNSTABLE:
            assert emp.kind == "unbounded", name


@pytest.mark.parametrize("k, z", zero_q_pairs())
def test_zero_q_tail_certifies_like_the_zero_tail(k, z):
    # the tail kind is serialised, so only the kernel_id may differ
    a, b = (report_to_dict(certify(x, 8, 500, 512)) for x in (k, z))
    assert a.pop("kernel_id") != b.pop("kernel_id")
    assert a == b
    # a report keeps no witness of a criterion that did not fire: compare those too
    for check in (check_absolute_sum, check_efp, lambda x: check_real_axis_root(x, 512)):
        assert check(k) == check(z)
    for n in (1, 2, 3):
        assert check_rouche_stable(k, n) == check_rouche_stable(z, n)
        assert check_rouche_unstable(k, n) == check_rouche_unstable(z, n)


# ---------------------------------------------------------------------------
# the whole kernel schema


def _edge_number(nonnegative=False):
    """0, 1 and its neighbours, the least subnormal, 1e-300, 1e300 or 1.7e308,
    times a random scale factor, clamped to float range."""
    base = st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5e-324, 1e-300, 1e300, 1.7e308])
    scale = st.sampled_from([1.0, 0.5, 2.0, 1e-3, 1e3]) | st.floats(0.05, 20.0)
    sign = st.sampled_from([1.0] if nonnegative else [1.0, -1.0])
    return st.builds(lambda b, f, s: s * min(b * f, 1.7e308), base, scale, sign)


@st.composite
def _edge_payload(draw):
    tail = {"kind": "parametric", "c": draw(_edge_number()), "q": draw(_edge_number())}
    tail.update(alpha=draw(_edge_number(True)), beta=draw(_edge_number(True)))
    return {"prefix": draw(st.lists(_edge_number(), max_size=3)), "tail": tail}


@settings(derandomize=True, max_examples=200)
@given(payload=_edge_payload())
def test_every_parsed_kernel_ends_in_a_report_or_a_documented_error(payload):
    # ValueError is exit 2 and NonConvergence exit 3; anything else, a numpy
    # warning included (pyproject's filterwarnings), is a bug
    try:
        k = kernel_from_dict(payload)
        certify(k, max_degree=4, steps=200, grid_points=64)
        for mode in ("plain", "absolute", "first_moment", "first_moment_abs"):
            series_sum(k, mode)
    except (ValueError, NonConvergence):
        pass
