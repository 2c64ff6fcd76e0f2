import importlib
import json
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volterra_stability import (
    KernelFormatError,
    KernelSpec,
    SumEnclosure,
    TailModel,
    dumps_kernel,
    fixture_names,
    kernel_from_dict,
    kernel_id,
    load_fixture,
    loads_kernel,
    power_series_value,
    radius_of_convergence,
    series_sum,
    support_gcd,
    tail_abs_sum,
    term,
    terms,
)

from conftest import (
    geometric_half_kernel,
    geometric_null_kernel,
    paper_kernels,
    random_bounded_kernel,
    renewal_kernel,
    rouche_stable_pair_kernel,
    rouche_table_kernel,
    small_radius_unstable_kernel,
    zero_q_pairs,
)

kernel_mod = importlib.import_module("volterra_stability.kernel")


# ---------------------------------------------------------------------------
# term


def test_term_renewal():
    assert term(renewal_kernel(), 3) == pytest.approx(1.0 / 12.0, abs=0)


def test_term_past_zero_tail_prefix():
    k = KernelSpec((4.0, -4.0), TailModel.zero())
    assert term(k, 3) == 0.0
    assert term(k, 1) == 4.0 and term(k, 2) == -4.0


def test_term_table_kernel_tail():
    assert term(rouche_table_kernel(), 7) == pytest.approx(1.0 / 8192.0, abs=0)


def test_term_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        term(renewal_kernel(), 0)


def test_terms_vector_matches_scalar(rng):
    # term and terms share one formula, so they agree bit for bit
    kernels = [load_fixture(name) for name in fixture_names()]
    kernels += [random_bounded_kernel(rng, 0.5, 2.5) for _ in range(30)]
    for k in kernels:
        vec = terms(k, 400)
        assert vec[0] == 0.0
        for n in range(1, 401):
            assert vec[n] == term(k, n)


def test_term_overflows_like_terms():
    # 2^2000 is beyond float range: both give inf, neither raises
    k = KernelSpec((), TailModel.parametric(1.0, 2.0))
    assert term(k, 2000) == terms(k, 2000)[2000] == math.inf


def test_term_with_overflowing_denominator():
    # 11^300 is beyond float range, while a_11 = 1e300 2^-11 / 11^300 is 1.9e-16
    k = KernelSpec((), TailModel.parametric(1e300, 0.5, 300.0, 0.0))
    with mpmath.workdps(50):
        exact = mpmath.mpf(1e300) * mpmath.mpf(0.5) ** 11 / mpmath.mpf(11) ** 300
        assert term(k, 11) == terms(k, 11)[11]
        assert abs(term(k, 11) - exact) <= 1e-9 * exact


@pytest.mark.parametrize(
    "tail, n, precision",
    [
        # every term past a_10 has a denominator i^300 beyond float range
        (TailModel.parametric(1e300, 0.5, 300.0, 0.0), 10, 1e-12),
        (TailModel.parametric(1e300, 1.0, 300.0, 0.0), 10, 1e-12),
        # q^4 underflows to 0, while a_4 = 1e300 q^4 / 4^1e-7 is 2.7e-43
        (TailModel.parametric(1e300, 2.281118027106985e-86, 1e-7, 0.0), 3, 1e-3),
        # 0.7^i is subnormal in every term summed one by one, i > 2050
        (TailModel.parametric(1e300, 0.7, 1.0, 0.0), 2050, 1e-40),
    ],
    ids=["denominator-overflow", "denominator-overflow-unit-ratio", "numerator-underflow", "many-subnormal-powers"],
)
def test_tail_abs_sum_with_terms_past_float_range(tail, n, precision):
    k = KernelSpec((), tail)
    value = _ref_value(k, 0, True, n=n)
    assert value > 1e-43 and _holds(tail_abs_sum(k, n, precision), value)


_TELESCOPING = TailModel.parametric(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "fn, tail, n",
    [
        (term, _TELESCOPING, 10**400),
        (term, TailModel.zero(), 10**400),
        # the least integer that float() rounds past float range
        (term, TailModel.zero(), 2**1024 - 2**970),
        (tail_abs_sum, _TELESCOPING, 10**400),
        (tail_abs_sum, TailModel.parametric(1.0, 0.5, 2.0, 0.0), 10**400),
        (tail_abs_sum, TailModel.parametric(1.0, 1.0, 2.0, 0.0), 2**1024 - 2**970 - 1),
    ],
    ids=["term", "term-zero-tail", "term-float-end", "telescoping", "bracketed", "euler-maclaurin-float-end"],
)
def test_index_beyond_float_range_rejected(fn, tail, n):
    with pytest.raises(ValueError, match="index must be below float range"):
        fn(KernelSpec((), tail), n)


def test_tail_start_past_2_53_is_unknown():
    # float(2^60 + 2^7) is 2^60, which moves q^m by 128 (1 - q), 128 u relative:
    # past 2^53 no count of roundings bounds a tail that needs float indices
    n = 2**60 + 2**7 - 1
    assert tail_abs_sum(KernelSpec((), TailModel.parametric(1.0, 1.0 - 2.0**-53)), n).status == "unknown"
    enc = tail_abs_sum(KernelSpec((), _TELESCOPING), n)
    assert Fraction(enc.lo) <= Fraction(1, n + 1) <= Fraction(enc.hi)


def test_index_beyond_float_range_on_zero_or_divergent_tail():
    # nothing to sum, or divergence decided before any index is used
    assert tail_abs_sum(KernelSpec((), TailModel.zero()), 10**400) == SumEnclosure.finite(0.0, 0.0)
    assert tail_abs_sum(KernelSpec((), TailModel.parametric(1.0, 2.0)), 10**400).is_divergent
    assert term(KernelSpec((), TailModel.zero()), 2**1024 - 2**970 - 1) == 0.0


# ---------------------------------------------------------------------------
# series_sum


def test_series_renewal_plain_is_exactly_one():
    enc = series_sum(renewal_kernel(), "plain", 1e-12)
    assert enc.is_finite and enc.contains(1.0) and enc.width <= 1e-12


def test_series_finite_prefix_absolute():
    enc = series_sum(KernelSpec((0.5,), TailModel.zero()), "absolute")
    assert (enc.lo, enc.hi) == (0.5, 0.5)


def test_series_renewal_first_moment_divergent():
    assert series_sum(renewal_kernel(), "first_moment").is_divergent


def test_series_geometric_first_moment_value():
    # sum n (1/2)^n = 2
    enc = series_sum(geometric_half_kernel(), "first_moment", 1e-12)
    assert enc.is_finite and enc.contains(2.0) and enc.width < 1e-12


def test_series_modes_validated():
    with pytest.raises(ValueError):
        series_sum(renewal_kernel(), "bogus")
    with pytest.raises(ValueError):
        series_sum(renewal_kernel(), "plain", 0.0)
    with pytest.raises(ValueError):
        power_series_value(KernelSpec((2.0,), TailModel.zero()), 0.25, 0.0)


def test_enclosure_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        SumEnclosure.finite(1.0, 0.0)


def test_series_alternating_cubic_absolute_is_one():
    from conftest import alternating_cubic_kernel

    enc = series_sum(alternating_cubic_kernel(), "absolute", 1e-10)
    assert enc.is_finite and enc.contains(1.0) and enc.width <= 1e-10


def test_series_alternating_conditional_plain():
    # c (-1)^n / n converges conditionally to -c ln 2
    k = KernelSpec((), TailModel.parametric(1.0, -1.0, 1.0, 0.0))
    enc = series_sum(k, "plain", 1e-5)
    assert enc.is_finite and enc.width <= 1e-5
    assert enc.contains(-math.log(2.0))


@pytest.mark.parametrize(
    "kernel, mode, precision, value, may_be_unknown",
    [
        # n (-1)^n / (n+1)^1.1: the bisection for the stop index probes m = 6
        # and 8, below where the alternating terms start to decrease
        (KernelSpec((), TailModel.parametric(1.0, -1.0, 0.0, 1.1)), "first_moment", 2.0, -0.18653856746601612, False),
        # Sum 1/n^6000 = 1 + 2^-6000: the Euler-Maclaurin integral leaves float range
        (KernelSpec((), TailModel.parametric(1.0, 1.0, 6000.0, 0.0)), "plain", 1e-12, 1.0, True),
        # Sum n a_n = 1.7e308 ln 4 and its partial sums leave float range
        (KernelSpec((), TailModel.parametric(1.7e308, 0.75, 2.0)), "first_moment", 1e-9, math.inf, True),
    ],
    ids=["alternating-before-decrease", "euler-maclaurin-integral-overflow", "partial-sum-overflow"],
)
def test_series_sum_branch_edges(kernel, mode, precision, value, may_be_unknown):
    enc = series_sum(kernel, mode, precision)
    assert enc.contains(value) or (may_be_unknown and enc.status == "unknown")


@pytest.mark.parametrize("mode", ["plain", "absolute", "first_moment", "first_moment_abs"])
@pytest.mark.parametrize("q", [0.5, 1.0, -1.0])
def test_series_sum_with_alpha_plus_beta_past_float_range(q, mode):
    # a_1 = q 2^-1e308 and every later term is smaller still: no OverflowError,
    # and an enclosure of the tail below ulp(0) at every ratio
    enc = series_sum(KernelSpec((), TailModel.parametric(1.0, q, 1e308, 1e308)), mode)
    assert enc.contains(0.0) and enc.width < 1e-300


@pytest.mark.parametrize("mode", ["first_moment", "first_moment_abs"])
@pytest.mark.parametrize(
    "n, q", [(418, 0.9990968348423492), (37, 0.9982309884126499), (1151, 0.9941017058689159)]
)
def test_geometric_first_moment_closed_form_after_long_prefix(n, q, mode):
    # Sum_{i>n} i q^i = q^(n+1) ((n+1)(1-q) + q) / (1-q)^2: the form
    # m - (m-1) q of the bracket cancels for q near 1, by about min(m, 1/(1-q))
    k = KernelSpec((0.0,) * n, TailModel.parametric(1.0, q))
    with mpmath.workdps(50):
        r, m = mpmath.mpf(q), n + 1
        assert _holds(series_sum(k, mode), r**m * (m * (1 - r) + r) / (1 - r) ** 2)


def test_series_alternating_conditional_unknown_at_tight_precision():
    k = KernelSpec((), TailModel.parametric(1.0, -1.0, 1.0, 0.0))
    assert series_sum(k, "plain", 1e-12).status == "unknown"


# ---------------------------------------------------------------------------
# tail_abs_sum


def test_tail_abs_table_from_six():
    enc = tail_abs_sum(rouche_table_kernel(), 6)
    assert enc.is_finite and enc.contains(1.0 / 4096.0)
    assert enc.width < 1e-12


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_tail_abs_one_nineteenth(sign):
    enc = tail_abs_sum(rouche_stable_pair_kernel(sign), 2)
    assert enc.is_finite and enc.width <= 1e-12
    assert enc.contains(1.0 / 19.0)


def test_tail_abs_table_l4_l5():
    l4 = tail_abs_sum(rouche_table_kernel(), 4)
    l5 = tail_abs_sum(rouche_table_kernel(), 5)
    assert l4.width <= 1e-5 and abs(l4.hi - 0.24716) < 5e-6
    assert abs(l5.hi - 0.04963) < 5e-6


def test_tail_abs_divergent_for_growing_ratio():
    assert tail_abs_sum(small_radius_unstable_kernel(2.0), 5).is_divergent


@pytest.mark.parametrize(
    "q, alpha, mode",
    [(1.0, 1.0, "absolute"), (1.0, 2.0, "first_moment"), (-1.0, 1.0, "first_moment")],
)
def test_divergence_decided_on_the_exact_exponent(q, alpha, mode):
    # alpha + beta - weight exceeds the bound (1 for q = 1, 0 for q = -1) by
    # 2^-60, which the rounded sum alpha + beta - weight loses: the series
    # converges, so no divergence proof exists; at beta = 0 it does diverge
    k = KernelSpec((), TailModel.parametric(1.0, q, alpha, 2.0**-60))
    assert not series_sum(k, mode).is_divergent
    assert series_sum(KernelSpec((), TailModel.parametric(1.0, q, alpha, 0.0)), mode).is_divergent


def test_tail_abs_rejects_negative_index():
    with pytest.raises(ValueError):
        tail_abs_sum(renewal_kernel(), -1)
    with pytest.raises(ValueError, match="precision"):
        tail_abs_sum(rouche_table_kernel(), 0, 0.0)


# ---------------------------------------------------------------------------
# edges of float range


@pytest.mark.parametrize("q", [1.0, -1.0])
def test_series_at_unit_ratio_slow_decay_by_euler_maclaurin(q):
    # a tail like 1/n^(1+1e-7), about 1e7 in all, takes the Euler-Maclaurin
    # branch wherever its ratio is 1
    k = KernelSpec((), TailModel.parametric(1.0, q, 1.0000001, 0.0))
    cases = [(series_sum(k, "absolute", 1e-6), 1), (tail_abs_sum(k, 3, 1e-6), 4)]
    if q == 1.0:
        cases.append((series_sum(k, "plain", 1e-6), 1))
    else:
        # the alternating remainder at 1e-12 needs far more terms than the budget
        assert series_sum(k, "plain").status == "unknown"
    with mpmath.workdps(50):
        for enc, m in cases:
            assert enc.is_finite and enc.width <= 1e-6
            assert _holds(enc, mpmath.zeta(mpmath.mpf(1.0000001), m))
    # one ulp of a sum near 1e7 is 1.9e-9: no enclosure is 1e-12 wide
    assert series_sum(k, "absolute").status == "unknown"
    assert series_sum(k, "first_moment_abs").is_divergent


def test_unit_ratio_sums_take_at_most_64_terms(monkeypatch):
    # every q = 1 sum, after the fold of |q| = 1 in the absolute modes, sums
    # at most 64 terms one by one ahead of its Euler-Maclaurin formula; on the
    # nine fixtures and one kernel of each q = -1 and edge class of the
    # kernel_sweep benchmark
    kernels = [load_fixture(name) for name in fixture_names()] + [
        KernelSpec((), TailModel.parametric(1.5 / (math.pi**2 / 6.0 - 1.0), -1.0, 2.0, 1.0)),
        KernelSpec((), TailModel.parametric(1.0 / 1.2020569031595942, -1.0, 3.0, 0.0)),
        KernelSpec((), TailModel.parametric(90.0 / math.pi**4, -1.0, 4.0, 0.0)),
        KernelSpec((), TailModel.parametric(1.3, 1.0, 1.0 + 5e-8, 0.0)),
        KernelSpec((1.2e308, 1.5e308), TailModel.zero()),
    ]
    sizes = []
    tail_terms = kernel_mod._tail_terms

    def counted(c, q, alpha, beta, i):
        if q == 1.0:
            sizes.append(i.size)
        return tail_terms(c, q, alpha, beta, i)

    monkeypatch.setattr(kernel_mod, "_tail_terms", counted)
    for k in kernels:
        for mode in _MODES:
            for precision in (1e-6, 1e-9, 1e-12):
                series_sum(k, mode, precision)
        for n in range(33):
            tail_abs_sum(k, n)
    assert sizes and max(sizes) <= 64


def test_unit_ratio_sum_beyond_float_range_is_unknown():
    # 1.7e308 (1/n^1.5 from n = 2 on) leaves float range inside math.fsum
    k = KernelSpec((), TailModel.parametric(1.7e308, 1.0, 1.5))
    assert tail_abs_sum(k, 1, 1e306).status == "unknown"


def test_prefix_beyond_float_range_is_unknown():
    k = KernelSpec((1e308, 1e308), TailModel.zero())
    assert series_sum(k, "absolute").status == "unknown"
    assert series_sum(k, "first_moment").status == "unknown"
    assert tail_abs_sum(k, 0).status == "unknown"
    assert tail_abs_sum(k, 1) == series_sum(KernelSpec((1e308,), TailModel.zero()), "absolute")
    assert power_series_value(k, 0.5).is_finite


def test_prefix_sums_contain_exact_rational(rng):
    for _ in range(500):
        prefix = tuple(float(v) for v in rng.normal(size=int(rng.integers(1, 8))) * 10.0 ** rng.integers(-5, 5))
        k = KernelSpec(prefix, TailModel.zero())
        exact = sum(abs(Fraction(v)) for v in prefix)
        enc = tail_abs_sum(k, 0)
        assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)
        assert (enc.width == 0.0) == (Fraction(enc.lo) == exact)
        moment = series_sum(k, "first_moment")
        exact = sum(Fraction(v) * (i + 1) for i, v in enumerate(prefix))
        assert Fraction(moment.lo) <= exact <= Fraction(moment.hi)


# ---------------------------------------------------------------------------
# invariants


def test_bracketing_geometric_contains_closed_form(rng):
    for _ in range(200):
        npre = int(rng.integers(0, 5))
        pref = tuple(rng.normal(size=npre))
        c = float(rng.normal())
        q = float(rng.uniform(-0.95, 0.95))
        k = KernelSpec(pref, TailModel.parametric(c, q))
        enc = series_sum(k, "absolute", 1e-9)
        if not enc.is_finite:
            assert c == 0.0
            continue
        with mpmath.workdps(40):
            true = mpmath.fsum(abs(v) for v in pref)
            if c != 0.0:
                m = npre + 1
                true += abs(mpmath.mpf(c)) * abs(mpmath.mpf(q)) ** m / (1 - abs(mpmath.mpf(q)))
            assert enc.lo <= float(true) + 1e-300
            assert float(true) <= enc.hi + 1e-300
            assert mpmath.mpf(enc.lo) <= true <= mpmath.mpf(enc.hi)


def _linear_stop(log_rem, first, log_target, last):
    return next((m for m in range(first, last + 1) if log_rem(m) <= log_target), None)


_STOP_FUNCTIONS = {
    "finite": lambda m: 5.0 - 1.5 * math.log(m),
    "plateaus": lambda m: 40.0 - 7.0 * (m // 9),
    # +inf before the first index where the alternating remainder is claimed
    "inf_prefix": lambda m: math.inf if m < 37 else -0.25 * m,
    "never": lambda m: 3.0 if m < 20 else 1.0,
}


@pytest.mark.parametrize("name", sorted(_STOP_FUNCTIONS))
def test_stop_index_matches_linear_scan(name):
    f = _STOP_FUNCTIONS[name]
    for first, last in [(1, 1), (7, 7), (36, 36), (37, 37), (1, 2), (1, 500), (30, 4_000)]:
        for log_target in (-math.inf, -20.0, -9.25, 0.0, 2.0, 3.0):
            expect = _linear_stop(f, first, log_target, last)
            assert kernel_mod._stop_index(f, first, log_target, last) == expect, (first, last, log_target)


def test_stop_index_over_the_term_budget():
    last = kernel_mod._TERM_BUDGET
    assert kernel_mod._stop_index(lambda m: -float(m), 1, -5_000_000.5, last) == 5_000_001
    assert kernel_mod._stop_index(lambda m: -float(m), 1, -float(last), last) == last
    assert kernel_mod._stop_index(lambda m: -float(m), 1, -float(last) - 0.5, last) is None


def test_telescoping_exact_width_zero():
    # Sum_{i>n} |c|/(i(i+1)) = |c|/(n+1): a point exactly when the float quotient is exact
    for c in (1.0, -2.5, 0.3):
        k = KernelSpec((), TailModel.parametric(c, 1.0, 1.0, 1.0))
        for n in range(0, 12):
            enc = tail_abs_sum(k, n)
            true = Fraction(abs(c)) / (n + 1)
            assert Fraction(enc.lo) <= true <= Fraction(enc.hi)
            assert (enc.width == 0.0) == (Fraction(abs(c) / (n + 1)) == true)


def test_tail_monotonicity(rng):
    kernels = [
        renewal_kernel(),
        rouche_table_kernel(),
        rouche_stable_pair_kernel(),
        geometric_half_kernel(),
    ]
    for _ in range(30):
        c = float(rng.normal())
        q = float(rng.uniform(-0.9, 0.9))
        kernels.append(KernelSpec(tuple(rng.normal(size=3)), TailModel.parametric(c, q, 1.0, 0.0)))
    for k in kernels:
        prev = None
        for n in range(0, 12):
            enc = tail_abs_sum(k, n)
            assert enc.is_finite
            if prev is not None:
                assert enc.hi <= prev + 1e-15 * (1.0 + abs(prev))
            prev = enc.hi


def test_absolute_sum_consistency_with_tail():
    for k in (renewal_kernel(), rouche_table_kernel(), rouche_stable_pair_kernel(), geometric_half_kernel()):
        total = series_sum(k, "absolute", 1e-12)
        pref = math.fsum(abs(v) for v in k.prefix)
        tail = tail_abs_sum(k, len(k.prefix))
        lo = pref + tail.lo
        hi = pref + tail.hi
        slack = 1e-12 * (1.0 + abs(hi))
        assert total.lo <= hi + slack and lo <= total.hi + slack


def test_divergence_soundness_partial_sums_grow():
    # whenever Divergent is reported, desk-scale partial sums must blow past a fixed bound
    cases = [
        (small_radius_unstable_kernel(2.0), "absolute", 1e3),
        (renewal_kernel(), "first_moment", 10.0),
        (geometric_null_kernel(3.0), "absolute", 1e6),
    ]
    for k, mode, bound in cases:
        enc = series_sum(k, mode)
        assert enc.is_divergent
        weight_first = mode.startswith("first")
        total = 0.0
        n0 = 1
        for n1 in (1000, 10_000, 1_000_000):
            with np.errstate(over="ignore"):
                a = terms(k, n1)[n0:]
                idx = np.arange(n0, n1 + 1, dtype=float)
                vals = np.abs(a) * (idx if weight_first else 1.0)
                total += float(np.sum(vals[np.isfinite(vals)]))
            n0 = n1 + 1
            if total > bound:
                break
        assert total > bound


def test_power_series_value_linear_prefix():
    k = KernelSpec((2.0,), TailModel.zero())
    enc = power_series_value(k, 0.25)
    assert enc.contains(0.5) and enc.width < 1e-12


def test_power_series_value_renewal_against_mpmath():
    k = renewal_kernel()
    for t in (0.5, -0.5, 0.9, -0.97):
        enc = power_series_value(k, t, 1e-11)
        assert enc.is_finite
        with mpmath.workdps(40):
            true = mpmath.nsum(lambda n: mpmath.mpf(t) ** n / (n * (n + 1)), [1, mpmath.inf])
            assert mpmath.mpf(enc.lo) <= true <= mpmath.mpf(enc.hi)
        assert enc.width <= 2e-10


def test_power_series_outside_radius_unknown():
    assert power_series_value(small_radius_unstable_kernel(2.0), 0.75).status == "unknown"
    # |t| lies below R = 1/3, but the bound |fl(3t)| (1 + eps) on the ratio rounds to 1
    t = math.nextafter(1.0 / 3.0, 0.0)
    assert power_series_value(KernelSpec((), TailModel.parametric(1.0, 3.0)), t).status == "unknown"


def _far_end_ref(kernel, g):
    """(K, log E): E >= Sum_{k>K} |a_k| g^k is the smaller of geometric domination,
    |c| r^(K+1) / (1 - r) with r = |q| g rounded up and the polynomial factor frozen
    at K + 1, and, where s = alpha + beta > 1, |c| K^(1-s) / (s - 1), both in log
    space; K is the first of 16, 32, ..., 512 at or past N with E <= 1e-6, else
    max(N, 512)."""
    n = kernel.prefix_len
    tm = kernel.tail

    def log_far(k):
        if tm.q == 0.0:
            return -math.inf
        r = math.nextafter(abs(tm.q) * g, math.inf)
        geo = math.log(abs(tm.c)) + ((k + 1) * math.log(r) - math.log1p(-r))
        geo = geo - tm.alpha * math.log(k + 1) - tm.beta * math.log(k + 2)
        s1 = math.fsum((tm.alpha, tm.beta, -1.0)) if tm.alpha + tm.beta < math.inf else math.inf
        if not s1 > 0.0:
            return geo
        return min(geo, math.log(abs(tm.c)) - s1 * math.log(k) - math.log(s1))

    k_max = next((k for k in (16, 32, 64, 128, 256, 512) if k >= n and log_far(k) <= math.log(1e-6)), max(n, 512))
    return k_max, log_far(k_max)


def _value_upper_bound_ref(kernel, grid):
    """The real-axis float bound written out: with g the grid's far end, b_k = a_k g^k
    (the prefix's a_k times g^k, the tail's terms by the one tail formula at the
    ratio q g), two Horner loops in u = t/g, and the far-end rest E u^(K+1)."""
    g = float(grid[-1])
    k_max, log_e = _far_end_ref(kernel, g)
    far = math.exp(log_e) * (1.0 + 1e-10) if log_e < 709.0 else math.inf
    tm = kernel.tail
    n = kernel.prefix_len
    u = grid / g
    x = np.stack([u, -u])
    eps = 2.0 ** -52
    with np.errstate(all="ignore"):
        tail = kernel_mod._tail_terms(tm.c, tm.q * g, tm.alpha, tm.beta, np.arange(n + 1, k_max + 1, dtype=float))
        # numpy's pow, as in _tail_terms: Python's can differ in the last bit
        b = list(np.array(kernel.prefix) * np.power(g, np.arange(1.0, n + 1.0))) + list(tail)
        val = np.zeros_like(x)
        mag = np.zeros_like(grid)
        for bk in b[::-1]:
            val = (val + bk) * x
            mag = (mag + abs(bk)) * u
        rest = far * u ** (k_max + 1) * (1.0 + 4.0 * (k_max + 2) * eps)
        lost = float(np.sum(np.abs(kernel.prefix) * math.ulp(0.0)))
        tiny = ((k_max + 1) * (abs(tm.c) + 2.0) + far) * math.ulp(0.0) + lost
        return val + rest + ((4 * k_max + 64) * eps * (mag + rest) + tiny)


def test_value_upper_bound_matches_horner_reference(rng):
    kernels = list(paper_kernels().values())
    kernels += [random_bounded_kernel(rng, 0.5, 2.5) for _ in range(30)]
    # the geometric rest at the far end of 4,096 points reaches 1e-6 at K = 16,
    # 32, ..., 256, and only the cap stops the last; one more by the power law
    by_degree = [KernelSpec((), TailModel.parametric(1.0, q)) for q in (0.3, 0.5, 0.75, 0.88, 0.93, 0.99)]
    by_degree.append(KernelSpec((0.2,) * 20, TailModel.parametric(1.0, 1.0, 5.0)))
    kernels += by_degree
    kernels += [
        KernelSpec((), TailModel.parametric(1.0, -1e3)),  # a_k = (-1e3)^k leave float range, b_k do not
        KernelSpec((0.0,) * 200 + (1e300,), TailModel.parametric(1.0, 1e3)),  # the prefix's g^201 underflows
        KernelSpec((1.7e308, -1.7e308, -1e308), TailModel.zero()),  # b_k near float range
        KernelSpec((), TailModel.parametric(2.0, 0.0)),  # q = 0: no far-end tail
        KernelSpec((0.5, -0.25), TailModel.zero()),
        KernelSpec(tuple(np.linspace(-1.0, 1.0, 700)), TailModel.parametric(0.3, -0.9, 1.0)),  # N > 512
        # a_k past float range before k = 512
        KernelSpec((), TailModel.parametric(0.1, 5.0, 1.0, 1.0)),
        KernelSpec((0.3,), TailModel.parametric(-0.1, -5.0, 2.0, 0.0)),
        KernelSpec((), TailModel.parametric(1.0, 1.0000000000000002, 1.7e308, 1.7e308)),  # alpha + beta = inf
        KernelSpec((), TailModel.parametric(1.0, 1.0, 1.0000001)),  # no certified far-end tail at 1e-12
    ]
    for k in kernels:
        for points in (2, 130, 4096):
            grid = np.linspace(0.0, min(1.0, radius_of_convergence(k)), points // 2 + 2)[1:-1]
            got = kernel_mod._value_upper_bound(k, grid)
            assert np.array_equal(got, _value_upper_bound_ref(k, grid), equal_nan=True), (k, points)
            if k in kernels[-4:]:
                assert np.isfinite(got).all(), (k, points)
    degrees = [_far_end_ref(k, float(np.linspace(0.0, 1.0, 2050)[-2]))[0] for k in by_degree]
    assert degrees == [16, 32, 64, 128, 256, 512, 32]


@pytest.mark.parametrize("name", ["renewal", "small_radius_unstable"])
def test_value_upper_bound_finite_at_the_finest_grid(name):
    # the far end of a 2^22-point scan lies 2^-21 inside the radius R, where no
    # certified far-end tail exists within the term budget; the domination bound
    # is finite there, and tight enough at R/2 to skip the point
    k = load_fixture(name)
    span = min(1.0, radius_of_convergence(k))
    bound = kernel_mod._value_upper_bound(k, span * np.array([0.5, 1.0 - 2.0**-21]))
    assert np.isfinite(bound).all()
    # renewal's a(1/2) = 1 - ln 2, and small_radius_unstable's a(1/4) is half of it
    exact = (1.0 - math.log(2.0)) * (0.5 if name == "small_radius_unstable" else 1.0)
    assert exact <= bound[0, 0] < 1.0


# ---------------------------------------------------------------------------
# radius / support


def test_radius_examples():
    assert radius_of_convergence(KernelSpec((1.0, 2.0), TailModel.zero())) == math.inf
    assert radius_of_convergence(small_radius_unstable_kernel(2.0)) == 0.5
    assert radius_of_convergence(renewal_kernel()) == 1.0


def test_support_gcd_examples():
    assert support_gcd(renewal_kernel()) == 1
    assert support_gcd(KernelSpec((0.0, 1.0, 0.0, 1.0), TailModel.zero())) == 2
    assert support_gcd(geometric_null_kernel()) is None
    # alternating tail: positive terms at even indices only
    k = KernelSpec((), TailModel.parametric(1.0, -0.5))
    assert support_gcd(k) == 2
    # negative c with negative q: positive at odd indices, coprime pairs exist
    k = KernelSpec((), TailModel.parametric(-1.0, -0.5))
    assert support_gcd(k) == 1


# ---------------------------------------------------------------------------
# JSON schema


def test_parse_round_trip():
    k = rouche_table_kernel()
    again = loads_kernel(dumps_kernel(k))
    assert again == k
    assert kernel_id(again) == kernel_id(k)


def test_parse_index_convention():
    k = kernel_from_dict({"prefix": [0.25], "tail": {"kind": "zero"}})
    assert term(k, 1) == 0.25


def test_parse_normalizes_zero_scale():
    k = kernel_from_dict(
        {"prefix": [], "tail": {"kind": "parametric", "c": 0.0, "q": 0.5, "alpha": 1.0, "beta": 0.0}}
    )
    assert k.tail.is_zero
    # a zero tail's fields are checked, and c = 0 with any q is the zero tail
    assert loads_kernel('{"prefix": [], "tail": {"kind": "zero", "c": 0, "q": 0.9}}') == KernelSpec((), TailModel.zero())


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"tail": {"kind": "zero"}}, "prefix"),
        ({"prefix": []}, "tail"),
        ({"prefix": [1.0], "tail": {"kind": "odd"}}, "kind"),
        ({"prefix": [1.0], "tail": {"kind": "parametric", "c": 1.0, "q": 1.0, "alpha": -1.0, "beta": 0.0}}, "alpha"),
        ({"prefix": [1.0], "tail": {"kind": "parametric", "c": 1.0, "q": 1.0, "alpha": 0.0, "beta": -0.5}}, "beta"),
        ({"prefix": [1.0], "tail": {"kind": "parametric", "c": 1.0, "q": 1.0, "alpha": 0.0}}, "beta"),
        ({"prefix": ["x"], "tail": {"kind": "zero"}}, "prefix"),
        ({"prefix": [1.0], "tail": {"kind": "parametric", "c": float("nan"), "q": 1.0, "alpha": 0.0, "beta": 0.0}}, "c"),
        ([1], "object"),
        ({"prefix": [], "tail": {}}, "kind"),
        ({"prefix": [], "tail": {"kind": "parametric", "c": "1", "q": 0.5, "alpha": 0.0, "beta": 0.0}}, "tail.c"),
        # a bad prefix element is named by its index
        ({"prefix": [0.5, "x"], "tail": {"kind": "zero"}}, "prefix[1] must be a number, got 'x'"),
        ({"prefix": [True], "tail": {"kind": "zero"}}, "prefix[0] must be a number, got True"),
        ({"prefix": [[1.0]], "tail": {"kind": "zero"}}, "prefix[0] must be a number, got [1.0]"),
        # a zero tail's fields are checked too, as TailModel checks them
        ({"prefix": [], "tail": {"kind": "zero", "c": 1.0, "q": 0.9}}, "tail.c must be 0"),
        ({"prefix": [], "tail": {"kind": "zero", "q": "x"}}, "tail.q"),
    ],
)
def test_parse_rejects_bad_fields(payload, needle):
    with pytest.raises(KernelFormatError) as err:
        kernel_from_dict(payload)
    assert needle in str(err.value)


def test_parse_rejects_nonfinite_json_text():
    with pytest.raises(KernelFormatError):
        loads_kernel('{"prefix": [Infinity], "tail": {"kind": "zero"}}')


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: KernelSpec((0.5, 10**400), TailModel.zero()), "prefix[1]"),
        (lambda: TailModel.parametric(10**400, 0.5), "tail.c"),
        (lambda: TailModel.parametric(1.0, 0.5, -(10**400)), "tail.alpha"),
        (lambda: loads_kernel('{"prefix": [%s], "tail": {"kind": "zero"}}' % (10**400)), "prefix[0]"),
        (lambda: loads_kernel('{"prefix": [], "tail": {"kind": "parametric", "c": 1, "q": %s, "alpha": 0, "beta": 0}}' % (10**400)), "tail.q"),
        # past Python's integer-literal digit limit json.loads raises ValueError
        (lambda: loads_kernel('{"prefix": [%s], "tail": {"kind": "zero"}}' % ("1" * 5000)), "invalid JSON"),
    ],
    ids=["spec_prefix", "tail_c", "tail_alpha", "json_prefix", "json_tail_q", "json_digit_limit"],
)
def test_numbers_beyond_float_range_rejected(build, field):
    with pytest.raises(KernelFormatError) as err:
        build()
    assert field in str(err.value)


@pytest.mark.parametrize(
    "build, message",
    [
        # had the kernel_id of the zero tail, yet certified RealAxisRoot
        (lambda: TailModel("zero", 1.0, 0.9), "tail.c must be 0 for a zero tail, got 1.0"),
        (lambda: TailModel("parametric", math.nan, 0.5), "tail.c must be finite, got nan"),
        (lambda: TailModel("parametric", 1.0, math.inf), "tail.q must be finite, got inf"),
        (lambda: TailModel("parametric", 1.0, 0.5, -2.0), "tail.alpha must be >= 0, got -2.0"),
        (lambda: TailModel("weird", 1.0, 0.5), "tail.kind must be 'zero' or 'parametric', got 'weird'"),
        (lambda: TailModel("parametric", "1", 0.5), "tail.c must be a number, got '1'"),
        (lambda: TailModel.parametric(True, 0.5), "tail.c must be a number, got True"),
        (lambda: TailModel.parametric(1.0, Decimal("0.5")), "tail.q must be a number, got Decimal('0.5')"),
        (lambda: KernelSpec(("1.5",), TailModel.zero()), "prefix[0] must be a number, got '1.5'"),
        (lambda: KernelSpec((0.5, True), TailModel.zero()), "prefix[1] must be a number, got True"),
        (lambda: KernelSpec((None,), TailModel.zero()), "prefix[0] must be a number, got None"),
    ],
    ids=["zero-with-c", "nan-c", "inf-q", "negative-alpha", "unknown-kind", "string-c", "bool-c", "decimal-q",
         "string-prefix", "bool-prefix", "none-prefix"],
)
def test_kernel_checks_its_own_fields(build, message):
    # the parser and the Python API apply the same rules, when a kernel is built
    with pytest.raises(KernelFormatError) as err:
        build()
    assert str(err.value) == message


def test_kernel_fields_accept_real_numbers():
    k = KernelSpec((np.float32(0.5), np.int64(2), Fraction(1, 4)), TailModel("parametric", Fraction(1, 2), np.float32(0.5), np.int64(1)))
    assert k == KernelSpec((0.5, 2.0, 0.25), TailModel.parametric(0.5, 0.5, 1.0))
    assert {type(v) for v in k.prefix + (k.tail.c, k.tail.q, k.tail.alpha, k.tail.beta)} == {float}


def test_zero_scale_is_the_zero_tail():
    # c = 0 is the zero sequence, however the tail is built
    assert TailModel("parametric", 0.0, 0.5) == TailModel.zero()
    assert TailModel("parametric", -0.0, 3.0, 1.0, 2.0) == TailModel("zero", 0, 0.9) == TailModel.zero()


_ANY_FIELD = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(),
    st.just(0.0),
    st.integers(),
    st.fractions(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.decimals(allow_nan=False),
)


@given(
    st.lists(_ANY_FIELD, max_size=4),
    st.sampled_from(["zero", "parametric", "weird"]),
    _ANY_FIELD,
    _ANY_FIELD,
    st.one_of(_ANY_FIELD, st.sampled_from([0.0, 1.0, 2.5])),
    st.one_of(_ANY_FIELD, st.sampled_from([0.0, 1.0, 2.5])),
)
def test_every_buildable_kernel_round_trips(prefix, kind, c, q, alpha, beta):
    try:
        k = KernelSpec(tuple(prefix), TailModel(kind, c, q, alpha, beta))
    except KernelFormatError:
        return
    again = loads_kernel(dumps_kernel(k))
    assert again == k and kernel_id(again) == kernel_id(k)


def test_kernel_id_distinguishes():
    assert kernel_id(renewal_kernel()) != kernel_id(geometric_half_kernel())
    assert len(kernel_id(renewal_kernel())) == 64


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=6),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-0.99, 0.99, allow_nan=False),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 1.0]),
)
def test_round_trip_property(prefix, c, q, alpha, beta):
    k = KernelSpec(tuple(prefix), TailModel.parametric(c, q, alpha, beta))
    again = kernel_from_dict(json.loads(dumps_kernel(k)))
    assert again == k


@given(st.floats(0.01, 0.95), st.floats(-5, 5), st.integers(0, 8))
def test_geometric_closed_form_bracketing(q, c, n_extra):
    k = KernelSpec((), TailModel.parametric(c, q))
    enc = tail_abs_sum(k, n_extra)
    if c == 0.0:
        assert enc.lo == enc.hi == 0.0
        return
    m = n_extra + 1
    closed = abs(c) * q ** m / (1.0 - q)
    assert enc.lo <= closed <= enc.hi


# ---------------------------------------------------------------------------
# soundness: every finite enclosure holds the value computed by mpmath at
# 50 digits.  Each branch of the tail enclosure gets its own case generator.

_BRANCHES = (
    "closed_geometric",
    "telescoping",
    "integral",
    "alternating_absolute",
    "alternating_conditional",
    "geometric_dominated",
)
# s = alpha + beta - weight just above 1, where the remainder bounds are weakest
_S_ABOVE_ONE = (1.0 + 1e-7, 1.001, 1.05, 1.5, 3.0)
_S_UP_TO_ONE = (1e-3, 0.3, 1.0 - 1e-7, 1.0)
# mode -> (weight, absolute)
_MODES = {"plain": (0, False), "absolute": (0, True), "first_moment": (1, False), "first_moment_abs": (1, True)}
_EDGE_Q = (1.0 - 1e-3, -(1.0 - 1e-3))
_EPS = 2.0**-52


def _tail_ref(q, alpha, beta, weight, m):
    """Sum_{i>=m} q^i i^(weight-alpha) (i+1)^(-beta) at the working precision."""
    q, a, b = mpmath.mpf(q), mpmath.mpf(alpha), mpmath.mpf(beta)
    s = a + b - weight

    def term(i):
        return q**i * mpmath.mpf(i) ** (weight - a) * mpmath.mpf(i + 1) ** -b

    if abs(q) < 0.95:
        # direct sum (nsum's extrapolation misses alternating geometric tails,
        # e.g. q = -0.6595 from m = 3 by 8%): |term_{j+1}/term_j| is at most
        # rho_j = |q| (1 + 1/j)^max(weight-a, 0), falling in j, so once
        # rho_i < 1 the rest from i on is at most |term_i| / (1 - rho_i)
        p, total, i = max(weight - a, 0), mpmath.mpf(0), m
        while True:
            total += term(i)
            i += 1
            rho, nxt = abs(q) * (1 + mpmath.mpf(1) / i) ** p, abs(term(i))
            if rho < 1 and nxt / (1 - rho) <= mpmath.mpf(10) ** -60 * abs(total):
                return total
    if q == 1 and a == b == 1 and weight == 0:
        return mpmath.mpf(1) / m
    if q == 1 and b == 0:
        return mpmath.zeta(s, m)
    if q == 1:
        # (i+1)^-b = i^-b (1 + 1/i)^-b turns the sum into Hurwitz zetas,
        # converging like p^-k once the first 32 terms are summed directly
        p = m + 32
        total, k = mpmath.fsum(term(i) for i in range(m, p)), 0
        while True:
            part = mpmath.binomial(-b, k) * mpmath.zeta(s + k, p)
            total += part
            if abs(part) <= mpmath.mpf(10) ** -60 * abs(total):
                return total
            k += 1
    if b == 0:
        # few head terms, all of the size of the tail: no cancellation to speak of
        full = -mpmath.altzeta(s) if q == -1 else mpmath.re(mpmath.polylog(s, q))
        return full - mpmath.fsum(term(i) for i in range(1, m))
    assert q == -1
    return mpmath.nsum(term, [m, mpmath.inf])


def _ref_value(kernel, weight, absolute, n=0, t=None):
    """Sum_{i>n} w(a_i) (t^i), prefix included, at 50 digits.

    The prefix is summed exactly: a 50-digit running sum drops a tiny term
    between cancelling ones, as in 1 + 5e-209 - 1.
    """
    tm = kernel.tail
    with mpmath.workdps(50):
        exact = sum(
            Fraction(abs(v) if absolute else v) * i**weight * (Fraction(t) ** i if t is not None else 1)
            for i, v in enumerate(kernel.prefix[n:], start=n + 1)
        )
        total = mpmath.mpf(exact.numerator) / exact.denominator
        if not tm.is_zero:
            c, q = (abs(tm.c), abs(tm.q)) if absolute else (tm.c, tm.q)
            ratio = mpmath.mpf(q) * mpmath.mpf(t) if t is not None else q
            m = max(n, len(kernel.prefix)) + 1
            total += mpmath.mpf(c) * _tail_ref(ratio, tm.alpha, tm.beta, weight, m)
        return total


def _holds(enc, value) -> bool:
    # the reference itself is good to about 45 of its 50 digits
    slack = abs(value) * mpmath.mpf(10) ** -45
    return mpmath.mpf(enc.lo) - slack <= value <= mpmath.mpf(enc.hi) + slack


def _tight(enc, precision) -> bool:
    """At most precision wide beyond the 4 eps relative pad on each side."""
    return enc.width <= precision + 8 * _EPS * max(abs(enc.lo), abs(enc.hi))


@st.composite
def _tail_case(draw, branch, modes=tuple(_MODES)):
    """(kernel, mode) with mode in ``modes``, whose tail enclosure takes ``branch``.

    A quarter of the draws take a prefix of up to 2,000 entries, mostly zeros,
    so that the tail starts late.
    """
    prefix = tuple(draw(st.lists(st.floats(-4.0, 4.0), max_size=3)))
    if draw(st.integers(0, 3)) == 0:
        prefix += (0.0,) * draw(st.integers(0, 2000))
    # subnormal, tiny, ordinary and huge scales
    c = draw(st.sampled_from([5e-324, 3e-310, 1e-200, 1e-9, 1.0, 40.0, 1e300])) * draw(st.sampled_from([1.0, -1.0, 0.7]))
    if branch == "closed_geometric":
        q = draw(st.sampled_from(_EDGE_Q) | st.floats(-0.99, 0.99).filter(bool))
        return KernelSpec(prefix, TailModel.parametric(c, q)), draw(st.sampled_from(modes))
    # |q| = 1 takes the absolute modes to the q = 1 branches
    folds = st.sampled_from([1.0, -1.0])
    if branch == "telescoping":
        mode = draw(st.sampled_from([m for m in modes if m in ("plain", "absolute")]))
        q = draw(folds) if mode == "absolute" else 1.0
        return KernelSpec(prefix, TailModel.parametric(c, q, 1.0, 1.0)), mode
    if branch.startswith("alternating"):
        mode = draw(st.sampled_from([m for m in modes if m in ("plain", "first_moment")]))
        q = -1.0
        s = draw(st.sampled_from(_S_ABOVE_ONE if branch == "alternating_absolute" else _S_UP_TO_ONE))
    elif branch == "integral":
        mode = draw(st.sampled_from(modes))
        q = draw(folds) if _MODES[mode][1] else 1.0
        s = draw(st.sampled_from(_S_ABOVE_ONE))
    else:
        mode = draw(st.sampled_from(modes))
        q = draw(st.sampled_from(_EDGE_Q) | st.floats(-0.9, 0.9).filter(bool))
        s = draw(st.sampled_from([1e-7, 0.5, 2.5])) - _MODES[mode][0]
    weight = _MODES[mode][0]
    # the polylog closed form needs beta = 0 where |q| is near 1 but not 1
    beta = 0.0 if q in _EDGE_Q else min(draw(st.sampled_from([0.0, 0.5, 1.0])), s + weight)
    alpha = s + weight - beta
    if branch == "integral" and weight and draw(st.booleans()):
        # alpha < weight: the Euler-Maclaurin sum splits the summand in two
        alpha = draw(st.sampled_from([0.0, 0.5, 0.99]))
        beta = s + weight - alpha
    assume(not (alpha == beta == 1.0 and weight == 0))
    return KernelSpec(prefix, TailModel.parametric(c, q, alpha, beta)), mode


_PRECISIONS = st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12])


@pytest.mark.parametrize("branch", _BRANCHES)
@settings(max_examples=25)
@given(data=st.data())
def test_series_sum_contains_mpmath_value(branch, data):
    kernel, mode = data.draw(_tail_case(branch))
    precision = data.draw(_PRECISIONS)
    enc = series_sum(kernel, mode, precision)
    if enc.is_finite:
        assert _holds(enc, _ref_value(kernel, *_MODES[mode]))
        # the Euler-Maclaurin sums of the q = 1 tails
        assert branch != "integral" or _tight(enc, precision)


@pytest.mark.parametrize("branch", ["closed_geometric", "telescoping", "integral", "geometric_dominated"])
@settings(max_examples=25)
@given(data=st.data())
def test_tail_abs_sum_contains_mpmath_value(branch, data):
    kernel, _ = data.draw(_tail_case(branch, ("absolute",)))
    n = data.draw(st.integers(0, 5))
    precision = data.draw(_PRECISIONS)
    enc = tail_abs_sum(kernel, n, precision)
    if enc.is_finite:
        assert _holds(enc, _ref_value(kernel, 0, True, n=n))
        assert branch != "integral" or _tight(enc, precision)


@pytest.mark.parametrize("branch", ["closed_geometric", "geometric_dominated"])
@settings(max_examples=25)
@given(data=st.data())
def test_power_series_value_contains_mpmath_value(branch, data):
    kernel, _ = data.draw(_tail_case(branch, ("plain",)))
    # a(t) has the tail ratio q*t: keep |q t| < 1, close to 1 where the
    # reference has a closed form
    near_one = st.sampled_from([0.999, -0.999]) if kernel.tail.beta == 0.0 else st.nothing()
    u = data.draw(near_one | st.floats(-0.9, 0.9))
    t = u / abs(kernel.tail.q) if not kernel.tail.is_zero else u
    enc = power_series_value(kernel, t)
    if enc.is_finite:
        assert _holds(enc, _ref_value(kernel, 0, False, t=t))


@settings(max_examples=60)
@given(data=st.data())
def test_geometric_domination_contains_mpmath_tail(data):
    # the rest bound that _bracketed stops on and the real-axis filter reads:
    # exp(log R(m)) (1 + 1e-10) >= Sum_{i>m} i^w r^i / (i^alpha (i+1)^beta).
    # _tail_ref sums directly below r = 0.95 and by polylog for beta = 0, so r
    # reaches the scan's 1 - 2^-21 only with beta = 0; the exp is mpmath's, so
    # a bound below float range is checked too
    beta = data.draw(st.just(0.0) | st.floats(0.0, 4.0))
    top = 1.0 - 2.0**-21 if beta == 0.0 else 0.949
    r = data.draw(st.sampled_from([top, 0.5]) | st.floats(2.0**-40, top))
    alpha = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0))
    weight = data.draw(st.integers(0, 1))
    m = data.draw(st.integers(0, 2000))
    log_rem = kernel_mod._log_dominated(0.0, r, alpha, beta, weight, m)
    with mpmath.workdps(50):
        assert mpmath.exp(log_rem) * (1 + mpmath.mpf(1e-10)) >= _tail_ref(r, alpha, beta, weight, m + 1)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.99])
@pytest.mark.parametrize("s", [1.05, 2.0, 6.0])
def test_first_moment_with_growing_factor_contains_mpmath_value(alpha, s):
    # n * a_n = n^(1-alpha) (n+1)^-beta: the Euler-Maclaurin sum splits it
    # into two completely monotone parts
    k = KernelSpec((), TailModel.parametric(1.0, 1.0, alpha, s + 1.0 - alpha))
    value = _ref_value(k, 1, False)
    for precision in (1e-6, 1e-12):
        enc = series_sum(k, "first_moment", precision)
        assert enc.is_finite and _holds(enc, value) and _tight(enc, precision)


def test_libm_within_one_ulp():
    # kernel._gamma counts a pow, exp or log as two roundings, which holds when
    # each is within one ulp of the exact value; drawn over the ranges the tail
    # code uses: q^i, i^alpha, the exp of log R(m) and the logs in it
    rng = np.random.default_rng(53)
    n = 1000
    q = np.copysign(1.0 - 10.0 ** rng.uniform(-8.0, math.log10(0.95), n), rng.uniform(-1.0, 1.0, n))
    i = np.round(10.0 ** rng.uniform(0.0, math.log10(6e6), n))
    alpha = rng.uniform(0.0, 6.0, n)
    e = rng.uniform(-745.0, 709.0, n)
    x = 10.0 ** rng.uniform(-308.0, 308.0, n)
    y = np.concatenate([-rng.uniform(0.05, 1.0, n // 2), 10.0 ** rng.uniform(-8.0, 15.9, n - n // 2)])
    mp = mpmath.mpf
    with mpmath.workdps(60):
        qi = [mp(a) ** int(b) for a, b in zip(q, i)]
        cases = [
            (np.power(q, i), qi),
            ([math.pow(a, b) for a, b in zip(q, i)], qi),
            (np.power(i, alpha), [mp(a) ** mp(b) for a, b in zip(i, alpha)]),
            ([math.pow(a, -b) for a, b in zip(i, alpha)], [mp(a) ** -mp(b) for a, b in zip(i, alpha)]),
            ([math.exp(v) for v in e], [mpmath.exp(mp(v)) for v in e]),
            ([math.log(v) for v in x], [mpmath.log(mp(v)) for v in x]),
            ([math.log1p(v) for v in y], [mpmath.log1p(mp(v)) for v in y]),
        ]
        for got, exact in cases:
            for g, r in zip(got, exact):
                assert abs(mp(float(g)) - r) <= math.ulp(float(r)), (g, r)


def test_power_series_value_covers_rounded_ratio():
    # fl(q*t) = 0.999 sits below q*t, and a(t) = q t / (1 - q t) moves by ~1e-11 with it
    q, t = 0.9063520300666572, 1.1022207341738166
    enc = power_series_value(KernelSpec((), TailModel.parametric(1.0, q)), t)
    with mpmath.workdps(50):
        r = mpmath.mpf(q) * mpmath.mpf(t)
        assert _holds(enc, r / (1 - r))


@pytest.mark.parametrize(
    "kernel, t",
    [
        # fl(q*t) underflows to 0, while a(t) = q t / (1 - q t) is about 1e-330
        (KernelSpec((), TailModel.parametric(1.0, 1e-300)), 1e-30),
        # the prefix part a_1 t underflows to 0, while a(t) is about 1e-400
        (KernelSpec((1e-200,), TailModel.zero()), 1e-200),
        # t^2 underflows to 0, while a(t) = 1e300 t^2 is 1e-100
        (KernelSpec((0.0, 1e300), TailModel.zero()), 1e-200),
        # fl(q*t) underflows to 0, while a(t) is about c q t = 1e-30
        (KernelSpec((), TailModel.parametric(1e300, 1e-300)), 1e-30),
    ],
)
def test_power_series_value_covers_underflow(kernel, t):
    enc = power_series_value(kernel, t)
    with mpmath.workdps(50):
        x = mpmath.mpf(t)
        value = mpmath.fsum(mpmath.mpf(v) * x**k for k, v in enumerate(kernel.prefix, start=1))
        if not kernel.tail.is_zero:
            # geometric tail: Sum_{n>N} c r^n = c r^(N+1) / (1 - r)
            r = mpmath.mpf(kernel.tail.q) * x
            value += mpmath.mpf(kernel.tail.c) * r ** (len(kernel.prefix) + 1) / (1 - r)
        assert value > 0 and _holds(enc, value)


def _same_enclosure(a, b):
    return a.status == b.status and (not a.is_finite or (a.lo, a.hi) == (b.lo, b.hi))


def test_tail_abs_sum_from_zero_is_absolute_series_sum():
    rng = np.random.default_rng(91)
    kernels = list(paper_kernels().values())
    for _ in range(40):
        pref = tuple(rng.uniform(-1.5, 1.5, size=int(rng.integers(0, 5))))
        c = float(rng.uniform(-1.0, 1.0)) or 0.5
        q = float(rng.uniform(-1.5, 1.5))
        alpha, beta = (float(v) for v in rng.integers(0, 3, size=2))
        kernels.append(KernelSpec(pref, TailModel.parametric(c, q, alpha, beta)))
    for k in kernels:
        for p in (1e-12, 1e-6):
            assert _same_enclosure(tail_abs_sum(k, 0, p), series_sum(k, "absolute", p)), (k, p)


@pytest.mark.parametrize("k, z", zero_q_pairs())
def test_zero_q_tail_is_the_zero_tail(k, z):
    n = len(k.prefix)
    # values, not bytes: c < 0 gives -0.0 where the zero tail gives +0.0
    assert [term(k, i) for i in range(1, n + 6)] == [term(z, i) for i in range(1, n + 6)]
    assert np.array_equal(terms(k, n + 20), terms(z, n + 20))
    assert radius_of_convergence(k) == radius_of_convergence(z) == math.inf
    assert support_gcd(k) == support_gcd(z)
    for mode in ("plain", "absolute", "first_moment", "first_moment_abs"):
        assert _same_enclosure(series_sum(k, mode), series_sum(z, mode)), mode
    for i in range(n + 2):
        assert _same_enclosure(tail_abs_sum(k, i), tail_abs_sum(z, i)), i
