import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from volterra_stability import (
    DomainError,
    KernelSpec,
    NonConvergence,
    RootSet,
    TailModel,
    circle_min_modulus,
    e_bounds,
    maximize_delta,
    partial_sum_eval,
    pn_roots,
)
from volterra_stability.charfun import _polish_roots, _zeros_inside, pn_coefficients, sn_coefficients

from conftest import (
    alternating_cubic_kernel,
    geometric_half_kernel,
    geometric_null_kernel,
    grid_delta_max,
    paper_kernels,
    random_root_set,
    renewal_kernel,
    rouche_stable_pair_kernel,
    rouche_table_kernel,
    rouche_unstable_pair_kernel,
)


def _root_set(*roots):
    zs = tuple(complex(z) for z in roots)
    return RootSet(len(zs), zs, 0.0, max(abs(z) for z in zs))


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_at_zero_is_one():
    for k in (renewal_kernel(), rouche_table_kernel()):
        assert partial_sum_eval(k, 5, 0.0) == 1.0


def test_partial_sum_pair_kernel_at_one():
    # 1 - 3/2 + 9/16 = 1/16
    val = partial_sum_eval(rouche_stable_pair_kernel(), 2, 1.0)
    assert val == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_partial_sum_double_root_reciprocal():
    val = partial_sum_eval(rouche_unstable_pair_kernel(), 2, 0.5)
    assert abs(val) <= 1e-15


def test_partial_sum_validates_degree():
    with pytest.raises(ValueError):
        partial_sum_eval(renewal_kernel(), 0, 0.5)


# ---------------------------------------------------------------------------
# roots


def test_roots_double_three_quarters():
    rs = pn_roots(KernelSpec((1.5, -0.5625), TailModel.zero()), 2)
    assert rs.degree == 2 and len(rs.roots) == 2
    assert rs.r_n == pytest.approx(0.75, abs=1e-9)
    for z in rs.roots:
        assert abs(z - 0.75) <= 1e-8


def test_roots_double_two():
    rs = pn_roots(rouche_unstable_pair_kernel(), 2)
    assert rs.r_n == pytest.approx(2.0, abs=1e-9)
    for z in rs.roots:
        assert abs(z - 2.0) <= 1e-9


def test_roots_table_kernel_paper_values():
    k = rouche_table_kernel()
    for n, want in ((4, 0.913), (5, 0.781), (6, 0.667)):
        assert pn_roots(k, n).r_n == pytest.approx(want, abs=5e-4)


def test_roots_zero_coefficient():
    rs = pn_roots(KernelSpec((0.0,), TailModel.zero()), 1)
    assert rs.roots == (0.0,) and rs.r_n == 0.0


def test_roots_validate_degree():
    with pytest.raises(ValueError):
        pn_roots(renewal_kernel(), 0)


def test_roots_nonconvergence_on_overflowing_coefficients():
    with pytest.raises(NonConvergence):
        pn_roots(geometric_null_kernel(3.0), 700)
    # roots near 1e50 overflow the residual: a NonConvergence, not a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="residual nan"):
            pn_roots(KernelSpec((0.0, -1e100), TailModel.zero()), 10)


def test_root_reexpansion_matches_coefficients(rng):
    # degrees where float64 companion + polished Newton can honor the bound;
    # a truncation whose coefficients span 30+ decades scatters its root ring
    # beyond any float64 re-expansion accuracy and is excluded by design
    kernels = [renewal_kernel(), rouche_table_kernel(), geometric_half_kernel(), alternating_cubic_kernel()]
    for _ in range(20):
        q = float(rng.uniform(0.3, 0.8)) * (1 if rng.integers(0, 2) else -1)
        kernels.append(
            KernelSpec(tuple(rng.normal(size=int(rng.integers(0, 5)))), TailModel.parametric(float(rng.normal()), q))
        )
    for k in kernels:
        for n in (1, 3, 8, 17, 24):
            rs = pn_roots(k, n)
            rebuilt = np.real(np.poly(np.asarray(rs.roots)))
            want = pn_coefficients(k, n)
            mask = np.abs(want) >= 1e-12
            assert np.all(np.abs(rebuilt[mask] - want[mask]) <= 1e-8 * np.abs(want[mask]))


def test_residual_bound_small_on_typical_inputs():
    for k in (rouche_table_kernel(), geometric_half_kernel()):
        for n in (2, 6, 16):
            assert pn_roots(k, n).residual_bound <= 1e-10


def _polish_one_at_a_time(coeffs, roots):
    """Reference polish: the same guarded extended-precision Newton steps,
    one root at a time."""
    work = np.clongdouble
    cs = coeffs.astype(work)
    deriv = np.polyder(cs)
    out = roots.copy()
    for i, z0 in enumerate(roots):
        z = work(z0)
        fz = np.polyval(cs, z)
        for _ in range(8):
            if fz == 0:
                break
            dz = np.polyval(deriv, z)
            if dz == 0 or not np.isfinite(complex(dz)):
                break
            step = fz / dz
            if not np.isfinite(complex(step)):
                break
            z_new = z - step
            f_new = np.polyval(cs, z_new)
            if abs(f_new) >= abs(fz):
                break
            z, fz = z_new, f_new
        out[i] = complex(z)
    return out


def _assert_polish_bit_identical(coeffs):
    raw = np.roots(coeffs).astype(complex)
    with np.errstate(all="ignore"):
        want = _polish_one_at_a_time(coeffs.astype(complex), raw)
    assert np.array_equal(_polish_roots(coeffs.astype(complex), raw), want, equal_nan=True)


def test_vectorized_polish_bit_identical_on_fixtures():
    for k in paper_kernels().values():
        for n in list(range(1, 33)) + [200]:
            _assert_polish_bit_identical(pn_coefficients(k, n))


def test_vectorized_polish_bit_identical_on_random_polynomials(rng):
    for _ in range(200):
        d = int(rng.integers(1, 61))
        tail = rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        _assert_polish_bit_identical(np.concatenate([[1.0], tail]))


# ---------------------------------------------------------------------------
# delta maximization


def test_delta_double_two():
    dm = maximize_delta(_root_set(2.0, 2.0))
    assert dm.rho0 == pytest.approx(1.0, abs=1e-9)
    assert dm.value == pytest.approx(1.0, abs=1e-12)
    # dense-grid oracle
    g_rho, g_val = grid_delta_max([2.0, 2.0], 2.0)
    assert dm.value >= g_val - 1e-10


def test_delta_single_root():
    dm = maximize_delta(_root_set(2.0))
    assert dm.rho0 == pytest.approx(1.0) and dm.value == pytest.approx(1.0)


def test_delta_mixed_roots():
    dm = maximize_delta(_root_set(2.0, 0.5))
    assert dm.rho0 == pytest.approx(1.0)
    assert dm.value == pytest.approx(0.5, abs=1e-12)
    g_rho, g_val = grid_delta_max([2.0, 0.5], 2.0)
    assert dm.value >= g_val - 1e-10


def test_delta_domain_error():
    with pytest.raises(DomainError):
        maximize_delta(_root_set(0.5, 0.9))


def test_delta_endpoint_zero():
    rs = _root_set(1.5, 2.5, 0.3)
    prof = 1.0
    for m in (1.5, 2.5, 0.3):
        prof *= abs(1.0 - m / 2.5)
    assert prof == pytest.approx(0.0, abs=1e-12)
    dm = maximize_delta(rs)
    assert dm.value > 0.0
    assert all(1.0 / 2.5 < kink < 1.0 for kink in dm.profile_kinks)


def test_delta_grid_oracle_agreement(rng):
    for _ in range(100):
        rs = random_root_set(rng)
        if rs.r_n <= 1.0:
            continue
        dm = maximize_delta(rs)
        _, g_val = grid_delta_max(np.abs(np.asarray(rs.roots)), rs.r_n)
        assert dm.value >= g_val - 1e-10
        assert 1.0 / rs.r_n <= dm.rho0 <= 1.0


# ---------------------------------------------------------------------------
# E bounds


def test_e1_all_roots_outside():
    eb = e_bounds(_root_set(2.0, 2.0))
    assert eb.kind == "E1" and eb.value == pytest.approx(1.0) and eb.rho == 1.0


def test_e2_mixed():
    # E2 takes the modulus nearest the circle, from either side: here the inside one
    eb = e_bounds(_root_set(2.0, 0.5))
    assert eb.kind == "E2" and eb.value == pytest.approx(0.25)
    # and here the outside one
    eb = e_bounds(_root_set(1.25, 0.5))
    assert eb.kind == "E2" and eb.value == pytest.approx(0.0625)


def test_e3_unit_modulus_neighbor():
    eb = e_bounds(_root_set(2.0, 1.0))
    assert eb.kind == "E3"
    assert eb.rho == pytest.approx(2.0 / 3.0)
    assert eb.value == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_e_bounds_domain_error():
    with pytest.raises(DomainError):
        e_bounds(_root_set(0.99))


def test_e_bounds_without_outside_moduli():
    # a hand-built RootSet whose r_n no root attains: no modulus lies outside the circle
    eb = e_bounds(RootSet(2, (0.5 + 0j, 0.25 + 0j), 0.0, 1.5))
    assert eb.kind == "not_applicable" and math.isnan(eb.value) and math.isnan(eb.rho)


def test_huge_moduli_give_inf_without_warning():
    # (1e20 - 1)^16 is beyond float range: the bounds are inf, and no numpy
    # overflow warning leaks (the suite turns RuntimeWarning into an error)
    rs = RootSet(16, (1e20 + 0j,) * 16, 0.0, 1e20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eb = e_bounds(rs)
        dm = maximize_delta(rs)
    assert eb.kind == "E1" and eb.value == math.inf
    assert dm.value == math.inf


@pytest.mark.parametrize(
    "moduli",
    [
        # delta is inf * 0 = nan at the kink 0.5
        (1e300, math.nextafter(1e300, math.inf), 2.0),
        (1e300, math.nextafter(1e300, math.inf)),
    ],
    ids=["nan-at-kink", "no-other-kink"],
)
def test_delta_huge_moduli_inf_at_one_without_warning(moduli):
    rs = _root_set(*moduli)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dm = maximize_delta(rs)
    assert dm.value == math.inf and dm.rho0 == 1.0
    # the first piece, [1/nextafter(1e300), 1e-300], is about 1e-316 wide
    assert 0.0 < dm.profile_kinks[0] - 1.0 / rs.r_n < 1e-300


# ---------------------------------------------------------------------------
# circle scan


def test_circle_min_one_term():
    val, z = circle_min_modulus(KernelSpec((0.5,), TailModel.zero()), 1, 64)
    assert val == pytest.approx(0.5, abs=1e-15)
    assert z == pytest.approx(1.0 + 0j)


def test_circle_min_geometric_half_near_theta_zero():
    val, z = circle_min_modulus(geometric_half_kernel(), 20, 4096)
    assert val < 1e-5
    assert abs(cmath.phase(z)) <= 2.0 * math.pi / 4096 + 1e-12


def test_circle_min_alternating_cubic_near_pi():
    val, z = circle_min_modulus(alternating_cubic_kernel(), 200, 4096)
    assert val < 1e-3
    assert abs(abs(cmath.phase(z)) - math.pi) <= 2.0 * math.pi / 4096 + 1e-12


def test_circle_min_validates_grid():
    with pytest.raises(ValueError):
        circle_min_modulus(renewal_kernel(), 10, 8)
    with pytest.raises(ValueError):
        circle_min_modulus(renewal_kernel(), 0, 64)


def test_sn_pn_coefficient_layout():
    k = rouche_stable_pair_kernel()
    sn = sn_coefficients(k, 2)
    assert np.allclose(sn, [0.5625, -1.5, 1.0])
    pn = pn_coefficients(k, 2)
    assert np.allclose(pn, [1.0, -1.5, 0.5625])


# ---------------------------------------------------------------------------
# zero count inside the marginal heuristic's circle

# the radius on which MarginalStable counts, and the root modulus it stands for
_MARGINAL_RHO = 1.0 - 1e-6
_MARGINAL_ROOT_SLACK = 1.0 / _MARGINAL_RHO
# planted zero moduli: on the circle, 1e-5 to either side, 1e-7 inside, which
# is inside the unit disk but outside rho, and 1e-7 inside rho
_PLANTED_RADII = (1.0, 1.0 - 1e-5, 1.0 + 1e-5, 1.0 - 1e-7, _MARGINAL_RHO - 1e-7)


def _conjugate_closed(zeros):
    """Each zero off the real axis together with its conjugate."""
    return [z for z0 in zeros for z in ((z0,) if z0.imag == 0.0 else (z0, z0.conjugate()))]


def _kernel_with_zeros(zeros):
    """The zero-tail kernel whose s_n, n = len(zeros), has these zeros: np.poly
    gives p_n, the monic polynomial with the reciprocal zeros."""
    return KernelSpec(tuple(-np.poly(1.0 / np.asarray(zeros)).real[1:]), TailModel.zero())


@given(data=st.data())
def test_zeros_inside_agrees_with_pn_roots(data):
    # s_n has planted zeros and random ones at moduli 1.05..2; a count must be
    # the number of roots of p_n above _MARGINAL_ROOT_SLACK, so 0 means r_n is
    # not above it, and None is always allowed.  Each of three slots plants at
    # most one real zero (at z = 1 or -1 times the modulus) or one conjugate
    # pair in a sector of its own, so no two planted zeros form a cluster
    n = data.draw(st.integers(16, 200), label="n")
    planted = []
    for slot in range(3):
        kind = data.draw(st.sampled_from(["none", "real", "pair"] if slot != 1 else ["none", "pair"]))
        if kind != "none":
            r = data.draw(st.sampled_from(_PLANTED_RADII) | st.floats(0.3, 0.99))
            angle = (slot // 2) * math.pi if kind == "real" else data.draw(st.floats(0.05 + slot, 0.95 + slot))
            planted.append(cmath.rect(r, angle) if kind == "pair" else complex((1 - slot) * r))
    zeros = _conjugate_closed(planted)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rest = n - len(zeros)
    zeros += _conjugate_closed([cmath.rect(m, t) for m, t in zip(rng.uniform(1.05, 2.0, rest // 2), rng.uniform(0.0, math.pi, rest // 2))])
    zeros += [complex(rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 2.0))] * (rest % 2)
    kernel = _kernel_with_zeros(zeros)
    count = _zeros_inside(sn_coefficients(kernel, n), _MARGINAL_RHO)
    try:
        roots = pn_roots(kernel, n)
    except NonConvergence:
        return
    assert count is None or count == int(np.sum(roots.moduli > _MARGINAL_ROOT_SLACK)), (count, roots.r_n)


def test_zeros_inside_gives_up_below_the_fft_noise():
    # 92 conjugate pairs at moduli 1.05..2, none inside: |s_184| dips to about
    # 1e-11 on the circle, below the rounding of an FFT over coefficients near
    # 1e5, and the summed steps there read 4
    rng = np.random.default_rng(0)
    kernel = _kernel_with_zeros(_conjugate_closed([cmath.rect(m, t) for m, t in zip(rng.uniform(1.05, 2.0, 92), rng.uniform(0.0, math.pi, 92))]))
    assert _zeros_inside(sn_coefficients(kernel, 184), _MARGINAL_RHO) is None
    assert pn_roots(kernel, 184).r_n < 1.0


@pytest.mark.parametrize("radius", [1.0 - 1e-5, 1.0])
def test_zeros_inside_double_zeros_at_the_circle_never_read_zero(radius):
    # a double zero within a grid step of the circle turns one step by about
    # 2 pi, which no sample sees: inside 1 - 1e-6 each double pair books 1
    # zero of its 2, on |z| = 1 it books 1 that is not inside; MarginalStable
    # declines on both counts
    z0 = cmath.rect(radius, 1.0)
    kernel = _kernel_with_zeros([z0, z0, z0.conjugate(), z0.conjugate()])
    assert _zeros_inside(sn_coefficients(kernel, 4), _MARGINAL_RHO) == 2


@pytest.mark.parametrize("angle", [1.0, 0.5 * math.pi + 0.25 * (2.0 * math.pi / 4096)], ids=["one-radian", "past-half-pi"])
@pytest.mark.parametrize("radius, inside", [(_MARGINAL_RHO - 1e-7, 2), (_MARGINAL_RHO + 1e-5, 0)], ids=["inside", "outside"])
@pytest.mark.parametrize("n", [2, 200])
def test_zeros_inside_bisects_the_wide_step_of_a_pair_off_the_grid(n, radius, inside, angle):
    # a simple conjugate pair off the grid's angles, 1e-7 inside rho or 1e-5
    # outside it: the step across each zero is near pi, and the bisected arc
    # books the pair on its own side
    z0 = cmath.rect(radius, angle)
    kernel = _kernel_with_zeros([z0, z0.conjugate()])
    assert _zeros_inside(sn_coefficients(kernel, n), _MARGINAL_RHO) == inside
    assert int(np.sum(pn_roots(kernel, n).moduli > _MARGINAL_ROOT_SLACK)) == inside
