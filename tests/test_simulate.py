import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import volterra_stability
from volterra_stability import (
    BOUNDED_NON_DECAYING,
    DECAYING,
    INCONCLUSIVE,
    UNBOUNDED,
    EmpiricalVerdict,
    KernelSpec,
    TailModel,
    Thresholds,
    certify,
    classify,
    kernel_id,
    solve,
    solve_fast,
    term,
    trajectory_to_csv,
)

from conftest import (
    brute_solve,
    brute_solve_exact,
    geometric_half_kernel,
    geometric_null_kernel,
    renewal_kernel,
    small_radius_unstable_kernel,
)

simulate_mod = importlib.import_module("volterra_stability.simulate")


# ---------------------------------------------------------------------------
# solve


def test_solve_geometric_null_short():
    t = solve(geometric_null_kernel(3.0), 5)
    assert np.array_equal(t.values, [1.0, -3.0, 0.0, 0.0, 0.0, 0.0])
    assert not t.truncated and not t.overflow


def test_solve_one_term_recursion():
    t = solve(KernelSpec((0.5,), TailModel.zero()), 4)
    assert np.array_equal(t.values, [1.0, 0.5, 0.25, 0.125, 0.0625])


def test_solve_geometric_half_constant():
    t = solve(geometric_half_kernel(), 4)
    assert np.array_equal(t.values, [1.0, 0.5, 0.5, 0.5, 0.5])
    # independent summation-order oracle
    assert np.allclose(t.values, brute_solve(geometric_half_kernel(), 4), rtol=0, atol=1e-15)


def test_solve_matches_brute_oracle():
    cases = [
        renewal_kernel(),
        geometric_half_kernel(),
        KernelSpec((0.3, -0.2, 0.1), TailModel.parametric(0.4, -0.6, 1.0, 1.0)),
        small_radius_unstable_kernel(2.0),
    ]
    for k in cases:
        got = solve(k, 300)
        want = brute_solve(k, 300)
        m = min(len(got.values), len(want))
        scale = np.maximum(1.0, np.abs(want[:m]))
        assert np.max(np.abs(got.values[:m] - want[:m]) / scale) < 1e-12


def test_solve_scaled_path_matches_exact_oracle():
    k = geometric_null_kernel(3.0)
    got = solve(k, 200).values
    want = brute_solve_exact(k, 200)
    assert got[0] == want[0] and got[1] == want[1]
    assert all(v == 0 for v in want[2:])
    assert np.max(np.abs(got[2:])) == 0.0


def test_exact_oracle_agrees_on_renewal():
    got = solve(renewal_kernel(), 150).values
    want = brute_solve_exact(renewal_kernel(), 150)
    err = max(abs(g - float(w)) for g, w in zip(got, want))
    assert err < 1e-13


def test_solve_geometric_null_long_exact_zero():
    t = solve(geometric_null_kernel(3.0), 1000)
    assert len(t.values) == 1001
    assert not t.truncated and not t.overflow
    assert np.max(np.abs(t.values[2:])) == 0.0


def test_solve_metadata():
    k = renewal_kernel()
    t = solve(k, 100, x0=2.0)
    assert t.kernel_id == kernel_id(k)
    assert t.method == "direct"
    assert t.values[0] == 2.0
    with pytest.raises(ValueError):
        solve(k, 0)


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_solve_early_exit_flags(run):
    t = run(KernelSpec((2.0,), TailModel.zero()), 200)
    assert t.truncated and not t.overflow
    assert abs(t.values[-1]) > 1e13
    assert len(t.values) < 201
    # x_44 = 2^44 is the first beyond 1e13, past solve_fast's first 16-wide block
    assert len(t.values) == 45


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_x0_never_stops_a_run(run):
    # the stop rule scans x_1, x_2, ...: an x0 beyond the cutoff is the caller's value
    t = run(KernelSpec((), TailModel.zero()), 2**14, x0=1e20)
    assert len(t.values) == 2**14 + 1 and not t.truncated and not t.overflow
    t = run(KernelSpec((0.5,), TailModel.zero()), 2**14, x0=1e20)
    assert len(t.values) == 2 and t.truncated and not t.overflow


@pytest.mark.parametrize("run", [solve, solve_fast])
@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_nonfinite_x0_rejected(run, x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        run(renewal_kernel(), 3, x0=x0)


def test_solve_overflow_flags():
    # jump from moderate values straight past float range
    k = KernelSpec((1e300,), TailModel.zero())
    t = solve(k, 10, x0=1e-290)
    assert t.overflow and t.truncated
    assert np.all(np.isfinite(t.values))
    assert len(t.values) == 2  # x0, x1 = 1e10; x2 overflows


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_fast(KernelSpec((0.0,) * 200 + (1e300,), TailModel.zero()), 2**14, x0=1e-290),
        lambda: certify(KernelSpec((1.0,), TailModel.parametric(1e-320, 2.0, 2.0, 0.0))),
    ],
    ids=["solve_fast_blocked", "certify_rescaled"],
)
def test_overflow_warns_nothing(call):
    # overflow is an outcome that the stop rule reports, not a numpy warning;
    # test_cli's simulate case covers both solvers on a one-step overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


def test_scaled_path_renormalises_a_tiny_history():
    # |q| = 2 takes the q^n rescale; from x0 = 1e-300 the reduced history
    # sinks below 2^-600 and is scaled back up, or it underflows and the run
    # ends on a spurious overflow
    k = KernelSpec((), TailModel.parametric(0.5, 2.0, 2.0, 0.0))
    tiny = solve(k, 3000, x0=1e-300)
    assert (len(tiny), tiny.truncated, tiny.overflow) == (1057, True, False)
    assert 1.18e13 < tiny.values[-1] < 1.2e13
    unit = solve(k, 3000)
    assert (len(unit), unit.truncated, unit.overflow) == (51, True, False)
    expected = 1e-300 * unit.values
    assert np.all(np.abs(tiny.values[:51] - expected) <= 1e-15 * np.abs(expected))


# tails c q^n with |q| > 1 (alpha = beta = 0) drawn by class G's recipe
# (random.Random(11): up to five prefix terms from U(-1.2, 1.2), c = ±U(0.01, 1),
# q = ±U(0.05, 1.6)), kept where a sum over the whole reduced history loses
# more than 1e-9 of some x_n within 80 steps
_GEOMETRIC_Q_ABOVE_ONE = (
    KernelSpec((-0.9787389034841331,), TailModel.parametric(-0.8920308276701143, 1.0682446720898366)),
    KernelSpec((0.7315713601540581, -0.5801658103552623), TailModel.parametric(-0.7469905570562743, -1.3126946676327533)),
    KernelSpec((), TailModel.parametric(-0.5462316921763531, -1.221471675738579)),
    KernelSpec((0.7730121575906583,), TailModel.parametric(-0.35821042669729525, -1.4289641722601525)),
    KernelSpec((), TailModel.parametric(-0.31301882779985774, 1.5401040263136831)),
    KernelSpec((), TailModel.parametric(-0.7924618980889105, -1.5809921409318877)),
    KernelSpec((-0.13861049696653938,), TailModel.parametric(-0.5606214305327117, 1.4148164816708457)),
)
# ROADMAP item 9's example: |x_300| = 2.1e-56, reached only through cancellation
_ITEM9 = KernelSpec((), TailModel.parametric(-0.4832524171480603, 1.2625694703520396))


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_geometric_tail_matches_exact_oracle(run):
    for k in _GEOMETRIC_Q_ABOVE_ONE:
        got = run(k, 80).values
        want = np.array([float(v) for v in brute_solve_exact(k, 80)])
        assert len(got) == 81
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_geometric_tail_keeps_a_cancelling_decay(run):
    # x_300 from brute_solve_exact; a sum over the whole history gave -4.8e10
    assert run(_ITEM9, 300).values[300] == pytest.approx(-2.1429736075769345e-56, rel=1e-12)
    report = certify(_ITEM9)
    assert (report.final_verdict, report.final_criterion) == ("asymptotically_stable", "Empirical")


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_geometric_tail_keeps_a_subnormal_c(run):
    # a_1 = 1 and a_k = 1e-320 2^k: x_n stays near 1 until the tail takes over,
    # and the exact trajectory first passes the cutoff at x_1105 = 17386027614209
    # (the O(n) exact recursion in 60-digit mpmath).  Folding c into differenced
    # coefficients 0.5 - c keeps x_n = 1 for good; a running sum of c u_m keeps
    # c's subnormal rounding and gives 1.73817e13
    t = run(KernelSpec((1.0,), TailModel.parametric(1e-320, 2.0)), 3000)
    assert (len(t), t.truncated, t.overflow) == (1106, True, False)
    assert t.values[1105] == pytest.approx(17386027614209.0, rel=1e-12)


def test_geometric_path_renormalises_a_tiny_history():
    # as test_scaled_path_renormalises_a_tiny_history, for alpha = beta = 0:
    # x_n = 1e-300 3^(n-1), while the reduced state starts near 2^-997 and is
    # scaled back up at n = 64, the running sum together with u
    k = KernelSpec((), TailModel.parametric(0.5, 2.0))
    tiny = solve(k, 3000, x0=1e-300)
    assert (len(tiny), tiny.truncated, tiny.overflow) == (659, True, False)
    exact = np.array([float(Fraction(1e-300) * 3 ** (n - 1)) for n in range(1, 659)])
    assert np.all(np.abs(tiny.values[1:] - exact) <= 1e-14 * exact)
    # a_n = -2^(n-1) gives x_n = -x0: the reduced state halves each step and
    # sinks below 2^-600 again and again; rescaled by 2^600 each time, it stays exact
    flat = solve(KernelSpec((), TailModel.parametric(-0.5, 2.0)), 3000, x0=1e-250)
    assert len(flat) == 3001 and np.all(flat.values[1:] == -1e-250)


def test_geometric_path_skips_a_rescale_that_would_overflow_the_sum():
    # a_1 = 0 and a_k = 1e-320 2^k from x0 = 2^430: u_n = c S_{n-2} sits near
    # 2^-633 while S = 2^430, so S times 2^600 would overflow.  The exact
    # trajectory (60-digit mpmath) first passes the cutoff at x_677 = 17386027614208
    t = solve(KernelSpec((0.0,), TailModel.parametric(1e-320, 2.0)), 3000, x0=2.0**430)
    assert (len(t), t.truncated, t.overflow) == (678, True, False)
    assert t.values[677] == pytest.approx(17386027614208.0, rel=1e-12)


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_geometric_tail_never_runs_the_quadratic_sum(run, monkeypatch):
    def forbidden(*args):
        raise AssertionError("_inner_dot called")

    monkeypatch.setattr(simulate_mod, "_inner_dot", forbidden)
    assert len(run(geometric_null_kernel(3.0), 2**14)) == 2**14 + 1
    assert len(run(_ITEM9, 2**14)) == 2**14 + 1


def test_scaling_equivariance():
    k = KernelSpec((0.4, -0.3), TailModel.parametric(0.5, 0.7, 1.0, 0.0))
    beta = -2.5
    unit = solve(k, 400).values
    scaled = solve(k, 400, x0=beta).values
    denom = np.maximum(np.abs(beta * unit), 1e-300)
    assert np.max(np.abs(scaled - beta * unit) / denom) < 1e-12


def test_positivity_preserved():
    x = solve(renewal_kernel(), 2000).values
    assert np.all(x > 0.0)


def test_recursion_residual():
    for k in (renewal_kernel(), geometric_half_kernel(), KernelSpec((0.9,), TailModel.parametric(0.05, 0.5))):
        t = solve(k, 800)
        a = [term(k, i) for i in range(1, 801)]
        for n in (1, 2, 17, 399, 800):
            conv = math.fsum(a[j - 1] * t.values[n - j] for j in range(1, n + 1))
            bound = math.fsum(abs(a[j - 1] * t.values[n - j]) for j in range(1, n + 1))
            assert abs(t.values[n] - conv) <= 1e-10 * (1.0 + bound)


# ---------------------------------------------------------------------------
# solve_fast


def test_fast_small_steps_match():
    for k in (renewal_kernel(), geometric_half_kernel()):
        for steps in (1, 2, 5, 8):
            a = solve(k, steps).values
            b = solve_fast(k, steps).values
            assert np.max(np.abs(a - b)) <= 1e-12


def test_fast_matches_direct_on_renewal():
    steps = 2**13
    a = solve(renewal_kernel(), steps).values
    b = solve_fast(renewal_kernel(), steps).values
    assert np.max(np.abs(a - b)) <= 1e-9


def test_fast_geometric_null_p2():
    t = solve_fast(geometric_null_kernel(2.0), 2**10)
    assert np.max(np.abs(t.values[2:])) <= 1e-12


def test_fast_method_tags():
    assert solve_fast(renewal_kernel(), 64).method == "fft_blocked"
    # rescaled kernels keep the direct path
    assert solve_fast(geometric_null_kernel(3.0), 64).method == "direct"


def test_fast_truncates_like_direct():
    a = solve(small_radius_unstable_kernel(2.0), 300)
    b = solve_fast(small_radius_unstable_kernel(2.0), 300)
    assert a.truncated and b.truncated
    assert len(a.values) == len(b.values)
    scale = np.maximum(1.0, np.abs(a.values))
    assert np.max(np.abs(a.values - b.values) / scale) <= 1e-9


@pytest.mark.parametrize("prefix", [(1000.0,), (8.0,)])
def test_fast_resolvent_overflow_keeps_direct_flags(prefix):
    # the resolvent 1/(1 - a(z)) leaves float range inside the first base
    # block while x0 * r stays finite: blocks built from the cut-short
    # resolvent would miss the step where the direct recursion truncates
    k = KernelSpec(prefix, TailModel.zero())
    a = solve(k, 2**17, x0=1e-300)
    b = solve_fast(k, 2**17, x0=1e-300)
    assert (len(b), b.truncated, b.overflow) == (len(a), a.truncated, a.overflow)
    assert a.truncated and not a.overflow
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# classify


def test_classify_unbounded_small_radius():
    t = solve(small_radius_unstable_kernel(2.0), 100)
    v = classify(t)
    assert v.kind == UNBOUNDED
    assert abs(v.witness_value) > Thresholds().unbounded_cutoff


def test_classify_constant_bounded():
    v = classify(solve(geometric_half_kernel(), 10_000))
    assert v.kind == BOUNDED_NON_DECAYING
    assert v.witness_value == pytest.approx(0.5, abs=0)


def test_classify_decaying():
    v = classify(solve(KernelSpec((0.5,), TailModel.zero()), 1000))
    assert v.kind == DECAYING
    assert abs(v.witness_value) <= 1e-8


def test_classify_short_inconclusive():
    v = classify(solve(geometric_half_kernel(), 50))
    assert v.kind == INCONCLUSIVE
    empty = solve(geometric_half_kernel(), 50)
    empty.values = empty.values[:0]
    v = classify(empty)
    assert (v.kind, v.witness_index) == (INCONCLUSIVE, 0) and math.isnan(v.witness_value)


def test_classify_short_but_exploding_is_unbounded():
    t = solve(KernelSpec((3.0,), TailModel.zero()), 40)
    assert len(t.values) < 100 and t.truncated
    assert classify(t).kind == UNBOUNDED


def test_classify_descending_trend_inconclusive():
    # trailing window still dropping >10% per window: not settled
    vals = 1000.0 * np.power(0.985, np.arange(1000))
    fake = solve(KernelSpec((0.5,), TailModel.zero()), 999)
    fake.values = vals
    assert classify(fake).kind == INCONCLUSIVE


def test_classify_linear_rise_inconclusive():
    # x_n = n + 1: the last window's maximum is 1.0101 times the one before,
    # where the cut is 1 + w / (2n) = 1.005
    v = classify(solve(KernelSpec((2.0, -1.0), TailModel.zero()), 10_000))
    assert v.kind == INCONCLUSIVE
    # logarithmic growth reads about 1 + w / (n ln n) = 1.001 and stays bounded
    slow = solve(KernelSpec((0.5,), TailModel.zero()), 100)
    slow.values = np.log(np.arange(2.0, 10_003.0))
    assert classify(slow).kind == BOUNDED_NON_DECAYING


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(unbounded_cutoff=0.0)
    with pytest.raises(ValueError):
        Thresholds(decay_level=-1.0)
    with pytest.raises(ValueError):
        Thresholds(window_fraction=0.0)


@pytest.mark.parametrize("run", [solve, solve_fast])
def test_custom_thresholds_change_cutoff(run):
    t = run(KernelSpec((2.0,), TailModel.zero()), 200, thresholds=Thresholds(unbounded_cutoff=1e3))
    assert t.truncated and abs(t.values[-1]) > 1e4
    assert len(t.values) == 15
    v = classify(t, Thresholds(unbounded_cutoff=1e3))
    assert v.kind == UNBOUNDED


def test_stop_rule_and_classify_scan_in_chunks():
    # neither builds a temporary as long as the values: on 2^22 of them they
    # allocate at most an eighth of the values' bytes
    x = np.cos(np.arange(2**22) * 1e-3)
    tracemalloc.start()
    try:
        values, truncated, overflow = simulate_mod._cut(x, 1e13)
        verdict = classify(simulate_mod.Trajectory(values, "k", "direct"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values is x and not truncated and not overflow and verdict.kind == BOUNDED_NON_DECAYING
    assert peak <= x.nbytes / 8


@pytest.mark.parametrize("at", [1, 2**16 - 1, 2**16, 2**16 + 1, 200_000])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -2e13])
def test_stop_rule_across_chunk_edges(at, bad):
    # the chunked scan stops where one scan over all of x_1.. stops
    x = np.ones(200_001)
    x[at] = bad
    x[at + 1 :] = 5e13  # a later stop must not win
    first = int(np.flatnonzero(~np.isfinite(x[1:]) | (np.abs(x[1:]) > 1e13))[0]) + 1
    values, truncated, overflow = simulate_mod._cut(x, 1e13)
    assert first == at and truncated and overflow == (not math.isfinite(bad))
    assert len(values) == (at if overflow else at + 1)
    # and classify's cutoff scan finds the first |x_n| past the cutoff
    y = np.ones(200_001)
    y[at:] = -2e12
    assert classify(simulate_mod.Trajectory(y, "k", "direct")) == EmpiricalVerdict(UNBOUNDED, at, -2e12)


# ---------------------------------------------------------------------------
# CSV export


def test_csv_export_shape_and_digits():
    t = solve(geometric_null_kernel(3.0), 3)
    text = trajectory_to_csv(t)
    lines = text.strip().split("\n")
    assert lines[0] == "n,x"
    assert lines[1] == "0,1" and lines[2] == "1,-3"
    assert lines[3] == "2,0" and lines[4] == "3,0"
    v = 1.0 / 3.0
    t.values = np.array([v])
    out = trajectory_to_csv(t).strip().split("\n")[1]
    assert out == f"0,{v:.17g}"
    assert float(out.split(",")[1]) == v


@given(st.floats(-3, 3, allow_nan=False), st.integers(1, 40))
def test_scaling_equivariance_property(beta, steps):
    k = KernelSpec((0.5, -0.25), TailModel.zero())
    unit = solve(k, steps).values
    scaled = solve(k, steps, x0=beta).values
    assert np.max(np.abs(scaled - beta * unit)) <= 1e-12 * (1.0 + np.max(np.abs(beta * unit)))


@pytest.mark.parametrize("run", [solve, solve_fast])
@pytest.mark.parametrize(
    "kernel",
    [
        KernelSpec((1.6922323085429465, 1.0), TailModel.parametric(-1.0, 1e300, 0.07626300549533838, 3.0)),
        KernelSpec((1.0, 1.0), TailModel.parametric(1.0, 1e300)),
    ],
)
def test_huge_q_does_not_raise(run, kernel):
    # q^2 = 1e600 is beyond float range; a_3 is too, so the run is unbounded
    traj = run(kernel, 50)
    assert traj.values[0] == 1.0
    assert classify(traj).kind == UNBOUNDED


def test_solve_bits_do_not_depend_on_blas_threads():
    # np.dot over more than 10,000 elements gives different bits under one and
    # two OpenBLAS threads; _inner_dot's fsum over fixed chunks keeps solve's
    # bits the same
    src = str(Path(volterra_stability.__file__).resolve().parent.parent)
    code = (
        "import hashlib, volterra_stability as vs; "
        "ks = [vs.load_fixture('renewal'), vs.load_fixture('geometric_null'), "
        "vs.KernelSpec((0.3, -0.2), vs.TailModel.parametric(0.4, 0.9, 1.0, 0.0))]; "
        "print([hashlib.sha256(vs.solve(k, 2**14).values.tobytes()).hexdigest() for k in ks])"
    )
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout)
    assert out[0] == out[1]
