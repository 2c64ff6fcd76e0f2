"""Acceptance gate: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from volterra_stability import (
    ASYMPTOTICALLY_STABLE,
    HEURISTIC,
    NOT_APPLICABLE,
    RIGOROUS,
    STABLE,
    UNSTABLE,
    certify,
    classify,
    e_bounds,
    maximize_delta,
    partial_sum_eval,
    pn_roots,
    solve,
    solve_fast,
    tail_abs_sum,
)
from volterra_stability import test_absolute_sum as check_absolute_sum
from volterra_stability import test_rouche_stable as check_rouche_stable
from volterra_stability import test_rouche_unstable as check_rouche_unstable
from volterra_stability.charfun import pn_coefficients

from conftest import (
    alternating_cubic_kernel,
    geometric_half_kernel,
    geometric_null_kernel,
    grid_delta_max,
    paper_kernels,
    random_bounded_kernel,
    random_root_set,
    renewal_kernel,
    rouche_stable_pair_kernel,
    rouche_table_kernel,
    rouche_unstable_pair_kernel,
    small_radius_unstable_kernel,
)

from volterra_stability import KernelSpec, TailModel  # noqa: E402


def _ok(tag, text):
    print(f"[{tag}] {text}: PASS")


def test_a1_table_reproduction():
    k = rouche_table_kernel()
    start = time.perf_counter()
    r = {n: pn_roots(k, n).r_n for n in (4, 5, 6)}
    L = {n: tail_abs_sum(k, n) for n in (4, 5, 6)}
    report = certify(k, max_degree=6)
    elapsed = time.perf_counter() - start
    for n, want in ((4, 0.913), (5, 0.781), (6, 0.667)):
        assert abs(r[n] - want) <= 5e-4, (n, r[n])
    for n, want in ((4, 0.24716), (5, 0.04963), (6, 0.00024)):
        assert L[n].is_finite and abs(L[n].hi - want) <= 5e-6, (n, L[n])
    assert report.final_criterion == "RoucheStable" and report.final_rigor == RIGOROUS
    fired = [a for a in report.attempts if a["criterion"] == "RoucheStable" and a["verdict"] != NOT_APPLICABLE]
    assert len(fired) == 1 and fired[0]["n"] == 6
    assert elapsed < 1.0, elapsed
    _ok("A1", f"finite-approximation table reproduced in {elapsed*1e3:.0f} ms")


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_a2_double_root_pair_certificate(sign):
    k = rouche_stable_pair_kernel(sign)
    start = time.perf_counter()
    rs = pn_roots(k, 2)
    tail = tail_abs_sum(k, 2)
    cert = check_rouche_stable(k, 2)
    elapsed = time.perf_counter() - start
    assert abs(rs.r_n - 0.75) <= 1e-9
    assert tail.is_finite and tail.width <= 1e-12
    true_tail = Fraction(1, 19)
    assert Fraction(tail.lo).limit_denominator(10**18) <= true_tail <= Fraction(tail.hi).limit_denominator(10**18) or (
        tail.lo <= float(true_tail) <= tail.hi
    )
    assert cert.verdict == ASYMPTOTICALLY_STABLE and cert.rigor == RIGOROUS and cert.witness["n"] == 2
    assert elapsed < 0.1, elapsed
    _ok("A2", f"double-root 3/4 pair (sign {sign:+.0f}) certified stable at n=2 in {elapsed*1e3:.1f} ms")


def test_a3_unstable_pair_certificate():
    k = rouche_unstable_pair_kernel()
    start = time.perf_counter()
    rs = pn_roots(k, 2)
    eb = e_bounds(rs)
    tail = tail_abs_sum(k, 2)
    cert = check_rouche_unstable(k, 2)
    elapsed = time.perf_counter() - start
    for z in rs.roots:
        assert abs(z - 2.0) <= 1e-9
    assert eb.kind == "E1" and abs(eb.value - 1.0) <= 1e-9
    assert tail.contains(0.5) and tail.width <= 1e-12
    assert cert.verdict == UNSTABLE and cert.rigor == RIGOROUS
    report = certify(k)
    assert report.final_verdict == UNSTABLE and report.final_rigor == RIGOROUS
    assert elapsed < 0.1, elapsed
    _ok("A3", f"double-root 2 pair certified unstable (E1 = 1, tail = 1/2) in {elapsed*1e3:.1f} ms")


def test_a4_geometric_null_trajectory():
    t = solve(geometric_null_kernel(3.0), 1000)
    assert len(t.values) == 1001 and not t.truncated and not t.overflow
    assert t.values[0] == 1.0 and t.values[1] == -3.0
    assert np.max(np.abs(t.values[2:])) <= 1e-12
    _ok("A4", "geometric kernel -3^n: trajectory (1, -3, 0, 0, ...) over 10^3 steps")


def test_a5_renewal_certificate_and_slow_decay():
    k = renewal_kernel()
    report = certify(k)
    assert (report.final_verdict, report.final_criterion) == (ASYMPTOTICALLY_STABLE, "EFP")
    x = solve(k, 100_000).values
    assert np.all(x > 0.0)
    assert x[100_000] < x[1000]
    assert 0.05 <= x[100_000] <= 0.15
    _ok("A5", f"renewal kernel: EFP certificate, x_1e5 = {x[100_000]:.4f} in [0.05, 0.15]")


def test_a6_uncertifiable_unbounded():
    k = small_radius_unstable_kernel(2.0)
    report = certify(k)
    assert all(a["verdict"] == NOT_APPLICABLE for a in report.attempts)
    assert report.final_verdict == UNSTABLE and report.final_criterion == "Empirical"
    t = solve(k, 100)
    crossing = np.nonzero(np.abs(t.values) > 1e8)[0]
    assert crossing.size and crossing[0] <= 64
    _ok("A6", f"ratio-2 renewal kernel: certificate-free, |x_n| > 1e8 at n = {crossing[0]}")


def test_a7_marginal_alternating_cubic():
    # bound C and floor f frozen from the exact-recursion oracle run:
    # max |x_n| = 1.0 (attained at n = 0), trailing-window max -> 0.73077
    C, floor = 1.5, 0.5
    k = alternating_cubic_kernel()
    report = certify(k)
    assert (report.final_verdict, report.final_rigor) == (STABLE, HEURISTIC)
    zeros = report.final_witness["circle_zeros"]
    assert len(zeros) == 1
    assert abs(zeros[0]["theta"] - math.pi) <= 2.0 * 2.0 * math.pi / 4096
    x = solve(k, 100_000).values
    assert np.max(np.abs(x)) <= C
    assert np.max(np.abs(x[-10_000:])) >= floor
    _ok("A7", f"alternating cubic kernel: heuristic stable, window max {np.max(np.abs(x[-10_000:])):.4f} >= {floor}")


def test_a8_marginal_geometric_half():
    k = geometric_half_kernel()
    t = solve(k, 10_000)
    assert np.max(np.abs(t.values[1:] - 0.5)) <= 1e-10
    verdict = classify(t)
    assert verdict.kind == "bounded_non_decaying"
    _ok("A8", "geometric kernel 2^-n: x_n = 1/2 within 1e-10 over 10^4 steps, bounded-non-decaying")


def test_a9_method_equivalence_and_speed(rng):
    steps = 2**14
    worst_bounded = 0.0
    # the paper-example fixtures first
    for name, k in paper_kernels().items():
        a = solve(k, steps)
        b = solve_fast(k, steps)
        m = min(len(a.values), len(b.values))
        assert abs(len(a.values) - len(b.values)) == 0, name
        scale = np.maximum(1.0, np.abs(a.values[:m]))
        rel = np.max(np.abs(a.values[:m] - b.values[:m]) / scale)
        assert rel <= 1e-9, (name, rel)
        if np.max(np.abs(a.values)) <= 1e3:
            worst_bounded = max(worst_bounded, float(np.max(np.abs(a.values[:m] - b.values[:m]))))
    # 100 random geometric-tail kernels with absolute mass <= 2 and bounded
    # trajectories (the absolute tolerance is meaningless past float scale)
    checked = attempts = 0
    while checked < 100 and attempts < 500:
        attempts += 1
        k = random_bounded_kernel(rng, 0.1, 2.0, q_max=0.9)
        a = solve(k, steps)
        if np.max(np.abs(a.values)) > 1e3 or a.truncated:
            continue
        b = solve_fast(k, steps)
        diff = float(np.max(np.abs(a.values - b.values)))
        assert diff <= 1e-9, diff
        worst_bounded = max(worst_bounded, diff)
        checked += 1
    assert checked == 100

    k = renewal_kernel()
    # best-of-5 wall times, the two methods interleaved so that a spell of
    # load from other processes slows both rather than one
    d_times, f_times = [], []
    for _ in range(5):
        for method, times in ((solve, d_times), (solve_fast, f_times)):
            t0 = time.perf_counter()
            method(k, steps)
            times.append(time.perf_counter() - t0)
    ratio = min(d_times) / min(f_times)
    assert ratio >= 5.0, ratio
    _ok("A9", f"method equivalence: worst bounded diff {worst_bounded:.2e} <= 1e-9, speedup {ratio:.1f}x >= 5x")


def test_a10_property_suites(rng):
    # delta dominance on 1000 random root sets with r_n > 1
    checked = 0
    while checked < 1000:
        rs = random_root_set(rng)
        if rs.r_n <= 1.0:
            continue
        eb = e_bounds(rs)
        dm = maximize_delta(rs)
        assert eb.kind != "not_applicable"
        assert eb.value <= dm.value + 1e-12 * max(1.0, dm.value)
        _, g_val = grid_delta_max(np.abs(np.asarray(rs.roots)), rs.r_n, points=10_000)
        assert dm.value >= g_val - 1e-10
        checked += 1

    # reversal identity on 1000 random (kernel, degree, point)
    for _ in range(1000):
        npre = int(rng.integers(0, 5))
        k = KernelSpec(
            tuple(rng.normal(size=npre)),
            TailModel.parametric(float(rng.normal()), float(rng.uniform(-0.9, 0.9)), float(rng.integers(0, 3)), 0.0),
        )
        n = int(rng.integers(1, 12))
        radius = float(rng.uniform(0.1, 10.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        z = radius * complex(math.cos(phi), math.sin(phi))
        lhs = partial_sum_eval(k, n, z)
        rhs = z**n * complex(np.polyval(pn_coefficients(k, n), 1.0 / z))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(z) ** n)

    # root re-expansion at benign degrees
    for k in (renewal_kernel(), rouche_table_kernel(), geometric_half_kernel(), alternating_cubic_kernel()):
        for n in (2, 6, 12, 24):
            rs = pn_roots(k, n)
            rebuilt = np.real(np.poly(np.asarray(rs.roots)))
            want = pn_coefficients(k, n)
            mask = np.abs(want) >= 1e-12
            assert np.all(np.abs(rebuilt[mask] - want[mask]) <= 1e-8 * np.abs(want[mask]))

    # absolute mass <= 0.9 forces observed decay at 10^4 steps
    for _ in range(20):
        k = random_bounded_kernel(rng, 0.1, 0.9)
        assert classify(solve(k, 10_000)).kind == "decaying"

    # exclusivity: no kernel collects both rigorous verdicts
    corpus = list(paper_kernels().values()) + [random_bounded_kernel(rng, 0.1, 1.8) for _ in range(15)]
    for k in corpus:
        fired = set()
        if check_absolute_sum(k).fired:
            fired.add(ASYMPTOTICALLY_STABLE)
        for n in range(1, 9):
            c = check_rouche_stable(k, n)
            if c.fired:
                fired.add(c.verdict)
            c = check_rouche_unstable(k, n)
            if c.fired:
                fired.add(c.verdict)
        assert not ({ASYMPTOTICALLY_STABLE, UNSTABLE} <= fired)

    _ok("A10", "property suites: delta dominance, reversal, re-expansion, decay consistency, exclusivity")
