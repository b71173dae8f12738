"""Closed-form references against mpmath quadrature, and the checks' teeth.

Each reference must agree with an independent mpmath value to within a
thousandth of the tolerance its instance is judged with, so a reference
can neither pass a wrong answer nor fail a right one.
"""
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

import gaugequad as gq
import references as ref
import workloads as W

SEEDS = (0, 1, 2)


def _rng(seed):
    return np.random.default_rng(seed)


def _agrees(reference, independent, tol):
    assert abs(reference - float(independent)) <= 1e-3 * W._allowed(tol, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_pathological_reference_and_integrand(seed):
    _, a, length, fprime, big_f, cfg = W._pathological_member(_rng(seed), "t")
    big_f_mp = lambda x: x**2 * mp.sin(a / x**3)
    for x in (0.3 * length, 0.6 * length, length):
        assert float(fprime(np.array([x]))[0]) == pytest.approx(float(mp.diff(big_f_mp, x)), rel=1e-9, abs=1e-9)
        assert float(big_f(np.array([x]))[0]) == pytest.approx(ref.pathological_antiderivative(a, x), rel=1e-12)
    # F(0) = 0 and F is continuous, so int_0^L F' = F(L/2) + int_{L/2}^L F'.
    half = length / 2
    independent = big_f_mp(mp.mpf(half)) + mp.quad(lambda x: mp.diff(big_f_mp, x), mp.linspace(half, length, 9))
    _agrees(ref.pathological(a, length), independent, cfg.tol)


@pytest.mark.parametrize("seed", SEEDS)
def test_polynomial(seed):
    rng = _rng(seed)
    coeffs = tuple(rng.uniform(-2, 2, size=4))
    length = float(rng.uniform(0.5, 2.0))
    independent = mp.quad(lambda x: sum(c * x**k for k, c in enumerate(coeffs)), [0, length])
    _agrees(ref.polynomial(coeffs, length), independent, 1e-9)


def _kernel(x, y):
    return (x * x - y * y) / (x * x + y * y) ** 2


@pytest.mark.parametrize("s,t", [(0.0, 0.625), (0.0, 1.0), (0.5, 0.875), (0.2, 0.7)])
def test_fubini_sides(s, t):
    lhs, rhs = ref.fubini_sides(s, t)
    inner_y = lambda x: mp.quad(lambda y: _kernel(x, y), [0, x, 1])
    inner_x = lambda y: mp.quad(lambda x: _kernel(x, y), sorted({s, min(max(y, s), t), t}))
    _agrees(lhs, mp.quad(inner_y, [s, t]), 1e-3)
    _agrees(rhs, mp.quad(inner_x, [0, 1]), 1e-3)


@pytest.mark.parametrize("x", [0.3, 0.55, 0.8])
def test_fubini_row(x):
    _agrees(ref.fubini_row(x), mp.quad(lambda y: _kernel(x, y), [0, x, 1]), 1e-3)


@pytest.mark.parametrize("seed", SEEDS)
def test_exp_kernel(seed):
    rng = _rng(seed)
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    s, t = sorted(rng.uniform(0, 1, size=2))
    x = float(rng.uniform(0.2, 0.8))
    phi = lambda u: mp.quad(lambda y: mp.exp(c * u * y), [0, 1])
    dphi = lambda u: mp.quad(lambda y: c * y * mp.exp(c * u * y), [0, 1])
    _agrees(ref.exp_kernel_phi(c, x), phi(x), 1e-6)
    _agrees(ref.exp_kernel_dphi(c, x), dphi(x), 1e-6)
    # Both sides of the window identity: int_s^t phi' = phi(t) - phi(s).
    _agrees(ref.exp_kernel_window(c, s, t), mp.quad(dphi, [s, t]), 1e-6)
    _agrees(ref.exp_kernel_window(c, s, t), phi(t) - phi(s), 1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_bump_series(seed):
    rng = _rng(seed)
    c, b = rng.uniform(0.8, 1.25), rng.uniform(1.5, 2.5)
    n = W.N_MAX
    peak = 1 / mp.sqrt(2 * c * n)
    independent = mp.quad(lambda x: c * n * x * mp.exp(-c * n * x * x), [0, peak, 4 * peak, b])
    _agrees(ref.bump_partial_integral(c, n, b), independent, 1e-3)
    terms = W._bump_terms(c)
    xs = np.array([0.0, 0.01, 0.3 * b, b])
    partial = sum(terms(k)(xs) for k in range(1, n + 1))
    assert partial == pytest.approx([ref.bump_partial(c, n, x) for x in xs], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_exp_series(seed):
    b = float(_rng(seed).uniform(1.0, 1.5))
    _agrees(ref.exp_series_integral(b), mp.quad(lambda x: mp.expm1(x), [0, b]), 1e-6)
    xs = np.array([0.0, 0.3 * b, b])
    partial = sum(W._exp_terms(k)(xs) for k in range(1, W.N_MAX + 1))
    assert partial == pytest.approx(np.expm1(xs), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("branch", ["sin", "cos"])
def test_cauchy(seed, branch):
    s = float(_rng(seed).uniform(0.0, 3.0))
    trig = mp.sin if branch == "sin" else mp.cos
    f = lambda x: trig(x * x) * mp.cos(s * x)
    # Split at the zeros of the x^2 phase and sum the alternating tail.
    independent = mp.quadosc(f, [0, mp.inf], zeros=lambda n: mp.sqrt(n * mp.pi))
    _agrees(ref.cauchy(branch, s), independent, 1e-4)
    assert ref.cauchy(branch, s) == pytest.approx(gq.cauchy_closed_form(branch, s), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", SEEDS)
def test_sinc_and_inv_sqrt(seed):
    a, b = _rng(seed).uniform(0.5, 2.0, size=2)
    _agrees(ref.sinc(a), mp.quadosc(lambda x: mp.sin(a * x) / x, [0, mp.inf], omega=a), 1e-6)
    _agrees(ref.inv_sqrt(b), mp.quad(lambda x: 1 / mp.sqrt(x), [0, b]), 1e-7)


# ---------------------------------------------------------------------------
# The checks catch wrong outcomes and accept right ones.


def _result(value, status=gq.IntegralStatus.CONVERGED):
    return gq.IntegralResult(value, 1e-6, status, 1, [])


def test_value_check_has_teeth():
    reference, tol = 1.25, 1e-3
    check = W.check_value(reference, tol)
    allowed = W._allowed(tol, reference)
    assert check(_result(reference)).ok
    assert check(_result(reference - 0.9 * allowed)).ok
    assert not check(_result(reference + 1.1 * allowed)).ok
    assert not check(_result(math.nan)).ok
    assert not check(_result(reference, gq.IntegralStatus.INCONCLUSIVE)).ok
    assert check(_result(reference + 2e-6)).estimate == pytest.approx((2e-6, 1e-6))


def test_status_check_has_teeth():
    check = W.check_status(gq.IntegralStatus.DIVERGED)
    assert check(_result(1.0, gq.IntegralStatus.DIVERGED)).ok
    assert not check(_result(1.0, gq.IntegralStatus.CONVERGED)).ok


def _report(lhs, rhs, verdict, rows=()):
    from gaugequad.calculus import PointwiseComparison, WindowComparison

    window = WindowComparison(gq.Window(0.0, 1.0), lhs, rhs, abs(lhs - rhs), verdict)
    pointwise = tuple(PointwiseComparison(x, d, i, abs(d - i)) for x, d, i in rows)
    return gq.InterchangeReport((window,), pointwise, verdict, "")


def test_interchange_check_has_teeth():
    fails = gq.InterchangeVerdict.FAILS
    holds = gq.InterchangeVerdict.HOLDS_ON_SAMPLES
    lhs, rhs = ref.fubini_sides(0.0, 1.0)
    row = ref.fubini_row(0.55)
    noise = 0.05
    check = W.check_interchange(fails, [(fails, lhs, rhs)], [(row, noise)], 1e-3)
    allowed = W._allowed(1e-3, row)
    assert check(_report(lhs, rhs, fails, [(0.55, row, row)])).ok
    assert not check(_report(lhs, lhs, fails, [(0.55, row, row)])).ok
    assert not check(_report(lhs, rhs, holds, [(0.55, row, row)])).ok
    assert check(_report(lhs, rhs, fails, [(0.55, row + 0.9 * (allowed + noise), row)])).ok
    assert not check(_report(lhs, rhs, fails, [(0.55, row + 1.1 * (allowed + noise), row)])).ok
    assert not check(_report(lhs, rhs, fails, [(0.55, row, row + 1.1 * allowed)])).ok
    assert not check(_report(lhs, rhs, fails)).ok


def test_difference_noise_bounds_numeric_derivative():
    # F = identity plus an error of at most eps at each of the seven points
    # numeric_derivative reads; no sign pattern may push it past the bound.
    eps, h, x = 1e-3, 0.01, 0.5
    offsets = [0.0, h, h / 2, h / 4, -h, -h / 2, -h / 4]
    bound = W.difference_noise(eps, 0.0, h)
    worst = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=len(offsets)):
        table = {round(x + o, 12): x + o + eps * sg for o, sg in zip(offsets, signs)}
        slope, _ = gq.numeric_derivative(lambda u: table[round(u, 12)], x, h)
        worst = max(worst, abs(slope - 1.0))
    assert worst <= bound * (1 + 1e-9)
    assert worst >= 0.99 * bound
