"""Closed-form references for every instance family of the benchmark.

Each function returns the exact value the engine should reproduce; none
of them calls into ``gaugequad``, so a defect in the engine cannot leak
into its own reference.  ``tests/test_references.py`` checks every one
of them against ``mpmath`` quadrature on a few seeds.
"""
from __future__ import annotations

import math


def pathological(a: float, length: float) -> float:
    """int_0^L of the derivative of x^2 sin(a x^-3): F(L) - F(0)."""
    return length * length * math.sin(a / length**3)


def pathological_antiderivative(a: float, x: float) -> float:
    return 0.0 if x == 0.0 else x * x * math.sin(a / x**3)


def polynomial(coeffs: tuple[float, ...], length: float) -> float:
    """int_0^L sum_k c_k x^k."""
    return sum(c * length ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))


def fubini_sides(s: float, t: float) -> tuple[float, float]:
    """(int_s^t int_0^1 g dy dx, int_0^1 int_s^t g dx dy) for
    g = (x^2 - y^2)/(x^2 + y^2)^2.

    The inner integral in y is 1/(1+x^2) for x > 0 and the inner integral
    in x is s/(s^2+y^2) - t/(t^2+y^2); the s-term vanishes for s = 0,
    which is where the two orders part ways.
    """
    lhs = math.atan(t) - math.atan(s)
    rhs = lhs if s > 0.0 else -math.atan(1.0 / t)
    return lhs, rhs


def fubini_row(x: float) -> float:
    """int_0^1 g(x, y) dy, which is also d/dx of int_s^x int_0^1 g dy dx."""
    return 1.0 / (1.0 + x * x)


def exp_kernel_phi(c: float, x: float) -> float:
    """phi(x) = int_0^1 exp(c x y) dy."""
    u = c * x
    return 1.0 if u == 0.0 else math.expm1(u) / u


def exp_kernel_dphi(c: float, x: float) -> float:
    """phi'(x) = int_0^1 c y exp(c x y) dy."""
    u = c * x
    if u == 0.0:
        return 0.5 * c
    return c * (math.exp(u) * (u - 1.0) + 1.0) / (u * u)


def exp_kernel_window(c: float, s: float, t: float) -> float:
    """Both sides of the DUI window identity for f = exp(c x y) on [0,1]^2."""
    return exp_kernel_phi(c, t) - exp_kernel_phi(c, s)


def bump_partial(c: float, n: int, x: float) -> float:
    """S_n(x) = c n x exp(-c n x^2), the n-th partial sum of the bump series."""
    return c * n * x * math.exp(-c * n * x * x)


def bump_partial_integral(c: float, n: int, b: float) -> float:
    """int_0^b S_n = (1 - exp(-c n b^2)) / 2; tends to 1/2."""
    return -0.5 * math.expm1(-c * n * b * b)


def exp_series_integral(b: float) -> float:
    """int_0^b sum_{n>=1} x^n/n! = int_0^b (e^x - 1) = e^b - 1 - b."""
    return math.expm1(b) - b


def cauchy(branch: str, s: float) -> float:
    """int_0^oo {sin|cos}(x^2) cos(s x) dx = sqrt(pi/8)(cos(s^2/4) -+ sin(s^2/4))."""
    a = s * s / 4.0
    sign = -1.0 if branch == "sin" else 1.0
    return math.sqrt(math.pi / 8.0) * (math.cos(a) + sign * math.sin(a))


def sinc(a: float) -> float:
    """int_0^oo sin(a x)/x dx for a > 0."""
    return math.pi / 2.0


def inv_sqrt(b: float) -> float:
    """int_0^b x^(-1/2) dx."""
    return 2.0 * math.sqrt(b)
