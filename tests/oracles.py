"""Reference values computed with independent tools, frozen here.

Every number in this file was produced by something that shares no code
with the package under test: mpmath arbitrary-precision quadrature, or
pencil-and-paper antiderivatives.  Tests import these constants instead
of recomputing them so a regression in the library cannot silently
shift the expectations.
"""

import math

# int_0^oo {sin|cos}(x^2) cos(s x) dx, computed by
#   mpmath.quadosc(f, [0, inf], zeros=lambda n: sqrt(n*pi))  at dps=30.
# The closed form sqrt(pi/8) (cos(s^2/4) -+ sin(s^2/4)) matches these to
# better than 2e-16; the quadosc route knows nothing about that formula.
FRESNEL_FAMILY = {
    ("sin", 0.0): 0.62665706865775013,
    ("sin", 1.0): 0.45213837809451368,
    ("sin", 2.0): -0.18872948151591507,
    ("cos", 0.0): 0.62665706865775013,
    ("cos", 1.0): 0.76221325785603526,
    ("cos", 2.0): 0.86589799988461815,
}

# Antiderivative evaluations; exact up to the last ulp of math.*.
SIN_1 = math.sin(1.0)                  # int_0^1 d/dx[x^2 sin(x^-3)]
SINC_HALF_PI = math.pi / 2.0           # int_0^oo sin(x)/x
E_MINUS_2 = math.e - 2.0               # int_0^1 (e^x - 1 - 0) dx with series sum_{n>=1} x^n/n!
BASEL = math.pi * math.pi / 6.0        # sum 1/n^2
LN_2 = math.log(2.0)                   # alternating harmonic sum
# int_0^oo |sin x| e^-x: lobe k holds e^(-k pi) (1 + e^-pi) / 2, and the
# geometric sum of the lobes is coth(pi/2) / 2.
ABS_SIN_EXP = 0.5 / math.tanh(math.pi / 2.0)


def mixed_close(a: float, b: float, tol: float) -> bool:
    """The library's mixed absolute/relative comparison, restated."""
    return abs(a - b) <= tol + tol * abs(b)
