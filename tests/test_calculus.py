import math
import weakref

import numpy as np
import pytest

from gaugequad import (
    ClosedInterval,
    HypothesisPreset,
    IntegralStatus,
    IntegratorConfig,
    InterchangeVerdict,
    Rectangle,
    Window,
    default_windows,
    diff_under_integral,
    ftc_verify,
    interchange_iterated,
    interchange_sum_integral,
    numeric_derivative,
)
from gaugequad import calculus

UNIT = ClosedInterval(0.0, 1.0)
UNIT_RECT = Rectangle(UNIT, UNIT)


# -- numeric differentiation --------------------------------------------------

def test_numeric_derivative_smooth():
    d, err = numeric_derivative(lambda x: x * x, 3.0, scale=1e-2)
    assert d == pytest.approx(6.0, abs=1e-9)
    assert err < 1e-6
    d, err = numeric_derivative(math.sin, 0.7, scale=1e-2)
    assert d == pytest.approx(math.cos(0.7), abs=1e-10)


def test_numeric_derivative_flags_kinks():
    # Central differences at a kink look deceptively convergent; the
    # one-sided spread must keep the error estimate honest.
    d, err = numeric_derivative(abs, 0.0, scale=1e-2)
    assert err >= 1.0


def test_numeric_derivative_validates_scale():
    with pytest.raises(ValueError):
        numeric_derivative(math.sin, 0.0, scale=0.0)


def test_numeric_derivative_rejects_nonfinite_samples():
    with pytest.raises(ArithmeticError):
        numeric_derivative(lambda x: math.inf if x > 0.5 else x, 0.5, scale=0.1)


# -- windows -------------------------------------------------------------------

def test_window_requires_order():
    with pytest.raises(ValueError):
        Window(1.0, 1.0)
    with pytest.raises(ValueError):
        Window(2.0, 1.0)


def test_default_windows_live_inside_the_interval():
    wins = default_windows(ClosedInterval(-2.0, 3.0), seed=1)
    assert len(wins) == 13
    for w in wins:
        assert -2.0 <= w.s < w.t <= 3.0
    assert default_windows(ClosedInterval(-2.0, 3.0), seed=1) == wins


# -- fundamental theorem grid -------------------------------------------------

def test_ftc_quadratic_explicit_derivative():
    rep = ftc_verify(lambda x: x * x, lambda x: 2.0 * np.asarray(x), UNIT)
    assert rep.passed
    assert rep.max_residual <= 1e-6
    assert len(rep.grid) == 9
    assert all(s is IntegralStatus.CONVERGED for s in rep.statuses)


def test_ftc_sine():
    rep = ftc_verify(np.sin, np.cos, ClosedInterval(0.0, math.pi))
    assert rep.passed
    assert rep.max_residual <= 1e-6


def test_ftc_synthesized_derivative():
    rep = ftc_verify(lambda x: x * x * x, None, UNIT, cfg=IntegratorConfig(tol=1e-5))
    assert rep.passed
    assert rep.max_residual <= 1e-4


def test_ftc_guard_secant_near_a_declared_kink():
    # The synthesized derivative of |x|^1.5 takes tags inside the guard
    # around 0, where its value is the secant of F across the guard:
    # F(+-guard) and then F(0), with guard = 4 * 2 / (64 * 8) = 1/64 on
    # the default 9-point grid.  No difference stencil makes that pair.
    calls = []

    def F(x):
        calls.append(float(x))
        return abs(float(x)) ** 1.5

    cfg = IntegratorConfig(tol=1e-5, singular_points=(0.0,))
    rep = ftc_verify(F, None, ClosedInterval(-1.0, 1.0), cfg=cfg)
    assert rep.passed
    assert rep.max_residual <= 1e-5
    secants = sum(abs(u) == 1.0 / 64.0 and v == 0.0 for u, v in zip(calls, calls[1:]))
    assert secants > 0


def test_ftc_abs_with_sign_derivative():
    def sign(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, -1.0, np.where(x > 0, 1.0, 0.0))

    rep = ftc_verify(np.abs, sign, ClosedInterval(-1.0, 1.0))
    assert rep.passed
    assert rep.max_residual <= 1e-9  # midpoint sums are exact on each side


def test_ftc_detects_a_wrong_derivative():
    rep = ftc_verify(lambda x: x * x, lambda x: 3.0 * np.asarray(x), UNIT)
    assert not rep.passed
    assert rep.max_residual > 0.1


def test_ftc_rejects_unbounded_interval():
    with pytest.raises(ValueError):
        ftc_verify(np.exp, np.exp, ClosedInterval(0.0, math.inf))
    with pytest.raises(ValueError):
        ftc_verify(np.exp, np.exp, UNIT, grid_size=1)


def test_ftc_report_json():
    rep = ftc_verify(lambda x: x * x, lambda x: 2.0 * np.asarray(x), UNIT, grid_size=3)
    d = rep.to_json_dict()
    assert set(d) == {"grid", "residuals", "max_residual", "passed", "statuses", "message"}
    assert len(d["grid"]) == len(d["residuals"]) == 3


# -- differentiation under the integral -----------------------------------------

def test_dui_smooth_holds_everywhere():
    rep = diff_under_integral(
        lambda x, y: x * x * y,
        lambda x, y: 2.0 * x * y,
        UNIT_RECT,
        cfg=IntegratorConfig(tol=1e-6),
        preset=HypothesisPreset.CONTINUOUS_F1,
    )
    assert rep.overall is InterchangeVerdict.HOLDS_ON_SAMPLES
    assert all(w.verdict is InterchangeVerdict.HOLDS_ON_SAMPLES for w in rep.windows)
    assert max(w.gap for w in rep.windows) <= 1e-6
    assert "CONTINUOUS_F1" in rep.hypothesis_notes
    # Pointwise section: d/dx of x^2/2 at x is x (integral of x^2 y dy in y).
    for p in rep.pointwise:
        assert p.gap <= 1e-4


def test_dui_window_identity_values():
    # LHS of window [s,t] is the x-integral of int_0^1 2xy dy = x, so
    # both sides must equal (t^2 - s^2)/2.
    rep = diff_under_integral(
        lambda x, y: x * x * y,
        lambda x, y: 2.0 * x * y,
        UNIT_RECT,
        windows=[Window(0.25, 0.75)],
        cfg=IntegratorConfig(tol=1e-8),
    )
    w = rep.windows[0]
    want = (0.75**2 - 0.25**2) / 2.0
    assert w.lhs == pytest.approx(want, abs=1e-7)
    assert w.rhs == pytest.approx(want, abs=1e-7)


def test_dui_pointwise_section_catches_a_mismatched_partial():
    # The window verdict judges the interchange identity of f1 with
    # itself, which any smooth f1 satisfies, wrong or not.  Handing in a
    # partial that does not belong to f must therefore show up in the
    # pointwise derivative comparison and in the notes, not the verdict.
    rep = diff_under_integral(
        lambda x, y: x * x * y,
        lambda x, y: 2.0 * x * y + 0.5,  # off by a constant
        UNIT_RECT,
        windows=[Window(0.0, 1.0)],
        cfg=IntegratorConfig(tol=1e-6),
    )
    assert rep.overall is InterchangeVerdict.HOLDS_ON_SAMPLES
    assert rep.pointwise
    assert min(p.gap for p in rep.pointwise) > 0.4
    assert "f itself" in rep.hypothesis_notes


def test_dui_pointwise_x_outside_the_interval_raises():
    with pytest.raises(ValueError, match="1.5"):
        diff_under_integral(
            lambda x, y: x * y,
            lambda x, y: y + 0.0 * x,
            UNIT_RECT,
            windows=[Window(0.0, 1.0)],
            xs=[1.5],
        )


def test_report_serialization_shapes():
    rep = diff_under_integral(
        lambda x, y: x * x * y,
        lambda x, y: 2.0 * x * y,
        UNIT_RECT,
        windows=[Window(0.0, 0.5)],
        cfg=IntegratorConfig(tol=1e-7),
    )
    d = rep.to_json_dict()
    assert set(d) == {"windows", "pointwise", "overall", "notes"}
    assert {"s", "t", "lhs", "rhs", "gap", "verdict", "detail"} == set(d["windows"][0])
    table = rep.to_text_table()
    assert "overall:" in table and "gap" in table


# -- iterated integrals ----------------------------------------------------------

def test_iterated_smooth_kernel_holds():
    rep = interchange_iterated(
        lambda x, y: np.exp(x) * np.cos(y),
        Rectangle(UNIT, ClosedInterval(0.0, math.pi / 2.0)),
        windows=[Window(0.0, 1.0), Window(0.25, 0.5)],
        cfg=IntegratorConfig(tol=1e-7),
    )
    assert rep.overall is InterchangeVerdict.HOLDS_ON_SAMPLES
    w = rep.windows[0]
    assert w.lhs == pytest.approx(math.e - 1.0, abs=1e-5)


def test_iterated_pointwise_stencil_stays_inside_the_interval():
    # g = 1 gives G(x) = x.  At x = 0.001 the default step (1/128) would
    # reach below lo; it shrinks to fit, using G(0) = 0.
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    rep = interchange_iterated(one, UNIT_RECT, windows=[Window(0.0, 1.0)], xs=[0.001, 0.0, 1.0])
    near, at_lo, at_hi = rep.pointwise
    assert near.derivative == pytest.approx(1.0, abs=1e-9)
    assert near.gap <= 1e-9
    for row in (at_lo, at_hi):
        assert math.isnan(row.derivative) and row.gap == math.inf
        assert row.integral_value == pytest.approx(1.0)
    with pytest.raises(ValueError, match="1.5"):
        interchange_iterated(one, UNIT_RECT, windows=[Window(0.0, 1.0)], xs=[1.5])


def test_batched_inner_nudges_an_undefined_midpoint():
    # 1/32 is a midpoint of the 16-cell level; the nudge moves that tag
    # inside its cell, so the row still settles on the integral 1.
    f2 = lambda u, v: np.where(v == 1.0 / 32.0, np.nan, 1.0 + 0.0 * u)
    vals, ok = calculus._batched_inner(f2, np.array([0.3]), 0.0, 1.0, 1e-9)
    assert ok[0]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)


def test_iterated_fubini_counterexample_fails():
    """(x^2 - y^2)/(x^2 + y^2)^2: iterated orders give +-pi/4.

    Full tolerance sweep lives in the acceptance suite; here a loose
    tolerance keeps the runtime down while still forcing the verdict.
    """

    def g(x, y):
        num = x * x - y * y
        den = (x * x + y * y) ** 2
        with np.errstate(all="ignore"):
            return np.where(den == 0.0, np.nan, num / np.where(den == 0.0, 1.0, den))

    rep = interchange_iterated(
        g,
        UNIT_RECT,
        windows=[Window(0.0, 1.0)],
        cfg=IntegratorConfig(tol=1e-2, singular_points=(0.0,)),
    )
    assert rep.overall is InterchangeVerdict.FAILS
    w = rep.windows[0]
    assert w.lhs > 0.7 and w.rhs < -0.7  # pi/4 and -pi/4, roughly
    # Away from the corner, G'(x) = int_0^1 g(x,y) dy = 1/(1+x^2).
    assert len(rep.pointwise) == 3
    for row in rep.pointwise:
        assert row.derivative == pytest.approx(1.0 / (1.0 + row.x**2), abs=1e-3)


def test_iterated_unbounded_inner_interval():
    rep = interchange_iterated(
        lambda x, y: np.exp(-y) + 0.0 * x,
        Rectangle(UNIT, ClosedInterval(0.0, math.inf)),
        windows=[Window(0.0, 1.0)],
        cfg=IntegratorConfig(tol=1e-3),
        xs=[],
    )
    assert rep.overall is InterchangeVerdict.HOLDS_ON_SAMPLES
    assert rep.windows[0].lhs == pytest.approx(1.0, abs=1e-3)


# -- series interchange -----------------------------------------------------------

def test_series_geometric_on_half_interval():
    rep = interchange_sum_integral(
        lambda n: (lambda x: x**n),
        ClosedInterval(0.0, 0.5),
        windows=[Window(0.0, 0.5)],
        cfg=IntegratorConfig(tol=1e-6),
    )
    assert rep.overall is InterchangeVerdict.HOLDS_ON_SAMPLES
    w = rep.windows[0]
    want = math.log(2.0) - 0.5  # int_0^1/2 x/(1-x) dx
    assert w.lhs == pytest.approx(want, abs=1e-5)
    assert w.rhs == pytest.approx(want, abs=1e-5)


def test_series_accepts_a_finite_term_sequence():
    terms = [lambda x, k=k: np.cos(k * x) / 2.0**k for k in range(1, 40)]
    rep = interchange_sum_integral(
        terms,
        ClosedInterval(0.0, 1.0),
        windows=[Window(0.0, 1.0)],
        n_max=32,
        cfg=IntegratorConfig(tol=1e-5),
    )
    assert rep.overall is InterchangeVerdict.HOLDS_ON_SAMPLES


def test_series_unresolved_limit_is_inconclusive(monkeypatch):
    # Above 0.25 the partial sums grow without bound, so the pointwise
    # limit stays unresolved at the (lowered) cap: the window must end
    # INCONCLUSIVE and name the limit instead of raising.
    monkeypatch.setattr(calculus, "_SERIES_CAP", 1 << 9)
    rep = interchange_sum_integral(
        lambda n: (lambda x: np.maximum(x - 0.25, 0.0)),
        UNIT,
        windows=[Window(0.0, 1.0)],
        n_max=4,
    )
    assert rep.overall is InterchangeVerdict.INCONCLUSIVE
    w = rep.windows[0]
    assert w.verdict is InterchangeVerdict.INCONCLUSIVE
    assert w.detail.startswith("series limit unresolved at ")
    assert w.rhs == pytest.approx(4 * 0.75**2 / 2)


def test_series_pointwise_rows_of_a_step_term(monkeypatch):
    # S_4 = 4 * 1{x > 0.25}: every row's stencil stays clear of the step,
    # so G'(x) = 4 exactly (the limit itself is unresolved, hence the cap).
    monkeypatch.setattr(calculus, "_SERIES_CAP", 1 << 9)
    rep = interchange_sum_integral(
        lambda n: (lambda x: (np.asarray(x) > 0.25).astype(float)),
        UNIT,
        windows=[Window(0.0, 1.0)],
        n_max=4,
    )
    assert len(rep.pointwise) == 3
    for row in rep.pointwise:
        assert row.derivative == pytest.approx(4.0, abs=1e-9)
        assert row.integral_value == 4.0


def test_series_divergent_term_integral_is_inconclusive():
    # int_0^1 dx / (x - 0.5)^2 diverges, so the series of integrals stops
    # at its first term.
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = interchange_sum_integral(
            [lambda x: 1.0 / (x - 0.5) ** 2], UNIT, windows=[Window(0.0, 1.0)], n_max=2
        )
    assert rep.overall is InterchangeVerdict.INCONCLUSIVE
    assert rep.windows[0].verdict is InterchangeVerdict.INCONCLUSIVE
    assert rep.windows[0].detail == "term integral DIVERGED at n=1"


def test_series_of_integrals_still_moving_is_inconclusive():
    # The alternating harmonic tail still moves by ~1/64 between T(32)
    # and T(64), so the window is rejected as unstable.
    rep = interchange_sum_integral(
        lambda n: (lambda x: (-1.0) ** n / n + 0.0 * x), UNIT, windows=[Window(0.0, 1.0)], n_max=64
    )
    assert rep.overall is InterchangeVerdict.INCONCLUSIVE
    w = rep.windows[0]
    assert w.verdict is InterchangeVerdict.INCONCLUSIVE
    assert w.detail == "series of integrals still moving: |T(64)-T(32)| = 7.630e-03"
    assert "1 window(s) rejected as unstable" in rep.hypothesis_notes


def test_iterated_unresolved_inner_integral_is_inconclusive(monkeypatch):
    # int_0^1 dy / y never settles, so every outer tag of the left side
    # sees an unresolved inner integral.
    monkeypatch.setattr(calculus, "_INNER_CELL_CAP", 32)
    rep = interchange_iterated(
        lambda x, y: 1.0 / y, UNIT_RECT, windows=[Window(0.0, 1.0)], xs=[]
    )
    w = rep.windows[0]
    assert rep.overall is InterchangeVerdict.INCONCLUSIVE
    assert w.verdict is InterchangeVerdict.INCONCLUSIVE
    assert w.detail.startswith("lhs inner integral unresolved at ")


def test_series_term_adapter_keeps_no_term_closure():
    made = []

    def terms(n):
        fn = lambda x: x**n
        made.append(weakref.ref(fn))
        return fn

    term_at = calculus._term_adapter(terms)
    assert term_at(3, np.array([2.0])).tolist() == [8.0]
    assert len(made) == 1 and made[0]() is None


def test_series_n_max_validation():
    with pytest.raises(ValueError):
        interchange_sum_integral(lambda n: (lambda x: x**n), UNIT, n_max=1)
