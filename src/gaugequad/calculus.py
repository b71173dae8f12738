"""Interchange checkers built on the gauge integrator.

Differentiating F(x) = int_a^b f(x,y) dy under the integral sign is
valid exactly when the two iterated integrals of the partial derivative
agree over every window [s,t] of the parameter interval.  The same
window identity, with the derivative replaced by the integrand itself
or by series terms, governs interchanging iterated integrals and
interchanging summation with integration.  A finite engine cannot test
"every window", so each checker samples a family of windows and reports
HOLDS_ON_SAMPLES, FAILS (a definite counterexample window with both
sides convergent), or INCONCLUSIVE (some needed integral did not
resolve).  Verdicts never claim more than what was computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .accel import _partial_sum_blocks, series_limit
from .extreal import ClosedInterval, ext
from .integrator import (
    IntegralResult,
    IntegralStatus,
    IntegratorConfig,
    _midpoint_sums,
    integrate_auto,
)
from .partition import EvaluatorDomainError

__all__ = [
    "Rectangle",
    "Window",
    "InterchangeVerdict",
    "HypothesisPreset",
    "WindowComparison",
    "PointwiseComparison",
    "InterchangeReport",
    "FtcReport",
    "numeric_derivative",
    "ftc_verify",
    "diff_under_integral",
    "interchange_iterated",
    "interchange_sum_integral",
    "default_windows",
]


class InterchangeVerdict(str, Enum):
    HOLDS_ON_SAMPLES = "HOLDS_ON_SAMPLES"
    FAILS = "FAILS"
    INCONCLUSIVE = "INCONCLUSIVE"


class HypothesisPreset(str, Enum):
    NONE = "NONE"
    NEARLY_EVERYWHERE = "NEARLY_EVERYWHERE"
    CONTINUOUS_F1 = "CONTINUOUS_F1"


_PRESET_NOTES = {
    HypothesisPreset.NONE: "no sufficient-condition preset exercised",
    HypothesisPreset.NEARLY_EVERYWHERE: (
        "preset NEARLY_EVERYWHERE: x -> f(x,y) differentiable nearly everywhere"
    ),
    HypothesisPreset.CONTINUOUS_F1: (
        "preset CONTINUOUS_F1: the partial derivative is continuous on the rectangle"
    ),
}


@dataclass(frozen=True)
class Rectangle:
    """Parameter-by-integration rectangle [alpha,beta] x [a,b]."""

    x_interval: ClosedInterval
    y_interval: ClosedInterval


@dataclass(frozen=True)
class Window:
    """Subinterval [s,t] of the parameter interval."""

    s: float
    t: float

    def __post_init__(self) -> None:
        if not ext(self.s) < ext(self.t):
            raise ValueError(f"window needs s < t, got [{self.s}, {self.t}]")

    def interval(self) -> ClosedInterval:
        return ClosedInterval(self.s, self.t)


@dataclass(frozen=True)
class WindowComparison:
    window: Window
    lhs: float
    rhs: float
    gap: float
    verdict: InterchangeVerdict
    detail: str = ""


@dataclass(frozen=True)
class PointwiseComparison:
    x: float
    derivative: float
    integral_value: float
    gap: float


@dataclass(frozen=True)
class InterchangeReport:
    windows: tuple[WindowComparison, ...]
    pointwise: tuple[PointwiseComparison, ...]
    overall: InterchangeVerdict
    hypothesis_notes: str

    def to_json_dict(self) -> dict:
        return {
            "windows": [
                {
                    "s": w.window.s,
                    "t": w.window.t,
                    "lhs": w.lhs,
                    "rhs": w.rhs,
                    "gap": w.gap,
                    "verdict": w.verdict.value,
                    "detail": w.detail,
                }
                for w in self.windows
            ],
            "pointwise": [
                {
                    "x": p.x,
                    "derivative": p.derivative,
                    "integral": p.integral_value,
                    "gap": p.gap,
                }
                for p in self.pointwise
            ],
            "overall": self.overall.value,
            "notes": self.hypothesis_notes,
        }

    def to_text_table(self) -> str:
        rows = [("s", "t", "lhs", "rhs", "gap", "verdict")]
        for w in self.windows:
            rows.append(
                (
                    f"{w.window.s:.6g}",
                    f"{w.window.t:.6g}",
                    f"{w.lhs:.10g}",
                    f"{w.rhs:.10g}",
                    f"{w.gap:.3e}",
                    w.verdict.value,
                )
            )
        lines = _aligned(rows)
        if self.pointwise:
            lines.append("")
            prows = [("x", "F'(x)", "integral", "gap")]
            for p in self.pointwise:
                prows.append(
                    (
                        f"{p.x:.6g}",
                        f"{p.derivative:.10g}",
                        f"{p.integral_value:.10g}",
                        f"{p.gap:.3e}",
                    )
                )
            lines += _aligned(prows)
        lines.append("")
        lines.append(f"overall: {self.overall.value}")
        lines.append(f"notes: {self.hypothesis_notes}")
        return "\n".join(lines)


def _aligned(rows: list[tuple[str, ...]]) -> list[str]:
    """Right-justify each column of ``rows`` to its widest cell, two spaces apart."""
    widths = [max(len(c) for c in col) for col in zip(*rows)]
    return ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]


@dataclass(frozen=True)
class FtcReport:
    """Residuals of int_a^x F' against F(x) - F(a) over a grid."""

    grid: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float
    passed: bool
    statuses: tuple[IntegralStatus, ...]
    message: str = ""

    def to_json_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
            "passed": self.passed,
            "statuses": [s.value for s in self.statuses],
            "message": self.message,
        }


# ---------------------------------------------------------------------------
# numeric differentiation

def numeric_derivative(F: Callable, x: float, scale: float) -> tuple[float, float]:
    """Richardson-extrapolated central difference; returns (slope, error).

    Steps scale, scale/2, scale/4 feed a two-column Richardson tableau;
    the error gauge is the last tableau correction.  One-sided slopes
    are also compared: a spread that fails to shrink with the step marks
    a kink, and the error estimate is raised to that spread so the
    caller never trusts a symmetric-difference artifact.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    hs = [scale, scale / 2.0, scale / 4.0]
    f0 = float(F(x))
    ups = [float(F(x + h)) for h in hs]
    downs = [float(F(x - h)) for h in hs]
    if not all(map(math.isfinite, [f0, *ups, *downs])):
        raise ArithmeticError(f"non-finite evaluation near x={x!r}")
    central = [(u - d) / (2.0 * h) for u, d, h in zip(ups, downs, hs)]
    r1 = [(4.0 * central[i + 1] - central[i]) / 3.0 for i in range(2)]
    r2 = (16.0 * r1[1] - r1[0]) / 15.0
    err = abs(r2 - r1[1]) + abs(r1[1] - r1[0]) * 1e-3
    spreads = [abs((u - f0) / h - (f0 - d) / h) for u, d, h in zip(ups, downs, hs)]
    floor = 64.0 * np.finfo(float).eps * (abs(f0) + abs(ups[-1])) / hs[-1]
    if spreads[2] > 0.6 * spreads[1] and spreads[2] > floor:
        err = max(err, spreads[2])
    return r2, err


# ---------------------------------------------------------------------------
# window machinery

def default_windows(interval: ClosedInterval, seed: int = 0) -> list[Window]:
    """Five dyadic windows plus eight seeded random ones.

    Only defined for bounded intervals; infinite parameter intervals
    need caller-specified windows.
    """
    if not interval.is_bounded:
        raise ValueError("default windows need a bounded parameter interval")
    lo = interval.lo.value
    hi = interval.hi.value
    w = hi - lo
    mid = lo + 0.5 * w
    dyadic = [
        Window(lo, hi),
        Window(lo, mid),
        Window(mid, hi),
        Window(lo, lo + 0.25 * w),
        Window(hi - 0.25 * w, hi),
    ]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57D0]))
    out = list(dyadic)
    while len(out) < 13:
        s, t = np.sort(rng.uniform(lo, hi, size=2))
        if t - s >= w / 16.0:
            out.append(Window(float(s), float(t)))
    return out


def _interval_or_windows(
    interval: ClosedInterval, windows: Optional[Sequence[Window]], seed: int
) -> list[Window]:
    if windows:
        return list(windows)
    return default_windows(interval, seed)


_INNER_CELL_CAP = 1 << 17


def _batched_inner(
    f2: Callable,
    us: np.ndarray,
    lo: float,
    hi: float,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-refinement integrals over [lo,hi] in the second slot,
    one per entry of us.  Returns (values, ok).

    Rows converge independently; undefined mesh points are nudged inside
    their cell twice before the row is left to a finer level.  Rows
    still moving at the cell cap come back not-ok.
    """
    us = np.asarray(us, dtype=float)

    def evaluate(rows, mids, w):
        u = us[rows]
        with np.errstate(all="ignore"):
            mat = np.asarray(f2(u[:, None], mids[None, :]), dtype=float)
            mat = np.broadcast_to(mat, (rows.size, mids.size)).copy()
            bad = ~np.isfinite(mat)
            for nudge in (0.25, -0.25):
                if not bad.any():
                    break
                ri, ci = np.nonzero(bad)
                mat[ri, ci] = np.asarray(f2(u[ri], mids[ci] + nudge * w), dtype=float)
                bad = ~np.isfinite(mat)
        mat[bad] = np.nan
        return mat

    values, _, ok, _ = _midpoint_sums(
        evaluate, lo, hi, us.size, tol, tol, start_cells=16, max_cells=_INNER_CELL_CAP
    )
    return values, ok


def _inner_probe(inner: Callable, samples: np.ndarray) -> Optional[str]:
    """Evaluate an expensive scalar inner integral at a few points; a
    uniformly non-convergent inner short-circuits the whole report."""
    statuses = []
    for u in samples:
        res = inner(float(u))
        statuses.append(res.status)
    if all(s is not IntegralStatus.CONVERGED for s in statuses):
        worst = statuses[0].value
        return f"inner integral {worst} at all probe points"
    return None


def _nested_side(h: Callable, inner_lo: float, inner_hi: float, inner_tol: float, swap: bool):
    """Outer integrand whose values are inner midpoint integrals of h over
    [inner_lo, inner_hi], in h's first slot when ``swap``; NaN where an
    inner integral did not settle."""
    f2 = (lambda u, v: h(v, u)) if swap else h

    def side(us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vals, ok = _batched_inner(f2, us, inner_lo, inner_hi, inner_tol)
        return np.where(ok, vals, np.nan)

    return side


def _improper_inner_side(h: Callable, inner: ClosedInterval, cfg: IntegratorConfig):
    """Per-point inner integration for unbounded inner intervals."""

    def one(u: float) -> IntegralResult:
        g = lambda v: h(np.full_like(np.asarray(v, dtype=float), u), v)
        return integrate_auto(g, inner, cfg)

    def evaluator(us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        out = np.empty(us.size)
        for k, u in enumerate(us):
            res = one(float(u))
            out[k] = res.value if res.status is IntegralStatus.CONVERGED else np.nan
        return out

    evaluator.one = one
    return evaluator


def _inner_side(h: Callable, y_int: ClosedInterval, inner_tol: float, cfg: IntegratorConfig):
    """u -> int over y_int of h(u, y) dy: batched midpoint rows when y_int
    is bounded, per-point improper integrals when it is not."""
    if y_int.is_bounded:
        return _nested_side(h, y_int.lo.value, y_int.hi.value, inner_tol, swap=False)
    return _improper_inner_side(h, y_int, cfg.with_(tol=inner_tol))


def _window_side(
    fn: Callable, interval: ClosedInterval, cfg: IntegratorConfig, what: str
) -> tuple[IntegralResult, str]:
    """Integrate one window side whose integrand is NaN where ``what``
    (an inner integral or a pointwise limit) did not resolve.

    A NaN reaching a tag ends the side INCONCLUSIVE and the returned
    note names the point ("" otherwise); an evaluator that raises still
    propagates.
    """
    try:
        return integrate_auto(fn, interval, cfg), ""
    except EvaluatorDomainError as exc:
        if exc.tag is None:
            raise
        note = f"{what} unresolved at {exc.tag!r}"
        return IntegralResult(math.nan, math.inf, IntegralStatus.INCONCLUSIVE, 0, [], note), note


def _window_comparison(
    h: Callable,
    rect: Rectangle,
    window: Window,
    cfg: IntegratorConfig,
) -> WindowComparison:
    """LHS = int_s^t int_a^b h dy dx against RHS = int_a^b int_s^t h dx dy."""
    inner_tol = cfg.tol / 32.0
    outer_cfg = cfg.with_(tol=cfg.tol / 2.0)

    lhs_fn = _inner_side(h, rect.y_interval, inner_tol, cfg)
    note = None
    if not rect.y_interval.is_bounded:
        note = _inner_probe(lhs_fn.one, _probe_points(window.s, window.t))
    if note:
        lhs = rhs = IntegralResult(math.nan, math.inf, IntegralStatus.INCONCLUSIVE, 0, [], note)
    else:
        lhs, lhs_note = _window_side(lhs_fn, window.interval(), outer_cfg, "lhs inner integral")
        rhs_inner = _nested_side(h, window.s, window.t, inner_tol, swap=True)
        rhs_cfg = outer_cfg.with_(singular_points=())
        rhs, rhs_note = _window_side(rhs_inner, rect.y_interval, rhs_cfg, "rhs inner integral")
        note = "; ".join(n for n in (lhs_note, rhs_note) if n)
    gap, verdict, vdetail = _window_verdict(lhs, rhs, cfg.tol)
    return WindowComparison(window, lhs.value, rhs.value, gap, verdict, note or vdetail)


def _probe_points(lo: float, hi: float) -> np.ndarray:
    if math.isfinite(lo) and math.isfinite(hi):
        return lo + (hi - lo) * np.array([0.21, 0.5, 0.83])
    if math.isfinite(lo):
        return lo + np.array([0.37, 1.7, 5.3])
    if math.isfinite(hi):
        return hi - np.array([0.37, 1.7, 5.3])
    return np.array([-2.9, 0.41, 3.7])


def _window_verdict(
    lhs: IntegralResult, rhs: IntegralResult, tol: float
) -> tuple[float, InterchangeVerdict, str]:
    both = (
        lhs.status is IntegralStatus.CONVERGED
        and rhs.status is IntegralStatus.CONVERGED
    )
    gap = abs(lhs.value - rhs.value) if both else math.inf
    if both:
        allowed = tol + tol * max(abs(lhs.value), abs(rhs.value))
        if gap <= allowed:
            return gap, InterchangeVerdict.HOLDS_ON_SAMPLES, ""
        return gap, InterchangeVerdict.FAILS, f"gap {gap:.3e} > {allowed:.3e}"
    detail = f"lhs {lhs.status.value}, rhs {rhs.status.value}"
    return gap, InterchangeVerdict.INCONCLUSIVE, detail


def _overall(window_comps: Sequence[WindowComparison]) -> InterchangeVerdict:
    verdicts = [w.verdict for w in window_comps]
    if any(v is InterchangeVerdict.FAILS for v in verdicts):
        return InterchangeVerdict.FAILS
    if any(v is InterchangeVerdict.INCONCLUSIVE for v in verdicts):
        return InterchangeVerdict.INCONCLUSIVE
    return InterchangeVerdict.HOLDS_ON_SAMPLES


# ---------------------------------------------------------------------------
# pointwise rows

def _pointwise_rows(
    x_int: ClosedInterval,
    xs: Optional[Sequence[float]],
    fractions: tuple[float, ...],
    divisions: float,
    F: Callable[[float, float], float],
    integrand: Callable,
) -> tuple[PointwiseComparison, ...]:
    """Compare the numeric derivative of u -> F(x, u) at u = x with
    integrand(x)[0] for each x (F may use x as the anchor of an
    antiderivative).

    xs defaults to the given fractions of a bounded x_int (no rows for an
    unbounded one).  The stencil step is the width of x_int (1 when
    unbounded) over ``divisions``, shrunk so every stencil point stays in
    x_int; an endpoint has no central stencil and gets a NaN slope.  An x
    outside x_int raises ValueError before any row is computed.
    """
    lo, hi = x_int.lo.as_float(), x_int.hi.as_float()
    if xs is None:
        if not x_int.is_bounded:
            return ()
        xs = lo + (hi - lo) * np.array(fractions)
    xs = [float(x) for x in xs]
    outside = [x for x in xs if not lo <= x <= hi]
    if outside:
        raise ValueError(f"pointwise x {outside[0]!r} lies outside [{lo!r}, {hi!r}]")
    width = hi - lo if x_int.is_bounded else 1.0
    out = []
    for x in xs:
        step = min(width / divisions, x - lo, hi - x)
        try:
            slope = numeric_derivative(lambda u: F(x, u), x, step)[0] if step > 0 else math.nan
        except ArithmeticError:
            slope = math.nan
        rhs = float(integrand(x)[0])
        gap = abs(slope - rhs) if math.isfinite(slope) and math.isfinite(rhs) else math.inf
        out.append(PointwiseComparison(x, slope, rhs, gap))
    return tuple(out)


def _segment(fn: Callable, cfg: IntegratorConfig) -> Callable[[float, float], float]:
    """(x, u) -> the signed integral of fn from x to u, NaN unless it
    converged: an antiderivative anchored at x whose stencil only ever
    integrates the short segment between x and u."""

    def G(x: float, u: float) -> float:
        if u == x:
            return 0.0
        res = integrate_auto(fn, ClosedInterval(min(x, u), max(x, u)), cfg)
        if res.status is not IntegralStatus.CONVERGED:
            return math.nan
        return res.value if u > x else -res.value

    return G


# ---------------------------------------------------------------------------
# FTC verification

def ftc_verify(
    F: Callable,
    Fprime: Optional[Callable],
    target: ClosedInterval,
    grid_size: int = 9,
    cfg: Optional[IntegratorConfig] = None,
) -> FtcReport:
    """Check int_a^x F' = F(x) - F(a) on an equally spaced grid.

    When Fprime is not supplied it is synthesized by numeric
    differentiation.  Inside a small guard around each declared singular
    point the synthesized value is the one-sided secant of F across the
    guard; that constant integrates to the exact increment of F over
    either half of the guard, so kinks cost nothing at grid precision.
    """
    cfg = cfg or IntegratorConfig()
    if not target.is_bounded:
        raise ValueError("ftc_verify needs a bounded interval")
    a = target.lo.value
    b = target.hi.value
    if grid_size < 2:
        raise ValueError("grid needs at least the two endpoints")
    grid = np.linspace(a, b, grid_size)
    width = b - a
    if Fprime is None:
        scale = width / (64.0 * (grid_size - 1))
        guard = 4.0 * scale
        kinks = np.array(cfg.singular_points, dtype=float)

        def guard_secant(x: float) -> float:
            p = float(kinks[np.argmin(np.abs(kinks - x))])
            side = guard if x >= p else -guard
            try:
                num = float(F(p + side)) - float(F(p))
            except Exception:
                return math.nan
            out = num / side
            return out if math.isfinite(out) else math.nan

        def synthesized(xs):
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            out = np.empty(xs.size)
            for k, x in enumerate(xs):
                if kinks.size and np.min(np.abs(kinks - x)) < guard:
                    out[k] = guard_secant(float(x))
                    continue
                try:
                    out[k], _ = numeric_derivative(F, float(x), scale)
                except ArithmeticError:
                    out[k] = np.nan
            return out

        fprime = synthesized
    else:
        fprime = Fprime

    f_at_a = float(F(a))
    # Segments inherit the schedule of the full target: a gauge family
    # that integrates [a, b] restricts to every piece, while one derived
    # from a segment's own tiny span under-pinches declared singular
    # points (the pinch scale is cubic in the span).
    seg_span = width / (grid_size - 1)
    seg_cfg = cfg.with_(
        tol=cfg.tol / max(4.0, float(grid_size)),
        delta0=cfg.delta0 if cfg.delta0 is not None else width / 8.0,
        sharpness_scale=cfg.sharpness_scale * (seg_span / width) ** 3,
        # The secant fill leaves the synthesized surrogate finite and
        # tame everywhere, so pinching its kink points would only blow
        # up the partitions.
        singular_points=cfg.singular_points if Fprime is not None else (),
    )
    residuals = [0.0]
    statuses = [IntegralStatus.CONVERGED]
    acc = 0.0
    message = ""
    for j in range(1, grid_size):
        seg = ClosedInterval(grid[j - 1], grid[j])
        res = integrate_auto(fprime, seg, seg_cfg)
        statuses.append(res.status)
        if res.status is not IntegralStatus.CONVERGED:
            residuals.append(math.inf)
            message = f"integral over [{grid[j-1]:.6g}, {grid[j]:.6g}] {res.status.value}"
            for _ in range(j + 1, grid_size):
                residuals.append(math.inf)
                statuses.append(IntegralStatus.INCONCLUSIVE)
            break
        acc += res.value
        residuals.append(abs(acc - (float(F(grid[j])) - f_at_a)))
    max_residual = max(residuals)
    passed = all(s is IntegralStatus.CONVERGED for s in statuses) and all(
        r <= cfg.mixed_tol(1.0) for r in residuals
    )
    return FtcReport(
        grid=tuple(float(g) for g in grid),
        residuals=tuple(residuals),
        max_residual=float(max_residual),
        passed=passed,
        statuses=tuple(statuses),
        message=message,
    )


# ---------------------------------------------------------------------------
# differentiation under the integral sign

def diff_under_integral(
    f: Callable,
    f1: Callable,
    rect: Rectangle,
    windows: Optional[Sequence[Window]] = None,
    xs: Optional[Sequence[float]] = None,
    cfg: Optional[IntegratorConfig] = None,
    preset: HypothesisPreset = HypothesisPreset.NONE,
) -> InterchangeReport:
    """Sample the window identity for d/dx int_a^b f(x,y) dy.

    Per window [s,t]: LHS = int_s^t (int_a^b f1 dy) dx must equal
    RHS = int_a^b (f(t,y) - f(s,y)) dy computed as the iterated integral
    of f1 in the other order.  The pointwise section estimates F'(x)
    numerically and compares it with int_a^b f1(x,y) dy.
    """
    cfg = cfg or IntegratorConfig()
    wins = _interval_or_windows(rect.x_interval, windows, cfg.seed)
    F_in, F1_in = (_inner_side(h, rect.y_interval, cfg.tol / 32.0, cfg) for h in (f, f1))
    pointwise = _pointwise_rows(
        rect.x_interval, xs, (0.125, 0.375, 0.625, 0.875), 256.0,
        lambda x, u: float(F_in(u)[0]), F1_in,
    )
    comps = [_window_comparison(f1, rect, win, cfg) for win in wins]
    notes = [_PRESET_NOTES[preset]]
    notes.append(_second_identity_note(f, f1, rect, wins[0], cfg))
    return InterchangeReport(
        windows=tuple(comps),
        pointwise=pointwise,
        overall=_overall(comps),
        hypothesis_notes="; ".join(n for n in notes if n),
    )


def _second_identity_note(
    f: Callable,
    f1: Callable,
    rect: Rectangle,
    window: Window,
    cfg: IntegratorConfig,
) -> str:
    """Spot-check int_s^t f1(x,y) dx = f(t,y) - f(s,y) on sampled y."""
    y_int = rect.y_interval
    if y_int.is_bounded:
        lo, hi = y_int.lo.value, y_int.hi.value
        ys = lo + (hi - lo) * np.linspace(0.08, 0.92, 7)
    else:
        ys = _probe_points(
            y_int.lo.value if y_int.lo.is_finite else -math.inf,
            y_int.hi.value if y_int.hi.is_finite else math.inf,
        )
    worst = 0.0
    checked = 0
    s, t = window.s, window.t
    for y in ys:
        y = float(y)
        g = lambda u: f1(u, np.full_like(np.asarray(u, dtype=float), y))
        res = integrate_auto(g, window.interval(), cfg.with_(tol=cfg.tol / 8.0))
        if res.status is not IntegralStatus.CONVERGED:
            continue
        expect = float(f(np.array(t), np.array(y))) - float(f(np.array(s), np.array(y)))
        worst = max(worst, abs(res.value - expect))
        checked += 1
    if checked == 0:
        return "window identity for f itself unchecked (inner integrals unresolved)"
    return (
        f"window identity for f itself: max |int f1 dx - (f(t,y)-f(s,y))| = "
        f"{worst:.3e} over {checked} sampled y"
    )


# ---------------------------------------------------------------------------
# iterated integrals

def interchange_iterated(
    g: Callable,
    rect: Rectangle,
    windows: Optional[Sequence[Window]] = None,
    cfg: Optional[IntegratorConfig] = None,
    xs: Optional[Sequence[float]] = None,
) -> InterchangeReport:
    """Compare int_s^t int_a^b g dy dx with int_a^b int_s^t g dx dy."""
    cfg = cfg or IntegratorConfig()
    wins = _interval_or_windows(rect.x_interval, windows, cfg.seed)
    inner = _inner_side(g, rect.y_interval, cfg.tol / 32.0, cfg)
    pointwise = _pointwise_rows(
        rect.x_interval, xs, (0.3, 0.55, 0.8), 128.0,
        _segment(inner, cfg.with_(tol=cfg.tol / 2.0)), inner,
    )
    comps = [_window_comparison(g, rect, win, cfg) for win in wins]
    return InterchangeReport(
        windows=tuple(comps),
        pointwise=pointwise,
        overall=_overall(comps),
        hypothesis_notes="iterated-integral interchange; window family size "
        + str(len(wins)),
    )


# ---------------------------------------------------------------------------
# summation against integration

_SERIES_CAP = 1 << 20


def _term_adapter(terms) -> Callable:
    """Accept a callable n -> evaluator or a finite sequence of evaluators
    (zero beyond the end: a finite sum)."""
    if callable(terms):
        return lambda n, xv: terms(n)(xv)
    seq = list(terms)
    return lambda n, xv: seq[n - 1](xv) if n <= len(seq) else np.zeros(xv.shape)


def interchange_sum_integral(
    terms,
    target: ClosedInterval,
    windows: Optional[Sequence[Window]] = None,
    n_max: int = 64,
    cfg: Optional[IntegratorConfig] = None,
) -> InterchangeReport:
    """Compare the integral of the series against the series of integrals.

    The right side truncates at n_max with an N/2-versus-N stability
    diagnostic (policy: the comparison is only trusted when doubling the
    truncation stopped moving it).  The left side integrates the pointwise
    limit of the partial sums; the limit is extracted adaptively and
    points where it cannot be resolved surface as INCONCLUSIVE, never as
    a silent truncation.
    """
    cfg = cfg or IntegratorConfig()
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    term_at = _term_adapter(terms)
    wins = _interval_or_windows(target, windows, cfg.seed)

    def limit_fn(xv):
        est, _, resolved = series_limit(term_at, xv, cfg.tol / 2.0, _SERIES_CAP)
        return np.where(resolved, est, np.nan)

    term_cfg = cfg.with_(tol=0.25 * cfg.tol / n_max)
    lhs_cfg = cfg.with_(tol=cfg.tol / 2.0)
    comps = []
    unstable_windows = 0
    for win in wins:
        lhs, lhs_note = _window_side(limit_fn, win.interval(), lhs_cfg, "series limit")
        rhs_half = 0.0
        rhs_full = 0.0
        statuses = []
        for n in range(1, n_max + 1):
            fn = lambda xv, n=n: term_at(n, np.atleast_1d(np.asarray(xv, dtype=float)))
            res = integrate_auto(fn, win.interval(), term_cfg)
            statuses.append(res.status)
            if res.status is not IntegralStatus.CONVERGED:
                break
            rhs_full += res.value
            if n == n_max // 2:
                rhs_half = rhs_full
        terms_ok = len(statuses) == n_max and all(
            s is IntegralStatus.CONVERGED for s in statuses
        )
        tail_stable = terms_ok and abs(rhs_full - rhs_half) <= cfg.mixed_tol(rhs_full)
        if not terms_ok:
            comps.append(
                WindowComparison(
                    win,
                    lhs.value,
                    math.nan,
                    math.inf,
                    InterchangeVerdict.INCONCLUSIVE,
                    f"term integral {statuses[-1].value} at n={len(statuses)}",
                )
            )
            continue
        rhs = IntegralResult(
            rhs_full,
            abs(rhs_full - rhs_half),
            IntegralStatus.CONVERGED,
            0,
            (),
        )
        gap, verdict, detail = _window_verdict(lhs, rhs, cfg.tol)
        detail = lhs_note or detail
        if not tail_stable and verdict is not InterchangeVerdict.INCONCLUSIVE:
            unstable_windows += 1
            verdict = InterchangeVerdict.INCONCLUSIVE
            detail = (
                f"series of integrals still moving: |T({n_max})-T({n_max//2})| = "
                f"{abs(rhs_full - rhs_half):.3e}"
            )
        comps.append(WindowComparison(win, lhs.value, rhs_full, gap, verdict, detail))

    def partial(xv):
        xv = np.atleast_1d(np.asarray(xv, dtype=float))
        acc = np.zeros(xv.shape)
        for _, block in _partial_sum_blocks(acc, lambda n: term_at(n, xv), 0, n_max):
            acc = block[-1]
        return acc

    pointwise = _pointwise_rows(
        target, None, (0.3, 0.55, 0.8), 128.0,
        _segment(partial, cfg.with_(tol=cfg.tol / 4.0)), partial,
    )
    notes = [
        f"truncation N = {n_max} with N/2 stability rule",
        f"{unstable_windows} window(s) rejected as unstable" if unstable_windows else "",
    ]
    return InterchangeReport(
        windows=tuple(comps),
        pointwise=pointwise,
        overall=_overall(comps),
        hypothesis_notes="; ".join(n for n in notes if n),
    )
