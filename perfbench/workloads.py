"""The four seeded workloads and the checks that judge every instance.

``build(workload, seed, sizes)`` draws every parameter from the seed and
returns a list of ``Instance`` objects.  An instance runs one public
``gaugequad`` entry point and judges the result against the closed forms
in ``references``.  Engine entry points are looked up on the ``gq``
module at call time, so the tracer's patches are seen.  The integrand
and term callables go through ``hooks``; in an untraced pass the hooks
hand them back unchanged.

Sizes (instance counts, windows, pointwise ``xs``) are workload inputs:
``DEFAULT_SIZES`` fixes what one pass of a run holds.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import gaugequad as gq
from gaugequad.expr import compile_evaluator, parse

import references as ref

WORKLOADS = ("singular-1d", "interchange-2d", "series-swap", "improper-tails")

DEFAULT_SIZES = {
    "singular-1d": {"hk": 1, "ftc": 1, "dirichlet": 1, "poly": 8},
    "interchange-2d": {"fail_windows": 4, "hold_windows": 3, "offset_windows": 2, "xs": 2, "dui": 2},
    "series-swap": {"bump": 1, "exp": 1},
    "improper-tails": {"cauchy": 20, "sinc": 96, "inv_sqrt": 8, "null_spike": 2, "divergent": 2},
}

# A value passes when it is within CHECK_SLACK mixed tolerances of its
# reference: tol * (1 + |reference|), with tol the one the engine was asked for.
CHECK_SLACK = 10.0


class PlainHooks:
    """Untraced pass: callables go to the engine unchanged."""

    @staticmethod
    def expr(fn):
        return fn

    @staticmethod
    def user(fn):
        return fn


@dataclass
class Verdict:
    ok: bool
    detail: str
    signature: str
    # (|value - reference|, error_estimate) for CONVERGED value results.
    estimate: Optional[tuple[float, float]] = None


@dataclass
class Instance:
    name: str
    run: Callable[[object], object]
    check: Callable[[object], Verdict]


def _allowed(tol: float, reference: float) -> float:
    return CHECK_SLACK * (tol + tol * abs(reference))


def _signature(outcome) -> str:
    if isinstance(outcome, gq.IntegralResult):
        body = outcome.to_json_dict(include_trace=True)
    else:
        body = outcome.to_json_dict()
    return json.dumps(body, sort_keys=True)


def _close(value: float, reference: float, allowed: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= allowed


def check_value(reference: float, tol: float):
    allowed = _allowed(tol, reference)

    def check(res) -> Verdict:
        converged = res.status is gq.IntegralStatus.CONVERGED
        ok = converged and _close(res.value, reference, allowed)
        err = abs(res.value - reference)
        est = (err, res.error_estimate) if converged and math.isfinite(res.value) else None
        detail = (
            f"reference {reference!r} value {res.value!r} status {res.status.value} "
            f"error {err:.3e} estimate {res.error_estimate:.3e} allowed {allowed:.1e}"
        )
        return Verdict(ok, detail, _signature(res), est)

    return check


def check_status(expected: gq.IntegralStatus):
    def check(res) -> Verdict:
        detail = f"expected status {expected.value}, got {res.status.value} value {res.value!r}"
        return Verdict(res.status is expected, detail, _signature(res))

    return check


def check_ftc():
    def check(rep) -> Verdict:
        ok = rep.passed and all(s is gq.IntegralStatus.CONVERGED for s in rep.statuses)
        detail = f"passed {rep.passed} max residual {rep.max_residual:.3e} {rep.message}"
        return Verdict(ok, detail, _signature(rep))

    return check


def difference_noise(tol_f: float, f_max: float, step: float) -> float:
    """Largest error numeric_derivative can return when every F value it
    reads is within tol_f * (1 + f_max): its Richardson tableau over steps
    h, h/2, h/4 multiplies that by 99/15 and divides by h."""
    return 99.0 / 15.0 * tol_f * (1.0 + f_max) / step


def check_interchange(overall, windows, rows, tol):
    """windows: [(verdict, lhs_ref, rhs_ref)] in call order; rows:
    [(ref, noise)] per pointwise row.  The row's integral must be within the
    value tolerance of ref; its numeric derivative also gets the
    differencing noise, since the checker promises no more for it."""
    def check(rep) -> Verdict:
        bad = []
        if rep.overall is not overall:
            bad.append(f"overall {rep.overall.value} != {overall.value}")
        if len(rep.windows) != len(windows) or len(rep.pointwise) != len(rows):
            bad.append("window or row count changed")
        for w, (verdict, lhs, rhs) in zip(rep.windows, windows):
            tag = f"[{w.window.s:.4g},{w.window.t:.4g}]"
            if w.verdict is not verdict:
                bad.append(f"{tag} verdict {w.verdict.value} != {verdict.value}")
            for side, got, want in (("lhs", w.lhs, lhs), ("rhs", w.rhs, rhs)):
                if not _close(got, want, _allowed(tol, want)):
                    bad.append(f"{tag} {side} {got!r} vs {want!r}")
        for p, (want, noise) in zip(rep.pointwise, rows):
            allowed = _allowed(tol, want)
            for col, got, slack in (("derivative", p.derivative, allowed + noise),
                                    ("integral", p.integral_value, allowed)):
                if not _close(got, want, slack):
                    bad.append(f"row x={p.x:.4g} {col} {got!r} vs {want!r}")
        return Verdict(not bad, "; ".join(bad) or "all windows and rows match", _signature(rep))

    return check


def _fn(text: str, *names: str):
    return compile_evaluator(parse(text), names)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), WORKLOADS.index(workload)]))


def _sweep(rng, lo: float, hi: float, count: int) -> list[float]:
    """Jittered sweep: one uniform draw in each of count equal strata.

    A family's share of estimate misses and its cost then vary far less
    between seeds than with independent draws.
    """
    u = (np.arange(count) + rng.uniform(size=count)) / max(count, 1)
    return [float(v) for v in lo + (hi - lo) * u]


# ---------------------------------------------------------------------------
# singular-1d


def _pathological_member(rng, tag: str):
    # F(x) = x^2 sin(a x^-3) on [0, L] depends on a and L only through
    # c = a / L^3 and the scale L^2.
    c = float(rng.uniform(0.5, 1.5))
    length = float(rng.uniform(0.6, 1.2))
    a = c * length**3
    fprime = _fn(f"piecewise(x == 0 -> 0, else -> 2*x*sin({a!r}*x^-3) - 3*{a!r}*x^-2*cos({a!r}*x^-3))", "x")
    big_f = _fn(f"piecewise(x == 0 -> 0, else -> x^2*sin({a!r}*x^-3))", "x")
    # One partition per level: the partitions are as large as with the
    # default three, and a pass stays near 6 s.
    cfg = gq.IntegratorConfig(tol=1e-3, singular_points=(0.0,), stability_runs=1)
    return f"{tag}(a={a:.4f},L={length:.4f})", a, length, fprime, big_f, cfg


def _singular_1d(rng, sizes) -> list[Instance]:
    out = []
    for _ in range(sizes["hk"]):
        name, a, length, fprime, _, cfg = _pathological_member(rng, "hk-pathological")
        out.append(Instance(
            name,
            lambda h, f=fprime, L=length, cfg=cfg: gq.hk_integrate(h.expr(f), gq.ClosedInterval(0.0, L), cfg),
            check_value(ref.pathological(a, length), cfg.tol),
        ))
    for _ in range(sizes["ftc"]):
        name, a, length, fprime, big_f, cfg = _pathological_member(rng, "ftc-pathological")
        # ftc_verify asks each segment for tol / max(4, grid); 4 * tol gives
        # the segments the hk instance's tolerance.
        cfg = cfg.with_(tol=4.0 * cfg.tol)

        def run(h, f=fprime, big_f=big_f, L=length, cfg=cfg):
            ev = h.expr(big_f)
            scalar = lambda x: float(ev(np.asarray(x, dtype=float)))
            return gq.ftc_verify(scalar, h.expr(f), gq.ClosedInterval(0.0, L), grid_size=3, cfg=cfg)

        out.append(Instance(name, run, check_ftc()))
    for _ in range(sizes["dirichlet"]):
        count = int(rng.integers(50_000, 100_001))
        eps = float(10.0 ** rng.uniform(-7.0, -5.0))
        enum = gq.rational_enumeration(count)
        pts = np.sort(enum)
        gauge = gq.enumeration_gauge(enum, eps, base=gq.uniform_gauge(1.0 / 64.0), prefix=count)
        cfg = gq.IntegratorConfig(tol=1e-6, gauge_override=gauge)

        def indicator(x, pts=pts):
            xa = np.asarray(x, dtype=float)
            idx = np.clip(np.searchsorted(pts, xa), 0, pts.size - 1)
            return (pts[idx] == xa).astype(float)

        out.append(Instance(
            f"dirichlet(n={count},eps={eps:.2e})",
            lambda h, f=indicator, cfg=cfg: gq.hk_integrate(h.user(f), gq.ClosedInterval(0.0, 1.0), cfg),
            check_value(0.0, cfg.tol),
        ))
    for length in _sweep(rng, 0.5, 2.0, sizes["poly"]):
        coeffs = tuple(float(c) for c in rng.uniform(-2.0, 2.0, size=4))
        text = " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(coeffs))
        cfg = gq.IntegratorConfig(tol=1e-9)
        out.append(Instance(
            f"poly(L={length:.4f})",
            lambda h, f=_fn(text, "x"), L=length, cfg=cfg: gq.hk_integrate(h.expr(f), gq.ClosedInterval(0.0, L), cfg),
            check_value(ref.polynomial(coeffs, length), cfg.tol),
        ))
    return out


# ---------------------------------------------------------------------------
# interchange-2d


def _interchange_2d(rng, sizes) -> list[Instance]:
    fails = gq.InterchangeVerdict.FAILS
    holds = gq.InterchangeVerdict.HOLDS_ON_SAMPLES
    kernel = _fn("(x^2 - y^2)/(x^2 + y^2)^2", "x", "y")
    out = []

    # Corner rectangle [0,1]^2 pinched at 0: windows touching 0 fail with
    # sides atan t and -atan(1/t); windows with s > 0 hold.  Windows are
    # dyadic: off-grid ones cost anywhere from 0.05 s to over 90 s.  The
    # failing windows [0, t], t = 5/8 .. 1, run in every pass, because
    # their cost (0.7-1.3 s each) and memory (133 MB at t = 5/8, 100 MB
    # otherwise) differ too much to leave to the seed; the seed draws the
    # holding windows, from s = 1/2, 5/8, 3/4.
    wins = [(0.0, t / 8.0) for t in range(5, 9)][: sizes["fail_windows"]]
    for s in range(4, 7)[: sizes["hold_windows"]]:
        wins.append((s / 8.0, int(rng.integers(s + 1, 9)) / 8.0))
    cfg = gq.IntegratorConfig(tol=1e-3, singular_points=(0.0,))
    expect = [(fails if s == 0.0 else holds, *ref.fubini_sides(s, t)) for s, t in wins]
    rect = gq.Rectangle(gq.ClosedInterval(0.0, 1.0), gq.ClosedInterval(0.0, 1.0))
    out.append(Instance(
        "iterated-corner(" + ",".join(f"[{s:g},{t:g}]" for s, t in wins) + ")",
        lambda h, w=wins, cfg=cfg: gq.interchange_iterated(
            h.expr(kernel), rect, windows=[gq.Window(s, t) for s, t in w], cfg=cfg, xs=[]),
        check_interchange(fails if sizes["fail_windows"] else holds, expect, [], cfg.tol),
    ))

    # Offset rectangle [alpha,1] x [0,1]: away from the corner every window
    # holds and the pointwise rows are cheap (a corner row costs 6-20 s).
    alpha = float(rng.uniform(0.1, 0.3))
    bounds = np.sort(rng.uniform(alpha, 1.0, size=(sizes["offset_windows"], 2)), axis=1)
    owins = [(float(s), float(t)) for s, t in bounds]
    xs = [float(x) for x in np.sort(rng.uniform(alpha + 0.05, 0.95, size=sizes["xs"]))]
    cfg2 = gq.IntegratorConfig(tol=1e-3)
    orect = gq.Rectangle(gq.ClosedInterval(alpha, 1.0), gq.ClosedInterval(0.0, 1.0))
    out.append(Instance(
        f"iterated-offset(alpha={alpha:.4f},xs={[round(x, 4) for x in xs]})",
        lambda h, w=owins, xs=xs, rect=orect, cfg=cfg2: gq.interchange_iterated(
            h.expr(kernel), rect, windows=[gq.Window(s, t) for s, t in w], cfg=cfg, xs=xs),
        check_interchange(holds, [(holds, *ref.fubini_sides(s, t)) for s, t in owins],
                          [(ref.fubini_row(x), difference_noise(cfg2.tol / 2, 1.0, (1.0 - alpha) / 128))
                           for x in xs], cfg2.tol),
    ))

    # Differentiation under the integral sign for f = exp(c x y).
    square = gq.Rectangle(gq.ClosedInterval(0.0, 1.0), gq.ClosedInterval(0.0, 1.0))
    for c in _sweep(rng, 0.5, 2.0, sizes["dui"]):
        c *= float(rng.choice([-1.0, 1.0]))
        f = _fn(f"exp({c!r}*x*y)", "x", "y")
        f1 = _fn(f"{c!r}*y*exp({c!r}*x*y)", "x", "y")
        dwins = [(float(s), float(t)) for s, t in np.sort(rng.uniform(0.0, 1.0, size=(2, 2)), axis=1)]
        x = float(rng.uniform(0.2, 0.8))
        cfg3 = gq.IntegratorConfig(tol=1e-6)
        expect = [(holds, ref.exp_kernel_window(c, s, t), ref.exp_kernel_window(c, s, t)) for s, t in dwins]
        out.append(Instance(
            f"dui-exp(c={c:.4f},x={x:.4f})",
            lambda h, f=f, f1=f1, w=dwins, x=x, cfg=cfg3: gq.diff_under_integral(
                h.expr(f), h.expr(f1), square, windows=[gq.Window(s, t) for s, t in w], xs=[x], cfg=cfg),
            check_interchange(holds, expect, [(ref.exp_kernel_dphi(c, x),
                                               difference_noise(cfg3.tol / 32, math.exp(abs(c)), 1 / 256))],
                              cfg3.tol),
        ))
    return out


# ---------------------------------------------------------------------------
# series-swap

N_MAX = 64


def _bump_terms(c: float):
    def partial(n: int, xa: np.ndarray) -> np.ndarray:
        return c * n * xa * np.exp(-c * n * xa * xa) if n > 0 else np.zeros_like(xa)

    def terms(n: int):
        def term(xv):
            xa = np.asarray(xv, dtype=float)
            return partial(n, xa) - partial(n - 1, xa)

        return term

    return terms


def _exp_terms(n: int):
    # x^n / n! in log space: factorials overflow long before the series
    # prober stops asking for terms.
    def term(xv):
        xa = np.asarray(xv, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.where(xa > 0, np.log(np.where(xa > 0, xa, 1.0)), -np.inf)
        return np.exp(n * logx - math.lgamma(n + 1))

    return term


def _series_rows(b: float, tol: float, partial_sum) -> list[tuple[float, float]]:
    # interchange_sum_integral differentiates G(u) = int_0^u S_N, computed
    # to tol/4 with |G| < 1, at these fractions of b with step b/128.
    noise = difference_noise(tol / 4, 1.0, b / 128)
    return [(partial_sum(b * q), noise) for q in (0.3, 0.55, 0.8)]


def _series_swap(rng, sizes) -> list[Instance]:
    fails = gq.InterchangeVerdict.FAILS
    holds = gq.InterchangeVerdict.HOLDS_ON_SAMPLES
    out = []
    for _ in range(sizes["bump"]):
        # S_N = c N x exp(-c N x^2) tends to 0 pointwise while its integral
        # over [0, b] tends to 1/2: summation and integration do not commute.
        # The cost depends on sqrt(c) b: 5.5-6.6 s and 58 MB from 2 to 2.6,
        # 9 s and 80 MB at 1.9, up to 25 s at 0.8 (README), so sqrt(c) b
        # stays in [2.05, 2.35].
        c = float(rng.uniform(0.8, 1.25))
        b = float(rng.uniform(2.05, 2.35)) / math.sqrt(c)
        cfg = gq.IntegratorConfig(tol=1e-3)
        rows = _series_rows(b, cfg.tol, lambda x, c=c: ref.bump_partial(c, N_MAX, x))
        out.append(Instance(
            f"bump(c={c:.4f},b={b:.4f})",
            lambda h, c=c, b=b, cfg=cfg: gq.interchange_sum_integral(
                _hooked_terms(h, _bump_terms(c)), gq.ClosedInterval(0.0, b),
                windows=[gq.Window(0.0, b)], n_max=N_MAX, cfg=cfg),
            check_interchange(fails, [(fails, 0.0, ref.bump_partial_integral(c, N_MAX, b))], rows, cfg.tol),
        ))
    for b in _sweep(rng, 1.0, 1.25, sizes["exp"]):
        cfg = gq.IntegratorConfig(tol=1e-6)
        value = ref.exp_series_integral(b)
        out.append(Instance(
            f"exp-series(b={b:.4f})",
            lambda h, b=b, cfg=cfg: gq.interchange_sum_integral(
                _hooked_terms(h, _exp_terms), gq.ClosedInterval(0.0, b),
                windows=[gq.Window(0.0, b)], n_max=N_MAX, cfg=cfg),
            check_interchange(holds, [(holds, value, value)], _series_rows(b, cfg.tol, math.expm1), cfg.tol),
        ))
    return out


def _hooked_terms(h, terms):
    return lambda n: h.user(terms(n))


# ---------------------------------------------------------------------------
# improper-tails


def _improper(name, fn, target, cfg, check):
    return Instance(
        name,
        lambda h, f=fn, t=target, cfg=cfg: gq.hake_improper(h.expr(f), t, cfg),
        check,
    )


def _improper_tails(rng, sizes) -> list[Instance]:
    half_line = gq.ClosedInterval(0.0, math.inf)
    out = []
    for k, s in enumerate(_sweep(rng, 0.0, 3.0, sizes["cauchy"])):
        branch = ("sin", "cos")[k % 2]
        cfg = gq.IntegratorConfig(tol=1e-4)
        out.append(_improper(f"cauchy-{branch}(s={s:.4f})", _fn(f"{branch}(x^2)*cos({s!r}*x)", "x"),
                             half_line, cfg, check_value(ref.cauchy(branch, s), cfg.tol)))
    for a in _sweep(rng, 0.5, 2.0, sizes["sinc"]):
        cfg = gq.IntegratorConfig(tol=1e-6)
        out.append(_improper(f"sinc(a={a:.4f})", _fn(f"sin({a!r}*x)/x", "x"),
                             half_line, cfg, check_value(ref.sinc(a), cfg.tol)))
    for b in _sweep(rng, 0.5, 2.0, sizes["inv_sqrt"]):
        cfg = gq.IntegratorConfig(tol=1e-7, singular_points=(0.0,))
        out.append(_improper(f"inv-sqrt(b={b:.4f})", _fn("x^-0.5", "x"),
                             gq.ClosedInterval(0.0, b), cfg, check_value(ref.inv_sqrt(b), cfg.tol)))
    for _ in range(sizes["null_spike"]):
        # x^(-1/2) plus the indicator of the first rationals of [0, b]: the
        # enumeration gauge pinches the null set, and exhaustion toward 0
        # runs the gauge through its reflection.
        b = float(rng.uniform(0.5, 2.0))
        count = int(rng.integers(10_000, 20_001))
        enum = gq.rational_enumeration(count) * b
        pts = np.sort(enum)
        inv = _fn("x^-0.5", "x")
        gauge = gq.enumeration_gauge(enum, 1e-6, base=gq.uniform_gauge(b / 64.0), prefix=count)
        cfg = gq.IntegratorConfig(tol=1e-6, singular_points=(0.0,), gauge_override=gauge)

        def run(h, pts=pts, inv=inv, b=b, cfg=cfg):
            ev = h.expr(inv)

            def spiked(x):
                xa = np.asarray(x, dtype=float)
                idx = np.clip(np.searchsorted(pts, xa), 0, pts.size - 1)
                return ev(xa) + (pts[idx] == xa)

            return gq.hake_improper(h.user(spiked), gq.ClosedInterval(0.0, b), cfg)

        out.append(Instance(f"null-spike(b={b:.4f},n={count})", run, check_value(ref.inv_sqrt(b), cfg.tol)))
    for k in range(sizes["divergent"]):
        # x sin(x^2) sin(x) and x cos(x^2) sin(x), the corpus's divergent
        # pair.  With a frequency w in place of 1 some w end CONVERGED or
        # INCONCLUSIVE (README: "Defects found"), so w is not drawn.
        branch = ("sin", "cos")[k % 2]
        cfg = gq.IntegratorConfig(tol=1e-4)
        out.append(_improper(f"divergent-{branch}", _fn(f"x*{branch}(x^2)*sin(x)", "x"),
                             half_line, cfg, check_status(gq.IntegralStatus.DIVERGED)))
    return out


_BUILDERS = {
    "singular-1d": _singular_1d,
    "interchange-2d": _interchange_2d,
    "series-swap": _series_swap,
    "improper-tails": _improper_tails,
}


def build(workload: str, seed: int, sizes: Optional[dict] = None) -> list[Instance]:
    """Instances of one pass, drawn from the seed; same seed, same inputs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    merged = dict(DEFAULT_SIZES[workload])
    merged.update(sizes or {})
    return _BUILDERS[workload](_rng(workload, seed), merged)
