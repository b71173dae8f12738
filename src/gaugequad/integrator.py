"""Gauge-driven integration.

``hk_integrate`` computes integrals directly from the definition: it
builds a schedule of ever-tighter gauges, constructs fine tagged
partitions for each, and watches the Riemann sums stabilize.  Declared
singular points pinch the gauge quadratically, which is the classical
mechanism that lets badly unbounded derivatives integrate.

``hake_improper`` evaluates the same integrals as limits of integrals
over exhausting subintervals (the two notions agree whenever either
exists).  Cutoffs double toward an infinite endpoint and halve their
distance to a finite singular one; partial integrals are accelerated
with iterated Aitken extrapolation.

Both are limits of raw sequences (level sums, cutoff integrals), and
one raw-limit monitor, ``_divergence``, decides divergence for both on
the raw values only, never on accelerated ones, so extrapolation cannot
manufacture convergence for a divergent integrand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .accel import shanks_limit, window_oscillation
from .extreal import NEG_INF, POS_INF, ClosedInterval
from .gauge import Gauge, intersect_gauges, singularity_gauge, uniform_gauge
from .partition import (
    CellBudgetExceeded,
    _as_vector_fn,
    _carve_ends,
    _eval_checked,
    refine_fine_cells,
)

__all__ = [
    "IntegralStatus",
    "IntegralResult",
    "IntegratorConfig",
    "SumSpread",
    "CauchyBranch",
    "hk_integrate",
    "hk_sum_spread",
    "hake_improper",
    "integrate_auto",
    "cauchy_closed_form",
]


class IntegralStatus(str, Enum):
    CONVERGED = "CONVERGED"
    DIVERGED = "DIVERGED"
    INCONCLUSIVE = "INCONCLUSIVE"


class CauchyBranch(str, Enum):
    SIN = "sin"
    COS = "cos"


@dataclass(frozen=True)
class IntegratorConfig:
    """Knobs shared by the integration drivers.

    tol is a mixed tolerance: a comparison passes when the discrepancy
    is at most tol + tol * |value|.  singular_points lists finite points
    where the integrand may be undefined or wild; the gauge schedule
    pinches around those in the target.  gauge_override, when set, is
    intersected with every gauge of the schedule (this is how a custom
    enumeration gauge is pushed into the engine).  seed draws random tag
    orders (``hk_sum_spread``, the ``partition`` command) and the windows
    of the calculus checks; ``hk_integrate`` draws nothing.
    stability_runs is accepted and ignored: each hk level is one partition.
    """

    tol: float = 1e-8
    max_refinements: int = 24
    stability_runs: int = 3
    max_depth: int = 60
    seed: int = 0
    singular_points: tuple[float, ...] = ()
    sharpness_scale: float = 0.02
    delta0: Optional[float] = None
    min_levels: int = 2
    gauge_override: Optional[Gauge] = field(default=None, compare=False)

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive finite, got {self.tol}")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")
        if self.stability_runs < 1:
            raise ValueError("stability_runs must be at least 1")
        if not (self.sharpness_scale > 0 and math.isfinite(self.sharpness_scale)):
            raise ValueError(f"sharpness_scale must be positive finite, got {self.sharpness_scale}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        for p in self.singular_points:
            if not math.isfinite(p):
                raise ValueError("singular points must be finite")

    def with_(self, **kw) -> "IntegratorConfig":
        return replace(self, **kw)

    def mixed_tol(self, value: float) -> float:
        return self.tol + self.tol * abs(value)


@dataclass
class IntegralResult:
    """``evaluations`` counts integrand points: on the gauge route one per
    cell, plus one per cell whose tag is open (see ``hk_integrate``), and
    ``trace`` holds one (level, sum) entry per level."""

    value: float
    error_estimate: float
    status: IntegralStatus
    evaluations: int
    trace: list[tuple[int, float]]
    message: str = ""

    def to_json_dict(self, include_trace: bool = False) -> dict:
        out = {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "status": self.status.value,
            "evaluations": self.evaluations,
        }
        if self.message:
            out["message"] = self.message
        if include_trace:
            out["trace"] = [[int(i), float(v)] for i, v in self.trace]
        return out


@dataclass(frozen=True)
class SumSpread:
    minimum: float
    maximum: float
    mean: float
    sums: tuple[float, ...]


def _probe_undefined(fv, points: Sequence[float]) -> list[float]:
    """Declared singular points where the evaluator is unusable."""
    undefined = []
    for p in points:
        try:
            with np.errstate(all="ignore"):
                val = float(np.asarray(fv(np.array([p])), dtype=float)[0])
            if not math.isfinite(val):
                undefined.append(float(p))
        except Exception:
            undefined.append(float(p))
    return undefined


def _abs_ends(target: ClosedInterval) -> list[float]:
    return [abs(e.value) for e in (target.lo, target.hi) if e.is_finite]


def _schedule_params(cfg: IntegratorConfig, target: ClosedInterval) -> tuple[float, float, float]:
    """(delta0, tail0, length_scale) defaults derived from the target."""
    ends = _abs_ends(target)
    if target.is_bounded:
        scale = target.hi.value - target.lo.value
        delta0 = cfg.delta0 if cfg.delta0 is not None else scale / 8.0
    else:
        scale = max([1.0, *ends])
        delta0 = cfg.delta0 if cfg.delta0 is not None else scale
    tail0 = max([8.0, *(2.0 * e for e in ends)])
    return float(delta0), float(tail0), float(scale)


def _level_gauge(
    cfg: IntegratorConfig,
    k: int,
    delta0: float,
    tail0: float,
    scale: float,
    points: Sequence[float],
) -> Gauge:
    delta_k = delta0 * 2.0 ** (-k)
    tail_k = tail0 * 2.0**k
    g = uniform_gauge(delta_k, tail_k)
    if points:
        sharpness_k = cfg.sharpness_scale * delta_k * delta_k / scale**3
        g = singularity_gauge(g, points, max(sharpness_k, 1e-300))
    if cfg.gauge_override is not None:
        g = intersect_gauges(cfg.gauge_override, g)
    return g


def _streamed_sum(
    fv,
    gauge: Gauge,
    lo_f: float,
    hi_f: float,
    *,
    seeds: Sequence[Sequence[int]] = (),
    cfg: IntegratorConfig,
    undefined: Sequence[float],
) -> tuple[np.ndarray, float, int, int]:
    """Riemann sums of fine partitions from one bisection tree, one per run
    of ``refine_fine_cells``: the two midpoint-first runs with no ``seeds``,
    else one randomly tagged run per SeedSequence entropy in ``seeds``.

    Each emitted batch evaluates run 0's tags, then the other runs' tags
    on the cells where some run drew a different one, ``_CHUNK_ELEMS``
    points per call; each run's sum is then one dot product over the whole
    batch.  Returns the sums, the tag spread (each cell's width times the
    range of the runs' values there, summed), the accepted cells and the
    integrand points evaluated.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    totals = np.zeros(len(rngs) or 2)
    spread, points = 0.0, 0

    def emit(tags: np.ndarray, us: np.ndarray, vs: np.ndarray) -> None:
        nonlocal spread, points
        cols = np.flatnonzero((tags[1:] != tags[0]).any(axis=0))
        z = np.concatenate((tags[0], tags[1:, cols].ravel()))
        vals = np.empty(z.size)
        for s in range(0, z.size, _CHUNK_ELEMS):
            vals[s : s + _CHUNK_ELEMS] = _eval_checked(fv, z[s : s + _CHUNK_ELEMS])
        rows = np.tile(vals[: us.size], (tags.shape[0], 1))
        rows[1:, cols] = vals[us.size :].reshape(len(rows) - 1, cols.size)
        widths = vs - us
        spread += float(np.dot(np.ptp(rows[:, cols], axis=0), widths[cols]))
        totals[:] += [np.dot(row, widths) for row in rows]
        points += z.size

    cells = refine_fine_cells(
        gauge,
        lo_f,
        hi_f,
        rngs=rngs,
        emit=emit,
        max_depth=cfg.max_depth,
        undefined_tags=undefined,
    )
    return totals, spread, cells, points


def _grew(values: Sequence[float]) -> bool:
    return abs(values[-1]) > 1e12 * max(1.0, abs(values[0]))


def _divergence(values: Sequence[float], tol_floor: float, noun: str, step: str) -> str:
    """Why the raw sequence ``values`` cannot converge, or "" while it may.

    Fires on growth beyond 1e12 x the first value's scale, or on window
    oscillations (width 5) that fail to decay by a factor of 0.9 four
    times running above ``tol_floor``; a stalled sequence whose last five
    values move one way by ever larger steps is reported as growing.
    """
    if _grew(values):
        return f"{noun} grew beyond 1e12 x initial scale at {step} {len(values) - 1}"
    osc = window_oscillation(values, 5)
    bad = 0
    for prev, cur in zip(osc[:-1], osc[1:]):
        bad = bad + 1 if cur > 0.9 * prev and cur > tol_floor else 0
        if bad >= 4:
            d = np.diff(values[-5:])
            if (np.all(d > 0) or np.all(d < 0)) and np.all(np.abs(d[1:]) >= np.abs(d[:-1])):
                return f"{noun} grow by ever larger steps as the {step} grows"
            return f"{noun} oscillate without decay as the {step} grows"
    return ""


def hk_integrate(
    f: Callable, target: ClosedInterval, cfg: Optional[IntegratorConfig] = None
) -> IntegralResult:
    """Integrate from the definition via a schedule of shrinking gauges.

    Level k uses windows of width delta0 * 2**-k (tail rays pushed out by
    the same factor), pinched quadratically around the declared singular
    points that lie in the target.  Each level sums one fine partition
    whose cells are tagged midpoint first, then at u, then at v, so the
    result does not depend on ``cfg.seed``.  A cell that fits both
    endpoints but not its midpoint (only an asymmetric ``gauge_override``
    makes one) leaves its tag open: the level's tag spread, the range of
    its sum over those choices, plus the gap to the previous level's sum
    is the empirical error.  CONVERGED requires it below the mixed
    tolerance, on a level with more cells than the level before.
    DIVERGED comes from the raw-limit monitor on the level sums.

    Declared singular points where the evaluator is undefined are never
    used as tags: such cells are summed with the nearest defined
    endpoint instead (a null-set modification).
    """
    cfg = cfg or IntegratorConfig()
    lo_f, hi_f = _carve_ends(uniform_gauge(1.0, max([8.0, *_abs_ends(target)])), target)
    fv = _as_vector_fn(f, probe=lo_f + 0.37 * (hi_f - lo_f))
    points = [p for p in cfg.singular_points if target.contains(p)]
    undefined = _probe_undefined(fv, points)
    delta0, tail0, scale = _schedule_params(cfg, target)

    trace: list[tuple[int, float]] = []
    evals = prev_n = 0
    sums: list[float] = []
    last_err = math.inf
    message = ""
    for k in range(cfg.max_refinements + 1):
        gauge_k = _level_gauge(cfg, k, delta0, tail0, scale, points)
        glo, ghi = _carve_ends(gauge_k, target)
        try:
            totals, spread, n, used = _streamed_sum(fv, gauge_k, glo, ghi, cfg=cfg, undefined=undefined)
        except CellBudgetExceeded as exc:
            message = f"stopped at refinement {k}: {exc}"
            break
        evals += used
        sum_k = float(totals[0])
        trace.append((k, sum_k))
        sums.append(sum_k)
        last_err = (abs(sum_k - sums[-2]) if len(sums) >= 2 else math.inf) + spread
        fresh, prev_n = n != prev_n, n  # same cell count: a repeated partition
        if k >= cfg.min_levels and fresh and last_err <= cfg.mixed_tol(sum_k):
            return IntegralResult(sum_k, last_err, IntegralStatus.CONVERGED, evals, trace)
        why = _divergence(sums, 100.0 * cfg.mixed_tol(sum_k), "Riemann sums", "refinement")
        if why:
            return IntegralResult(sum_k, last_err, IntegralStatus.DIVERGED, evals, trace, why)
    return IntegralResult(
        sums[-1] if sums else math.nan,
        last_err,
        IntegralStatus.INCONCLUSIVE,
        evals,
        trace,
        message=message or "refinement budget exhausted before the tolerance was met",
    )


def hk_sum_spread(
    f: Callable,
    gauge: Gauge,
    target: ClosedInterval,
    n_partitions: int,
    cfg: Optional[IntegratorConfig] = None,
) -> SumSpread:
    """Riemann-sum spread over fine partitions of one gauge.

    A direct view of how tightly the gauge controls the sums.  The
    partitions share one bisection tree, and each draws its own tags
    from an independent generator in fully randomized candidate order.
    """
    cfg = cfg or IntegratorConfig()
    if n_partitions < 1:
        raise ValueError("n_partitions must be at least 1")
    lo_f, hi_f = _carve_ends(gauge, target)
    fv = _as_vector_fn(f, probe=lo_f + 0.37 * (hi_f - lo_f))
    undefined = _probe_undefined(fv, [p for p in cfg.singular_points if target.contains(p)])
    sums, *_ = _streamed_sum(
        fv,
        gauge,
        lo_f,
        hi_f,
        seeds=[[cfg.seed, 0x5EED, i] for i in range(n_partitions)],
        cfg=cfg,
        undefined=undefined,
    )
    return SumSpread(float(sums.min()), float(sums.max()), float(sums.mean()), tuple(sums.tolist()))


def cauchy_closed_form(branch, s: float) -> float:
    """Reference value of int_0^oo {sin|cos}(x^2) cos(s x) dx.

    Both branches equal sqrt(pi/8) at s = 0 and stay convergent for all
    real s; the sign between the two trigonometric terms is the only
    difference between the branches.
    """
    branch = CauchyBranch(branch)
    c = math.sqrt(math.pi / 8.0)
    a = s * s / 4.0
    if branch is CauchyBranch.SIN:
        return c * (math.cos(a) - math.sin(a))
    return c * (math.cos(a) + math.sin(a))


# ---------------------------------------------------------------------------
# Exhaustion (cutoff-limit) evaluation


_CHUNK_ELEMS = 1 << 16
# A Romberg row settles only while the plain gap is within this factor of
# its tolerance, so a kink that fakes O(h^4) decay cannot settle it early.
_ROMBERG_GUARD = 16.0


def _midpoint_sums(evaluate, lo, hi, nrows, tol, rel_tol, start_cells, max_cells):
    """Midpoint Riemann sums of nrows integrals over [lo, hi], refined together.

    ``lo``/``hi`` are floats shared by every row or arrays with one entry
    per row.  Each pass splits every live row into n uniform cells tagged
    at their midpoints (fine for the matching uniform gauge) and calls
    ``evaluate(rows, mids, w)`` for a ``(rows.size, n)`` matrix, NaN where
    the integrand is undefined.  Shared bounds pass ``mids`` as one vector
    of length n and ``w`` as a scalar, so row-independent subexpressions
    stay length n; per-row bounds pass a ``(rows.size, n)`` matrix and a
    width per row.  Cell counts double from ``start_cells``.

    A row settles on the first pass where either column meets its
    tolerance.  The Romberg column R_n = S_n + (S_n - S_{n/2}) / 3 needs
    |R_n - R_{n/2}| <= lim = tol + rel_tol * |R_n| and, as in de Boor's
    cautious extrapolation, |S_n - S_{n/2}| <= _ROMBERG_GUARD * lim; it
    reports R_n with gap |R_n - R_{n/2}|, even where the plain column also
    passes.  Otherwise the plain column needs |S_n - S_{n/2}| <= tol +
    rel_tol * |S_n| and reports S_n with that gap, as does a row still
    moving at ``max_cells``.  Returns (values, gaps, settled, evals).
    """
    shared = np.ndim(lo) == 0
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    romb = np.full(nrows, np.nan)
    values = np.full(nrows, np.nan)
    gaps = np.full(nrows, math.inf)
    settled = np.zeros(nrows, dtype=bool)
    evals = 0
    live = np.arange(nrows)
    n = start_cells
    while live.size:
        offsets = np.arange(n) + 0.5
        if shared:
            w = (hi - lo) / n
            mids = lo + offsets * w
        # Chunks bound memory, not accuracy.
        chunk = max(1, _CHUNK_ELEMS // n)
        sums = np.empty(live.size)
        for c0 in range(0, live.size, chunk):
            rows = live[c0 : c0 + chunk]
            if not shared:
                w = (hi[rows] - lo[rows]) / n
                mids = lo[rows, None] + offsets * w[:, None]
            mat = evaluate(rows, mids, w)
            evals += mat.size
            sums[c0 : c0 + chunk] = mat.sum(axis=1) * w
            del mat  # free before the next chunk is evaluated
        # Live rows never settled, so values[live] still holds S_{n/2}.
        gap = np.abs(sums - values[live])
        r = sums + (sums - values[live]) / 3.0
        r_gap = np.abs(r - romb[live])
        lim = tol + rel_tol * np.abs(r)
        on_r = np.isfinite(r) & (r_gap <= lim) & (gap <= _ROMBERG_GUARD * lim)
        ok = on_r | (np.isfinite(sums) & (gap <= tol + rel_tol * np.abs(sums)))
        romb[live] = r
        values[live] = np.where(on_r, r, sums)
        gaps[live] = np.where(on_r, r_gap, gap)
        settled[live] = ok
        live = live[~ok]
        if n >= max_cells:
            break
        n *= 2
    return values, gaps, settled, evals


def _reflect_gauge(g: Gauge) -> Gauge:
    """The gauge seen through u -> -u, for left-side exhaustion runs."""

    def windows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo2, hi2 = g.windows(-np.asarray(z, dtype=float))
        return -hi2, -lo2

    return Gauge(windows, -g.pos_ray, -g.neg_ray, f"reflection of ({g.description})")


def _lobe_slab(
    fv, lo: float, hi: float, max_lobes: int, samples: int = 8192
) -> tuple[np.ndarray, float, int]:
    """Sign-change edges of f on [lo, c] with c pulled in from hi until
    the slab holds at most max_lobes lobes.

    With max_lobes = samples // 8 an accepted slab is sampled at eight
    or more points per lobe, so the detected edges are trustworthy.
    Returns (interior edges, c, evaluations); an empty edge set means the
    slab has a single sign (or none detectable) up to c.
    """
    c = hi
    evals = 0
    for _ in range(10):
        xs = np.linspace(lo, c, samples + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        with np.errstate(all="ignore"):
            vals = np.asarray(fv(mids), dtype=float)
        evals += samples
        vals = np.where(np.isfinite(vals), vals, 0.0)
        sgn = np.sign(vals)
        nz = sgn != 0
        flips = np.flatnonzero(nz[:-1] & nz[1:] & (sgn[:-1] != sgn[1:]))
        if flips.size <= max_lobes:
            edges = 0.5 * (mids[flips] + mids[flips + 1])
            return edges[(edges > lo) & (edges < c)], c, evals
        cut = flips[max_lobes - 1]
        pulled = 0.5 * (mids[cut] + mids[cut + 1])
        if not pulled > lo:
            break
        c = pulled
    return np.empty(0), c, evals


def _exhaust_side(
    fv,
    frm: float,
    to: Optional[float],
    cfg: IntegratorConfig,
    mirrored: bool = False,
) -> IntegralResult:
    """Limit of int_frm^c as the cutoff c runs toward the improper end.

    Cutoffs double away from ``frm`` toward +oo (``to`` is None), or
    halve their distance to the finite endpoint ``to``.  Between
    consecutive cutoffs the integrand is split at its sign changes so the
    sequence of partial integrals at segment boundaries is nearly
    alternating, which iterated Aitken extrapolation accelerates well.
    The cutoff integrals, one per rung and one trace entry each, feed the
    raw-limit monitor ``_divergence``; accelerated values only ever
    decide convergence.

    ``cfg`` is taken in the side's own coordinates: a left-side caller
    reflects singular points and any gauge override and sets ``mirrored``.

    Rungs that would hold more sign-change lobes than the cap are pulled
    in so every slab stays fully resolvable; when the per-rung lobe
    amplitudes stop decaying (the signature of a merely oscillating
    cutoff sequence) the slabs are integrated just accurately enough for
    the divergence monitor.
    """
    boundary_sums: list[float] = []
    anchors: list[float] = []
    lobe_amps: list[float] = []
    accel_hist: list[float] = []
    total = 0.0
    evals = 0
    rough = 0.0  # unresolved residue from budget-capped segments
    prev_edge = frm
    max_lobes = 1024
    # Declared singular structure (a pinch target or a custom gauge)
    # routes every rung through the gauge integrator; plain rungs use
    # the much cheaper uniform midpoint refinement, whose rows settle on
    # the plain midpoint sums or on one guarded Romberg step.
    via_gauge = cfg.gauge_override is not None or bool(cfg.singular_points)

    def result(value, err, status, message=""):
        return IntegralResult(value, err, status, evals, list(enumerate(anchors)), message)

    def span(a, b):  # [a, b] in the caller's coordinates; + 0.0 turns -0.0 into 0.0
        lo, hi = (-b, -a) if mirrored else (a, b)
        return f"[{float(lo) + 0.0!r}, {float(hi) + 0.0!r}]"

    for j in range(cfg.max_refinements + 1):
        if to is None:
            if j == 0:
                c_target = max(1.0, frm + max(1.0, abs(frm)))
            else:
                c_target = prev_edge * 2.0
            if not c_target > prev_edge:
                break
        else:
            c_target = prev_edge + 0.5 * (to - prev_edge)
            if not prev_edge < c_target < to:
                break
        rung_lo = prev_edge
        if via_gauge:
            c = c_target
            sub = hk_integrate(
                fv,
                ClosedInterval(rung_lo, c),
                cfg.with_(tol=0.5 * cfg.tol, min_levels=1),
            )
            evals += sub.evaluations
            if sub.status is not IntegralStatus.CONVERGED:
                diverged = sub.status is IntegralStatus.DIVERGED
                how = "diverged" if diverged else "did not settle within budget"
                piece = f"the piece over {span(rung_lo, c)} {how}"
                return result(total, math.inf, sub.status, piece)
            total += sub.value
            boundary_sums.append(total)
        else:
            inner, c, n = _lobe_slab(fv, rung_lo, c_target, max_lobes)
            evals += n
            edges = np.concatenate(([rung_lo], inner, [c]))
            # Tolerance per segment: boundary sums must stay well inside
            # the requested tolerance even after thousands of segments.
            n_here = max(1, edges.size - 1)
            tol_seg = cfg.tol / (
                8.0 * math.sqrt(float(len(boundary_sums) + n_here + 1))
            )
            if len(lobe_amps) >= 3 and (
                lobe_amps[-1] > 0.75 * lobe_amps[-2]
                and lobe_amps[-2] > 0.75 * lobe_amps[-3]
            ):
                # Lobe areas stopped decaying: from here on the slabs only
                # feed the divergence monitor, which needs the envelope,
                # not the tolerance.
                tol_seg = max(tol_seg, 0.02 * lobe_amps[-1])
            vals, gaps, _, n = _midpoint_sums(
                lambda rows, mids, w: _eval_checked(fv, mids.ravel()).reshape(mids.shape),
                edges[:-1],
                edges[1:],
                edges.size - 1,
                tol_seg,
                0.0,
                start_cells=4,
                max_cells=1 << 18,
            )
            evals += n
            finite_gaps = gaps[np.isfinite(gaps)]
            resid = float(np.sum(finite_gaps[finite_gaps > tol_seg]))
            mon_scale = float(np.ptp(anchors[-5:])) if len(anchors) >= 2 else 0.0
            if resid > max(100.0 * cfg.tol, 0.02 * mon_scale):
                # The slab could not be resolved within budget; its sum
                # would poison both the value and the monitors.
                return result(
                    total,
                    math.inf,
                    IntegralStatus.INCONCLUSIVE,
                    f"ran out of resolvable rungs at {span(rung_lo, c)} "
                    f"(unresolved residue {resid:.2e})",
                )
            rough += resid
            if inner.size >= 32:
                lobe_amps.append(float(np.max(np.abs(vals))))
            for v in vals:
                total += float(v)
                boundary_sums.append(total)
        anchors.append(total)
        why = _divergence(anchors, 10.0 * cfg.mixed_tol(total), "cutoff integrals", "cutoff")
        if why:
            err = abs(total) if _grew(anchors) else float(np.ptp(anchors[-5:]))
            return result(total, err, IntegralStatus.DIVERGED, why)
        converged, value, err = _exhaust_converged(boundary_sums, anchors, cfg, rough, accel_hist)
        if converged:
            return result(value, err, IntegralStatus.CONVERGED)
        prev_edge = c
    return result(
        anchors[-1] if anchors else math.nan,
        abs(anchors[-1] - anchors[-2]) if len(anchors) >= 2 else math.inf,
        IntegralStatus.INCONCLUSIVE,
        "cutoff budget exhausted before the tolerance was met",
    )


def _exhaust_converged(
    boundary_sums: list[float],
    anchors: list[float],
    cfg: IntegratorConfig,
    rough: float,
    accel_hist: list[float],
) -> tuple[bool, float, float]:
    """Convergence decision for an exhaustion run.

    Accepts either a raw Cauchy tail on the cutoff integrals or an
    accelerated estimate whose error gauge is below tolerance while the
    raw oscillation is visibly decaying and two consecutive rungs agree
    on the accelerated value.  The decay guard keeps Aitken antilimits
    of divergent integrals from being reported as values.
    """
    if len(anchors) < 4:
        return False, math.nan, math.inf
    raw_gaps = [abs(b - a) for a, b in zip(anchors[-4:-1], anchors[-3:])]
    raw_err = max(max(raw_gaps), rough)
    tol = cfg.mixed_tol(anchors[-1])
    if raw_err <= tol:
        return True, anchors[-1], raw_err
    osc = window_oscillation(anchors, 5)
    # Window extrema persist for several steps, so decay is judged over
    # two window advances, never one.
    decaying = len(osc) >= 3 and (osc[-1] <= 0.9 * osc[-3] or osc[-1] <= tol)
    tail = boundary_sums[-min(len(boundary_sums), 96) :]
    est, err = shanks_limit(tail)
    est_a, err_a = shanks_limit(anchors)
    if err_a < err:
        est, err = est_a, err_a
    err = max(err, rough)
    if math.isfinite(est):
        accel_hist.append(est)
    if (
        decaying
        and err <= cfg.mixed_tol(est)
        and len(accel_hist) >= 2
        and abs(accel_hist[-1] - accel_hist[-2]) <= 0.5 * cfg.mixed_tol(est)
    ):
        return True, est, max(err, abs(accel_hist[-1] - accel_hist[-2]))
    return False, math.nan, math.inf


def _improper_ends(
    fv, target: ClosedInterval, cfg: IntegratorConfig
) -> tuple[bool, bool]:
    """Which endpoints need exhaustion: infinite, declared, or undefined."""

    def improper(end, inf) -> bool:
        if not end.is_finite:
            return end == inf
        return end.value in cfg.singular_points or bool(_probe_undefined(fv, [end.value]))

    return improper(target.lo, NEG_INF), improper(target.hi, POS_INF)


def hake_improper(
    f: Callable, target: ClosedInterval, cfg: Optional[IntegratorConfig] = None
) -> IntegralResult:
    """Evaluate an integral as the limit of integrals over exhaustions.

    Equivalent in value to ``hk_integrate`` whenever either converges;
    this is the practical route for infinite intervals and endpoint
    singularities.  Each side's raw cutoff integrals feed the raw-limit
    monitor, which reports DIVERGED on growth or on window oscillation
    that stops decaying; INCONCLUSIVE means the cutoff budget ran out
    first.  The sides' results are summed and their traces concatenated.
    """
    cfg = cfg or IntegratorConfig()
    lo, hi = target.lo, target.hi
    mid_probe = 1.0
    if lo.is_finite and hi.is_finite:
        mid_probe = lo.value + 0.5 * (hi.value - lo.value)
    elif lo.is_finite:
        mid_probe = lo.value + 1.0
    elif hi.is_finite:
        mid_probe = hi.value - 1.0
    fv = _as_vector_fn(f, probe=mid_probe)
    left, right = _improper_ends(fv, target, cfg)
    if not left and not right:
        right = True  # compact target: exhaust toward the right endpoint
    # Anchor separating the two exhaustion directions.
    if left and right:
        anchor = 0.0 if lo.as_float() < 0.0 < hi.as_float() else mid_probe
    else:
        anchor = lo.value if not left else hi.value
    sides: list[IntegralResult] = []
    if right:
        sides.append(
            _exhaust_side(
                fv,
                anchor,
                hi.value if hi.is_finite else None,
                cfg,
            )
        )
    if left:
        def refl(u):
            return np.asarray(fv(-np.asarray(u, dtype=float)), dtype=float)

        cfg_left = cfg.with_(
            singular_points=tuple(-p for p in cfg.singular_points),
            gauge_override=(
                _reflect_gauge(cfg.gauge_override)
                if cfg.gauge_override is not None
                else None
            ),
        )
        sides.append(
            _exhaust_side(
                refl,
                -anchor,
                -lo.value if lo.is_finite else None,
                cfg_left,
                mirrored=True,
            )
        )
    value = sum(s.value for s in sides)
    err = sum(s.error_estimate for s in sides)
    evals = sum(s.evaluations for s in sides)
    trace = list(enumerate(v for s in sides for _, v in s.trace))
    worst_first = (IntegralStatus.DIVERGED, IntegralStatus.INCONCLUSIVE, IntegralStatus.CONVERGED)
    status = next(st for st in worst_first if st in {s.status for s in sides})
    message = "; ".join(s.message for s in sides if s.message)
    return IntegralResult(value, err, status, evals, trace, message=message)


def integrate_auto(
    f: Callable, target: ClosedInterval, cfg: Optional[IntegratorConfig] = None
) -> IntegralResult:
    """Dispatch: exhaustion for unbounded or endpoint-undefined targets,
    the direct gauge schedule otherwise.  The two agree in value, so the
    choice is purely about efficiency."""
    cfg = cfg or IntegratorConfig()
    if not (target.lo.is_finite and target.hi.is_finite):
        return hake_improper(f, target, cfg)
    mid = target.lo.value + 0.5 * (target.hi.value - target.lo.value)
    fv = _as_vector_fn(f, probe=mid)
    ends = [v for v in (target.lo.value, target.hi.value) if v in cfg.singular_points]
    if ends and _probe_undefined(fv, ends):
        return hake_improper(f, target, cfg)
    return hk_integrate(f, target, cfg)
