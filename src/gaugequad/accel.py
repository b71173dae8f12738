"""Sequence acceleration: guarded Aitken delta-squared, iterated (Shanks).

Works on 1-D sequences and, for the series checkers, columnwise on 2-D
arrays (axis 0 is the sequence index).  Every transform step guards the
denominator: where it is negligible relative to the local scale the
entry is passed through unchanged, so converged or arithmetic stretches
never blow up.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "aitken_sweep",
    "shanks_limit",
    "shanks_columns",
    "series_limit",
    "window_oscillation",
]

_TINY = np.finfo(float).tiny


def aitken_sweep(s: np.ndarray) -> np.ndarray:
    """One delta-squared sweep; output is 2 entries shorter on axis 0.

    Entries pass through untransformed where the second difference is at
    noise level (converged or arithmetic stretches) or where the implied
    correction dwarfs the sequence's own scale (an extrapolation no
    bounded sequence justifies).
    """
    s = np.asarray(s, dtype=float)
    d1 = s[1:-1] - s[:-2]
    d2 = s[2:] - s[1:-1]
    den = d2 - d1
    scale = np.abs(d1) + np.abs(d2) + _TINY
    safe = np.abs(den) > 1e-12 * scale
    correction = np.where(safe, d2 * d2 / np.where(safe, den, 1.0), 0.0)
    cap = 8.0 * (np.max(np.abs(s), axis=0) + _TINY)
    correction = np.where(np.abs(correction) > cap, 0.0, correction)
    return s[2:] - correction


def shanks_columns(matrix: np.ndarray):
    """Columnwise iterated Aitken: limits and two-sided error gauges.

    Each column's error estimate combines the Cauchy gap at the deepest
    sweep with the change of the tail value across the last two sweeps,
    so it stays honest when the transform stalls.
    """
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2 or s.shape[0] == 0:
        raise ValueError("need a nonempty 2-D array")
    if s.shape[0] < 3:
        err = np.abs(s[-1] - s[0]) if s.shape[0] == 2 else np.full(s.shape[1], np.inf)
        return s[-1].copy(), err
    prev_tail = s[-1].copy()
    gap = np.abs(s[-1] - s[-2])
    sweep_change = gap.copy()
    for _ in range((s.shape[0] - 1) // 2):
        s = aitken_sweep(s)
        gap = np.abs(s[-1] - s[-2]) if s.shape[0] >= 2 else gap
        sweep_change = np.abs(s[-1] - prev_tail)
        prev_tail = s[-1].copy()
    return prev_tail, np.maximum(gap, sweep_change)


def shanks_limit(seq) -> tuple[float, float]:
    """``shanks_columns`` on a 1-D sequence: (limit, error gauge)."""
    est, err = shanks_columns(np.asarray(seq, dtype=float)[:, None])
    return float(est[0]), float(err[0])


_SERIES_WINDOW = 128
_BLOCK_VALUES = 1 << 16  # values per partial-sum block (512 KB, cache-sized)


def _partial_sum_blocks(sums: np.ndarray, term, n: int, stop: int):
    """Yield (n0, block), block[i] = sums + term(n + 1) + ... + term(n0 + i).

    Terms are asked for once each, in ascending order, up to term(stop);
    the float store casts them and broadcasts scalars.  One sequential
    cumsum per block makes exactly the additions of ``sums = sums + term(j)``.
    """
    rows = max(1, _BLOCK_VALUES // max(sums.size, 1))
    while n < stop:
        block = np.empty((min(rows, stop - n) + 1, sums.size))
        block[0] = sums
        for i in range(1, block.shape[0]):
            block[i] = term(n + i)
        np.cumsum(block, axis=0, out=block)
        sums = block[-1]
        yield n, block
        n += block.shape[0] - 1


def _settle(seq, gate, instant, cand, est, err, live, atol) -> None:
    """Settle gated columns of ``seq`` on their Shanks limits, in place: one
    with a clean gauge settles if ``instant`` or if its limit agrees with
    the previous octave's in ``cand``, and its err adds that disagreement.
    Clean limits become the next octave's candidates, the rest NaN."""
    accel, gauge = shanks_columns(seq[:, gate])
    gi = np.flatnonzero(gate)
    lim = atol + atol * np.abs(accel)
    good = gauge <= lim
    drift = np.where(instant, 0.0, np.abs(accel - cand[gi]))
    done = good & (drift <= lim)
    est[gi[done]] = accel[done]
    err[gi[done]] = (drift + gauge)[done]
    live[gi[done]] = False
    cand[gi] = np.where(good, accel, np.nan)


@np.errstate(all="ignore")
def series_limit(term_at, xs, tol: float, n_cap: int = 1 << 20):
    """Pointwise limit of the series sum_{n>=1} term_at(n, xs).

    Partial sums are pushed in doubling octaves.  A column is settled when
    it stabilizes raw (Cauchy across the last octave), or when its recent
    structure is one acceleration can be trusted on: a tail decaying past a
    visible peak, or contracting alternation.  Accelerated values must agree
    across two consecutive octaves before they are accepted; the octave is
    sampled at 128 evenly strided checkpoints so the window always spans a
    factor-of-two range of indices regardless of depth.  Columns still
    undecided at n_cap are reported unresolved, never guessed.

    term_at(n, x_vector) must return the n-th term at those points, as an
    array of their length or a scalar to broadcast.  Each octave calls it
    once per n, in ascending n, with a fresh array of the columns live at
    the octave's start; the sums are formed a block of terms at a time
    with exactly the additions of summing term by term.
    Returns (est, err, resolved); unresolved columns carry err = inf.
    Non-finite terms raise no numpy warnings.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    m = xs.size
    est = np.zeros(m)
    err = np.full(m, np.inf)
    live = np.ones(m, dtype=bool)
    if m == 0:
        return est, err, ~live
    peak = np.zeros(m)
    sums = np.zeros(m)
    cand = np.full(m, np.nan)
    anchor_cand = np.full(m, np.nan)
    prev_span = np.full(m, np.inf)
    anchors: list[np.ndarray] = []
    atol = 0.25 * tol
    window = _SERIES_WINDOW
    k = 2 * window
    n = 0
    stage = 0
    while True:
        stride = k // (2 * window)
        half = k // 2
        idx = np.flatnonzero(live)
        cp = np.tile(sums, (window, 1))
        for n0, block in _partial_sum_blocks(sums[idx], lambda j: term_at(j, xs[idx]), n, k):
            # Checkpoint c (1..window) is the sum through half + c*stride.
            c0 = max(1, (n0 - half) // stride + 1)
            c1 = min(window, (n0 + block.shape[0] - 1 - half) // stride)
            if c0 <= c1:
                cp[c0 - 1 : c1, idx] = block[half + c0 * stride - n0 :: stride][: c1 - c0 + 1]
            sums[idx] = block[-1]
            peak[idx] = np.maximum(peak[idx], np.abs(block[1:]).max(axis=0))
        n = k
        anchors.append(sums.copy())
        span = np.abs(cp[-1] - cp[0])
        raw_ok = live & (span <= atol + atol * np.abs(cp[-1]))
        est = np.where(raw_ok, sums, est)
        err = np.where(raw_ok, span, err)
        live &= ~raw_ok
        gate = np.zeros(m, dtype=bool)
        if live.any():
            aw = np.abs(cp)
            q = window // 4
            hump = (np.max(aw[-q:], axis=0) <= 0.7 * np.max(aw[:q], axis=0) + atol) & (
                aw[-1] <= 0.5 * peak + atol
            )
            diffs = np.diff(cp, axis=0)
            signs = np.sign(diffs)
            alt = np.all(signs[1:] * signs[:-1] < 0, axis=0) & (
                np.abs(diffs[-1]) <= np.abs(diffs[0])
            )
            gate = live & (hump | alt)
            if gate.any():
                # Contracting alternation brackets its limit, so a clean
                # gauge is enough on the consecutive (stage-0) window;
                # everything else needs agreement across two octaves.
                _settle(cp, gate, alt[gate] & (stage == 0), cand, est, err, live, atol)
            # Monotone tails with shrinking octave spans: the stage-end
            # anchors sit at powers of two, so a c*K^(-p) remainder is
            # geometric in the stage index and Shanks applies to them.
            if len(anchors) >= 5 and live.any():
                mono = np.all(signs >= 0, axis=0) | np.all(signs <= 0, axis=0)
                gate2 = live & mono & (span < prev_span)
                if gate2.any():
                    _settle(np.array(anchors), gate2, False, anchor_cand, est, err, live, atol)
        cand[live & ~gate] = np.nan
        prev_span = span
        if not live.any() or k >= n_cap:
            break
        k *= 2
        stage += 1
    return est, err, ~live


def window_oscillation(values, width: int = 5) -> list[float]:
    """Max-min over a sliding window; one entry per full window."""
    v = np.asarray(values, dtype=float)
    if v.size < width:
        return []
    w = np.lib.stride_tricks.sliding_window_view(v, width)
    return (w.max(axis=1) - w.min(axis=1)).tolist()
