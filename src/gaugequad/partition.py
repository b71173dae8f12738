"""Tagged partitions and the gauge-driven partitioner.

Cousin's lemma guarantees that every gauge on a closed interval of the
compactified line admits a fine tagged partition; the constructive
version here carves unbounded end cells first (every gauge window at an
infinite end is a ray, so one cell suffices) and then bisects the finite
remainder until every cell fits inside the window of one of its
candidate tags (left end, midpoint, right end).

The bisection engine is vectorized: pending cells wait in one bucket per
depth and are bisected a chunk at a time in cache-sized numpy blocks, the
deepest full chunk first, so a wide tree holds about one chunk per depth
rather than a whole level.  Accepted cells stream through a callback, so
partitions of a few million cells are affordable and no integration
materializes a whole one.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import permutations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .extreal import (
    NEG_INF,
    POS_INF,
    ClosedInterval,
    ExtReal,
    _json_float,
    ext,
)
from .gauge import Gauge

__all__ = [
    "TaggedPartition",
    "DepthExceeded",
    "CellBudgetExceeded",
    "EvaluatorDomainError",
    "validate",
    "riemann_sum",
    "cousin_fine_partition",
    "DEFAULT_MAX_CELLS",
]

DEFAULT_MAX_CELLS = 1 << 23
_BLOCK = 1 << 14  # cells per block of a round's elementwise work (cache-sized)


# _FIRST_FIT[fits, draw]: the first candidate (0 = u, 1 = midpoint, 2 = v)
# in the order _ORDERS[draw] with its bit set in fits.  _MIDPOINT_FIRST
# holds the draws of the two runs made with no generators.
_ORDERS = list(permutations(range(3)))
_FIRST_FIT = np.array([[next((c for c in o if f >> c & 1), 0) for o in _ORDERS] for f in range(8)])
_MIDPOINT_FIRST = np.array([[_ORDERS.index((1, 0, 2))], [_ORDERS.index((1, 2, 0))]])


class DepthExceeded(RuntimeError):
    """Bisection hit the depth limit: the gauge is pathologically narrow."""


class CellBudgetExceeded(RuntimeError):
    """The partition would exceed the cell budget."""


class EvaluatorDomainError(RuntimeError):
    """The integrand misbehaved (non-finite or raised) at a tag."""

    def __init__(self, message: str, tag: Optional[float] = None):
        super().__init__(message)
        self.tag = tag


def _as_vector_fn(f: Callable, probe: float) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt scalar or vectorized evaluators to the array protocol."""
    try:
        out = f(np.array([probe, probe]))
        arr = np.asarray(out, dtype=float)
        if arr.shape == (2,):
            return lambda z: np.asarray(f(z), dtype=float)
    except Exception:
        pass
    vec = np.vectorize(lambda x: float(f(float(x))), otypes=[float])
    return lambda z: vec(z)


def _eval_checked(fv, tags: np.ndarray) -> np.ndarray:
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(fv(tags), dtype=float)
    except Exception as exc:
        raise EvaluatorDomainError(f"evaluator raised on a tag batch: {exc}") from exc
    if not np.isfinite(vals).all():
        t = float(tags[np.flatnonzero(~np.isfinite(vals))[0]])
        raise EvaluatorDomainError(f"evaluator returned a non-finite value at tag {t!r}", tag=t)
    return vals


class TaggedPartition:
    """A tagged partition of a target interval as three float arrays.

    Row i is the cell [lo[i], hi[i]] tagged at tags[i]; an end cell is a
    row with an infinite tag and an infinite endpoint.  The
    (ExtReal, ClosedInterval) pairs are built only when asked for.
    """

    __slots__ = ("target", "tags", "lo", "hi")

    def __init__(
        self,
        target: ClosedInterval,
        pairs: Iterable[tuple[ExtReal, ClosedInterval]],
    ):
        rows = [(ext(t).as_float(), c.lo.as_float(), c.hi.as_float()) for t, c in pairs]
        self.target = target
        self.tags, self.lo, self.hi = np.array(rows, dtype=float).reshape(-1, 3).T.copy()

    @classmethod
    def _of_arrays(cls, target: ClosedInterval, tags, lo, hi) -> "TaggedPartition":
        part = cls.__new__(cls)
        part.target, part.tags, part.lo, part.hi = target, tags, lo, hi
        return part

    def _rows(self):
        return zip(self.tags.tolist(), self.lo.tolist(), self.hi.tolist())

    @property
    def pairs(self) -> list[tuple[ExtReal, ClosedInterval]]:
        return [(ExtReal(t), ClosedInterval(lo, hi)) for t, lo, hi in self._rows()]

    def __len__(self) -> int:
        return self.tags.size

    def __iter__(self):
        return iter(self.pairs)

    def to_records(self) -> list[dict]:
        """JSON-ready view: list of {tag, lo, hi} with string infinities."""
        return [
            {"tag": _json_float(t), "lo": _json_float(lo), "hi": _json_float(hi)}
            for t, lo, hi in self._rows()
        ]

    def __repr__(self) -> str:
        return f"TaggedPartition({self.target!r}, cells={len(self)})"


def _cell(partition: TaggedPartition, i: int) -> ClosedInterval:
    return ClosedInterval(float(partition.lo[i]), float(partition.hi[i]))


def validate(partition: TaggedPartition) -> list[str]:
    """All structural violations, or [] for a genuine tagged partition.

    Checks: every tag lies in its cell, cells stay inside the target,
    interiors are pairwise disjoint, and the union is exactly the
    target.  Repeated tag values across cells are legitimate.
    """
    violations: list[str] = []
    target = partition.target
    if not len(partition):
        return [f"empty partition does not cover {target!r}"]
    t_lo, t_hi = target.lo.as_float(), target.hi.as_float()
    tags, lo, hi = partition.tags, partition.lo, partition.hi
    stray = ~((lo <= tags) & (tags <= hi))
    outside = (lo < t_lo) | (hi > t_hi)
    for i in np.flatnonzero(stray | outside):
        cell = _cell(partition, i)
        if stray[i]:
            violations.append(f"tag {ExtReal(tags[i])} outside its cell {cell!r}")
        if outside[i]:
            violations.append(f"cell {cell!r} extends outside target {target!r}")
    order = np.argsort(lo, kind="stable")
    s_lo, s_hi = lo[order], hi[order]
    if s_lo[0] != t_lo:
        violations.append(f"coverage starts at {ExtReal(s_lo[0])}, target starts at {target.lo}")
    overlap = s_lo[1:] < s_hi[:-1]
    gap = s_lo[1:] > s_hi[:-1]
    for i in np.flatnonzero(overlap | gap):
        if overlap[i]:
            prev, cur = _cell(partition, order[i]), _cell(partition, order[i + 1])
            violations.append(f"cells {prev!r} and {cur!r} overlap")
        else:
            violations.append(f"gap between {ExtReal(s_hi[i])} and {ExtReal(s_lo[i + 1])}")
    if s_hi[-1] != t_hi:
        violations.append(f"coverage ends at {ExtReal(s_hi[-1])}, target ends at {target.hi}")
    return violations


def riemann_sum(f: Callable, partition: TaggedPartition) -> float:
    """Sum of f(tag) * length(cell) over the partition.

    Unbounded cells contribute exactly 0 and f is never evaluated at
    their tags, so the sum is a finite combination of finite terms.
    Accumulation uses exact summation, making the result independent of
    the order of the cells.
    """
    bounded = np.flatnonzero(np.isfinite(partition.lo) & np.isfinite(partition.hi))
    if not bounded.size:
        return 0.0
    tags = partition.tags[bounded]
    infinite = np.flatnonzero(~np.isfinite(tags))
    if infinite.size:
        cell = _cell(partition, bounded[infinite[0]])
        raise EvaluatorDomainError(f"finite cell {cell!r} carries an infinite tag")
    values = _eval_checked(_as_vector_fn(f, probe=float(tags[0])), tags)
    return math.fsum(values * (partition.hi[bounded] - partition.lo[bounded]))


def _carve_ends(gauge: Gauge, target: ClosedInterval) -> tuple[float, float]:
    """Bounds [lo_f, hi_f] of the finite remainder once the unbounded end
    cells [-oo, lo_f] and [hi_f, +oo] are split off the target."""
    eps = float(np.finfo(float).eps)
    if target.lo == NEG_INF:
        bound = min(gauge.neg_ray, target.hi.as_float())
        if not math.isfinite(bound):
            bound = 0.0
        lo_f = bound - max(1.0, 8.0 * eps * abs(bound))
    else:
        lo_f = target.lo.value
    if target.hi == POS_INF:
        bound = max(gauge.pos_ray, target.lo.as_float())
        if not math.isfinite(bound):
            bound = 0.0
        hi_f = bound + max(1.0, 8.0 * eps * abs(bound))
        if target.lo == NEG_INF and hi_f <= lo_f:
            hi_f = lo_f + max(1.0, 8.0 * eps * abs(lo_f))
    else:
        hi_f = target.hi.value
    if not lo_f < hi_f:
        raise ValueError(
            f"no room for a finite segment between {lo_f} and {hi_f}; "
            "gauge rays at the ends are inconsistent with the target"
        )
    return lo_f, hi_f


def _reaches(gauge: Gauge, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hi and lo ends of the window at each z, or NaN (which fails
    every comparison) where the window does not hold z."""
    glo, ghi = gauge.windows(z)
    holds = (glo < z) & (z < ghi)
    return np.where(holds, ghi, np.nan), np.where(holds, glo, np.nan)


def _take(pieces: deque, k: int) -> Sequence[np.ndarray]:
    """The next k pending cells, removed from ``pieces``: a view when one
    piece holds them all, a block-sized copy otherwise."""
    parts = []
    while k:
        head = pieces.popleft()
        if head[0].size > k:
            pieces.appendleft(tuple(a[k:] for a in head))
            head = tuple(a[:k] for a in head)
        parts.append(head)
        k -= head[0].size
    return parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]


def refine_fine_cells(
    gauge: Gauge,
    lo: float,
    hi: float,
    *,
    rngs: Sequence[np.random.Generator] = (),
    emit: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
    max_depth: int = 60,
    max_cells: int = DEFAULT_MAX_CELLS,
    undefined_tags: Sequence[float] = (),
    chunk: int = 1 << 16,
) -> int:
    """Bisect [lo, hi] into gauge-fine cells, streaming them to ``emit``.

    Candidate tags for a cell [u, v] are u, the midpoint, and v.  With no
    generators there are two runs, both midpoint first (the low-noise
    choice for integration): run 0 then tries u before v, run 1 v before
    u, so their tags differ exactly on the cells that fit both endpoints
    but not their midpoint.  Otherwise each generator in ``rngs`` is one
    run that tries them in a random order of its own, as it would
    bisecting alone.  Which cells are accepted never depends on the
    order, so the runs share one bisection tree.  ``emit`` receives
    ``tags`` of shape (runs, len(us)).
    Tags listed in ``undefined_tags`` are never emitted: a cell accepted
    through such a tag is emitted with the nearest defined endpoint
    instead (the gauge window test still uses the original candidate).

    Pending cells wait in one bucket per depth, as the pieces each block
    splits off (left children, then right).  A step bisects up to ``chunk``
    cells of the deepest depth that fills a chunk, else of the shallowest
    that holds any: a tree that never fills a chunk is walked level by
    level, a wider one holds about one chunk per depth.  A step makes one
    draw call per generator and one emit; ``_BLOCK`` bounds temporaries.

    Returns the number of accepted cells.  Raises DepthExceeded if some
    cell survives max_depth bisections or, after its step's emit, can
    neither be split nor tagged, and CellBudgetExceeded if the accepted
    and pending cells could exceed max_cells after the next step.
    """
    orders = len(_ORDERS)
    undef = np.array(sorted(set(float(t) for t in undefined_tags)), dtype=float)
    # Each pending cell [u, v] carries the right reach of u's window and
    # the left reach of v's; a split hands them to its children, so every
    # step queries the gauge at the new midpoints only.
    reach_r, reach_l = _reaches(gauge, np.array([lo, hi], dtype=float))
    root = (np.array([lo]), np.array([hi]), reach_r[:1], reach_l[1:])
    pending, sizes, accepted = {0: deque([root])}, {0: 1}, 0
    while busy := sorted(d for d, n in sizes.items() if n):
        depth = ([d for d in busy if sizes[d] >= chunk] or busy[:1])[-1]
        if depth > max_depth:
            raise DepthExceeded(
                f"{sizes[depth]} cells still unaccepted at depth {max_depth}; "
                f"narrowest is [{pending[depth][0][0][0]!r}, {pending[depth][0][1][0]!r}]"
            )
        size = min(chunk, sizes[depth])
        if accepted + sum(sizes.values()) + size > max_cells:
            raise CellBudgetExceeded(f"partition would exceed {max_cells} cells (depth {depth})")
        sizes[depth] -= size
        if rngs:
            draws = np.array([g.integers(0, orders, size=size) for g in rngs])
        else:
            draws = np.broadcast_to(_MIDPOINT_FIRST, (2, size))
        got, left, right, stuck = [], [], [], []
        for b in range(0, size, _BLOCK):
            u, v, ru, lv = _take(pending[depth], min(_BLOCK, size - b))
            m = u + 0.5 * (v - u)
            splittable = (m > u) & (m < v)
            rm, lm = _reaches(gauge, m)
            ok = [v < ru, splittable & (lm < u) & (v < rm), lv < u]
            tag_u, tag_m, tag_v = u, m, v
            if undef.size:
                # Replacement tag when the candidate itself is undefined:
                # the opposite endpoint for endpoints, the left endpoint
                # for the midpoint (falling back to the right).
                u_ok, m_ok, v_ok = ~np.isin(np.concatenate((u, m, v)), undef).reshape(3, -1)
                tag_u, tag_v = np.where(u_ok, u, v), np.where(v_ok, v, u)
                tag_m = np.where(m_ok, m, tag_u)
                either = u_ok | v_ok
                ok = [ok[0] & either, ok[1] & (m_ok | either), ok[2] & either]
            acc = ok[0] | ok[1] | ok[2]
            ia, ir = acc.nonzero()[0], (~acc).nonzero()[0]
            if ia.size:
                # Each run's first fitting candidate, by flat index into
                # _FIRST_FIT, gathered from the candidates laid end to end.
                fits = ok[0] + 2 * ok[1].view(np.uint8) + 4 * ok[2].view(np.uint8)
                drawn = draws[:, b : b + _BLOCK].take(ia, axis=1)
                chosen = _FIRST_FIT.take(drawn + orders * fits.take(ia))
                tags = np.concatenate((tag_u, tag_m, tag_v)).take(chosen * u.size + ia)
                got.append((tags, u.take(ia), v.take(ia)))
            if ir.size:
                if not splittable.all():
                    stuck += [(u[i], v[i]) for i in ir[~splittable.take(ir)][:1]]
                mid = m.take(ir)
                left.append((u.take(ir), mid, ru.take(ir), lm.take(ir)))
                right.append((mid, v.take(ir), rm.take(ir), lv.take(ir)))
        if got:
            tags, us, vs = (p[0] if len(got) == 1 else np.hstack(p) for p in zip(*got))
            emit(tags, us, vs)
            accepted += us.size
        if stuck:
            raise DepthExceeded(
                f"cell [{stuck[0][0]!r}, {stuck[0][1]!r}] cannot be split further "
                "and no candidate tag satisfies the gauge"
            )
        pending.setdefault(depth + 1, deque()).extend(left + right)
        sizes[depth + 1] = sizes.get(depth + 1, 0) + 2 * sum(p[0].size for p in left)
    return accepted


def cousin_fine_partition(
    gauge: Gauge,
    target: ClosedInterval,
    max_depth: int = 60,
    *,
    seed: int = 0,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> TaggedPartition:
    """Construct a tagged partition of ``target`` fine for ``gauge``.

    Tags are tried in a random order drawn for each cell, deterministic
    for a fixed seed.  The result always passes ``validate``; it is fine
    for the gauge whenever no undefined-tag substitution was needed (the
    plain partitioner never substitutes).
    """
    lo_f, hi_f = _carve_ends(gauge, target)
    bucket: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if target.lo == NEG_INF:
        bucket.append((np.array([-np.inf]), np.array([-np.inf]), np.array([lo_f])))
    if target.hi == POS_INF:
        bucket.append((np.array([np.inf]), np.array([hi_f]), np.array([np.inf])))
    refine_fine_cells(
        gauge,
        lo_f,
        hi_f,
        rngs=[np.random.default_rng(seed)],
        emit=lambda tags, us, vs: bucket.append((tags[0], us, vs)),
        max_depth=max_depth,
        max_cells=max_cells,
    )
    tags, lo, hi = (np.concatenate(col) for col in zip(*bucket))
    order = np.argsort(lo, kind="stable")
    return TaggedPartition._of_arrays(target, tags[order], lo[order], hi[order])
