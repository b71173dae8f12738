import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequad import (
    CellBudgetExceeded,
    ClosedInterval,
    DepthExceeded,
    EvaluatorDomainError,
    Gauge,
    TaggedPartition,
    cousin_fine_partition,
    ext,
    is_fine,
    riemann_sum,
    singularity_gauge,
    uniform_gauge,
    validate,
)
from gaugequad import partition
from gaugequad.partition import refine_fine_cells


def cell_lengths(p):
    return [c.length() for _, c in p.pairs]


def test_partition_of_unit_interval_is_valid_and_fine():
    g = uniform_gauge(0.1)
    target = ClosedInterval(0.0, 1.0)
    p = cousin_fine_partition(g, target)
    assert validate(p) == []
    assert is_fine(p, g)
    assert math.fsum(cell_lengths(p)) == pytest.approx(1.0, abs=1e-12)
    for tag, cell in p.pairs:
        assert cell.contains(tag)


def test_partition_cells_are_sorted_and_disjoint():
    p = cousin_fine_partition(uniform_gauge(0.07), ClosedInterval(-2.0, 3.0))
    cells = [c for _, c in p.pairs]
    for a, b in zip(cells, cells[1:]):
        assert a.hi == b.lo


def test_partition_of_unbounded_interval_has_end_cells():
    g = uniform_gauge(0.5, tail_cutoff=10.0)
    target = ClosedInterval(0.0, math.inf)
    p = cousin_fine_partition(g, target)
    assert validate(p) == []
    assert is_fine(p, g)
    last_tag, last_cell = p.pairs[-1]
    assert not last_tag.is_finite
    assert not last_cell.is_bounded
    assert last_cell.length() == 0.0
    # The unbounded cell starts beyond the tail cutoff of its ray.
    assert last_cell.lo.value >= 10.0


def test_partition_of_the_whole_line():
    g = uniform_gauge(1.0, tail_cutoff=5.0)
    target = ClosedInterval(-math.inf, math.inf)
    p = cousin_fine_partition(g, target)
    assert validate(p) == []
    assert is_fine(p, g)
    assert not p.pairs[0][0].is_finite
    assert not p.pairs[-1][0].is_finite


def test_same_seed_reproduces_the_partition():
    g = uniform_gauge(0.03)
    target = ClosedInterval(0.0, 1.0)
    p1 = cousin_fine_partition(g, target, seed=7)
    p2 = cousin_fine_partition(g, target, seed=7)
    assert p1.to_records() == p2.to_records()


def test_different_seeds_move_the_tags():
    # A uniform gauge accepts cells one level before the endpoints
    # qualify, so only an asymmetric gauge exposes the seeded candidate
    # order.
    g = singularity_gauge(uniform_gauge(0.5), [0.0], sharpness=5.0)
    target = ClosedInterval(0.0, 1.0)
    recs = [
        cousin_fine_partition(g, target, seed=s).to_records() for s in range(4)
    ]
    assert any(r != recs[0] for r in recs[1:])


def test_depth_limit_raises():
    with pytest.raises(DepthExceeded):
        cousin_fine_partition(uniform_gauge(1e-6), ClosedInterval(0.0, 1.0), max_depth=3)


ULP1 = 2.0**-52  # spacing of doubles in [1, 2)


def _stuck_below(z):
    # Every window reaches one double down.  Up, it reaches two doubles
    # from 1 + 4 ulp on and one below that: a one-ulp cell up there fits
    # its left end, and below it no cell fits and none can be split.
    step = np.spacing(z)
    return z - step, np.where(z >= 1.0 + 4 * ULP1, z + 2 * step, z + step)


@pytest.mark.parametrize("block", [1, 2, 1 << 14])
def test_chunk_emits_its_accepted_cells_before_a_stuck_cell_raises(block, monkeypatch):
    # [1, 1 + 8 ulp] is bisected to eight one-ulp cells at one depth,
    # taken in one step.  The stuck [1, 1 + ulp] comes first in pending
    # order, so with one cell per block every accepted cell sits in a
    # later block.  The step still emits them all before the stuck cell
    # raises, so an integrand error in that emit is the one reported.
    monkeypatch.setattr(partition, "_BLOCK", block)
    gauge = Gauge(_stuck_below, -1.0, 1.0)
    emitted = []

    def refine(emit):
        refine_fine_cells(gauge, 1.0, 1.0 + 8 * ULP1, emit=emit)

    with pytest.raises(DepthExceeded) as stuck:
        refine(lambda tags, us, vs: emitted.append((tags.tolist(), us.tolist(), vs.tolist())))
    assert str(stuck.value) == (
        f"cell [{np.float64(1.0)!r}, {np.float64(1.0 + ULP1)!r}] cannot be split further "
        "and no candidate tag satisfies the gauge"
    )
    # Both runs made with no generators tag each cell at u, its one fit.
    us = [1.0 + k * ULP1 for k in (4, 6, 5, 7)]
    assert emitted == [([us, us], us, [u + ULP1 for u in us])]

    def failing(tags, us, vs):
        raise EvaluatorDomainError("evaluator returned a non-finite value")

    with pytest.raises(EvaluatorDomainError):
        refine(failing)


def test_cell_budget_raises():
    with pytest.raises(CellBudgetExceeded):
        cousin_fine_partition(
            uniform_gauge(1e-5), ClosedInterval(0.0, 1.0), max_cells=1000
        )


def test_a_wide_tree_holds_less_than_its_widest_level():
    # Once a depth fills a chunk the bisection goes depth first, so the
    # pending cells (u, v and two reaches: 32 bytes a cell) stay at about
    # one chunk per depth plus block-sized temporaries.  A level-by-level
    # walk would hold at least the widest level, and its children as they
    # are made.
    g = singularity_gauge(uniform_gauge(1e-2), [0.0], sharpness=6.5e-5)

    def refine(emit):
        return refine_fine_cells(g, 0.0, 1.0, rngs=[np.random.default_rng(0)], emit=emit)

    widths = []
    refine(lambda tags, us, vs: widths.append(vs - us))
    # Level d of the bisection tree holds the cells accepted there plus
    # the parents of level d + 1.
    widest = level = 0.0
    for accepted in np.bincount(np.rint(-np.log2(np.concatenate(widths))).astype(int))[::-1]:
        level = accepted + level / 2
        widest = max(widest, level)
    assert widest > 900_000
    tracemalloc.start()
    try:
        refine(lambda tags, us, vs: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * widest


def test_the_accepted_cells_do_not_depend_on_the_chunk():
    # Which cells are accepted depends on the gauge alone, and so do the
    # midpoint-first tags of the runs with no generators; the chunk only orders
    # the walk (level by level at 1 << 19, depth first at 64 and below).
    # The gauge is still asked each point of the tree once, and a budget
    # stop never lets more cells out than the budget.
    g = singularity_gauge(uniform_gauge(0.02), [0.0], sharpness=0.05)
    asked = []

    def counted(z):
        asked.append(z.size)
        return g.window_fn(z)

    def rows(chunk):
        out = []
        refine_fine_cells(
            Gauge(counted, g.neg_ray, g.pos_ray),
            0.0,
            1.0,
            emit=lambda tags, us, vs: out.extend(zip(*tags.tolist(), us.tolist(), vs.tolist())),
            chunk=chunk,
        )
        return sorted(out)

    ref = rows(1 << 19)
    assert len(ref) > 1000
    for chunk in (1, 64, 1 << 16):
        asked.clear()
        assert rows(chunk) == ref
        if chunk == 64:
            assert sum(asked) == 2 * len(ref) + 1
    emitted = []
    with pytest.raises(CellBudgetExceeded):
        refine_fine_cells(
            g,
            0.0,
            1.0,
            rngs=[np.random.default_rng(0)],
            emit=lambda tags, us, vs: emitted.append(us.size),
            max_cells=len(ref) // 2,
            chunk=64,
        )
    assert 0 < sum(emitted) <= len(ref) // 2


def test_pinched_gauge_partition_stays_valid_and_fine():
    base = uniform_gauge(0.5)
    g = singularity_gauge(base, [0.0], sharpness=5.0)
    target = ClosedInterval(0.0, 1.0)
    p = cousin_fine_partition(g, target)
    assert validate(p) == []
    assert is_fine(p, g)
    # The pinch forces extra subdivision, and the narrowest cell hugs
    # the pinched point.  The point itself keeps its full base window,
    # so the cell tagged at 0 may stay coarse; that is the mechanism
    # that lets an undefined point sit harmlessly inside one cell.
    p_base = cousin_fine_partition(base, target)
    assert len(p.pairs) > len(p_base.pairs)
    narrowest = min(p.pairs, key=lambda pc: pc[1].length())
    widest = max(p.pairs, key=lambda pc: pc[1].length())
    assert narrowest[1].lo.value < widest[1].lo.value


def test_partitioner_queries_each_point_once():
    # A fine partition of a bounded target with c cells is a bisection
    # tree of 2c - 1 cells; the gauge is asked about both ends of the
    # target and the midpoint of each cell in the tree, nothing more.
    g = singularity_gauge(uniform_gauge(0.1), [0.0], sharpness=5.0)
    target = ClosedInterval(0.0, 1.0)
    asked = []

    def counted(z):
        asked.append(z.size)
        return g.window_fn(z)

    p = cousin_fine_partition(Gauge(counted, g.neg_ray, g.pos_ray), target)
    assert p.to_records() == cousin_fine_partition(g, target).to_records()
    assert sum(asked) == 2 * len(p) + 1


def test_riemann_sum_constant_is_exact():
    p = cousin_fine_partition(uniform_gauge(0.09), ClosedInterval(0.0, 2.0))
    assert riemann_sum(lambda x: np.full_like(x, 3.0), p) == pytest.approx(6.0, abs=1e-12)


def test_riemann_sum_skips_unbounded_cells():
    p = cousin_fine_partition(
        uniform_gauge(0.5, tail_cutoff=4.0), ClosedInterval(0.0, math.inf)
    )

    def f(x):
        # Would blow up toward infinity, but infinite-tag cells are never
        # evaluated and carry zero length.
        return np.exp(np.clip(x, None, 50.0))

    s = riemann_sum(f, p)
    assert math.isfinite(s)


def test_riemann_sum_accepts_scalar_only_callables():
    p = cousin_fine_partition(uniform_gauge(0.25), ClosedInterval(0.0, 1.0))

    def scalar_only(x):
        if isinstance(x, np.ndarray) and x.size > 1:
            raise TypeError("scalars only")
        return float(x) ** 2

    v = riemann_sum(scalar_only, p)
    w = riemann_sum(lambda x: np.asarray(x) ** 2, p)
    assert v == pytest.approx(w, abs=0.0)


def test_riemann_sum_rejects_nonfinite_values():
    p = cousin_fine_partition(uniform_gauge(0.25), ClosedInterval(0.0, 1.0))
    with pytest.raises(EvaluatorDomainError):
        riemann_sum(lambda x: np.where(x > 0.4, np.nan, 1.0), p)


def test_riemann_sum_order_independent():
    g = uniform_gauge(0.01)
    p = cousin_fine_partition(g, ClosedInterval(0.0, 1.0), seed=3)
    rev = TaggedPartition(p.target, list(reversed(p.pairs)))
    f = lambda x: np.sin(17.0 * x)
    assert riemann_sum(f, p) == riemann_sum(f, rev)


def test_validate_reports_gap_overlap_and_stray_tags():
    t = ClosedInterval(0.0, 1.0)
    gap = TaggedPartition(
        t,
        [(ext(0.1), ClosedInterval(0.0, 0.4)), (ext(0.8), ClosedInterval(0.6, 1.0))],
    )
    assert any("gap" in v for v in validate(gap))
    overlap = TaggedPartition(
        t,
        [(ext(0.2), ClosedInterval(0.0, 0.6)), (ext(0.7), ClosedInterval(0.4, 1.0))],
    )
    assert any("overlap" in v for v in validate(overlap))
    stray = TaggedPartition(t, [(ext(2.0), ClosedInterval(0.0, 1.0))])
    assert any("outside its cell" in v for v in validate(stray))
    overhang = TaggedPartition(t, [(ext(0.5), ClosedInterval(0.0, 1.5))])
    assert any("outside target" in v for v in validate(overhang))
    short = TaggedPartition(t, [(ext(0.2), ClosedInterval(0.0, 0.5))])
    assert any("coverage ends" in v for v in validate(short))
    assert validate(TaggedPartition(t, [])) != []


def test_to_records_uses_string_infinities():
    p = cousin_fine_partition(
        uniform_gauge(0.5, tail_cutoff=2.0), ClosedInterval(-math.inf, 0.0)
    )
    recs = p.to_records()
    assert recs[0]["tag"] == "-inf"
    assert recs[0]["lo"] == "-inf"
    assert all(isinstance(r["hi"], (int, float)) for r in recs)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-100.0, 100.0),
    st.floats(0.1, 50.0),
    st.floats(0.02, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_partition_property(lo, width, delta, seed):
    """Cousin's lemma, numerically: every uniform gauge admits a fine partition."""
    target = ClosedInterval(lo, lo + width)
    g = uniform_gauge(delta * width)
    p = cousin_fine_partition(g, target, seed=seed)
    assert validate(p) == []
    assert is_fine(p, g)
    assert math.fsum(cell_lengths(p)) == pytest.approx(width, rel=1e-9)
