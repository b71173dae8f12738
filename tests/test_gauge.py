import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequad import (
    NEG_INF,
    POS_INF,
    ClosedInterval,
    Gauge,
    OpenInterval,
    TaggedPartition,
    cousin_fine_partition,
    enumeration_gauge,
    ext,
    intersect_gauges,
    is_fine,
    rational_enumeration,
    singularity_gauge,
    uniform_gauge,
)
from gaugequad.extreal import closed_subset_of_open
from gaugequad.integrator import _reflect_gauge

finite = st.floats(-1e5, 1e5)


def test_uniform_gauge_window_width():
    g = uniform_gauge(0.5)
    w = g.assign(ext(3.0))
    lo, hi = w.float_bounds()
    assert lo < 3.0 < hi
    assert hi - lo == pytest.approx(0.5, rel=1e-12)


def test_uniform_gauge_rays_at_the_ends():
    g = uniform_gauge(0.5, tail_cutoff=100.0)
    below = g.assign(NEG_INF)
    above = g.assign(POS_INF)
    assert below.includes_neg_inf and below.hi == ext(-100.0)
    assert above.includes_pos_inf and above.lo == ext(100.0)
    # An unbounded end cell carved inside the ray is fine for the gauge.
    assert below.contains(ext(-101.0))
    assert not below.contains(ext(-100.0))


def test_uniform_gauge_rejects_bad_parameters():
    with pytest.raises(ValueError):
        uniform_gauge(0.0)
    with pytest.raises(ValueError):
        uniform_gauge(-1.0)
    with pytest.raises(ValueError):
        uniform_gauge(math.inf)
    with pytest.raises(ValueError):
        uniform_gauge(1.0, tail_cutoff=0.0)


@given(finite, st.floats(1e-6, 10.0))
def test_uniform_windows_match_assign(x, delta):
    g = uniform_gauge(delta)
    lo_a, hi_a = g.assign(ext(x)).float_bounds()
    lo_v, hi_v = g.windows(np.array([x]))
    assert lo_v[0] == lo_a
    assert hi_v[0] == hi_a
    assert lo_a < x < hi_a  # strict membership survives rounding


def test_singularity_gauge_quadratic_pinch():
    base = uniform_gauge(1.0)
    g = singularity_gauge(base, [0.0], sharpness=0.1)
    for d in (0.5, 0.1, 0.01):
        lo, hi = g.assign(ext(d)).float_bounds()
        width = hi - lo
        assert width <= 2 * 0.1 * d * d * (1 + 1e-9)
        assert width > 0
    # Far away the base window rules.
    lo, hi = g.assign(ext(100.0)).float_bounds()
    assert hi - lo == pytest.approx(1.0, rel=1e-9)


def test_singularity_gauge_keeps_full_window_at_the_point():
    # The singular point itself is not pinched: its cell carries the tag
    # where the integrand is undefined, and the engine zeroes that term.
    base = uniform_gauge(0.25)
    g = singularity_gauge(base, [2.0], sharpness=1e-3)
    lo, hi = g.assign(ext(2.0)).float_bounds()
    assert hi - lo == pytest.approx(0.25, rel=1e-9)


def test_singularity_gauge_nearest_point_wins():
    base = uniform_gauge(10.0)
    g = singularity_gauge(base, [0.0, 1.0], sharpness=1.0)
    lo, hi = g.assign(ext(0.9)).float_bounds()
    # Distance 0.1 to the point at 1, not 0.9 to the origin.
    assert hi - lo <= 2 * 1.0 * 0.1**2 * (1 + 1e-9)


@given(st.floats(-50.0, 50.0))
def test_singularity_windows_match_assign(x):
    g = singularity_gauge(uniform_gauge(2.0), [-1.0, 3.0], sharpness=0.5)
    lo_a, hi_a = g.assign(ext(x)).float_bounds()
    lo_v, hi_v = g.windows(np.array([x]))
    assert lo_v[0] == pytest.approx(lo_a, abs=0.0)
    assert hi_v[0] == pytest.approx(hi_a, abs=0.0)


def test_singularity_gauge_validates_inputs():
    base = uniform_gauge(1.0)
    with pytest.raises(ValueError):
        singularity_gauge(base, [], sharpness=1.0)
    with pytest.raises(ValueError):
        singularity_gauge(base, [math.inf], sharpness=1.0)
    with pytest.raises(ValueError):
        singularity_gauge(base, [0.0], sharpness=0.0)


def test_enumeration_gauge_budget():
    """Total width of enumerated windows stays below epsilon.

    This is the inequality that makes countable sets null: the k-th
    point gets about eps * 2**-(k+2), summing to less than eps.
    """
    pts = rational_enumeration(512)
    eps = 1e-3
    g = enumeration_gauge(pts, eps, base=uniform_gauge(1.0))
    lo, hi = g.windows(pts)
    assert np.all(lo < pts) and np.all(pts < hi)
    total = float(np.sum(hi - lo))
    assert total <= eps


def test_enumeration_gauge_geometric_decay():
    pts = [0.1, 0.2, 0.3, 0.4]
    g = enumeration_gauge(pts, 1e-2, base=uniform_gauge(1.0))
    widths = []
    for p in pts:
        lo, hi = g.assign(ext(p)).float_bounds()
        widths.append(hi - lo)
    assert widths[0] <= 1e-2 / 2
    for a, b in zip(widths, widths[1:]):
        assert b <= a / 2 * (1 + 1e-9)


def test_enumeration_gauge_first_occurrence_wins():
    # A repeated point keeps the window of its first index; the repeat
    # only burns a slot in the enumeration.
    g = enumeration_gauge([0.5, 0.5, 0.7], 1e-2, base=uniform_gauge(1.0))
    lo0, hi0 = g.assign(ext(0.5)).float_bounds()
    lo2, hi2 = g.assign(ext(0.7)).float_bounds()
    # Index 0 versus index 2: widths in ratio 2**2.
    assert (hi0 - lo0) / (hi2 - lo2) == pytest.approx(4.0, rel=1e-9)


def test_enumeration_gauge_untouched_points_keep_base():
    g = enumeration_gauge([0.5], 1e-2, base=uniform_gauge(0.25))
    lo, hi = g.assign(ext(10.0)).float_bounds()
    assert hi - lo == pytest.approx(0.25, rel=1e-9)


def test_enumeration_gauge_prefix_truncation():
    pts = rational_enumeration(100)
    g = enumeration_gauge(pts, 1e-2, base=uniform_gauge(0.25), prefix=10)
    # Point 50 in the enumeration was never materialized.
    lo, hi = g.assign(ext(float(pts[50]))).float_bounds()
    assert hi - lo == pytest.approx(0.25, rel=1e-6)


def test_enumeration_gauge_validates_inputs():
    with pytest.raises(ValueError):
        enumeration_gauge([0.5], 0.0, base=uniform_gauge(1.0))
    with pytest.raises(ValueError):
        enumeration_gauge([], 1e-3, base=uniform_gauge(1.0))
    with pytest.raises(ValueError):
        enumeration_gauge([math.nan], 1e-3, base=uniform_gauge(1.0))
    # Epsilon below the accumulated rounding floor for this many points.
    with pytest.raises(ValueError):
        enumeration_gauge(rational_enumeration(1000), 1e-13, base=uniform_gauge(1.0))


@given(st.floats(-20.0, 20.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_intersect_gauges_is_pointwise_intersection(x, d1, d2):
    g1 = uniform_gauge(d1)
    g2 = singularity_gauge(uniform_gauge(d2), [0.0], sharpness=0.3)
    gi = intersect_gauges(g1, g2)
    lo1, hi1 = g1.assign(ext(x)).float_bounds()
    lo2, hi2 = g2.assign(ext(x)).float_bounds()
    lo, hi = gi.assign(ext(x)).float_bounds()
    assert lo == max(lo1, lo2)
    assert hi == min(hi1, hi2)
    lo_v, hi_v = gi.windows(np.array([x]))
    assert lo_v[0] == lo and hi_v[0] == hi


END_RAY_CASES = {
    "uniform": (lambda: uniform_gauge(0.5, tail_cutoff=100.0), -100.0, 100.0),
    "singularity": (
        lambda: singularity_gauge(uniform_gauge(1.0, 50.0), [0.0, 3.0], 0.5),
        -50.0,
        50.0,
    ),
    "enumeration": (
        lambda: enumeration_gauge([0.5, 0.25], 1e-2, base=uniform_gauge(0.25, 20.0)),
        -20.0,
        20.0,
    ),
    "intersect": (
        lambda: intersect_gauges(uniform_gauge(1.0, 30.0), uniform_gauge(2.0, 70.0)),
        -70.0,
        70.0,
    ),
    "reflection": (
        lambda: _reflect_gauge(singularity_gauge(uniform_gauge(1.0, 40.0), [2.0], 0.5)),
        -40.0,
        40.0,
    ),
}


@pytest.mark.parametrize("kind", sorted(END_RAY_CASES))
def test_end_rays(kind):
    make, below, above = END_RAY_CASES[kind]
    g = make()
    assert g.assign(NEG_INF) == OpenInterval.ray_below(below)
    assert g.assign(POS_INF) == OpenInterval.ray_above(above)
    if kind == "reflection":
        for x in (-2.0, -1.5, 0.0, 1.25):
            lo_v, hi_v = g.windows(np.array([x]))
            assert g.assign(ext(x)).float_bounds() == (lo_v[0], hi_v[0])
        # Asymmetric rays swap sides under u -> -u.
        lopsided = Gauge(uniform_gauge(1.0).window_fn, -3.0, 7.0)
        assert _reflect_gauge(lopsided).assign(NEG_INF) == OpenInterval.ray_below(-7.0)
        assert _reflect_gauge(lopsided).assign(POS_INF) == OpenInterval.ray_above(3.0)


def test_is_fine_accepts_and_rejects():
    g = uniform_gauge(0.5)
    target = ClosedInterval(0.0, 1.0)
    fine_cells = [
        (ext(0.1), ClosedInterval(0.0, 0.25)),
        (ext(0.4), ClosedInterval(0.25, 0.5)),
        (ext(0.6), ClosedInterval(0.5, 0.75)),
        (ext(0.9), ClosedInterval(0.75, 1.0)),
    ]
    assert is_fine(TaggedPartition(target, fine_cells), g)
    coarse = [(ext(0.5), ClosedInterval(0.0, 1.0))]
    assert not is_fine(TaggedPartition(target, coarse), g)


def test_is_fine_checks_the_tag_not_the_cell_center():
    g = uniform_gauge(0.5)
    target = ClosedInterval(0.0, 1.0)
    # Cell fits inside some window of width 0.5 but not the one at its tag.
    cells = [
        (ext(0.0), ClosedInterval(0.0, 0.3)),
        (ext(0.65), ClosedInterval(0.3, 1.0)),
    ]
    assert not is_fine(TaggedPartition(target, cells), g)


def _cellwise_is_fine(partition, gauge):
    return all(closed_subset_of_open(cell, gauge.assign(tag)) for tag, cell in partition)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["uniform", "singularity", "enumeration"]),
    st.sampled_from([(0.0, 3.0), (-2.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)]),
    st.floats(0.0, 0.3),
    st.integers(0, 2**32 - 1),
)
def test_is_fine_matches_the_cellwise_reference(kind, ends, perturb, seed):
    base = uniform_gauge(0.4, tail_cutoff=5.0)
    g = {
        "uniform": base,
        "singularity": singularity_gauge(base, [0.5], sharpness=50.0),
        "enumeration": enumeration_gauge(rational_enumeration(200), 1e-2, base=base),
    }[kind]
    target = ClosedInterval(*ends)
    rng = np.random.default_rng(seed)
    pairs = []
    for tag, cell in cousin_fine_partition(g, target, seed=seed % 97):
        roll = rng.random()
        if roll < perturb / 3 and cell.is_bounded:
            tag = ext(rng.uniform(cell.lo.value, cell.hi.value))
        elif roll < 2 * perturb / 3:
            tag = cell.lo if rng.random() < 0.5 else cell.hi
        elif roll < perturb:
            cell = ClosedInterval(cell.lo, cell.hi.as_float() + 0.3)
        pairs.append((tag, cell))
    p = TaggedPartition(target, pairs)
    # Windows as wide as the narrowest cell, and rays at the finite ends
    # of the end cells, put cell ends exactly on window ends.
    width = float(np.min(p.hi - p.lo))
    edges = Gauge(uniform_gauge(2 * width).window_fn, float(np.min(p.hi)), float(np.max(p.lo)))
    for gauge in (g, uniform_gauge(0.3, tail_cutoff=7.0), edges):
        assert is_fine(p, gauge) == _cellwise_is_fine(p, gauge)
        for pair in pairs:
            one = TaggedPartition(target, [pair])
            assert is_fine(one, gauge) == _cellwise_is_fine(one, gauge)


def test_is_fine_asks_the_window_map_once():
    g = singularity_gauge(uniform_gauge(0.5, tail_cutoff=4.0), [0.0], sharpness=5.0)
    sizes = []

    def counted(z):
        sizes.append(z.size)
        return g.window_fn(z)

    p = cousin_fine_partition(g, ClosedInterval(-math.inf, math.inf))
    assert is_fine(p, Gauge(counted, g.neg_ray, g.pos_ray))
    assert sizes == [len(p) - 2]


def test_rational_enumeration_prefix_and_range():
    pts = rational_enumeration(7)
    assert list(pts[:5]) == [0.0, 1.0, 0.5, 1 / 3, 2 / 3]
    assert list(pts[5:]) == [0.25, 0.75]


def test_rational_enumeration_unique_and_in_unit_interval():
    pts = rational_enumeration(5000)
    assert pts.size == 5000
    assert np.unique(pts).size == 5000
    assert float(pts.min()) >= 0.0 and float(pts.max()) <= 1.0
