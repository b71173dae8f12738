"""Tag choice in the bisection partitioner, and the sums built on it.

Which cells the partitioner accepts depends on the gauge and the
undefined tags alone, so several runs bisect once.  With no generators
there are two runs, each tagging midpoint first, one trying u before v
and one v before u: the first is an hk level's partition, and the cells
where they differ measure how far an open tag choice can move its sum.
With generators, as in ``hk_sum_spread``, each run draws its own tag
orders, exactly as it would bisecting alone.
"""
import hashlib
import math

import numpy as np
import pytest

from gaugequad import (
    ClosedInterval,
    EvaluatorDomainError,
    Gauge,
    IntegratorConfig,
    enumeration_gauge,
    hk_integrate,
    hk_sum_spread,
    intersect_gauges,
    rational_enumeration,
    singularity_gauge,
    uniform_gauge,
)
from gaugequad import integrator, partition
from gaugequad.partition import _carve_ends, refine_fine_cells

UNIT = ClosedInterval(0.0, 1.0)
HALF_LINE = ClosedInterval(0.0, math.inf)
LINE = ClosedInterval(-math.inf, math.inf)


def _hash01(z, c):
    return np.abs(np.sin(z * c) * 43758.5453) % 1.0


def _rough_windows(z):
    # Independent left and right reaches.  Under a symmetric gauge an
    # endpoint that fits a child cell is the parent's fitting midpoint,
    # so below the root a midpoint-first tag never falls back to an
    # endpoint; here it does, and a cell can fit both endpoints but not
    # its midpoint.
    return z - 0.1 * _hash01(z, 12.9898) ** 2 - 1e-3, z + 0.1 * _hash01(z, 78.233) ** 2 + 1e-3


ROUGH = Gauge(_rough_windows, -1.0, 1.0, "rough")
POINTS = rational_enumeration(200)
_SORTED = np.sort(POINTS)
ENUM = intersect_gauges(
    ROUGH, enumeration_gauge(POINTS, 1e-6, base=uniform_gauge(1.0 / 64.0, 8.0), prefix=200)
)


def rational_indicator(x):
    idx = np.clip(np.searchsorted(_SORTED, x), 0, _SORTED.size - 1)
    return (_SORTED[idx] == x).astype(float)


def _emits(gauge, target, seeds=(), undefined=(), chunk=1 << 19):
    lo_f, hi_f = _carve_ends(gauge, target)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
    out = []
    refine_fine_cells(
        gauge,
        lo_f,
        hi_f,
        rngs=rngs,
        emit=lambda *rows: out.append(rows),
        undefined_tags=undefined,
        chunk=chunk,
    )
    return out


@pytest.mark.parametrize(
    "gauge, target, undefined, chunk",
    [
        (intersect_gauges(ROUGH, uniform_gauge(0.05, 8.0)), UNIT, (), 1 << 19),
        (intersect_gauges(ROUGH, uniform_gauge(0.05, 8.0)), LINE, (), 64),
        (
            intersect_gauges(ROUGH, singularity_gauge(uniform_gauge(0.1, 8.0), [0.0, 0.5], 1.0)),
            UNIT,
            (0.0, 0.5),
            1 << 19,
        ),
        (
            intersect_gauges(ROUGH, singularity_gauge(uniform_gauge(0.1, 8.0), [0.0], 1.0)),
            HALF_LINE,
            (0.0,),
            64,
        ),
        (ENUM, UNIT, (), 1 << 19),
        (ENUM, HALF_LINE, (), 64),
    ],
)
def test_each_run_draws_the_tags_it_would_draw_alone(gauge, target, undefined, chunk):
    seeds = [[7, 0, r] for r in range(3)]
    shared = _emits(gauge, target, seeds, undefined, chunk)
    assert all(tags.shape == (3, us.size) for tags, us, _ in shared)
    for r, seed in enumerate(seeds):
        alone = _emits(gauge, target, [seed], undefined, chunk)
        assert len(alone) == len(shared)
        for (tags, us, vs), (tags_r, us_r, vs_r) in zip(shared, alone):
            assert np.array_equal(tags[r], tags_r[0])
            assert np.array_equal(us, us_r) and np.array_equal(vs, vs_r)
    # The runs do draw different tags, so the rows are not copies.
    tags = np.concatenate([t for t, _, _ in shared], axis=1)
    assert not np.array_equal(tags[0], tags[1]) or not np.array_equal(tags[0], tags[2])


# Frozen digests of every emit of refine_fine_cells (tags, us and vs,
# bytes and shapes).  No tree here fills a 1 << 19 chunk, so those keys
# pin the level-by-level walk; the smaller chunks pin the depth-first
# steps of trees that fill a chunk, down to one cell a step.  "random"
# keys draw from `runs` generators, "midpoint" keys are the two runs made
# with none.  Blocks only bound the temporaries; the chunk fixes order, draws
# and emit batches.
EMIT_CASES = {
    "rough-line": (intersect_gauges(ROUGH, uniform_gauge(0.05, 8.0)), LINE, ()),
    "sing-undefined": (
        intersect_gauges(ROUGH, singularity_gauge(uniform_gauge(0.1, 8.0), [0.0, 0.5], 1.0)),
        UNIT,
        (0.0, 0.5),
    ),
    "enum-half": (ENUM, HALF_LINE, ()),
}
EMIT_DIGESTS = {
    ('rough-line', 'midpoint', 2, 1): 'd4e16c2907301adf',
    ('rough-line', 'midpoint', 2, 8): 'abccbf13addaf99c',
    ('rough-line', 'midpoint', 2, 64): '405a5a3a0f6f507d',
    ('rough-line', 'midpoint', 2, 1 << 19): '08786d19cffffad2',
    ('rough-line', 'random', 1, 64): '3dc4141ebd9b30dc',
    ('rough-line', 'random', 1, 1 << 19): 'e803650bc27ea321',
    ('rough-line', 'random', 3, 64): '4c8096508c1bb6cd',
    ('rough-line', 'random', 3, 1 << 19): '02116dd8e1e5ce21',
    ('sing-undefined', 'midpoint', 2, 1): 'aa2e8b4a9523beaf',
    ('sing-undefined', 'midpoint', 2, 8): 'db838722d517473c',
    ('sing-undefined', 'midpoint', 2, 64): 'caf59c7157ba00c5',
    ('sing-undefined', 'midpoint', 2, 1 << 19): '545b1dd1bfa6eac4',
    ('sing-undefined', 'random', 1, 64): '7306f4df622d32c8',
    ('sing-undefined', 'random', 1, 1 << 19): '9730d2ee7624351d',
    ('sing-undefined', 'random', 3, 64): '2b585b2949d3f18d',
    ('sing-undefined', 'random', 3, 1 << 19): 'eb41428d971e35de',
    ('enum-half', 'midpoint', 2, 1): 'b2157b005a4f72a2',
    ('enum-half', 'midpoint', 2, 8): '256b18da3e19e184',
    ('enum-half', 'midpoint', 2, 64): 'e359402b2468d1e1',
    ('enum-half', 'midpoint', 2, 1 << 19): '7dec08799c7bbb53',
    ('enum-half', 'random', 1, 64): '5007abb53a6218f9',
    ('enum-half', 'random', 1, 1 << 19): '462cbb097ec751cd',
    ('enum-half', 'random', 3, 64): '6424c7fc3d28b18e',
    ('enum-half', 'random', 3, 1 << 19): '2a7fa45173674178',
}


def _emits_digest(records) -> str:
    h = hashlib.sha256()
    for rows in records:
        for a in rows:
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 14])
@pytest.mark.parametrize("key", sorted(EMIT_DIGESTS))
def test_block_size_moves_no_emitted_bit(key, block, monkeypatch):
    name, order, runs, chunk = key
    gauge, target, undefined = EMIT_CASES[name]
    monkeypatch.setattr(partition, "_BLOCK", block)
    seeds = [[3, 1, r] for r in range(runs)] if order == "random" else ()
    records = _emits(gauge, target, seeds, undefined, chunk)
    assert _emits_digest(records) == EMIT_DIGESTS[key]


# Frozen digests of (value, error, status, evaluations, trace) of
# hk_integrate and of the SumSpread of hk_sum_spread, for seeds 0-2.
# hk_integrate draws nothing, so its seeds share one digest; the spread
# digests pin every run's tags and the order of its sums bit for bit.
# Under ENUM and ROUGH, enum-half and gauss-line end INCONCLUSIVE, 6.6e-5
# and 2.0e-5 off at tol 1e-5: their levels' tag spread keeps the error
# above tolerance; the level gap alone would let them converge.
HK_CASES = {
    "smooth": (lambda x: np.sin(3 * x) + x * x, UNIT, dict(gauge_override=ROUGH)),
    "inv-sqrt": (
        lambda x: 1 / np.sqrt(x),
        UNIT,
        dict(singular_points=(0.0,), max_refinements=1),
    ),
    "gauss-line": (lambda x: np.exp(-x * x), LINE, dict(gauge_override=ROUGH)),
    "enum-unit": (lambda x: np.cos(x) + rational_indicator(x), UNIT, dict(gauge_override=ENUM)),
    "enum-half": (
        lambda x: np.exp(-x) * (1 + rational_indicator(x)),
        HALF_LINE,
        dict(gauge_override=ENUM),
    ),
}
SPREAD_CASES = {
    "sing-unit": (
        lambda x: np.sin(5 * x),
        singularity_gauge(uniform_gauge(0.05), [0.5], 1.0),
        UNIT,
        {},
    ),
    "enum-unit": (lambda x: np.cos(x) + rational_indicator(x), ENUM, UNIT, {}),
    "exp-half": (lambda x: np.exp(-x), intersect_gauges(ROUGH, uniform_gauge(0.25, 8.0)), HALF_LINE, {}),
    "inv-sqrt": (
        lambda x: 1 / np.sqrt(x),
        singularity_gauge(uniform_gauge(0.1), [0.0], 1.0),
        UNIT,
        dict(singular_points=(0.0,)),
    ),
}
DIGESTS = {
    ('hk', 'enum-half', 0): 'a1f0c21c65357b01',
    ('hk', 'enum-half', 1): 'a1f0c21c65357b01',
    ('hk', 'enum-half', 2): 'a1f0c21c65357b01',
    ('hk', 'enum-unit', 0): 'f6ceff3c0a4e0311',
    ('hk', 'enum-unit', 1): 'f6ceff3c0a4e0311',
    ('hk', 'enum-unit', 2): 'f6ceff3c0a4e0311',
    ('hk', 'gauss-line', 0): '36fa3fd19717a518',
    ('hk', 'gauss-line', 1): '36fa3fd19717a518',
    ('hk', 'gauss-line', 2): '36fa3fd19717a518',
    ('hk', 'inv-sqrt', 0): '77790f22dea86042',
    ('hk', 'inv-sqrt', 1): '77790f22dea86042',
    ('hk', 'inv-sqrt', 2): '77790f22dea86042',
    ('hk', 'smooth', 0): '9565c824de5c976b',
    ('hk', 'smooth', 1): '9565c824de5c976b',
    ('hk', 'smooth', 2): '9565c824de5c976b',
    ('spread', 'enum-unit', 0): '238fd054555042ff',
    ('spread', 'enum-unit', 1): 'b024284cfabaa3b9',
    ('spread', 'enum-unit', 2): '189191346ca54ba7',
    ('spread', 'exp-half', 0): '6558e23e671d3ee3',
    ('spread', 'exp-half', 1): '9427a7e7a7f1a949',
    ('spread', 'exp-half', 2): '3100828a05cecb8c',
    ('spread', 'inv-sqrt', 0): '8958dcbf8f751c23',
    ('spread', 'inv-sqrt', 1): 'e181d7900f886df7',
    ('spread', 'inv-sqrt', 2): '9540341030a73f5f',
    ('spread', 'sing-unit', 0): '33a156df3877368c',
    ('spread', 'sing-unit', 1): '21edd98172f61280',
    ('spread', 'sing-unit', 2): '52563e8df828d5d0',
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(HK_CASES))
def test_hk_integrate_trace_is_unchanged(name, seed):
    f, target, kw = HK_CASES[name]
    cfg = IntegratorConfig(seed=seed, **{"tol": 1e-5, "max_refinements": 6, **kw})
    r = hk_integrate(f, target, cfg)
    got = _digest((r.value, r.error_estimate, r.status.value, r.evaluations, r.trace))
    assert got == DIGESTS[("hk", name, seed)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(SPREAD_CASES))
def test_hk_sum_spread_is_unchanged(name, seed):
    f, gauge, target, kw = SPREAD_CASES[name]
    spread = hk_sum_spread(f, gauge, target, 5, IntegratorConfig(seed=seed, **kw))
    assert _digest(spread) == DIGESTS[("spread", name, seed)]


def test_one_tree_and_one_evaluation_per_emit(monkeypatch):
    # A counting gauge sees 2c + 1 points for a level of c cells, and the
    # integrand is called once per block of _CHUNK_ELEMS cells of each
    # emitted batch.  The gauge is symmetric, so no cell's tag is open and
    # each cell is one point: the evaluations are the integrand's points
    # less the two-point probe of the vector adapter.
    seen, calls, points, emitted = [0], [0], [0], []

    def counted(z):
        seen[0] += z.size
        return uniform_gauge(1e3).window_fn(z)

    def f(x):
        calls[0] += 1
        points[0] += np.size(x)
        return np.sin(3 * x)

    def refine(*args, emit, **kw):
        def counted_emit(tags, us, vs):
            emitted.append(us.size)
            emit(tags, us, vs)

        return refine_fine_cells(*args, emit=counted_emit, **kw)

    monkeypatch.setattr(integrator, "refine_fine_cells", refine)
    monkeypatch.setattr(integrator, "_CHUNK_ELEMS", 16)
    cfg = IntegratorConfig(tol=1e-15, max_refinements=4, gauge_override=Gauge(counted, -1e3, 1e3))
    res = hk_integrate(f, UNIT, cfg)
    assert [k for k, _ in res.trace] == [0, 1, 2, 3, 4]
    assert seen[0] == 2 * res.evaluations + len(res.trace)
    assert max(emitted) > 16
    assert calls[0] - 1 == sum(-(-n // 16) for n in emitted)
    assert points[0] - 2 == res.evaluations == sum(emitted)


def test_runs_that_drew_one_tag_share_its_evaluation(monkeypatch):
    # ROUGH makes cells that fit both endpoints but not their midpoint.
    # There the two midpoint-first runs of a level draw u and v, and only
    # there is the integrand asked a second point; every other cell is one
    # point.  The error is the level gap plus the tag spread: each open
    # cell's width times |f(u) - f(v)|.
    f, target, kw = HK_CASES["gauss-line"]
    points, levels = [0], []

    def counted(x):
        points[0] += np.size(x)
        return f(x)

    def refine(*args, emit, **kw):
        levels.append([])
        return refine_fine_cells(*args, emit=lambda *rows: (levels[-1].append(rows), emit(*rows)), **kw)

    monkeypatch.setattr(integrator, "refine_fine_cells", refine)
    res = hk_integrate(counted, target, IntegratorConfig(tol=1e-5, max_refinements=6, **kw))
    open_cells = sum(int((t[0] != t[1]).sum()) for level in levels for t, _, _ in level)
    cells = sum(us.size for level in levels for _, us, _ in level)
    assert 0 < open_cells < cells
    assert points[0] - 2 == res.evaluations == cells + open_cells
    tags, us, vs = (np.hstack(col) for col in zip(*levels[-1]))
    spread = np.sum(np.abs(f(tags[0]) - f(tags[1])) * (vs - us))
    gap = abs(res.trace[-1][1] - res.trace[-2][1])
    assert spread > 0
    assert res.error_estimate == pytest.approx(gap + spread, rel=1e-12)


def test_hk_integrate_does_not_depend_on_the_seed():
    # ROUGH makes cells that fit both endpoints but not their midpoint,
    # where a drawn endpoint order would move the sums.  Each level is
    # one midpoint-first partition: one sum, one trace entry.
    f, target, kw = HK_CASES["smooth"]
    fields = []
    for seed in (0, 1, 2):
        r = hk_integrate(f, target, IntegratorConfig(seed=seed, tol=1e-5, max_refinements=6, **kw))
        assert [k for k, _ in r.trace] == list(range(len(r.trace)))
        fields.append((r.value, r.error_estimate, r.status, r.evaluations, r.trace))
    assert fields[0] == fields[1] == fields[2]


@pytest.mark.parametrize("name", ["rough-unit", "rough-line", "enum-half"])
def test_no_generator_tags_midpoint_then_u_then_v(name):
    gauge, target, _ = {"rough-unit": (ROUGH, UNIT, ()), **EMIT_CASES}[name]
    records = _emits(gauge, target, chunk=64)
    tags, us, vs = (np.hstack(col) for col in zip(*records))
    assert tags.shape == (2, us.size)
    ms = us + 0.5 * (vs - us)

    def holds(z):
        glo, ghi = gauge.windows(z)
        return (glo < us) & (vs < ghi)

    fit_m, fit_u, fit_v = holds(ms), holds(us), holds(vs)
    assert np.all(fit_m | fit_u | fit_v)
    assert np.array_equal(tags[0], np.where(fit_m, ms, np.where(fit_u, us, vs)))
    assert np.array_equal(tags[1], np.where(fit_m, ms, np.where(fit_v, vs, us)))
    # Both fallbacks are taken, and some cells fit both endpoints only.
    assert np.any(~fit_m & fit_u) and np.any(~fit_m & ~fit_u)
    assert np.any(~fit_m & fit_u & fit_v)


def _fine_rough_windows(z):
    # Asymmetric windows a few 2**-18 wide: on [0, 0.6] each hk level
    # emits up to 63,808 cells at once.
    scale = 2.0**-18
    return z - scale * (0.5 + 2 * _hash01(z, 12.9898)), z + scale * (0.5 + 2 * _hash01(z, 78.233))


def test_emit_evaluation_blocks_move_no_bit(monkeypatch):
    target = ClosedInterval(0.0, 0.6)
    rough = Gauge(_fine_rough_windows, -1.0, 1.0)
    cfg = IntegratorConfig(tol=1e-6, max_refinements=1, gauge_override=rough)
    seen = []

    def f(x):
        return np.sin(3 * x) + x * x

    def fields(g):
        r = hk_integrate(g, target, cfg)
        return r.value, r.error_estimate, r.status, r.evaluations, r.trace

    def recorded(x):
        seen.append(np.array(x, dtype=float))
        return f(x)

    # Emits hold at most one 1 << 16 chunk of cells, so smaller blocks
    # are what split an emit.
    monkeypatch.setattr(integrator, "_CHUNK_ELEMS", 1 << 14)
    ref = fields(recorded)
    # The first full block starts the first large emit, and the next call
    # is its second block.  Poison two of its tags that no earlier call
    # saw: the first of them is named.
    first = next(i for i, x in enumerate(seen) if x.size == integrator._CHUNK_ELEMS)
    late = seen[first + 1]
    late = late[~np.isin(late, np.concatenate(seen[: first + 1]))][[10, 20]]

    def poisoned(x):
        return np.where((x == late[0]) | (x == late[1]), np.nan, f(x))

    for size in (1, 7, 1 << 16):
        monkeypatch.setattr(integrator, "_CHUNK_ELEMS", size)
        assert fields(f) == ref
        with pytest.raises(EvaluatorDomainError) as bad:
            hk_integrate(poisoned, target, cfg)
        assert bad.value.tag == late[0]
        assert str(bad.value) == f"evaluator returned a non-finite value at tag {float(late[0])!r}"
