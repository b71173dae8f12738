"""The stability runs of one gauge level share one bisection tree.

Which cells the partitioner accepts depends on the gauge and the
undefined tags alone; only the tag choice draws random numbers.  So
several runs bisect once and each draws its own tags, exactly as it
would bisecting alone.
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
    # so below the root the endpoint coin of "midpoint_first" never
    # matters; here it does.
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


def _emits(gauge, target, seeds, policy, undefined=(), chunk=1 << 19):
    lo_f, hi_f = _carve_ends(gauge, target)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
    out = []
    refine_fine_cells(
        gauge,
        lo_f,
        hi_f,
        rngs=rngs,
        emit=lambda *rows: out.append(rows),
        policy=policy,
        undefined_tags=undefined,
        chunk=chunk,
    )
    return out


@pytest.mark.parametrize("policy", ["random", "midpoint_first"])
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
def test_each_run_draws_the_tags_it_would_draw_alone(gauge, target, undefined, chunk, policy):
    seeds = [[7, 0, r] for r in range(3)]
    shared = _emits(gauge, target, seeds, policy, undefined, chunk)
    assert all(tags.shape == (3, us.size) for tags, us, _ in shared)
    for r, seed in enumerate(seeds):
        alone = _emits(gauge, target, [seed], policy, undefined, chunk)
        assert len(alone) == len(shared)
        for (tags, us, vs), (tags_r, us_r, vs_r) in zip(shared, alone):
            assert np.array_equal(tags[r], tags_r[0])
            assert np.array_equal(us, us_r) and np.array_equal(vs, vs_r)
    # The runs do draw different tags, so the rows are not copies.
    tags = np.concatenate([t for t, _, _ in shared], axis=1)
    assert not np.array_equal(tags[0], tags[1]) or not np.array_equal(tags[0], tags[2])


# Frozen digests of every emit of refine_fine_cells (tags, us and vs,
# bytes and shapes).  No tree here fills a 1 << 19 chunk, so those keys
# pin the level-by-level walk; the 64 keys pin the depth-first steps of
# trees that fill a chunk.  Blocks only bound the temporaries; the chunk
# fixes order, draws and emit batches.
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
    ('rough-line', 'midpoint_first', 1, 64): '1bce8565d3d0c797',
    ('rough-line', 'midpoint_first', 1, 1 << 19): '1184bd8df13b4f44',
    ('rough-line', 'midpoint_first', 3, 64): 'e923bb60e22d149f',
    ('rough-line', 'midpoint_first', 3, 1 << 19): 'cd0cd84ff8eab503',
    ('rough-line', 'random', 1, 64): '3dc4141ebd9b30dc',
    ('rough-line', 'random', 1, 1 << 19): 'e803650bc27ea321',
    ('rough-line', 'random', 3, 64): '4c8096508c1bb6cd',
    ('rough-line', 'random', 3, 1 << 19): '02116dd8e1e5ce21',
    ('sing-undefined', 'midpoint_first', 1, 64): '9ae0aceb150f60fe',
    ('sing-undefined', 'midpoint_first', 1, 1 << 19): '582280fef78e9658',
    ('sing-undefined', 'midpoint_first', 3, 64): '5e504c2720f07bda',
    ('sing-undefined', 'midpoint_first', 3, 1 << 19): 'e02e6b45cbd29da4',
    ('sing-undefined', 'random', 1, 64): '7306f4df622d32c8',
    ('sing-undefined', 'random', 1, 1 << 19): '9730d2ee7624351d',
    ('sing-undefined', 'random', 3, 64): '2b585b2949d3f18d',
    ('sing-undefined', 'random', 3, 1 << 19): 'eb41428d971e35de',
    ('enum-half', 'midpoint_first', 1, 64): '4902368efb2b2ab6',
    ('enum-half', 'midpoint_first', 1, 1 << 19): '8be0ae5680e77065',
    ('enum-half', 'midpoint_first', 3, 64): 'c80ad59260a627ea',
    ('enum-half', 'midpoint_first', 3, 1 << 19): '4ae16283a36a626f',
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
    name, policy, runs, chunk = key
    gauge, target, undefined = EMIT_CASES[name]
    monkeypatch.setattr(partition, "_BLOCK", block)
    records = _emits(gauge, target, [[3, 1, r] for r in range(runs)], policy, undefined, chunk)
    assert _emits_digest(records) == EMIT_DIGESTS[key]


# Frozen digests of (value, error, status, evaluations, trace) of
# hk_integrate and of the SumSpread of hk_sum_spread.  They pin every
# run's tags and the order of its sums bit for bit, for seeds 0-2.
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
    ('hk', 'enum-half', 0): '167ca3c82b6194ef',
    ('hk', 'enum-half', 1): 'c612d4709bba1a43',
    ('hk', 'enum-half', 2): '26622bd30d9a002a',
    ('hk', 'enum-unit', 0): 'f1683c262c065611',
    ('hk', 'enum-unit', 1): 'f649a35e398a2462',
    ('hk', 'enum-unit', 2): '30dd1fd0c329a96a',
    ('hk', 'gauss-line', 0): '848e7e347929ff6d',
    ('hk', 'gauss-line', 1): 'b5d070f344d035dd',
    ('hk', 'gauss-line', 2): '8856ddcb56f97d8a',
    ('hk', 'inv-sqrt', 0): 'b64bf73738108dc5',
    ('hk', 'inv-sqrt', 1): 'b64bf73738108dc5',
    ('hk', 'inv-sqrt', 2): 'b64bf73738108dc5',
    ('hk', 'smooth', 0): '73738b5a105fdca1',
    ('hk', 'smooth', 1): '6bab2f0d8dee2f6b',
    ('hk', 'smooth', 2): '594c7d29dfa9e2b8',
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


def test_one_tree_and_one_evaluation_per_emit():
    # A counting gauge sees 2c + 1 points for a level whose partitions
    # have c cells each, and the integrand is called once per emitted
    # batch (of at most _CHUNK_ELEMS cells, all runs agreeing), however
    # many runs share it.  Every run's tags still count as evaluations.
    seen = [0]
    calls = [0]

    def counted(z):
        seen[0] += z.size
        return uniform_gauge(1e3).window_fn(z)

    def f(x):
        calls[0] += 1
        return np.sin(3 * x)

    results = {}
    for runs in (1, 3):
        seen[0] = calls[0] = 0
        cfg = IntegratorConfig(
            tol=1e-15,
            max_refinements=4,
            stability_runs=runs,
            gauge_override=Gauge(counted, -1e3, 1e3),
        )
        res = hk_integrate(f, UNIT, cfg)
        levels = len({k for k, _ in res.trace})
        assert levels == 5
        assert seen[0] == 2 * res.evaluations // runs + levels
        results[runs] = (res.evaluations, calls[0])
    assert results[3][0] == 3 * results[1][0]
    assert results[3][1] == results[1][1]


def test_runs_that_drew_one_tag_share_its_evaluation():
    # Under "midpoint_first" a symmetric gauge makes every run tag each
    # cell at its midpoint, so three runs need one point per cell (after
    # the two-point probe of the vector adapter) and still count three
    # Riemann-sum terms per cell.
    points = [0]

    def f(x):
        points[0] += np.size(x)
        return np.sin(3 * x) + x * x

    res = hk_integrate(f, UNIT, IntegratorConfig(tol=1e-6, stability_runs=3))
    assert res.evaluations % 3 == 0
    assert points[0] - 2 == res.evaluations // 3


def _fine_rough_windows(z):
    # Asymmetric windows a few 2**-18 wide: on [0, 0.6] each hk level
    # emits up to 63,808 cells at once, and the runs' endpoint coins pick
    # different tags in about 1,400 of them.
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
    # are what split a row.
    monkeypatch.setattr(integrator, "_CHUNK_ELEMS", 1 << 14)
    ref = fields(recorded)
    # The first full block starts run 0's row of the first large emit, and
    # the next call is that row's second block.  Poison two of its tags
    # that no earlier call saw: the first of them in row-major order is
    # named.
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
