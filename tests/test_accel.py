import math
import warnings

import numpy as np
import pytest

from gaugequad import accel, aitken_sweep, series_limit, shanks_limit, window_oscillation
from gaugequad.corpus import _bump_series_term, _exp_series_term

from oracles import BASEL, LN_2


def test_aitken_sweep_accelerates_geometric_error():
    n = np.arange(12, dtype=float)
    s = 1.0 + 0.5**n
    out = aitken_sweep(s)
    assert out.size == s.size - 2
    # One sweep should land far closer to the limit than the raw tail.
    assert abs(out[-1] - 1.0) < 1e-3 * abs(s[-1] - 1.0)


def test_aitken_sweep_is_exact_on_pure_geometric():
    s = (1 - 0.7 ** np.arange(1, 10)) / 0.3  # partial sums of 0.7^k
    out = aitken_sweep(s)
    assert np.allclose(out, 1.0 / 0.3, rtol=1e-10)


def test_shanks_limit_geometric():
    s = np.cumsum(0.8 ** np.arange(30))
    val, err = shanks_limit(s)
    assert val == pytest.approx(5.0, abs=1e-9)
    assert err < 1e-6


def test_shanks_limit_alternating_harmonic():
    n = np.arange(1, 40, dtype=float)
    s = np.cumsum((-1.0) ** (n + 1) / n)
    val, err = shanks_limit(s)
    assert val == pytest.approx(LN_2, abs=1e-8)
    assert err < 1e-5


def test_window_oscillation_flags_nondecaying_swings():
    flat = window_oscillation([1.0] * 20)
    assert max(flat) == 0.0
    swinging = window_oscillation([(-1.0) ** k for k in range(20)])
    assert min(swinging) > 1.0


def run_series(term, xs, tol=1e-8, n_cap=1 << 20):
    est, err, resolved = series_limit(term, np.asarray(xs, dtype=float), tol, n_cap)
    return est, err, resolved


def test_series_limit_geometric():
    term = lambda n, x: x**n
    xs = [0.1, 0.5, 0.9, -0.5]
    est, err, resolved = run_series(term, xs)
    want = [x / (1 - x) for x in xs]
    assert resolved.all()
    assert np.allclose(est, want, atol=1e-7)
    assert np.all(err < np.inf)


def _exp_log_term(n, x):
    # x^n/n! in log space.
    with np.errstate(all="ignore"):
        out = np.where(
            x > 0, np.exp(n * np.log(np.abs(x) + (x <= 0)) - math.lgamma(n + 1)), 0.0
        )
    return np.where(x == 0.0, 0.0, out)


def _telescoping_term(n, x):
    # Partial sums n*x*exp(-n*x^2) tend to 0 pointwise on (0, 1].
    def partial(k):
        with np.errstate(all="ignore"):
            return np.where(x == 0.0, 0.0, k * x * np.exp(-k * x * x))

    return partial(n) - partial(n - 1)


def test_series_limit_exponential_terms():
    # The hump near n ~ x must not fool the gate.
    xs = np.array([0.5, 1.0, 20.0])
    est, err, resolved = run_series(_exp_log_term, xs, tol=1e-9)
    assert resolved.all()
    assert np.allclose(est, np.expm1(xs), rtol=1e-8)


def test_series_limit_alternating():
    term = lambda n, x: (-1.0) ** (n + 1) * x / n
    est, err, resolved = run_series(term, [1.0], tol=1e-9)
    assert resolved.all()
    assert est[0] == pytest.approx(LN_2, abs=1e-8)


def test_series_limit_slow_monotone_tail():
    # 1/n^2 gains barely three digits per octave raw; acceptance within a
    # practical cap demonstrates the anchored acceleration path.
    term = lambda n, x: x / n**2
    est, err, resolved = run_series(term, [1.0], tol=1e-6)
    assert resolved.all()
    assert est[0] == pytest.approx(BASEL, abs=1e-4)


def test_series_limit_telescoping_collapse():
    xs = [0.05, 0.3, 1.0]
    est, err, resolved = run_series(_telescoping_term, xs, tol=1e-7)
    assert resolved.all()
    assert np.allclose(est, 0.0, atol=1e-6)


def test_series_limit_reports_unresolved_honestly():
    term = lambda n, x: x / n  # divergent harmonic tail
    est, err, resolved = run_series(term, [1.0], tol=1e-8, n_cap=4096)
    assert not resolved.any()
    assert math.isinf(err[0])


def test_series_limit_mixed_columns():
    # One resolvable point and one divergent point in the same batch.
    def term(n, x):
        return np.where(x < 0.75, x**n, 1.0 / n)

    est, err, resolved = run_series(term, [0.5, 1.0], tol=1e-8, n_cap=4096)
    assert resolved[0] and not resolved[1]
    assert est[0] == pytest.approx(1.0, abs=1e-7)
    assert math.isinf(err[1])


def test_series_limit_vector_shapes():
    term = lambda n, x: x**n
    est, err, resolved = run_series(term, np.linspace(0.0, 0.5, 7))
    assert est.shape == err.shape == resolved.shape == (7,)


# -- frozen outputs of the term-by-term summation ----------------------------------

# name -> (term, xs, tol, n_cap)
FAMILIES = {
    "geometric": (lambda n, x: x**n, [0.1, 0.5, 0.9, -0.5], 1e-8, 1 << 20),
    "exp_log": (_exp_log_term, [0.5, 1.0, 20.0], 1e-9, 1 << 20),
    "alternating": (lambda n, x: (-1.0) ** (n + 1) * x / n, [1.0], 1e-9, 1 << 20),
    "basel": (lambda n, x: x / n**2, [1.0], 1e-6, 1 << 20),
    "telescoping": (_telescoping_term, [0.05, 0.3, 1.0], 1e-7, 1 << 20),
    "harmonic": (lambda n, x: x / n, [1.0], 1e-8, 4096),
    "mixed": (lambda n, x: np.where(x < 0.75, x**n, 1.0 / n), [0.5, 1.0], 1e-8, 4096),
    "shapes": (lambda n, x: x**n, list(np.linspace(0.0, 0.5, 7)), 1e-8, 1 << 20),
    "corpus_bump": (
        lambda n, x: _bump_series_term(n)(x), [0.0, 0.03, 0.05, 0.3, 0.7, 1.0], 5e-7, 1 << 20
    ),
    "corpus_exp": (lambda n, x: _exp_series_term(n)(x), [0.0, 0.5, 1.0, 3.0], 1e-9, 1 << 20),
    "nan_column": (lambda n, x: np.where(x == 0.5, np.nan, x**n), [0.25, 0.5, 0.75], 1e-8, 4096),
    "scalar": (lambda n, x: 0.5**n, [0.1, 0.2, 0.3], 1e-8, 1 << 20),
    "empty": (lambda n, x: x**n, [], 1e-8, 1 << 20),
}

# name -> (est, err, resolved) as float.hex, recorded from the loop that
# added one term at a time (sums = sums + term) before sums were formed
# by blocks.
FROZEN = {
    "geometric": (
        ("0x1.c71c71c71c71ep-4", "0x1.0000000000000p+0", "0x1.1fffffffffffcp+3",
         "-0x1.5555555555556p-2"),
        ("0x0.0p+0", "0x0.0p+0", "0x1.ef50000000000p-37", "0x0.0p+0"),
        (True, True, True, True),
    ),
    "exp_log": (
        ("0x1.4c2531c3c0d38p-1", "0x1.b7e151628aed4p+0", "0x1.ceb088a68e7eap+28"),
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        (True, True, True),
    ),
    "alternating": (("0x1.62e42fefa39efp-1",), ("0x0.0p+0",), (True,)),
    "basel": (("0x1.a51a66253b0dfp+0",), ("0x1.008be5e000000p-25",), (True,)),
    "telescoping": (
        ("-0x1.1d689f0172e72p-63", "0x1.b8b2b7c979f1dp-60", "-0x1.fdecebe048120p-61"),
        ("0x1.060daa98e9550p-36", "0x1.b6077133e9774p-28", "0x0.0p+0"),
        (True, True, True),
    ),
    "harmonic": (("0x0.0p+0",), ("inf",), (False,)),
    "mixed": (("0x1.0000000000000p+0", "0x0.0p+0"), ("0x0.0p+0", "inf"), (True, False)),
    "shapes": (
        ("0x0.0p+0", "0x1.745d1745d1745p-4", "0x1.999999999999ap-3", "0x1.5555555555555p-2",
         "0x1.ffffffffffffdp-2", "0x1.6db6db6db6db3p-1", "0x1.0000000000000p+0"),
        ("0x0.0p+0",) * 7,
        (True,) * 7,
    ),
    "corpus_bump": (
        ("0x0.0p+0", "-0x1.20ea831605b84p-48", "-0x1.1d689f0172e72p-63",
         "0x1.b8b2b7c979f1dp-60", "0x1.6d8228eddce4ap-174", "-0x1.fdecebe048120p-61"),
        ("0x0.0p+0", "0x1.303fbde07605bp-27", "0x1.060daa98e9550p-36",
         "0x1.b6077133e9774p-28", "0x1.3c06b7c163f9fp-85", "0x0.0p+0"),
        (True,) * 6,
    ),
    "corpus_exp": (
        ("0x0.0p+0", "0x1.4c2531c3c0d38p-1", "0x1.b7e151628aed4p+0", "0x1.315e5bf6fb106p+4"),
        ("0x0.0p+0",) * 4,
        (True,) * 4,
    ),
    "nan_column": (
        ("0x1.5555555555555p-2", "0x0.0p+0", "0x1.7fffffffffffdp+1"),
        ("0x0.0p+0", "inf", "0x0.0p+0"),
        (True, False, True),
    ),
    "scalar": (("0x1.0000000000000p+0",) * 3, ("0x0.0p+0",) * 3, (True,) * 3),
    "empty": ((), (), ()),
}

# name -> [(first n, last n, indices of the columns passed)]: the calls
# term_at(n, xs[columns]) made, merged into runs of consecutive n.
FROZEN_CALLS = {
    "geometric": [(1, 256, (0, 1, 2, 3)), (257, 512, (2,))],
    "telescoping": [(1, 256, (0, 1, 2)), (257, 512, (0, 1)), (513, 16384, (0,))],
    "mixed": [(1, 256, (0, 1)), (257, 4096, (1,))],
    "corpus_bump": [
        (1, 256, (0, 1, 2, 3, 4, 5)), (257, 512, (1, 2, 3)), (513, 16384, (1, 2)),
        (16385, 32768, (1,)),
    ],
    "nan_column": [(1, 256, (0, 1, 2)), (257, 4096, (1,))],
    "scalar": [(1, 256, (0, 1, 2))],
    "empty": [],
}


def _hex(out):
    est, err, resolved = out
    return (
        tuple(float.hex(float(v)) for v in est),
        tuple(float.hex(float(v)) for v in err),
        tuple(bool(v) for v in resolved),
    )


@pytest.mark.parametrize("values", [1, 4, 9, 1 << 16])
def test_partial_sum_blocks_make_the_loop_additions(monkeypatch, values):
    monkeypatch.setattr(accel, "_BLOCK_VALUES", values)
    rng = np.random.default_rng(0)
    terms = {j: rng.standard_normal(3) * 10.0 ** rng.integers(-30, 30, 3) for j in range(6, 40)}
    terms[9] = -0.0  # a scalar term broadcasts
    terms[11] = np.array([np.nan, np.inf, -0.0])
    start = np.array([-0.0, 1.0, -2.5])
    want, sums = [start], start
    for j in range(6, 40):
        sums = sums + terms[j]
        want.append(sums)
    got, asked = [start], []
    for n0, block in accel._partial_sum_blocks(start, lambda j: asked.append(j) or terms[j], 5, 39):
        assert block[0].tobytes() == got[-1].tobytes() and n0 == 5 + len(got) - 1
        got.extend(block[1:])
    assert asked == list(range(6, 40))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_series_limit_matches_term_by_term_sums_exactly(name):
    term, xs, tol, n_cap = FAMILIES[name]
    assert _hex(run_series(term, xs, tol, n_cap)) == FROZEN[name]


@pytest.mark.parametrize("values", [1, 5, 97, 1000])
@pytest.mark.parametrize("name", ["geometric", "telescoping", "mixed", "nan_column"])
def test_series_limit_block_size_changes_no_bit(monkeypatch, name, values):
    # Tiny blocks put block edges between checkpoints and inside octaves.
    monkeypatch.setattr(accel, "_BLOCK_VALUES", values)
    term, xs, tol, n_cap = FAMILIES[name]
    assert _hex(run_series(term, xs, tol, n_cap)) == FROZEN[name]


def test_series_limit_wide_batch_matches_single_columns():
    # Columns settle independently, so a batch split over many blocks
    # per octave must reproduce each column run on its own.
    term = lambda n, x: x**n * (1.0 + 0.1 * np.sin(n))
    xs = np.linspace(-0.95, 0.95, 601)
    whole = _hex(run_series(term, xs, 1e-8, 4096))
    for i in range(0, xs.size, 25):
        alone = _hex(run_series(term, xs[i : i + 1], 1e-8, 4096))
        assert alone == tuple(part[i : i + 1] for part in whole)


@pytest.mark.parametrize("name", sorted(FROZEN_CALLS))
def test_series_limit_term_calls_keep_order_and_fresh_arrays(name):
    term, xs, tol, n_cap = FAMILIES[name]
    xs = np.asarray(xs, dtype=float)
    seen, runs = [], []

    def recording(n, xv):
        cols = tuple(int(np.flatnonzero(xs == v)[0]) for v in xv)
        if runs and runs[-1][1] == n - 1 and runs[-1][2] == cols:
            runs[-1][1] = n
        else:
            runs.append([n, n, cols])
        out = term(n, xv)
        seen.append(xv)
        xv[:] = np.nan  # a reused array would poison every later call
        return out

    assert _hex(series_limit(recording, xs, tol, n_cap)) == FROZEN[name]
    assert [tuple(r) for r in runs] == FROZEN_CALLS[name]
    assert len({id(a) for a in seen}) == len(seen)


def test_series_limit_non_finite_terms_raise_no_warnings():
    # The inf column makes inf - inf in the checkpoint spans and the Aitken
    # sweeps; none of it may reach the caller as a warning.
    term = lambda n, x: np.where(x == 0.5, np.inf, 1.0 / n**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = series_limit(term, np.array([0.25, 0.5, 0.75]), 1e-6, n_cap=1024)
    assert _hex(out) == (("0x0.0p+0",) * 3, ("inf",) * 3, (False,) * 3)
