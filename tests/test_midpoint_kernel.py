"""The batched midpoint kernel against a plain doubling loop.

``_midpoint_sums`` settles a row on the plain midpoint column or on one
guarded Romberg step.  These tests restate the plain rule as a loop over
one row at a time and check that the kernel never spends more, reports
the loop's bits wherever it reports a plain sum, and does not depend on
how rows are chunked.
"""
import math

import numpy as np
import pytest

from gaugequad import integrator
from gaugequad.integrator import _midpoint_sums


def _abs_sin_exp_primitive(x):
    # d/dx of -e^-x (sin x + cos x) / 2 is sin(x) e^-x.
    return -math.exp(-x) * (math.sin(x) + math.cos(x)) / 2.0


def _abs_sin_exp(a, b):
    # |sin| e^-x over [a, b] with a single kink at pi or 2 pi inside.
    k = math.pi * math.ceil(a / math.pi)
    sign = 1.0 if math.sin(0.5 * (a + k)) > 0 else -1.0
    return sign * (
        (_abs_sin_exp_primitive(k) - _abs_sin_exp_primitive(a))
        - (_abs_sin_exp_primitive(b) - _abs_sin_exp_primitive(k))
    )


# (name, integrand, lo, hi, exact integral or None)
ROWS = [
    ("smooth lobe", np.sin, 0.0, math.pi, 2.0),
    ("kink at pi", lambda x: np.abs(np.sin(x)) * np.exp(-x), 2.0, 4.0, _abs_sin_exp(2.0, 4.0)),
    ("kink at 2 pi", lambda x: np.abs(np.sin(x)) * np.exp(-x), 4.0, 8.0, _abs_sin_exp(4.0, 8.0)),
    ("cusp", lambda x: np.sqrt(np.abs(x - 1.1)), 0.0, 2.0, (2.0 / 3.0) * (1.1**1.5 + 0.9**1.5)),
    ("never settles", lambda x: np.sin(300.0 * x) * x, 0.0, 10.0, None),
]
TOL = 1e-9
START, CAP = 4, 1 << 15


def _plain_loop(f, lo, hi, tol, start, cap):
    """The plain doubling rule for one row: every S_n up to the stop."""
    sums = []
    n = start
    while True:
        w = (hi - lo) / n
        mids = lo + (np.arange(n) + 0.5) * w
        s = f(mids).sum() * w
        prev = sums[-1] if sums else math.nan
        sums.append(s)
        if math.isfinite(s) and abs(s - prev) <= tol:
            return sums, True
        if n >= cap:
            return sums, False
        n *= 2


def _kernel(rows, tol=TOL):
    counts = np.zeros(len(rows), dtype=np.int64)

    def evaluate(idx, mids, w):
        counts[idx] += mids.shape[1]
        return np.stack([rows[i][1](m) for i, m in zip(idx, mids)])

    lo = np.array([r[2] for r in rows])
    hi = np.array([r[3] for r in rows])
    values, gaps, settled, evals = _midpoint_sums(
        evaluate, lo, hi, len(rows), tol, 0.0, start_cells=START, max_cells=CAP
    )
    assert evals == counts.sum()
    return values, gaps, settled, counts


def test_kernel_against_the_plain_doubling_loop():
    values, gaps, settled, counts = _kernel(ROWS)
    columns, saved = {}, {}
    for i, (name, f, lo, hi, exact) in enumerate(ROWS):
        sums, plain_settled = _plain_loop(f, lo, hi, TOL, START, CAP)
        plain_evals = sum(START << k for k in range(len(sums)))
        assert counts[i] <= plain_evals, name
        saved[name] = plain_evals / counts[i]
        passes = int(math.log2(counts[i] // START + 1))
        s, s_half = sums[passes - 1], sums[passes - 2]
        if values[i] == s:
            # Plain column (or unsettled at the cap): the loop's own bits.
            columns[name] = "plain" if settled[i] else "cap"
            assert counts[i] == plain_evals, name
            assert settled[i] == plain_settled, name
            assert gaps[i] == abs(s - s_half), name
        else:
            columns[name] = "romberg"
            assert settled[i], name
            r = s + (s - s_half) / 3.0
            r_half = s_half + (s_half - sums[passes - 3]) / 3.0
            assert values[i] == r, name
            assert gaps[i] == abs(r - r_half) <= TOL, name
            assert abs(s - s_half) <= integrator._ROMBERG_GUARD * TOL, name
        if exact is not None and settled[i]:
            # A guarded step is off by about (4/3) * guard * tol at worst.
            assert abs(values[i] - exact) <= (1.0 + 4.0 / 3.0 * integrator._ROMBERG_GUARD) * TOL, name
    assert columns == {
        "smooth lobe": "romberg",
        "kink at pi": "romberg",
        "kink at 2 pi": "romberg",
        "cusp": "cap",
        "never settles": "cap",
    }
    # The guarded step settles the smooth row and one kinked row early.
    assert saved["smooth lobe"] > 1.9 and saved["kink at 2 pi"] > 3.9


def test_a_row_settled_on_the_plain_column_keeps_the_loop_bits():
    # At a loose tolerance the kink row passes the plain test before the
    # Romberg column has two values to compare.
    tol = 1e-2
    values, gaps, settled, counts = _kernel(ROWS[1:2], tol)
    sums, ok = _plain_loop(ROWS[1][1], 2.0, 4.0, tol, START, CAP)
    assert ok and settled[0]
    assert counts[0] == sum(START << k for k in range(len(sums)))
    assert values[0] == sums[-1]
    assert gaps[0] == abs(sums[-1] - sums[-2])


def _shared_kernel(us):
    def evaluate(rows, mids, w):
        return np.exp(-us[rows, None] * mids[None, :]) * np.cos(3.0 * mids[None, :])

    return _midpoint_sums(evaluate, 0.0, 2.0, us.size, 1e-10, 1e-10, start_cells=16, max_cells=1 << 12)


@pytest.mark.parametrize("chunk", [1, 97, 1 << 16, 1 << 22])
def test_chunk_size_changes_no_bit(monkeypatch, chunk):
    us = np.linspace(0.0, 40.0, 301)
    expected = [_kernel(ROWS), _shared_kernel(us)]
    monkeypatch.setattr(integrator, "_CHUNK_ELEMS", chunk)
    got = [_kernel(ROWS), _shared_kernel(us)]
    for want, have in zip(expected, got):
        for a, b in zip(want, have):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
