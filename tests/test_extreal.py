import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugequad import (
    NEG_INF,
    POS_INF,
    ClosedInterval,
    DegenerateIntervalError,
    ExtReal,
    OpenInterval,
    ext,
)
from gaugequad.extreal import closed_subset_of_open


def test_ext_coerces_floats_and_infinities():
    assert ext(2.5).value == 2.5
    assert ext(math.inf) is POS_INF or ext(math.inf) == POS_INF
    assert ext(-math.inf) == NEG_INF
    assert ext(POS_INF) == POS_INF


def test_nan_is_rejected():
    with pytest.raises(ValueError):
        ext(math.nan)
    with pytest.raises(ValueError):
        ExtReal(math.nan)


def test_infinite_ends_have_no_finite_value():
    assert not POS_INF.is_finite
    with pytest.raises(ValueError):
        POS_INF.value
    assert POS_INF.as_float() == math.inf
    assert NEG_INF.as_float() == -math.inf


def test_ordering_spans_the_compactified_line():
    xs = [NEG_INF, ext(-3.0), ext(0.0), ext(1e300), POS_INF]
    for a, b in zip(xs, xs[1:]):
        assert a < b
        assert b > a
        assert a <= b
        assert not (b <= a)
    assert NEG_INF < POS_INF
    assert -POS_INF == NEG_INF


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_finite_ordering_matches_float_ordering(x):
    assert (ext(x) < ext(x + 1.0)) == (x < x + 1.0)
    assert ext(x) == ext(x)
    assert hash(ext(x)) == hash(ext(x))


def test_str_forms():
    assert str(POS_INF) == "+inf"
    assert str(NEG_INF) == "-inf"
    assert str(ext(1.5)) == "1.5"


def test_closed_interval_requires_strict_order():
    with pytest.raises(DegenerateIntervalError):
        ClosedInterval(1.0, 1.0)
    with pytest.raises(DegenerateIntervalError):
        ClosedInterval(2.0, -2.0)
    with pytest.raises(DegenerateIntervalError):
        ClosedInterval(POS_INF, POS_INF)


def test_closed_interval_is_immutable():
    c = ClosedInterval(0.0, 1.0)
    with pytest.raises(AttributeError):
        c.lo = ext(5.0)


def test_length_conventions():
    assert ClosedInterval(0.0, 2.5).length() == 2.5
    # Unbounded cells carry zero length by convention; this is what turns
    # improper limits into ordinary Riemann sums.
    assert ClosedInterval(0.0, math.inf).length() == 0.0
    assert ClosedInterval(-math.inf, math.inf).length() == 0.0
    assert ClosedInterval(-math.inf, 3.0).length() == 0.0


def test_contains_includes_endpoints():
    c = ClosedInterval(-1.0, math.inf)
    assert c.contains(-1.0)
    assert c.contains(0.0)
    assert c.contains(POS_INF)
    assert not c.contains(-1.0000001)
    assert not c.contains(NEG_INF)


def test_closed_interval_equality_and_hash():
    assert ClosedInterval(0.0, 1.0) == ClosedInterval(0.0, 1.0)
    assert hash(ClosedInterval(0.0, 1.0)) == hash(ClosedInterval(0.0, 1.0))
    assert ClosedInterval(0.0, 1.0) != ClosedInterval(0.0, 2.0)


def test_open_interval_membership_is_strict():
    w = OpenInterval(ext(0.0), ext(1.0))
    assert w.contains(0.5)
    assert not w.contains(0.0)
    assert not w.contains(1.0)


def test_open_interval_containing_infinite_ends():
    # A gauge window at +inf is a ray (c, +inf]; the end itself belongs
    # only through the explicit flag, never by the lo < x < hi rule.
    ray = OpenInterval.ray_above(1e6)
    assert ray.contains(POS_INF)
    assert ray.contains(2e6)
    assert not ray.contains(1e6)
    plain = OpenInterval(ext(1e6), POS_INF)
    assert not plain.contains(POS_INF)
    with pytest.raises(ValueError):
        OpenInterval(ext(0.0), ext(1.0), includes_pos_inf=True)


def test_closed_subset_of_open():
    o = OpenInterval(ext(0.0), ext(10.0))
    assert closed_subset_of_open(ClosedInterval(1.0, 2.0), o)
    assert not closed_subset_of_open(ClosedInterval(0.0, 2.0), o)  # shares endpoint
    assert not closed_subset_of_open(ClosedInterval(5.0, 11.0), o)


@given(
    st.floats(-1e9, 1e9),
    st.floats(-1e9, 1e9),
)
def test_interval_construction_total(a, b):
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        with pytest.raises(DegenerateIntervalError):
            ClosedInterval(lo, hi)
    else:
        c = ClosedInterval(lo, hi)
        assert c.contains((lo + hi) / 2.0)
        assert c.length() == hi - lo


def test_extreal_pickles():
    # SeedSequence-driven workers may ship intervals across processes.
    for v in (ext(1.25), POS_INF, NEG_INF):
        assert pickle.loads(pickle.dumps(v)) == v
