import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequad import (
    DomainError,
    NotDifferentiable,
    ParseError,
    UnboundVariable,
    compile_evaluator,
    differentiate,
    evaluate,
    parse,
    to_text,
    variables,
)
from gaugequad.expr import Binary, Const, Number, Piecewise, Unary, Var


def ev(text, **env):
    return evaluate(parse(text), env)


# -- parsing ----------------------------------------------------------------

def test_precedence_and_associativity():
    assert ev("2+3*4") == 14.0
    assert ev("2*3+4") == 10.0
    assert ev("2-3-4") == -5.0          # left associative
    assert ev("2^3^2") == 512.0         # right associative
    assert ev("-2^2") == -4.0           # unary minus binds looser than ^
    assert ev("(2+3)*4") == 20.0
    assert ev("2*x+1", x=3.0) == 7.0


def test_power_accepts_negative_exponent_literal():
    assert ev("x^-3", x=2.0) == 0.125
    assert ev("2*x*sin(x^-3)", x=1.0) == pytest.approx(2 * math.sin(1.0))


def test_constants_and_functions():
    assert ev("pi") == math.pi
    assert ev("e") == math.e
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("ln(e)") == pytest.approx(1.0)
    assert ev("sqrt(abs(-4))") == 2.0
    assert ev("tan(0)") == 0.0
    assert ev("exp(0)") == 1.0


def test_double_star_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("2**x")
    assert str(exc.value) == (
        "unexpected '*' at offset 2 (expected number or name or '(' or '-')"
    )
    assert exc.value.offset == 2


@pytest.mark.parametrize(
    "bad",
    ["", "2+", "sin()", "sin(1,2)", "(1", "1)", "piecewise()", "unknownfn(1)",
     "piecewise(x -> 1, else -> 0)", "1 2", "x <"],
)
def test_malformed_inputs_raise_parse_error(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_offset_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse("1 + + 2")
    assert exc.value.offset == 4
    assert exc.value.expected  # nonempty tuple of expected tokens


def test_piecewise_parses_and_evaluates():
    sign = parse("piecewise(x < 0 -> -1, 0 < x -> 1, else -> 0)")
    assert evaluate(sign, {"x": -3.0}) == -1.0
    assert evaluate(sign, {"x": 5.0}) == 1.0
    assert evaluate(sign, {"x": 0.0}) == 0.0
    # First matching branch wins.
    overlap = parse("piecewise(x < 2 -> 10, x < 3 -> 20, else -> 30)")
    assert evaluate(overlap, {"x": 1.0}) == 10.0
    assert evaluate(overlap, {"x": 2.5}) == 20.0
    assert evaluate(overlap, {"x": 7.0}) == 30.0


def test_comparison_operators():
    for op, f in [("<", lambda a, b: a < b), ("<=", lambda a, b: a <= b),
                  (">", lambda a, b: a > b), (">=", lambda a, b: a >= b),
                  ("==", lambda a, b: a == b), ("!=", lambda a, b: a != b)]:
        t = parse(f"piecewise(x {op} 1 -> 1, else -> 0)")
        for x in (0.0, 1.0, 2.0):
            assert evaluate(t, {"x": x}) == (1.0 if f(x, 1.0) else 0.0)


def test_variables_collects_names():
    assert variables(parse("x^2 + y*sin(z)")) == frozenset({"x", "y", "z"})
    assert variables(parse("pi + 2")) == frozenset()


# -- strict evaluation ------------------------------------------------------

def test_unbound_variable():
    with pytest.raises(UnboundVariable) as exc:
        ev("x + y", x=1.0)
    assert "y" in str(exc.value)


@pytest.mark.parametrize(
    "text, env",
    [
        ("ln(x)", {"x": -1.0}),
        ("ln(x)", {"x": 0.0}),
        ("sqrt(x)", {"x": -4.0}),
        ("1/x", {"x": 0.0}),
        ("exp(x)", {"x": 1e4}),      # overflow leaves the reals
        ("x^x", {"x": 1e300}),
    ],
)
def test_evaluate_rejects_domain_violations(text, env):
    with pytest.raises(DomainError):
        evaluate(parse(text), env)


def test_bare_comparison_has_no_value():
    with pytest.raises(DomainError):
        ev("1 < 2")


# -- differentiation --------------------------------------------------------

@pytest.mark.parametrize(
    "text, x, want",
    [
        ("x^2", 3.0, 6.0),
        ("sin(x)", 0.7, math.cos(0.7)),
        ("cos(x)", 0.7, -math.sin(0.7)),
        ("tan(x)", 0.3, 1.0 / math.cos(0.3) ** 2),
        ("exp(2*x)", 0.5, 2.0 * math.e),
        ("ln(x)", 2.0, 0.5),
        ("sqrt(x)", 4.0, 0.25),
        ("1/x", 2.0, -0.25),
        ("x*sin(x)", 1.2, math.sin(1.2) + 1.2 * math.cos(1.2)),
        ("2^x", 1.0, 2.0 * math.log(2.0)),
        ("x^x", 2.0, 4.0 * (math.log(2.0) + 1.0)),
        ("pi", 1.0, 0.0),
    ],
)
def test_derivative_values(text, x, want):
    d = differentiate(parse(text), "x")
    assert evaluate(d, {"x": x}) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_derivative_of_other_variable_is_zero():
    assert differentiate(parse("y^3"), "x") == Number(0.0)


def test_derivative_of_piecewise_goes_branchwise():
    d = differentiate(parse("piecewise(y < 0 -> x^2, else -> x^3)"), "x")
    assert evaluate(d, {"x": 2.0, "y": -1.0}) == 4.0
    assert evaluate(d, {"x": 2.0, "y": 1.0}) == 12.0


def test_abs_is_not_differentiable():
    with pytest.raises(NotDifferentiable):
        differentiate(parse("abs(x)"), "x")


def test_piecewise_condition_on_the_variable_is_not_differentiable():
    with pytest.raises(NotDifferentiable):
        differentiate(parse("piecewise(x < 0 -> 0 - x, else -> x)"), "x")
    # Conditions on a different variable stay differentiable.
    differentiate(parse("piecewise(y < 0 -> 0 - x, else -> x)"), "x")


# -- printing and roundtrip -------------------------------------------------

def test_to_text_roundtrips_contract_examples():
    for text in [
        "2*x+1",
        "x^-3",
        "piecewise(x < 0 -> -1, 0 < x -> 1, else -> 0)",
        "sin(x^2)*cos(2*x)",
        "(x^2 - y^2)/(x^2 + y^2)^2",
    ]:
        t = parse(text)
        assert parse(to_text(t)) == t


# Trees drawn from the image of the grammar: literals are nonnegative
# (the parser produces Unary neg, never a negative Number), conditions
# appear only inside piecewise.

_leaf = st.one_of(
    st.builds(Number, st.floats(0.0, 1e6, allow_nan=False)),
    st.sampled_from([Var("x"), Var("y"), Const("pi"), Const("e")]),
)


def _compound(children):
    from gaugequad.expr import Compare

    unary = st.builds(
        Unary,
        st.sampled_from(["neg", "sin", "cos", "tan", "exp", "ln", "sqrt", "abs"]),
        children,
    )
    binary = st.builds(
        Binary,
        st.sampled_from(["add", "sub", "mul", "div", "pow"]),
        children,
        children,
    )
    pw = st.builds(
        lambda op, a, b, val, default: Piecewise(((Compare(op, a, b), val),), default),
        st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]),
        children,
        children,
        children,
        children,
    )
    return st.one_of(unary, binary, pw)


expr_trees = st.recursive(_leaf, _compound, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(expr_trees)
def test_roundtrip_property(tree):
    assert parse(to_text(tree)) == tree


# -- vectorized compilation -------------------------------------------------

def test_compile_evaluator_vectorizes():
    f = compile_evaluator(parse("x^2 + 1"), ("x",))
    out = f(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 5.0])


def test_compile_evaluator_lets_nonfinite_flow():
    # The integrator owns the policy for undefined points, so compiled
    # closures must not raise where strict evaluation would.
    f = compile_evaluator(parse("ln(x)"), ("x",))
    with np.errstate(all="ignore"):
        out = f(np.array([-1.0, 0.0, 1.0]))
    assert np.isnan(out[0])
    assert out[1] == -np.inf
    assert out[2] == 0.0


def test_compile_evaluator_piecewise_matches_strict():
    t = parse("piecewise(x == 0 -> 0, else -> 2*x*sin(x^-3) - 3*x^-2*cos(x^-3))")
    f = compile_evaluator(t, ("x",))
    xs = np.array([0.0, 0.3, 0.7, 1.0])
    with np.errstate(all="ignore"):
        got = f(xs)
    want = [evaluate(t, {"x": float(x)}) for x in xs]
    assert np.allclose(got, want)


def test_compile_evaluator_multiple_names():
    f = compile_evaluator(parse("x^2*y"), ("x", "y"))
    out = f(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.allclose(out, [3.0, 16.0])


def test_compile_evaluator_rejects_unknown_names():
    with pytest.raises(UnboundVariable):
        compile_evaluator(parse("x + z"), ("x", "y"))


def test_compile_evaluator_rejects_bare_comparison():
    with pytest.raises(DomainError):
        compile_evaluator(parse("(x < 1) + 1"), ("x",))


# -- integer-literal powers -------------------------------------------------

_LITERAL_KS = [k for k in range(-8, 9) if k]


def _power_of(k, xs):
    with np.errstate(all="ignore"):
        return compile_evaluator(parse(f"x^{k}"), ("x",))(xs)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("k", _LITERAL_KS)
def test_literal_integer_power_is_within_2k_plus_1_ulp_of_mpmath(k):
    rng = np.random.default_rng(abs(k))
    mags = 10.0 ** rng.uniform(-4.0, 4.0, 400)
    xs = np.concatenate([mags, -mags[:200], [1e-4, 1e4, -1.0, 1.0]])
    got = _power_of(k, xs)
    with mpmath.workprec(200):
        for x, g in zip(xs, got):
            exact = mpmath.power(mpmath.mpf(float(x)), k)
            ulp = np.spacing(abs(float(exact)))
            assert abs(mpmath.mpf(float(g)) - exact) <= (2 * abs(k) + 1) * ulp, (x, k)


@pytest.mark.parametrize("k", _LITERAL_KS)
def test_literal_integer_power_special_values_match_float_power(k):
    xs = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-200, -1e-200, 5e-324])
    with np.errstate(all="ignore"):
        want = np.float_power(xs, float(k))
    assert _same_bits(_power_of(k, xs), want)


def test_literal_negative_power_keeps_subnormal_results():
    xs = np.array([1e104])
    got = _power_of(-3, xs)
    assert 0.0 < got[0] < np.finfo(float).tiny
    assert _same_bits(got, np.float_power(xs, -3.0))


@pytest.mark.parametrize("text,exponent", [
    ("x^0", 0.0), ("x^2.5", 2.5), ("x^-0.5", -0.5), ("x^9", 9.0), ("x^(1+1)", 2.0),
])
def test_other_powers_match_float_power_bit_for_bit(text, exponent):
    rng = np.random.default_rng(7)
    xs = np.concatenate([10.0 ** rng.uniform(-4.0, 4.0, 500), -rng.uniform(0.0, 5.0, 50),
                         [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200]])
    with np.errstate(all="ignore"):
        got = compile_evaluator(parse(text), ("x",))(xs)
        want = np.float_power(xs, exponent)
    assert _same_bits(got, want)


def test_interchange_kernel_makes_no_float_power_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.float_power called")

    monkeypatch.setattr(np, "float_power", refuse)
    f = compile_evaluator(parse("(x^2 - y^2)/(x^2 + y^2)^2"), ("x", "y"))
    x, y = np.meshgrid(np.linspace(0.1, 1.0, 7), np.linspace(0.05, 1.0, 5))
    assert np.allclose(f(x, y), (x * x - y * y) / (x * x + y * y) ** 2, rtol=1e-14)
