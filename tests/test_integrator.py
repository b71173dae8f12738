import hashlib
import math

import numpy as np
import pytest

from gaugequad import (
    ClosedInterval,
    EvaluatorDomainError,
    IntegralStatus,
    IntegratorConfig,
    cauchy_closed_form,
    compile_evaluator,
    enumeration_gauge,
    hake_improper,
    hk_integrate,
    hk_sum_spread,
    integrate_auto,
    parse,
    rational_enumeration,
    uniform_gauge,
)

from oracles import ABS_SIN_EXP, FRESNEL_FAMILY, SIN_1, SINC_HALF_PI, mixed_close

UNIT = ClosedInterval(0.0, 1.0)


def quadratic(x):
    return 3.0 * x**2 - 2.0 * x


def pathological(x):
    """Derivative of x^2 sin(x^-3) with the removable 0 at the origin."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        inner = np.where(x != 0.0, x, 1.0) ** -3
        out = 2.0 * x * np.sin(inner) - 3.0 * np.where(x != 0.0, x, 1.0) ** -2 * np.cos(inner)
    return np.where(x == 0.0, 0.0, out)


# -- direct gauge schedule ----------------------------------------------------

def test_hk_polynomial():
    res = hk_integrate(quadratic, UNIT, IntegratorConfig(tol=1e-9))
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.evaluations > 0
    assert len(res.trace) >= 2  # a one-level hit is never trusted


def test_hk_cubic_value():
    res = hk_integrate(lambda x: x**3, ClosedInterval(0.0, 2.0), IntegratorConfig(tol=1e-8))
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(4.0, rel=1e-7)


def test_hk_pathological_derivative():
    cfg = IntegratorConfig(tol=1e-3, singular_points=(0.0,))
    res = hk_integrate(pathological, UNIT, cfg)
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - SIN_1) <= 1e-3
    assert res.error_estimate <= cfg.mixed_tol(res.value) * 10


def test_hk_is_deterministic():
    cfg = IntegratorConfig(tol=1e-8, seed=5)
    r1 = hk_integrate(quadratic, UNIT, cfg)
    r2 = hk_integrate(quadratic, UNIT, cfg)
    assert r1.value == r2.value
    assert r1.evaluations == r2.evaluations


def test_hk_cell_budget_stop_keeps_the_last_level():
    # An interior |x|^-1/2 pinches the level-2 partition past the cell
    # budget; the result is the last completed level, not a value.
    res = hk_integrate(
        lambda x: np.abs(x) ** -0.5,
        ClosedInterval(-1.0, 1.0),
        IntegratorConfig(singular_points=(0.0,)),
    )
    assert res.status is IntegralStatus.INCONCLUSIVE
    assert res.message.startswith("stopped at refinement 2: partition would exceed")
    assert "cells" in res.message
    assert res.value == res.trace[-1][1]
    assert res.evaluations > 0


def test_hk_trace_records_levels():
    res = hk_integrate(quadratic, UNIT, IntegratorConfig(tol=1e-9))
    levels = [k for k, _ in res.trace]
    assert levels == sorted(levels)
    d = res.to_json_dict(include_trace=True)
    assert d["status"] == "CONVERGED"
    assert isinstance(d["trace"][0], list)


def test_gauge_override_zeroes_a_countable_set():
    pts = rational_enumeration(1000)
    gauge = enumeration_gauge(pts, 1e-6, base=uniform_gauge(1.0 / 64.0), prefix=1000)
    srt = np.sort(pts)

    def indicator(x):
        xa = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(srt, xa), 0, srt.size - 1)
        return (srt[idx] == xa).astype(float)

    res = hk_integrate(indicator, UNIT, IntegratorConfig(tol=1e-6, gauge_override=gauge))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value) <= 1e-6


def test_singular_point_outside_the_target_changes_nothing():
    f = lambda x: np.cos(3.0 * x) + x
    target = ClosedInterval(0.5, 1.0)
    plain = hk_integrate(f, target, IntegratorConfig(tol=1e-8))
    outside = hk_integrate(f, target, IntegratorConfig(tol=1e-8, singular_points=(0.0,)))
    fields = lambda r: (r.value, r.error_estimate, r.status, r.evaluations, r.trace)
    assert fields(outside) == fields(plain)


def test_sum_spread_ignores_singular_points_outside_the_target():
    seen = []

    def f(x):
        seen.append(np.array(x, dtype=float))
        return np.where(x == 2.0, np.nan, np.sin(5.0 * x))

    gauge = uniform_gauge(0.05)
    plain = hk_sum_spread(f, gauge, UNIT, 3)
    seen.clear()
    outside = hk_sum_spread(f, gauge, UNIT, 3, IntegratorConfig(singular_points=(2.0,)))
    assert outside == plain
    assert not np.isin(2.0, np.concatenate(seen))


def test_repeated_partition_does_not_count_toward_convergence():
    # uniform(1/64) dominates the first levels of the schedule, so they
    # build one partition and their level gap is exactly 0.
    cfg = IntegratorConfig(tol=1e-8, gauge_override=uniform_gauge(1.0 / 64.0))
    res = hk_integrate(np.exp, UNIT, cfg)
    assert res.status is IntegralStatus.CONVERGED
    assert mixed_close(res.value, math.e - 1.0, cfg.tol)
    assert res.error_estimate > 0.0


def test_sum_spread_bounds_every_sum():
    pts = rational_enumeration(1000)
    gauge = enumeration_gauge(pts, 1e-6, base=uniform_gauge(1.0 / 64.0), prefix=1000)
    srt = np.sort(pts)

    def indicator(x):
        xa = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(srt, xa), 0, srt.size - 1)
        return (srt[idx] == xa).astype(float)

    spread = hk_sum_spread(indicator, gauge, UNIT, n_partitions=5)
    assert len(spread.sums) == 5
    assert spread.minimum >= 0.0
    assert spread.maximum <= 1e-6
    assert spread.minimum <= spread.mean <= spread.maximum


# -- exhaustion (Hake) route --------------------------------------------------

def test_hake_matches_hk_on_compact_smooth():
    cfg = IntegratorConfig(tol=1e-8)
    target = ClosedInterval(0.0, 2.0)
    f = lambda x: np.cos(x)
    direct = hk_integrate(f, target, cfg)
    limit = hake_improper(f, target, cfg)
    assert direct.status is IntegralStatus.CONVERGED
    assert limit.status is IntegralStatus.CONVERGED
    assert abs(direct.value - limit.value) <= 10 * cfg.mixed_tol(direct.value)
    assert direct.value == pytest.approx(math.sin(2.0), rel=1e-7)


def test_hake_endpoint_singularity():
    cfg = IntegratorConfig(tol=1e-7, singular_points=(0.0,))
    res = hake_improper(lambda x: 1.0 / np.sqrt(x), UNIT, cfg)
    assert res.status is IntegralStatus.CONVERGED
    assert mixed_close(res.value, 2.0, cfg.tol)
    # Each rung [c, b] lies away from 0, so its gauge is not pinched there.
    assert res.evaluations <= 10_000


def test_hake_sinc():
    cfg = IntegratorConfig(tol=1e-6)
    res = hake_improper(
        lambda x: np.sin(x) / np.where(x == 0.0, 1.0, x),
        ClosedInterval(0.0, math.inf),
        cfg,
    )
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(SINC_HALF_PI, abs=1e-5)


def test_hake_two_sided_gaussian():
    res = hake_improper(
        lambda x: np.exp(-x * x),
        ClosedInterval(-math.inf, math.inf),
        IntegratorConfig(tol=1e-7),
    )
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-6)


@pytest.mark.parametrize("tol", [1e-5, 1e-6, 1e-7, 1e-8])
def test_hake_kinked_rungs_meet_the_tolerance(tol):
    # The rungs [2, 4] and [4, 8] each hold one kink of |sin x| (at pi and
    # 2 pi), where the plain midpoint gaps shrink 4x like a smooth row's.
    # A Romberg step trusted without the plain-gap guard settles them
    # about 4e-8 off and misses tol = 1e-8.
    f = compile_evaluator(parse("abs(sin(x))*exp(-x)"), ("x",))
    res = hake_improper(f, ClosedInterval(0.0, math.inf), IntegratorConfig(tol=tol))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - ABS_SIN_EXP) <= tol * (1.0 + abs(res.value))


def test_hake_growth_diverges():
    res = hake_improper(np.exp, ClosedInterval(0.0, math.inf), IntegratorConfig(tol=1e-6))
    assert res.status is IntegralStatus.DIVERGED


def test_hake_counts_every_evaluated_point():
    # cos(x^2) packs more than 1024 lobes into its later rungs, so the
    # lobe slab pulls those cutoffs in and samples the rung again.
    sizes = []

    def counted(x):
        x = np.asarray(x, dtype=float)
        sizes.append(x.size)
        return np.cos(x * x)

    res = hake_improper(counted, ClosedInterval(0.0, math.inf), IntegratorConfig(tol=1e-4))
    assert res.status is IntegralStatus.CONVERGED
    # Calls of one or two points are the vector-protocol and endpoint
    # probes, which are not integration work.
    assert res.evaluations == sum(n for n in sizes if n > 2)


def test_hake_undefined_midpoint_raises_with_its_tag():
    # 0.375 is a midpoint of the first rung's 4-cell level; exhaustion
    # rungs never shift tags, so the evaluator's NaN surfaces as an error.
    f = lambda x: np.where(x == 0.375, np.nan, np.exp(-x))
    with pytest.raises(EvaluatorDomainError) as info:
        hake_improper(f, ClosedInterval(0.0, math.inf), IntegratorConfig(tol=1e-7))
    assert info.value.tag == 0.375


@pytest.mark.parametrize("branch", ["sin", "cos"])
def test_cauchy_divergent_family(branch):
    trig = np.sin if branch == "sin" else np.cos
    res = hake_improper(
        lambda x: x * trig(x * x) * np.sin(x),
        ClosedInterval(0.0, math.inf),
        IntegratorConfig(tol=1e-4),
    )
    assert res.status is IntegralStatus.DIVERGED


# Every DIVERGED exit of the raw-limit monitor, on both limits.  The
# digests of (value, error_estimate, status, evaluations, trace) were
# frozen before the two monitors became one (hk-sin's again when its
# partitions' emits became chunk-sized, which moved its sums' last bits,
# and both hk digests again when each level became one partition, which
# kept the values and cut the evaluations and trace to a third); the
# messages name the test that fired, and monotone growth with growing
# steps is not reported as oscillation.
HALF_LINE = ClosedInterval(0.0, math.inf)
DIVERGED_CASES = {
    "hk-exp": (
        lambda: hk_integrate(np.exp, HALF_LINE, IntegratorConfig(tol=1e-6)),
        "f1d67d763154e9c8",
        "Riemann sums grew beyond 1e12 x initial scale at refinement 3",
    ),
    "hk-sin": (
        lambda: hk_integrate(np.sin, HALF_LINE, IntegratorConfig(tol=1e-6)),
        "5a43c294cc5d2715",
        "Riemann sums oscillate without decay as the refinement grows",
    ),
    "hake-exp": (
        lambda: hake_improper(np.exp, HALF_LINE),
        "a09b91e9bd4bcc28",
        "cutoff integrals grew beyond 1e12 x initial scale at cutoff 5",
    ),
    "hake-inv-square": (
        lambda: hake_improper(
            lambda x: 1.0 / x**2, UNIT, IntegratorConfig(singular_points=(0.0,))
        ),
        "78a2905e66910ef2",
        "cutoff integrals grow by ever larger steps as the cutoff grows",
    ),
    # Monotone last steps that shrink (0.73, 0.23, 0.013, 0.10): oscillation.
    "hake-cauchy-sin": (
        lambda: hake_improper(
            lambda x: x * np.sin(x * x) * np.sin(x), HALF_LINE, IntegratorConfig(tol=1e-4)
        ),
        "ad7f01ed12b60717",
        "cutoff integrals oscillate without decay as the cutoff grows",
    ),
}


@pytest.mark.parametrize("name", sorted(DIVERGED_CASES))
def test_every_diverged_exit_is_pinned(name):
    run, digest, message = DIVERGED_CASES[name]
    r = run()
    assert r.status is IntegralStatus.DIVERGED
    assert r.message == message
    got = (r.value, r.error_estimate, r.status.value, r.evaluations, r.trace)
    assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == digest


# Exits of the exhaustion loop that no other test reaches.  A left side
# runs in u = -x, and its messages must still name the caller's piece.
INCONCLUSIVE, DIVERGED = IntegralStatus.INCONCLUSIVE, IntegralStatus.DIVERGED
EXHAUSTION_EXITS = {
    "cutoff-budget": (
        "1/x", 1.0, math.inf, IntegratorConfig(max_refinements=3), INCONCLUSIVE,
        "cutoff budget exhausted before the tolerance was met",
    ),
    "piece-diverged": (
        "1/(x+0.3)^2", -1.0, 0.0, IntegratorConfig(singular_points=(0.0,)), DIVERGED,
        "the piece over [-0.5, -0.25] diverged",
    ),
    "left-piece-budget": (
        "abs(x-0.3)^-0.5", 0.0, 1.0,
        IntegratorConfig(singular_points=(0.0,), max_refinements=4), INCONCLUSIVE,
        "the piece over [0.5, 1.0] did not settle within budget",
    ),
    "left-rung-residue": (
        "abs(x+1.5)^-0.5", -math.inf, 0.0, IntegratorConfig(), INCONCLUSIVE,
        "ran out of resolvable rungs at [-2.0, -1.0] (unresolved residue 9.79e-04)",
    ),
    "negative-zero-end": (
        "abs(x-0.5)^-0.5", -0.0, math.inf, IntegratorConfig(), INCONCLUSIVE,
        "ran out of resolvable rungs at [0.0, 1.0] (unresolved residue 9.79e-04)",
    ),
}


@pytest.mark.parametrize("name", sorted(EXHAUSTION_EXITS))
def test_exhaustion_exit_messages_name_the_callers_piece(name):
    text, lo, hi, cfg, status, message = EXHAUSTION_EXITS[name]
    f = compile_evaluator(parse(text), ("x",))
    r = hake_improper(f, ClosedInterval(lo, hi), cfg)
    assert r.status is status
    assert r.message == message


# -- oscillatory convergent family ---------------------------------------------

def test_closed_form_matches_independent_quadrature():
    # Frozen reference values in oracles.py come from mpmath.quadosc.
    for (branch, s), want in FRESNEL_FAMILY.items():
        got = cauchy_closed_form(branch, s)
        assert got == pytest.approx(want, abs=2e-15)


def test_closed_form_branch_symmetry():
    assert cauchy_closed_form("sin", 0.0) == cauchy_closed_form("cos", 0.0)
    assert cauchy_closed_form("sin", 0.0) == pytest.approx(math.sqrt(math.pi / 8.0))


@pytest.mark.parametrize("branch,s", [("sin", 1.0), ("cos", 2.0)])
def test_cauchy_convergent_spot_checks(branch, s):
    """One value per branch here; the acceptance suite sweeps all six."""
    trig = np.sin if branch == "sin" else np.cos
    f = lambda x: trig(x * x) * np.cos(s * x)
    res = hake_improper(f, ClosedInterval(0.0, math.inf), IntegratorConfig(tol=1e-4))
    assert res.status is IntegralStatus.CONVERGED
    assert abs(res.value - FRESNEL_FAMILY[(branch, s)]) <= 1e-4


# -- dispatch and configuration -------------------------------------------------

def test_integrate_auto_routes_infinite_targets():
    res = integrate_auto(
        lambda x: np.exp(-x), ClosedInterval(0.0, math.inf), IntegratorConfig(tol=1e-7)
    )
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_integrate_auto_routes_undefined_endpoint():
    cfg = IntegratorConfig(tol=1e-7, singular_points=(0.0,))
    res = integrate_auto(lambda x: np.log(x), UNIT, cfg)
    assert res.status is IntegralStatus.CONVERGED
    assert res.value == pytest.approx(-1.0, abs=1e-6)


def test_integrate_auto_compact_equals_hk():
    cfg = IntegratorConfig(tol=1e-9)
    assert integrate_auto(quadratic, UNIT, cfg).value == hk_integrate(quadratic, UNIT, cfg).value


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(tol=math.inf)
    with pytest.raises(ValueError):
        IntegratorConfig(singular_points=(math.inf,))
    with pytest.raises(ValueError):
        IntegratorConfig(stability_runs=0)
    for sharpness in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            IntegratorConfig(sharpness_scale=sharpness, singular_points=(0.0,))


def test_config_with_and_mixed_tol():
    cfg = IntegratorConfig(tol=1e-3)
    assert cfg.with_(tol=1e-6).tol == 1e-6
    assert cfg.tol == 1e-3  # original untouched
    assert cfg.mixed_tol(0.0) == 1e-3
    assert cfg.mixed_tol(10.0) == pytest.approx(1e-3 + 1e-2)
    assert mixed_close(10.0 + 0.009, 10.0, 1e-3)
