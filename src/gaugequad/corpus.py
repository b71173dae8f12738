"""Curated reference cases with frozen expected outcomes.

Each case binds an input family to an engine entry point and freezes
the outcome it must reproduce, so regressions surface as plain
pass/fail rows.  A case's helper builds both the inputs that `corpus
list` shows and the runner from the same arguments.
Provenance records where an expected value comes from: PAPER marks
worked examples inherited from the motivating derivation, DERIVED
marks values recomputed with an independent method, TRIVIAL marks
one-line facts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from .calculus import (
    FtcReport,
    InterchangeReport,
    InterchangeVerdict,
    Rectangle,
    Window,
    diff_under_integral,
    ftc_verify,
    interchange_iterated,
    interchange_sum_integral,
)
from .expr import compile_evaluator, parse
from .extreal import ClosedInterval, _json_float, _sanitize_json
from .gauge import enumeration_gauge, rational_enumeration, uniform_gauge
from .integrator import (
    IntegralResult,
    IntegralStatus,
    IntegratorConfig,
    cauchy_closed_form,
    hake_improper,
    hk_integrate,
)

__all__ = [
    "CaseKind",
    "Provenance",
    "Expected",
    "NamedCase",
    "CaseReport",
    "UnknownCase",
    "list_cases",
    "get_case",
    "run_case",
]


class CaseKind(str, Enum):
    INTEGRATE = "INTEGRATE"
    IMPROPER = "IMPROPER"
    FTC = "FTC"
    DUI = "DUI"
    ITERATED = "ITERATED"
    SERIES = "SERIES"


class Provenance(str, Enum):
    PAPER = "PAPER"
    DERIVED = "DERIVED"
    TRIVIAL = "TRIVIAL"


class UnknownCase(KeyError):
    """Raised when a case name is not in the registry."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unknown case {self.name!r}; see list_cases()"


@dataclass(frozen=True)
class Expected:
    """Exactly one of a target value (with tolerance), a terminal
    integration status, or an interchange verdict."""

    value: Optional[float] = None
    tol: Optional[float] = None
    status: Optional[IntegralStatus] = None
    verdict: Optional[InterchangeVerdict] = None

    def __post_init__(self):
        picked = sum(
            x is not None for x in (self.value, self.status, self.verdict)
        )
        if picked != 1:
            raise ValueError(
                "expected outcome needs exactly one of value, status, verdict"
            )
        if (self.value is None) != (self.tol is None):
            raise ValueError("value and tol must be given together")
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    def to_json_dict(self) -> dict:
        if self.value is not None:
            return {"value": self.value, "tol": self.tol}
        if self.status is not None:
            return {"status": self.status.value}
        assert self.verdict is not None
        return {"verdict": self.verdict.value}

    def describe(self) -> str:
        if self.value is not None:
            return f"value {self.value:.12g} +- {self.tol:g}"
        if self.status is not None:
            return f"status {self.status.value}"
        assert self.verdict is not None
        return f"verdict {self.verdict.value}"


@dataclass(frozen=True)
class NamedCase:
    name: str
    kind: CaseKind
    inputs: Mapping[str, object]
    expected: Expected
    provenance: Provenance
    note: str
    base_cfg: IntegratorConfig = field(repr=False)
    runner: Callable[[IntegratorConfig], object] = field(
        repr=False, compare=False
    )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind.value,
            "inputs": dict(self.inputs),
            "expected": self.expected.to_json_dict(),
            "provenance": self.provenance.value,
            "note": self.note,
        }


@dataclass(frozen=True)
class CaseReport:
    """Outcome of one case run.

    runtime_seconds and trace are kept for interactive inspection but
    stay out of to_json_dict: serialized reports must not vary between
    identical runs.
    """

    case: NamedCase
    actual: Mapping[str, object]
    passed: bool
    runtime_seconds: float
    trace: object = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.case.name,
            "kind": self.case.kind.value,
            "provenance": self.case.provenance.value,
            "expected": self.case.expected.to_json_dict(),
            "actual": dict(self.actual),
            "passed": self.passed,
        }

    def summary_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"{mark} {self.case.name} [{self.case.kind.value}] "
            f"expected {self.case.expected.describe()}, got "
            f"{_actual_brief(self.actual)} ({self.runtime_seconds:.2f}s)"
        )


def _actual_brief(actual: Mapping[str, object]) -> str:
    if "value" in actual:
        return f"value {actual['value']} status {actual['status']}"
    if "max_residual" in actual:
        return f"max residual {actual['max_residual']}"
    return f"overall {actual.get('overall')}"


def _fn(text: str, *names: str) -> Callable:
    return compile_evaluator(parse(text), names)


def _scalar_fn(text: str) -> Callable[[float], float]:
    ev = _fn(text, "x")
    return lambda x: float(ev(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# Judging


def _judge(case: NamedCase, outcome) -> tuple[dict, bool, object]:
    exp = case.expected
    if isinstance(outcome, IntegralResult):
        actual = _sanitize_json(outcome.to_json_dict())
        actual.pop("message", None)
        if exp.status is not None:
            passed = outcome.status is exp.status
        else:
            passed = (
                outcome.status is IntegralStatus.CONVERGED
                and abs(outcome.value - exp.value) <= exp.tol
            )
        return actual, passed, outcome.trace

    if isinstance(outcome, FtcReport):
        actual = {
            "max_residual": _json_float(outcome.max_residual),
            "grid_passed": outcome.passed,
        }
        assert exp.value is not None, "FTC cases freeze a residual bound"
        passed = outcome.passed and abs(outcome.max_residual - exp.value) <= exp.tol
        return actual, passed, outcome

    assert isinstance(outcome, InterchangeReport)
    actual = _sanitize_json(outcome.to_json_dict())
    if exp.verdict is not None:
        passed = outcome.overall is exp.verdict
    else:
        # Value expectation on an interchange case: both sides of every
        # window must land on the target and the comparison must hold.
        passed = outcome.overall is InterchangeVerdict.HOLDS_ON_SAMPLES and all(
            abs(w.lhs - exp.value) <= exp.tol
            and abs(w.rhs - exp.value) <= exp.tol
            for w in outcome.windows
        )
    return actual, passed, outcome


# ---------------------------------------------------------------------------
# Case construction helpers


_REGISTRY: dict[str, NamedCase] = {}


def _register(case: NamedCase) -> None:
    if case.name in _REGISTRY:
        raise ValueError(f"duplicate case name {case.name!r}")
    _REGISTRY[case.name] = case


def _interval_json(iv: ClosedInterval) -> list:
    return [_json_float(iv.lo.as_float()), _json_float(iv.hi.as_float())]


def _integral_case(name, kind, text, interval, expected, provenance, note, cfg) -> None:
    fn = _fn(text, "x")
    engine = hk_integrate if kind is CaseKind.INTEGRATE else hake_improper
    inputs = {
        "expr": text,
        "interval": _interval_json(interval),
        "tol": cfg.tol,
        "singular": list(cfg.singular_points),
    }

    def runner(cfg_: IntegratorConfig) -> IntegralResult:
        return engine(fn, interval, cfg_)

    _register(NamedCase(name, kind, inputs, expected, provenance, note, cfg, runner))


def _add_case(name, kind, inputs, expected, provenance, note, cfg, runner) -> None:
    """Register a case whose inputs end with cfg's singular points (when
    there are any) and its tolerance."""
    if cfg.singular_points:
        inputs["singular"] = list(cfg.singular_points)
    inputs["tol"] = cfg.tol
    _register(NamedCase(name, kind, inputs, expected, provenance, note, cfg, runner))


def _ftc_case(name, F, Fprime, interval, expected, provenance, note, cfg) -> None:
    """F and Fprime are texts in x; Fprime=None leaves the derivative to
    ftc_verify's central difference."""
    grid = 9
    inputs = {
        "F": F,
        "Fprime": Fprime or "synthesized central difference",
        "interval": _interval_json(interval),
        "grid": grid,
    }

    def runner(cfg_: IntegratorConfig) -> FtcReport:
        fprime = _fn(Fprime, "x") if Fprime else None
        return ftc_verify(_scalar_fn(F), fprime, interval, grid, cfg_)

    _add_case(name, CaseKind.FTC, inputs, expected, provenance, note, cfg, runner)


def _rectangle_case(
    name, kind, check, exprs, rect, windows, expected, provenance, note, cfg
) -> None:
    """check is diff_under_integral or interchange_iterated; exprs maps
    its integrands' names to their texts in x and y, in check's argument
    order; windows=None leaves the windows to check."""
    inputs = dict(exprs)
    inputs["rect"] = [_interval_json(rect.x_interval), _interval_json(rect.y_interval)]
    if windows is not None:
        inputs["windows"] = [[w.s, w.t] for w in windows]

    def runner(cfg_: IntegratorConfig) -> InterchangeReport:
        fns = [_fn(text, "x", "y") for text in exprs.values()]
        return check(*fns, rect, windows=windows, cfg=cfg_)

    _add_case(name, kind, inputs, expected, provenance, note, cfg, runner)


def _series_case(name, terms, term, interval, expected, provenance, note, cfg) -> None:
    """term(n) is the n-th term as a function of x; the series and the
    integral are compared on the whole interval."""
    n_max = 64
    inputs = {"terms": terms, "interval": _interval_json(interval), "n_max": n_max}

    def runner(cfg_: IntegratorConfig) -> InterchangeReport:
        whole = [Window(interval.lo.value, interval.hi.value)]
        return interchange_sum_integral(term, interval, whole, n_max, cfg_)

    _add_case(name, CaseKind.SERIES, inputs, expected, provenance, note, cfg, runner)


# ---------------------------------------------------------------------------
# Integrands that the expression grammar cannot spell


_DIRICHLET_COUNT = 100_000
_DIRICHLET_EPS = 1e-6
_DIRICHLET_INTERVAL = ClosedInterval(0.0, 1.0)


@lru_cache(maxsize=1)
def _dirichlet_setup() -> tuple[np.ndarray, Callable]:
    enum = rational_enumeration(_DIRICHLET_COUNT)
    pts = np.sort(enum)

    def indicator(x):
        xa = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(pts, xa), 0, pts.size - 1)
        return (pts[idx] == xa).astype(float)

    return enum, indicator


def _dirichlet_runner(cfg: IntegratorConfig) -> IntegralResult:
    enum, indicator = _dirichlet_setup()
    gauge = enumeration_gauge(
        enum, _DIRICHLET_EPS, base=uniform_gauge(1.0 / 64.0), prefix=_DIRICHLET_COUNT
    )
    return hk_integrate(indicator, _DIRICHLET_INTERVAL, cfg.with_(gauge_override=gauge))


def _exp_series_term(n: int) -> Callable:
    # x^n / n! in log space: factorials overflow long before the series
    # prober stops asking for terms.
    def term(xv):
        xa = np.asarray(xv, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.where(xa > 0, np.log(np.where(xa > 0, xa, 1.0)), -np.inf)
        return np.exp(n * logx - math.lgamma(n + 1))

    return term


def _bump_partial(n: int, xa: np.ndarray) -> np.ndarray:
    if n <= 0:
        return np.zeros_like(xa)
    return n * xa * np.exp(-n * xa * xa)


def _bump_series_term(n: int) -> Callable:
    def term(xv):
        xa = np.asarray(xv, dtype=float)
        return _bump_partial(n, xa) - _bump_partial(n - 1, xa)

    return term


# ---------------------------------------------------------------------------
# Registry


def _build_registry() -> None:
    _integral_case(
        "polynomial-smoke",
        CaseKind.INTEGRATE,
        "3*x^2 - 2*x",
        ClosedInterval(0.0, 1.0),
        Expected(value=0.0, tol=1e-9),
        Provenance.TRIVIAL,
        "antiderivative x^3 - x^2 vanishes at both endpoints",
        IntegratorConfig(tol=1e-9),
    )

    _integral_case(
        "pathological-derivative",
        CaseKind.INTEGRATE,
        "piecewise(x == 0 -> 0, else -> 2*x*sin(x^-3) - 3*x^-2*cos(x^-3))",
        ClosedInterval(0.0, 1.0),
        Expected(value=math.sin(1.0), tol=1e-3),
        Provenance.PAPER,
        "derivative of x^2 sin(x^-3); unbounded, not Lebesgue integrable,"
        " exact integral sin(1)",
        IntegratorConfig(tol=1e-3, singular_points=(0.0,)),
    )

    _add_case(
        "dirichlet-gauge",
        CaseKind.INTEGRATE,
        {
            "integrand": f"indicator of the first {_DIRICHLET_COUNT} rationals in [0, 1]",
            "interval": _interval_json(_DIRICHLET_INTERVAL),
            "gauge": f"enumeration_gauge(eps={_DIRICHLET_EPS:g}) over the same rationals",
        },
        Expected(value=0.0, tol=1e-6),
        Provenance.DERIVED,
        "countable support carries no area once the gauge pinches"
        " each enumerated point",
        IntegratorConfig(tol=1e-6),
        _dirichlet_runner,
    )

    _integral_case(
        "inv-sqrt",
        CaseKind.IMPROPER,
        "1/sqrt(x)",
        ClosedInterval(0.0, 1.0),
        Expected(value=2.0, tol=1e-6),
        Provenance.TRIVIAL,
        "antiderivative 2 sqrt(x); endpoint singularity at 0",
        IntegratorConfig(tol=1e-7, singular_points=(0.0,)),
    )

    _integral_case(
        "sinc-improper",
        CaseKind.IMPROPER,
        "sin(x)/x",
        ClosedInterval(0.0, math.inf),
        Expected(value=math.pi / 2.0, tol=1e-5),
        Provenance.DERIVED,
        "conditionally convergent; value pi/2",
        IntegratorConfig(tol=1e-6),
    )

    for branch in ("sin", "cos"):
        for s in (0, 1, 2):
            _integral_case(
                f"cauchy-convergent-{branch}-s{s}",
                CaseKind.IMPROPER,
                f"{branch}(x^2)*cos({s}*x)",
                ClosedInterval(0.0, math.inf),
                Expected(value=cauchy_closed_form(branch, float(s)), tol=1e-4),
                Provenance.PAPER,
                "oscillatory Fresnel-type integral; closed form"
                " sqrt(pi/8) (cos(s^2/4) -+ sin(s^2/4))",
                IntegratorConfig(tol=1e-4),
            )

    for branch in ("sin", "cos"):
        _integral_case(
            f"cauchy-divergent-{branch}",
            CaseKind.IMPROPER,
            f"x*{branch}(x^2)*sin(x)",
            ClosedInterval(0.0, math.inf),
            Expected(status=IntegralStatus.DIVERGED),
            Provenance.PAPER,
            "growing envelope defeats every cutoff limit; no finite value",
            IntegratorConfig(tol=1e-4),
        )

    _ftc_case(
        "ftc-square",
        "x^2",
        "2*x",
        ClosedInterval(0.0, 1.0),
        Expected(value=0.0, tol=1e-6),
        Provenance.TRIVIAL,
        "smooth polynomial; residuals limited only by quadrature",
        IntegratorConfig(tol=1e-6),
    )

    _ftc_case(
        "ftc-sine",
        "sin(x)",
        None,
        ClosedInterval(0.0, 2.0),
        Expected(value=0.0, tol=1e-5),
        Provenance.TRIVIAL,
        "derivative left to the checker's own differencer",
        IntegratorConfig(tol=1e-6),
    )

    _ftc_case(
        "ftc-abs",
        "abs(x)",
        "piecewise(x < 0 -> -1, 0 < x -> 1, else -> 0)",
        ClosedInterval(-1.0, 1.0),
        Expected(value=0.0, tol=1e-6),
        Provenance.TRIVIAL,
        "kink at 0; the sign function (0 at the kink) integrates"
        " back to abs exactly, and a jump needs no gauge pinch",
        IntegratorConfig(tol=1e-6),
    )

    _ftc_case(
        "ftc-pathological",
        "piecewise(x == 0 -> 0, else -> x^2*sin(x^-3))",
        "piecewise(x == 0 -> 0, else -> 2*x*sin(x^-3) - 3*x^-2*cos(x^-3))",
        ClosedInterval(0.0, 1.0),
        Expected(value=0.0, tol=1e-3),
        Provenance.PAPER,
        "differentiable everywhere yet the derivative is wildly"
        " oscillatory near 0; gauge integration recovers F",
        IntegratorConfig(tol=1e-3, singular_points=(0.0,)),
    )

    unit_square = Rectangle(ClosedInterval(0.0, 1.0), ClosedInterval(0.0, 1.0))
    _rectangle_case(
        "dui-smooth",
        CaseKind.DUI,
        diff_under_integral,
        {"f": "x^2*y", "f1": "2*x*y"},
        unit_square,
        None,
        Expected(verdict=InterchangeVerdict.HOLDS_ON_SAMPLES),
        Provenance.TRIVIAL,
        "polynomial integrand; both sides equal (t^2 - s^2)/2",
        IntegratorConfig(tol=1e-6),
    )

    _rectangle_case(
        "fubini-counterexample",
        CaseKind.ITERATED,
        interchange_iterated,
        {"g": "(x^2 - y^2)/(x^2 + y^2)^2"},
        unit_square,
        [Window(0.0, 1.0)],
        Expected(verdict=InterchangeVerdict.FAILS),
        Provenance.DERIVED,
        "classic non-absolutely-integrable kernel: the two"
        " iterated integrals are pi/4 and -pi/4",
        IntegratorConfig(tol=1e-3, singular_points=(0.0,)),
    )

    _series_case(
        "series-exponential",
        "x^n / n!",
        _exp_series_term,
        ClosedInterval(0.0, 1.0),
        Expected(value=math.e - 2.0, tol=1e-6),
        Provenance.DERIVED,
        "sum is e^x - 1; integral over [0, 1] is e - 2",
        IntegratorConfig(tol=1e-6),
    )

    _series_case(
        "series-telescoping-failure",
        "n x exp(-n x^2) - (n-1) x exp(-(n-1) x^2)",
        _bump_series_term,
        ClosedInterval(0.0, 1.0),
        Expected(verdict=InterchangeVerdict.FAILS),
        Provenance.DERIVED,
        "partial sums N x exp(-N x^2) drop to 0 pointwise while"
        " every partial-sum integral stays near 1/2",
        IntegratorConfig(tol=1e-3),
    )


_build_registry()


# ---------------------------------------------------------------------------
# Public API


def list_cases() -> list[NamedCase]:
    """All registered cases in a stable, documented order."""
    return list(_REGISTRY.values())


def get_case(name: str) -> NamedCase:
    case = _REGISTRY.get(name)
    if case is None:
        raise UnknownCase(name)
    return case


def run_case(name: str, **cfg_overrides) -> CaseReport:
    """Run one case, optionally overriding config fields (tol, seed, ...)."""
    case = get_case(name)
    cfg = case.base_cfg.with_(**cfg_overrides) if cfg_overrides else case.base_cfg
    start = time.perf_counter()
    outcome = case.runner(cfg)
    runtime = time.perf_counter() - start
    actual, passed, trace = _judge(case, outcome)
    return CaseReport(
        case=case,
        actual=actual,
        passed=passed,
        runtime_seconds=runtime,
        trace=trace,
    )
