"""Command-line front-end over the integration and interchange engines.

Every command speaks two dialects: a human-readable text rendering and,
with --json, a machine-readable document that validates against the
schema shipped in schemas/cli_output.schema.json.  Identical inputs and
seed produce byte-identical JSON.

Exit codes: 0 for CONVERGED / pass / HOLDS_ON_SAMPLES, 2 for DIVERGED /
fail / FAILS, 3 for INCONCLUSIVE, 1 for usage, parse, and domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from importlib import resources
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import (
    Rectangle,
    ftc_verify,
    diff_under_integral,
    interchange_iterated,
    interchange_sum_integral,
)
from .corpus import UnknownCase, list_cases, run_case
from .expr import (
    DomainError,
    NotDifferentiable,
    ParseError,
    UnboundVariable,
    compile_evaluator,
    differentiate,
    parse,
    to_text,
    variables,
)
from .extreal import ClosedInterval, _sanitize_json
from .gauge import (
    Gauge,
    enumeration_gauge,
    is_fine,
    rational_enumeration,
    singularity_gauge,
    uniform_gauge,
)
from .integrator import (
    IntegralResult,
    IntegralStatus,
    IntegratorConfig,
    _schedule_params,
    hake_improper,
    integrate_auto,
)
from .partition import (
    CellBudgetExceeded,
    DepthExceeded,
    EvaluatorDomainError,
    cousin_fine_partition,
    validate,
)

__all__ = ["main", "build_parser", "load_output_schema"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_STATUS_EXIT = {
    IntegralStatus.CONVERGED: EXIT_OK,
    IntegralStatus.DIVERGED: EXIT_FAIL,
    IntegralStatus.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

_VERDICT_EXIT = {
    "HOLDS_ON_SAMPLES": EXIT_OK,
    "FAILS": EXIT_FAIL,
    "INCONCLUSIVE": EXIT_INCONCLUSIVE,
}


class _UsageError(Exception):
    """Bad arguments discovered after argparse (intervals, gauges, ...)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads any token starting with '-' as a flag unless it
        # looks like a negative number; count -inf and exponents as
        # numbers too, so 'improper f x -inf inf' parses.
        self._negative_number_matcher = re.compile(
            r"^-(\d*\.?\d+(e[-+]?\d+)?|inf)$", re.IGNORECASE
        )

    # argparse exits 2 on usage errors; the documented convention
    # reserves 2 for DIVERGED/FAILS, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_output_schema() -> dict:
    """The JSON schema every --json document validates against."""
    path = resources.files("gaugequad").joinpath("schemas/cli_output.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Argument plumbing


def _parse_endpoint(text: str) -> float:
    s = text.strip().lower()
    if s in ("inf", "+inf"):
        return math.inf
    if s == "-inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"invalid endpoint {text!r} (number, 'inf' or '-inf')")


def _interval(lo: str, hi: str) -> ClosedInterval:
    try:
        return ClosedInterval(_parse_endpoint(lo), _parse_endpoint(hi))
    except ValueError as exc:
        raise _UsageError(str(exc))


def _parse_singular(text: Optional[str]) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise _UsageError(f"invalid --singular list {text!r}")


def _parse_gauge(spec: str, singular: tuple[float, ...]) -> Gauge:
    """NAME:params gauge constructors for --gauge.

    uniform:DELTA[,TAIL]          constant windows, tail cutoff
    singularity:DELTA,SHARPNESS   uniform base pinched at --singular points
    enumeration:EPS[,COUNT]       shrinking windows along the first COUNT
                                  rationals of [0, 1] (default 100000)
    """
    name, _, params = spec.partition(":")
    try:
        vals = [float(p) for p in params.split(",") if p.strip()]
    except ValueError:
        raise _UsageError(f"invalid --gauge parameters in {spec!r}")
    try:
        if name == "uniform":
            if len(vals) == 1:
                return uniform_gauge(vals[0])
            if len(vals) == 2:
                return uniform_gauge(vals[0], vals[1])
        elif name == "singularity":
            if len(vals) == 2:
                if not singular:
                    raise _UsageError(
                        "--gauge singularity:... needs --singular points"
                    )
                return singularity_gauge(
                    uniform_gauge(vals[0]), singular, vals[1]
                )
        elif name == "enumeration":
            if len(vals) in (1, 2):
                count = int(vals[1]) if len(vals) == 2 else 100_000
                return enumeration_gauge(
                    rational_enumeration(count),
                    vals[0],
                    base=uniform_gauge(1.0 / 64.0),
                    prefix=count,
                )
        else:
            raise _UsageError(
                f"unknown gauge {name!r} (uniform, singularity, enumeration)"
            )
    except ValueError as exc:
        raise _UsageError(f"bad --gauge {spec!r}: {exc}")
    raise _UsageError(f"wrong parameter count for --gauge {spec!r}")


def _overrides(args) -> dict:
    """IntegratorConfig fields the common flags set; the seed falls back
    to GAUGEQUAD_SEED when --seed is absent.  IntegratorConfig checks each
    field on its own, so checking them on the defaults checks them for
    any base config."""
    kw = {
        name: getattr(args, name)
        for name in ("tol", "max_refinements", "max_depth", "seed")
        if getattr(args, name) is not None
    }
    raw = os.environ.get("GAUGEQUAD_SEED", "")
    if args.seed is None and raw:
        try:
            kw["seed"] = int(raw)
        except ValueError:
            raise _UsageError(f"GAUGEQUAD_SEED is not an integer: {raw!r}")
    singular = _parse_singular(args.singular)
    if singular:
        kw["singular_points"] = singular
    if args.gauge is not None:
        kw["gauge_override"] = _parse_gauge(args.gauge, singular)
    try:
        IntegratorConfig(**kw)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return kw


def _config_from(args) -> IntegratorConfig:
    return IntegratorConfig(**_overrides(args))


def _options_dict(cfg: IntegratorConfig, args) -> dict:
    return {
        "tol": cfg.tol,
        "max_refinements": cfg.max_refinements,
        "max_depth": cfg.max_depth,
        "seed": cfg.seed,
        "singular": list(cfg.singular_points),
        "gauge": args.gauge,
    }


def _compiled(text: str, names: tuple[str, ...]) -> Callable:
    ast = parse(text)
    free = variables(ast)
    unknown = free - set(names)
    if unknown:
        raise _UsageError(
            f"expression uses undeclared variable(s) {sorted(unknown)}"
        )
    return compile_evaluator(ast, names)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        text = json.dumps(_sanitize_json(payload), sort_keys=True, indent=2, allow_nan=False)
    print(text, flush=True)  # a closed pipe raises here, inside main's handlers


def _integral_text(res: IntegralResult, trace: bool) -> str:
    lines = [
        f"value            {res.value!r}",
        f"error estimate   {res.error_estimate:.6g}",
        f"status           {res.status.value}",
        f"evaluations      {res.evaluations}",
    ]
    if res.message:
        lines.append(f"note             {res.message}")
    if trace:
        lines.append("trace:")
        lines.extend(f"  level {k}: {v!r}" for k, v in res.trace)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_integral(args, engine_name: str) -> int:
    cfg = _config_from(args)
    fn = _compiled(args.expr, (args.var,))
    target = _interval(args.lo, args.hi)
    engine = integrate_auto if engine_name == "integrate" else hake_improper
    res = engine(fn, target, cfg)
    payload = {
        "command": engine_name,
        "inputs": {
            "expr": args.expr,
            "var": args.var,
            "lo": target.lo.as_float(),
            "hi": target.hi.as_float(),
            "options": _options_dict(cfg, args),
        },
        "result": {**res.to_json_dict(), "message": res.message},
    }
    if args.trace:
        payload["trace"] = [[int(k), v] for k, v in res.trace]
    _emit(args, payload, _integral_text(res, args.trace))
    return _STATUS_EXIT[res.status]


def cmd_integrate(args) -> int:
    return _cmd_integral(args, "integrate")


def cmd_improper(args) -> int:
    return _cmd_integral(args, "improper")


def cmd_ftc(args) -> int:
    cfg = _config_from(args)
    F = _compiled(args.expr, (args.var,))
    target = _interval(args.lo, args.hi)
    if not target.is_bounded:
        raise _UsageError("ftc needs a bounded interval")
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2 (the two endpoints)")
    fprime = None
    fprime_text = None
    mode = "synthesized"
    if args.fprime is not None:
        fprime = _compiled(args.fprime, (args.var,))
        fprime_text = args.fprime
        mode = "supplied"
    else:
        try:
            d = differentiate(parse(args.expr), args.var)
            fprime_text = to_text(d)
            fprime = compile_evaluator(d, (args.var,))
            mode = "symbolic"
        except NotDifferentiable:
            pass
    scalar_F = lambda x: float(F(np.asarray(x, dtype=float)))
    report = ftc_verify(scalar_F, fprime, target, grid_size=args.grid, cfg=cfg)
    payload = {
        "command": "ftc",
        "inputs": {
            "F": args.expr,
            "fprime": fprime_text,
            "fprime_mode": mode,
            "var": args.var,
            "lo": target.lo.as_float(),
            "hi": target.hi.as_float(),
            "grid": args.grid,
            "options": _options_dict(cfg, args),
        },
        "result": report.to_json_dict(),
    }
    rows = [f"derivative       {mode}" + (f" ({fprime_text})" if fprime_text else "")]
    rows.append(f"{'x':>14s} {'residual':>12s} status")
    for x, r, s in zip(report.grid, report.residuals, report.statuses):
        rows.append(f"{x:14.6g} {r:12.3e} {s.value}")
    rows.append(f"max residual     {report.max_residual:.6g}")
    rows.append("PASS" if report.passed else "FAIL")
    if report.message:
        rows.append(f"note             {report.message}")
    _emit(args, payload, "\n".join(rows))
    if report.passed:
        return EXIT_OK
    if any(s is not IntegralStatus.CONVERGED for s in report.statuses):
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def _report_exit(report) -> int:
    return _VERDICT_EXIT[report.overall.value]


def _rect_inputs(args, rect: Rectangle, cfg: IntegratorConfig) -> dict:
    """The --json inputs of the commands that check a rectangle."""
    ends = (rect.x_interval.lo, rect.x_interval.hi, rect.y_interval.lo, rect.y_interval.hi)
    inputs = {k: e.as_float() for k, e in zip(("x_lo", "x_hi", "y_lo", "y_hi"), ends)}
    return {"x_var": args.x_var, "y_var": args.y_var, **inputs, "options": _options_dict(cfg, args)}


def _rectangle(args) -> Rectangle:
    rect = Rectangle(
        _interval(args.x_lo, args.x_hi), _interval(args.y_lo, args.y_hi)
    )
    if not rect.x_interval.is_bounded:
        raise _UsageError(
            f"the {args.x_var} interval must be bounded: the checks run on "
            "windows [s, t] inside it"
        )
    return rect


def cmd_dui(args) -> int:
    cfg = _config_from(args)
    f = _compiled(args.f, (args.x_var, args.y_var))
    if args.f1 is not None:
        f1 = _compiled(args.f1, (args.x_var, args.y_var))
        f1_text = args.f1
    else:
        d = differentiate(parse(args.f), args.x_var)
        f1_text = to_text(d)
        f1 = compile_evaluator(d, (args.x_var, args.y_var))
    rect = _rectangle(args)
    report = diff_under_integral(f, f1, rect, cfg=cfg)
    payload = {
        "command": "dui",
        "inputs": {
            "f": args.f,
            "f1": f1_text,
            **_rect_inputs(args, rect, cfg),
        },
        "result": report.to_json_dict(),
    }
    _emit(args, payload, report.to_text_table())
    return _report_exit(report)


def cmd_interchange(args) -> int:
    cfg = _config_from(args)
    g = _compiled(args.g, (args.x_var, args.y_var))
    rect = _rectangle(args)
    report = interchange_iterated(g, rect, cfg=cfg)
    payload = {
        "command": "interchange",
        "inputs": {
            "g": args.g,
            **_rect_inputs(args, rect, cfg),
        },
        "result": report.to_json_dict(),
    }
    _emit(args, payload, report.to_text_table())
    return _report_exit(report)


def cmd_series(args) -> int:
    cfg = _config_from(args)
    ev = _compiled(args.term, (args.x_var, args.n_var))
    target = _interval(args.lo, args.hi)
    if not target.is_bounded:
        raise _UsageError("series needs a bounded interval")
    if args.n_max < 2:
        raise _UsageError("--n-max must be at least 2")

    def term_at(n: int) -> Callable:
        return lambda xv: ev(np.asarray(xv, dtype=float), np.float64(n))

    report = interchange_sum_integral(term_at, target, n_max=args.n_max, cfg=cfg)
    payload = {
        "command": "series",
        "inputs": {
            "term": args.term,
            "x_var": args.x_var,
            "n_var": args.n_var,
            "lo": target.lo.as_float(),
            "hi": target.hi.as_float(),
            "n_max": args.n_max,
            "options": _options_dict(cfg, args),
        },
        "result": report.to_json_dict(),
    }
    _emit(args, payload, report.to_text_table())
    return _report_exit(report)


def cmd_partition(args) -> int:
    cfg = _config_from(args)
    target = _interval(args.lo, args.hi)
    if args.gauge is not None:
        gauge = cfg.gauge_override
    else:
        lo, hi = target.lo.as_float(), target.hi.as_float()
        span = hi - lo if math.isfinite(hi - lo) else 8.0
        _, tail, _ = _schedule_params(cfg, target)
        gauge = uniform_gauge(max(span, 1e-12) / 8.0, tail)
    part = cousin_fine_partition(
        gauge, target, max_depth=cfg.max_depth, seed=cfg.seed
    )
    violations = validate(part)
    fine = is_fine(part, gauge)
    cells = part.to_records()
    payload = {
        "command": "partition",
        "inputs": {
            "lo": target.lo.as_float(),
            "hi": target.hi.as_float(),
            "options": _options_dict(cfg, args),
        },
        "result": {
            "cells": cells,
            "count": len(cells),
            "violations": violations,
            "fine": fine,
        },
    }
    rows = [f"{'cell':>28s}   tag"]
    rows.extend(
        f"[{c['lo']!r:>12}, {c['hi']!r:>12}]   {c['tag']!r}" for c in cells
    )
    rows.append(f"cells            {len(cells)}")
    rows.append(f"violations       {violations if violations else 'none'}")
    rows.append(f"fine             {fine}")
    _emit(args, payload, "\n".join(rows))
    return EXIT_OK if not violations and fine else EXIT_FAIL


def cmd_corpus_list(args) -> int:
    cases = list_cases()
    payload = {
        "command": "corpus-list",
        "cases": [c.to_json_dict() for c in cases],
    }
    rows = [
        f"{c.name:32s} {c.kind.value:10s} {c.provenance.value:8s}"
        f" {c.expected.describe()}"
        for c in cases
    ]
    _emit(args, payload, "\n".join(rows))
    return EXIT_OK


def cmd_corpus_run(args) -> int:
    report = run_case(args.name, **_overrides(args))
    payload = {"command": "corpus-run", "report": report.to_json_dict()}
    if args.trace and isinstance(report.trace, list):
        payload["trace"] = [[int(k), v] for k, v in report.trace]
    text = report.summary_line()
    if args.trace and isinstance(report.trace, list):
        text += "\n" + "\n".join(f"  level {k}: {v!r}" for k, v in report.trace)
    _emit(args, payload, text)
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="target tolerance")
    common.add_argument("--max-refinements", type=int, default=None)
    common.add_argument("--max-depth", type=int, default=None)
    common.add_argument(
        "--seed", type=int, default=None, help="RNG seed (default GAUGEQUAD_SEED or 0)"
    )
    common.add_argument(
        "--gauge", default=None, metavar="NAME:PARAMS", help=_parse_gauge.__doc__
    )
    common.add_argument(
        "--singular", default=None, metavar="P1,P2",
        help="known singular points; only those in the target pinch the gauge",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--trace", action="store_true", help="include refinement trace")

    parser = _Parser(
        prog="gaugequad",
        description="Gauge (Henstock-Kurzweil) integration and interchange checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("integrate", parents=[common], help="integrate an expression")
    p.add_argument("expr")
    p.add_argument("var")
    p.add_argument("lo")
    p.add_argument("hi")
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser(
        "improper", parents=[common], help="integrate via cutoff exhaustion"
    )
    p.add_argument("expr")
    p.add_argument("var")
    p.add_argument("lo")
    p.add_argument("hi")
    p.set_defaults(handler=cmd_improper)

    p = sub.add_parser(
        "ftc", parents=[common], help="check int_a^x F' = F(x) - F(a) on a grid"
    )
    p.add_argument("expr", help="the antiderivative F")
    p.add_argument("var")
    p.add_argument("lo")
    p.add_argument("hi")
    p.add_argument("--fprime", default=None, help="derivative expression (optional)")
    p.add_argument("--grid", type=int, default=9)
    p.set_defaults(handler=cmd_ftc)

    p = sub.add_parser(
        "dui", parents=[common], help="check differentiation under the integral"
    )
    p.add_argument("f")
    p.add_argument("x_var")
    p.add_argument("y_var")
    p.add_argument("x_lo")
    p.add_argument("x_hi")
    p.add_argument("y_lo")
    p.add_argument("y_hi")
    p.add_argument("--f1", default=None, help="partial derivative of f (optional)")
    p.set_defaults(handler=cmd_dui)

    p = sub.add_parser(
        "interchange", parents=[common], help="compare the two iterated integrals"
    )
    p.add_argument("g")
    p.add_argument("x_var")
    p.add_argument("y_var")
    p.add_argument("x_lo")
    p.add_argument("x_hi")
    p.add_argument("y_lo")
    p.add_argument("y_hi")
    p.set_defaults(handler=cmd_interchange)

    p = sub.add_parser(
        "series", parents=[common], help="compare sum-then-integrate vs integrate-then-sum"
    )
    p.add_argument("term", help="term expression in the x and n variables")
    p.add_argument("x_var")
    p.add_argument("n_var")
    p.add_argument("lo")
    p.add_argument("hi")
    p.add_argument("--n-max", type=int, default=64)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("partition", parents=[common], help="emit one fine partition")
    p.add_argument("lo")
    p.add_argument("hi")
    p.set_defaults(handler=cmd_partition)

    # Common flags live on the leaf parsers only: a subparser's defaults
    # would overwrite values its parent already parsed.
    p = sub.add_parser("corpus", help="reference case registry")
    csub = p.add_subparsers(dest="corpus_command", required=True, parser_class=_Parser)
    pl = csub.add_parser("list", parents=[common], help="list registered cases")
    pl.set_defaults(handler=cmd_corpus_list)
    pr = csub.add_parser("run", parents=[common], help="run one registered case")
    pr.add_argument("name")
    pr.set_defaults(handler=cmd_corpus_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:  # the reader left; quiet the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (_UsageError, UnknownCase, DomainError, UnboundVariable, NotDifferentiable,
            EvaluatorDomainError) as exc:
        print(f"gaugequad: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"gaugequad: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DepthExceeded, CellBudgetExceeded) as exc:
        print(f"gaugequad: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
