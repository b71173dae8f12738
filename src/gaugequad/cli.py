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


def _payload(args, cfg: IntegratorConfig, inputs: dict, result: dict) -> dict:
    """The --json document of ``args.command`` run under ``cfg``: its inputs
    carry the options in force."""
    options = {
        "tol": cfg.tol,
        "max_refinements": cfg.max_refinements,
        "max_depth": cfg.max_depth,
        "seed": cfg.seed,
        "singular": list(cfg.singular_points),
        "gauge": args.gauge,
    }
    return {"command": args.command, "inputs": {**inputs, "options": options}, "result": result}


def _ends(iv: ClosedInterval, prefix: str = "") -> dict:
    return {f"{prefix}lo": iv.lo.as_float(), f"{prefix}hi": iv.hi.as_float()}


def _compiled(text: str, names: tuple[str, ...]) -> Callable:
    ast = parse(text)
    free = variables(ast)
    unknown = free - set(names)
    if unknown:
        raise _UsageError(
            f"expression uses undeclared variable(s) {sorted(unknown)}"
        )
    return compile_evaluator(ast, names)


def _derivative(supplied: Optional[str], text: str, names: tuple[str, ...], synthesize: bool):
    """(evaluator, text, mode) of the derivative of ``text`` in ``names[0]``:
    the ``supplied`` expression, else the symbolic derivative.  Where there
    is none, ``synthesize`` returns (None, None, "synthesized") for the
    engine to build one; otherwise NotDifferentiable propagates."""
    if supplied is not None:
        return _compiled(supplied, names), supplied, "supplied"
    try:
        d = differentiate(parse(text), names[0])
    except NotDifferentiable:
        if not synthesize:
            raise
        return None, None, "synthesized"
    return compile_evaluator(d, names), to_text(d), "symbolic"


def _emit(args, payload: dict, text: str, trace=None, head: tuple[str, ...] = ()) -> None:
    """Print ``text``, or ``payload`` as JSON under --json.  Under --trace a
    (level, value) ``trace`` is added to both, its text rows after ``head``."""
    if args.trace and trace is not None:
        payload["trace"] = [[int(k), v] for k, v in trace]
        text += "\n" + "\n".join([*head, *(f"  level {k}: {v!r}" for k, v in trace)])
    if args.json:
        text = json.dumps(_sanitize_json(payload), sort_keys=True, indent=2, allow_nan=False)
    print(text, flush=True)  # a closed pipe raises here, inside main's handlers


# ---------------------------------------------------------------------------
# Command handlers


def cmd_integral(args) -> int:
    """``integrate`` and ``improper``: the same inputs and output, two engines."""
    cfg = _config_from(args)
    fn = _compiled(args.expr, (args.var,))
    target = _interval(args.lo, args.hi)
    engine = integrate_auto if args.command == "integrate" else hake_improper
    res = engine(fn, target, cfg)
    inputs = {"expr": args.expr, "var": args.var, **_ends(target)}
    result = {**res.to_json_dict(), "message": res.message}
    lines = [
        f"value            {res.value!r}",
        f"error estimate   {res.error_estimate:.6g}",
        f"status           {res.status.value}",
        f"evaluations      {res.evaluations}",
    ]
    if res.message:
        lines.append(f"note             {res.message}")
    _emit(args, _payload(args, cfg, inputs, result), "\n".join(lines), res.trace, head=("trace:",))
    return _STATUS_EXIT[res.status]


def cmd_ftc(args) -> int:
    cfg = _config_from(args)
    F = _compiled(args.expr, (args.var,))
    target = _interval(args.lo, args.hi)
    if not target.is_bounded:
        raise _UsageError("ftc needs a bounded interval")
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2 (the two endpoints)")
    fprime, fprime_text, mode = _derivative(args.fprime, args.expr, (args.var,), synthesize=True)
    scalar_F = lambda x: float(F(np.asarray(x, dtype=float)))
    report = ftc_verify(scalar_F, fprime, target, grid_size=args.grid, cfg=cfg)
    inputs = {
        "F": args.expr,
        "fprime": fprime_text,
        "fprime_mode": mode,
        "var": args.var,
        **_ends(target),
        "grid": args.grid,
    }
    rows = [f"derivative       {mode}" + (f" ({fprime_text})" if fprime_text else "")]
    rows.append(f"{'x':>14s} {'residual':>12s} status")
    for x, r, s in zip(report.grid, report.residuals, report.statuses):
        rows.append(f"{x:14.6g} {r:12.3e} {s.value}")
    rows.append(f"max residual     {report.max_residual:.6g}")
    rows.append("PASS" if report.passed else "FAIL")
    if report.message:
        rows.append(f"note             {report.message}")
    _emit(args, _payload(args, cfg, inputs, report.to_json_dict()), "\n".join(rows))
    if report.passed:
        return EXIT_OK
    if any(s is not IntegralStatus.CONVERGED for s in report.statuses):
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def _emit_report(args, cfg: IntegratorConfig, inputs: dict, report) -> int:
    """Print an interchange report and return its verdict's exit code."""
    _emit(args, _payload(args, cfg, inputs, report.to_json_dict()), report.to_text_table())
    return _VERDICT_EXIT[report.overall.value]


def _rectangle(args) -> tuple[Rectangle, dict]:
    """The rectangle of the commands that check one, with its --json inputs."""
    rect = Rectangle(
        _interval(args.x_lo, args.x_hi), _interval(args.y_lo, args.y_hi)
    )
    if not rect.x_interval.is_bounded:
        raise _UsageError(
            f"the {args.x_var} interval must be bounded: the checks run on "
            "windows [s, t] inside it"
        )
    ends = {**_ends(rect.x_interval, "x_"), **_ends(rect.y_interval, "y_")}
    return rect, {"x_var": args.x_var, "y_var": args.y_var, **ends}


def cmd_dui(args) -> int:
    cfg = _config_from(args)
    names = (args.x_var, args.y_var)
    f = _compiled(args.f, names)
    f1, f1_text, _ = _derivative(args.f1, args.f, names, synthesize=False)
    rect, inputs = _rectangle(args)
    report = diff_under_integral(f, f1, rect, cfg=cfg)
    return _emit_report(args, cfg, {"f": args.f, "f1": f1_text, **inputs}, report)


def cmd_interchange(args) -> int:
    cfg = _config_from(args)
    g = _compiled(args.g, (args.x_var, args.y_var))
    rect, inputs = _rectangle(args)
    report = interchange_iterated(g, rect, cfg=cfg)
    return _emit_report(args, cfg, {"g": args.g, **inputs}, report)


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
    inputs = {
        "term": args.term,
        "x_var": args.x_var,
        "n_var": args.n_var,
        **_ends(target),
        "n_max": args.n_max,
    }
    return _emit_report(args, cfg, inputs, report)


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
    result = {
        "cells": cells,
        "count": len(cells),
        "violations": violations,
        "fine": fine,
    }
    rows = [f"{'cell':>28s}   tag"]
    rows.extend(
        f"[{c['lo']!r:>12}, {c['hi']!r:>12}]   {c['tag']!r}" for c in cells
    )
    rows.append(f"cells            {len(cells)}")
    rows.append(f"violations       {violations if violations else 'none'}")
    rows.append(f"fine             {fine}")
    _emit(args, _payload(args, cfg, _ends(target), result), "\n".join(rows))
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
    trace = report.trace if isinstance(report.trace, list) else None
    _emit(args, payload, report.summary_line(), trace)
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser assembly

_INTEGRAL_ARGS = ("expr", "var", "lo", "hi")
_RECT_ARGS = ("x_var", "y_var", "x_lo", "x_hi", "y_lo", "y_hi")

# name -> (handler, help, positionals, extra flags), in --help order.
_COMMANDS = {
    "integrate": (cmd_integral, "integrate an expression", _INTEGRAL_ARGS, {}),
    "improper": (cmd_integral, "integrate via cutoff exhaustion", _INTEGRAL_ARGS, {}),
    "ftc": (cmd_ftc, "check int_a^x F' = F(x) - F(a) on a grid", _INTEGRAL_ARGS, {
        "--fprime": {"help": "derivative expression (optional)"},
        "--grid": {"type": int, "default": 9},
    }),
    "dui": (cmd_dui, "check differentiation under the integral", ("f", *_RECT_ARGS), {
        "--f1": {"help": "partial derivative of f (optional)"},
    }),
    "interchange": (cmd_interchange, "compare the two iterated integrals", ("g", *_RECT_ARGS), {}),
    "series": (
        cmd_series, "compare sum-then-integrate vs integrate-then-sum",
        ("term", "x_var", "n_var", "lo", "hi"), {"--n-max": {"type": int, "default": 64}},
    ),
    "partition": (cmd_partition, "emit one fine partition", ("lo", "hi"), {}),
}

_POSITIONAL_HELP = {
    ("ftc", "expr"): "the antiderivative F",
    ("series", "term"): "term expression in the x and n variables",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, help="target tolerance")
    common.add_argument("--max-refinements", type=int)
    common.add_argument("--max-depth", type=int)
    common.add_argument("--seed", type=int, help="RNG seed (default GAUGEQUAD_SEED or 0)")
    common.add_argument("--gauge", metavar="NAME:PARAMS", help=_parse_gauge.__doc__)
    common.add_argument(
        "--singular", metavar="P1,P2",
        help="known singular points; only those in the target pinch the gauge",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--trace", action="store_true", help="include refinement trace")

    parser = _Parser(
        prog="gaugequad",
        description="Gauge (Henstock-Kurzweil) integration and interchange checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (handler, help_text, positionals, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for dest in positionals:
            p.add_argument(dest, help=_POSITIONAL_HELP.get((name, dest)))
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)

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
