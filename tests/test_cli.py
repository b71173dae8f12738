import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from gaugequad.cli import build_parser, load_output_schema, main

SCHEMA = load_output_schema()


def run_cli(*argv, env=None):
    """Invoke the CLI in-process, capturing exit code and streams."""
    import contextlib
    import io
    import os

    out, err = io.StringIO(), io.StringIO()
    old_env = {}
    if env:
        for k, v in env.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage failures
                code = int(exc.code or 0)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def run_json(*argv, env=None):
    code, out, err = run_cli(*argv, "--json", env=env)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


# -- exit codes ----------------------------------------------------------------

def test_integrate_polynomial_exit_zero():
    code, out, err = run_cli("integrate", "x^2", "x", "0", "1")
    assert code == 0
    assert "0.333333" in out
    assert err == ""


def test_divergent_integral_exit_two():
    code, out, _ = run_cli("improper", "x*sin(x^2)*sin(x)", "x", "0", "inf", "--tol", "1e-4")
    assert code == 2
    assert "DIVERGED" in out


def test_divergent_oscillation_is_not_reported_converged():
    # x sin(x^2) sin(wx) diverges for every w != 0: its cutoff integrals
    # oscillate without decay, so no Shanks antilimit may be claimed.
    code, payload, _ = run_json(
        "improper", "x*sin(x^2)*sin(0.62*x)", "x", "0", "inf", "--tol", "1e-4"
    )
    assert payload["result"]["status"] != "CONVERGED"
    assert code != 0


def test_parse_error_exit_one_with_offset_message():
    code, out, err = run_cli("integrate", "2**x", "x", "0", "1")
    assert code == 1
    assert out == ""
    assert "unexpected '*' at offset 2 (expected number or name or '(' or '-')" in err


def test_unbound_variable_exit_one():
    code, _, err = run_cli("integrate", "x + y", "x", "0", "1")
    assert code == 1
    assert "y" in err


def test_cell_budget_exit_three():
    code, _, err = run_cli("partition", "0", "1", "--gauge", "uniform:1e-9")
    assert code == 3
    assert "cells" in err


def test_usage_error_exit_one():
    code, _, err = run_cli("integrate", "x", "x", "zero", "1")
    assert code == 1
    code, _, err = run_cli("integrate", "x", "x", "5", "1")
    assert code == 1
    code, _, err = run_cli("nonsense")
    assert code == 1


def test_unknown_corpus_case_exit_one():
    code, _, err = run_cli("corpus", "run", "no-such-case")
    assert code == 1
    assert "no-such-case" in err


# -- JSON output and schema -----------------------------------------------------

def test_integrate_json_schema_and_content():
    code, payload, _ = run_json("integrate", "x^2", "x", "0", "1")
    assert code == 0
    assert payload["command"] == "integrate"
    assert payload["result"]["status"] == "CONVERGED"
    assert abs(payload["result"]["value"] - 1.0 / 3.0) < 1e-7


def test_integrate_handles_infinite_endpoint():
    code, payload, _ = run_json("integrate", "sin(x)/x", "x", "0", "inf", "--tol", "1e-5")
    assert code == 0
    assert abs(payload["result"]["value"] - math.pi / 2.0) < 1e-4
    assert payload["inputs"]["hi"] == "inf"


def test_improper_json():
    code, payload, _ = run_json(
        "improper", "1/sqrt(x)", "x", "0", "1", "--singular", "0", "--tol", "1e-6"
    )
    assert code == 0
    assert abs(payload["result"]["value"] - 2.0) < 1e-5


def test_ftc_json_with_symbolic_derivative():
    code, payload, _ = run_json("ftc", "x^2", "x", "0", "1")
    assert code == 0
    assert payload["result"]["passed"] is True
    assert payload["result"]["max_residual"] <= 1e-6


def test_ftc_synthesizes_when_not_differentiable():
    # abs has no symbolic derivative; the numeric synthesis must still
    # verify the identity.  Its sums settle before any tag falls inside
    # the guard around the declared kink, so the guard secant is not
    # reached here (test_calculus.py reaches it with |x|^1.5).  Negative
    # positional args must not be mistaken for flags.
    code, payload, _ = run_json("ftc", "abs(x)", "x", "-1", "1", "--singular", "0")
    assert code == 0
    assert payload["result"]["passed"] is True


def test_ftc_explicit_fprime():
    code, payload, _ = run_json(
        "ftc", "abs(x)", "x", "-1", "1",
        "--fprime", "piecewise(x < 0 -> -1, 0 < x -> 1, else -> 0)",
    )
    assert code == 0
    assert payload["result"]["passed"] is True


def test_ftc_divergent_segment_exits_inconclusive():
    # The first segment holds the pole at 0.3; the later ones are never run.
    code, payload, _ = run_json(
        "ftc", "x", "x", "0", "1", "--fprime", "1/(x-0.3)^2", "--grid", "4"
    )
    assert code == 3
    result = payload["result"]
    assert result["statuses"] == ["CONVERGED", "DIVERGED", "INCONCLUSIVE", "INCONCLUSIVE"]
    assert result["max_residual"] == "inf"
    assert result["passed"] is False


def test_interchange_json_holds():
    code, payload, _ = run_json("interchange", "x*y", "x", "y", "0", "1", "0", "1")
    assert code == 0
    assert payload["command"] == "interchange"
    assert payload["result"]["overall"] == "HOLDS_ON_SAMPLES"


def test_dui_json_holds():
    code, payload, _ = run_json("dui", "x^2*y", "x", "y", "0", "1", "0", "1")
    assert code == 0
    assert payload["result"]["overall"] == "HOLDS_ON_SAMPLES"
    assert all(w["gap"] <= 1e-6 for w in payload["result"]["windows"])


def test_series_json():
    code, payload, _ = run_json(
        "series", "x^n", "x", "n", "0", "0.5", "--n-max", "48", "--tol", "1e-6"
    )
    assert code == 0
    assert payload["result"]["overall"] == "HOLDS_ON_SAMPLES"


def test_partition_json_valid_and_fine():
    code, payload, _ = run_json("partition", "0", "1", "--gauge", "uniform:0.125")
    assert code == 0
    assert payload["result"]["fine"] is True
    assert payload["result"]["violations"] == []
    cells = payload["result"]["cells"]
    assert cells[0]["lo"] == 0.0 and cells[-1]["hi"] == 1.0


def test_partition_json_infinite_target():
    code, payload, _ = run_json(
        "partition", "0", "inf", "--gauge", "uniform:0.5,8"
    )
    assert code == 0
    assert payload["result"]["cells"][-1]["hi"] == "inf"


def test_partition_json_cells_are_the_partitions_records():
    from gaugequad import ClosedInterval, cousin_fine_partition, uniform_gauge

    code, payload, _ = run_json("partition", "0", "inf", "--gauge", "uniform:0.5,8", "--seed", "0")
    assert code == 0
    part = cousin_fine_partition(uniform_gauge(0.5, 8.0), ClosedInterval(0.0, math.inf))
    records = part.to_records()
    assert payload["result"]["cells"] == records
    assert records[-1]["tag"] == records[-1]["hi"] == "inf"


def test_partition_default_gauge():
    code, payload, _ = run_json("partition", "0", "1")
    assert code == 0
    assert payload["result"]["fine"] is True
    assert payload["result"]["violations"] == []


def test_partition_default_gauge_on_unbounded_targets():
    # The default gauge's rays sit where hk_integrate's first level puts
    # them (8 here), not a million units out.
    for lo, hi, count in (("0", "inf", 17), ("-inf", "inf", 34)):
        code, payload, _ = run_json("partition", lo, hi)
        assert code == 0
        assert payload["result"]["violations"] == []
        assert payload["result"]["fine"] is True
        assert payload["result"]["count"] == count


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "x^n", "x", "n", "0", "0.5", "--n-max", "1"),
        ("series", "x^n", "x", "n", "0", "inf"),
        ("ftc", "x^2", "x", "0", "1", "--grid", "1"),
        ("ftc", "x^2", "x", "0", "inf"),
        ("dui", "x*y", "x", "y", "0", "inf", "0", "1"),
        ("interchange", "x*y", "x", "y", "-inf", "1", "0", "1"),
        ("corpus", "run", "inv-sqrt", "--tol", "-1"),
        ("corpus", "run", "inv-sqrt", "--max-depth", "0"),
        ("integrate", "x", "x", "0", "1", "--gauge", "singularity:0.5,0.1"),
        ("integrate", "x", "x", "0", "1", "--gauge", "bogus:1"),
        ("integrate", "x", "x", "0", "1", "--gauge", "uniform:1,2,3"),
    ],
)
def test_bad_arguments_are_one_line_usage_errors(argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("gaugequad: error:")
    assert err.count("\n") == 1


def test_negative_infinite_endpoint_is_not_a_flag():
    code, payload, _ = run_json("improper", "exp(-x^2)", "x", "-inf", "inf")
    assert code == 0
    assert payload["inputs"]["lo"] == "-inf"
    assert abs(payload["result"]["value"] - math.sqrt(math.pi)) < 1e-6
    code, payload, _ = run_json("partition", "-inf", "inf", "--gauge", "uniform:0.5,8")
    assert code == 0
    cells = payload["result"]["cells"]
    assert cells[0]["lo"] == "-inf" and cells[-1]["hi"] == "inf"
    assert payload["result"]["fine"] is True
    code, payload, _ = run_json("integrate", "x^2", "x", "-1e0", "0")
    assert code == 0
    assert payload["inputs"]["lo"] == -1.0


def test_corpus_list_json():
    code, payload, _ = run_json("corpus", "list")
    assert code == 0
    names = [c["name"] for c in payload["cases"]]
    assert "pathological-derivative" in names
    assert "fubini-counterexample" in names


def test_corpus_run_json_pass():
    code, payload, _ = run_json("corpus", "run", "polynomial-smoke")
    assert code == 0
    assert payload["report"]["passed"] is True


def test_corpus_run_json_fail_exit_two():
    # Engine override loosens the computation; the frozen expectation
    # judges it and the run honestly fails.
    code, payload, _ = run_json("corpus", "run", "polynomial-smoke", "--tol", "1e-4")
    assert code == 2
    assert payload["report"]["passed"] is False


def test_json_output_is_byte_identical_across_runs():
    _, a, _ = run_cli("integrate", "sin(x)", "x", "0", "pi", "--json")
    _, b, _ = run_cli("integrate", "sin(x)", "x", "0", "pi", "--json")
    assert a == b


def test_trace_flag_adds_trace():
    code, payload, _ = run_json("integrate", "x^2", "x", "0", "1", "--trace")
    assert code == 0
    assert isinstance(payload["trace"][0], list)
    no_trace = run_json("integrate", "x^2", "x", "0", "1")[1]
    assert "trace" not in no_trace


def test_readme_examples_run_with_json():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [shlex.split(line)[1:] for line in readme.splitlines()
                if line.startswith("    gaugequad ")]
    assert len(commands) == 10
    for argv in commands:
        code, payload, err = run_json(*argv)
        assert code == 0, argv
        assert err == "", argv

# -- seeding ---------------------------------------------------------------------

def test_corpus_run_trace():
    code, payload, _ = run_json("corpus", "run", "polynomial-smoke", "--trace")
    assert code == 0
    assert isinstance(payload["trace"], list) and payload["trace"]
    assert all(isinstance(row, list) and len(row) == 2 for row in payload["trace"])
    # An FTC report has no level trace; the text is the summary line alone.
    code, out, _ = run_cli("corpus", "run", "ftc-square", "--trace")
    assert code == 0
    assert "max residual" in out
    assert "level" not in out


def test_seed_env_fallback_and_flag_override():
    _, a, _ = run_cli("partition", "0", "1", "--gauge", "uniform:0.25", "--json",
                      env={"GAUGEQUAD_SEED": "7"})
    _, b, _ = run_cli("partition", "0", "1", "--gauge", "uniform:0.25", "--seed", "7",
                      "--json")
    assert json.loads(a)["inputs"]["options"]["seed"] == 7
    assert a == b


def test_corpus_run_reads_the_seed_env_var():
    _, from_env, _ = run_cli("corpus", "run", "dui-smooth", "--json",
                             env={"GAUGEQUAD_SEED": "7"})
    _, from_flag, _ = run_cli("corpus", "run", "dui-smooth", "--seed", "7", "--json")
    assert from_env == from_flag


# -- process-level smoke -----------------------------------------------------------

def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gaugequad", "integrate", "x^2", "x", "0", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0.333333" in proc.stdout


def test_closed_stdout_pipe_exits_quietly():
    # The reader is gone before anything is written, as in `... | head -0`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaugequad", "corpus", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# -- parser -------------------------------------------------------------------------

_GAUGE_HELP = (
    "NAME:params gauge constructors for --gauge.\n\n"
    "    uniform:DELTA[,TAIL]          constant windows, tail cutoff\n"
    "    singularity:DELTA,SHARPNESS   uniform base pinched at --singular points\n"
    "    enumeration:EPS[,COUNT]       shrinking windows along the first COUNT\n"
    "                                  rationals of [0, 1] (default 100000)\n"
    "    "
)

_COMMON_ACTIONS = [
    ("help", ("-h", "--help"), None, "==SUPPRESS==", False, "show this help message and exit"),
    ("tol", ("--tol",), "float", None, False, "target tolerance"),
    ("max_refinements", ("--max-refinements",), "int", None, False, None),
    ("max_depth", ("--max-depth",), "int", None, False, None),
    ("seed", ("--seed",), "int", None, False, "RNG seed (default GAUGEQUAD_SEED or 0)"),
    ("gauge", ("--gauge",), None, None, False, _GAUGE_HELP),
    ("singular", ("--singular",), None, None, False,
     "known singular points; only those in the target pinch the gauge"),
    ("json", ("--json",), None, False, False, "machine-readable output"),
    ("trace", ("--trace",), None, False, False, "include refinement trace"),
]


def _positionals(*names):
    return [(n, (), None, None, True, None) for n in names]


# (dest, option_strings, type, default, required, help) of every argparse
# action, per leaf subcommand, in parser order.
FROZEN_PARSER = {
    ("integrate",): _COMMON_ACTIONS + _positionals("expr", "var", "lo", "hi"),
    ("improper",): _COMMON_ACTIONS + _positionals("expr", "var", "lo", "hi"),
    ("ftc",): _COMMON_ACTIONS
    + [("expr", (), None, None, True, "the antiderivative F")]
    + _positionals("var", "lo", "hi")
    + [
        ("fprime", ("--fprime",), None, None, False, "derivative expression (optional)"),
        ("grid", ("--grid",), "int", 9, False, None),
    ],
    ("dui",): _COMMON_ACTIONS
    + _positionals("f", "x_var", "y_var", "x_lo", "x_hi", "y_lo", "y_hi")
    + [("f1", ("--f1",), None, None, False, "partial derivative of f (optional)")],
    ("interchange",): _COMMON_ACTIONS
    + _positionals("g", "x_var", "y_var", "x_lo", "x_hi", "y_lo", "y_hi"),
    ("series",): _COMMON_ACTIONS
    + [("term", (), None, None, True, "term expression in the x and n variables")]
    + _positionals("x_var", "n_var", "lo", "hi")
    + [("n_max", ("--n-max",), "int", 64, False, None)],
    ("partition",): _COMMON_ACTIONS + _positionals("lo", "hi"),
    ("corpus", "list"): _COMMON_ACTIONS,
    ("corpus", "run"): _COMMON_ACTIONS + _positionals("name"),
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def test_parser_actions_are_frozen():
    leaves = dict(_leaf_parsers(build_parser()))
    assert list(leaves) == list(FROZEN_PARSER)
    for path, parser in leaves.items():
        actions = [
            (a.dest, tuple(a.option_strings), a.type.__name__ if a.type else None,
             a.default, a.required, a.help)
            for a in parser._actions
        ]
        assert actions == FROZEN_PARSER[path], path
