"""Benchmark gaugequad end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the root of a checkout:

    python3 perfbench/run.py --workload singular-1d --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory, never
from an installed copy; without ``src/gaugequad`` the run stops with exit
code 2.  Load is a closed loop: one process on one thread runs the
workload's instances back to back.  The first pass is a warm-up; passes
then repeat until ``--seconds`` have gone by and ``run_s`` is their
median.  ``setup_s`` is the median over fresh interpreters of importing
gaugequad and building the workload's inputs.  Every instance of every
pass is checked against its closed-form reference, and every pass must
reproduce the first pass's outputs exactly.

Lines before the last one describe the run; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread: np.dot sits in the Riemann-sum emit.  Set before
# numpy is first imported, here and in the set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9


def _setup(workload: str, seed: int):
    """Import gaugequad and build the inputs; returns (seconds, instances)."""
    t0 = clock()
    import workloads

    instances = workloads.build(workload, seed)
    return clock() - t0, instances


def _setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _run_pass(instances, hooks):
    outcomes = []
    t0 = clock()
    for inst in instances:
        try:
            outcomes.append(inst.run(hooks))
        except Exception as exc:  # a raised exception is a failed instance
            outcomes.append(exc)
    return clock() - t0, outcomes


def _judge(instances, outcomes, reference_sigs):
    from workloads import Verdict

    verdicts = []
    for k, (inst, out) in enumerate(zip(instances, outcomes)):
        if isinstance(out, Exception):
            trace = "".join(traceback.format_exception(out)).rstrip().replace("\n", "\n#   ")
            v = Verdict(False, trace, f"raised {type(out).__name__}: {out}")
        else:
            v = inst.check(out)
        if reference_sigs is not None and v.signature != reference_sigs[k]:
            v = Verdict(False, "output differs from the first pass: " + v.detail, v.signature, v.estimate)
        verdicts.append(v)
    return verdicts


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "gaugequad" / "__init__.py").is_file():
        print(f"error: no gaugequad sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        seconds, _ = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    from workloads import WORKLOADS, PlainHooks

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import gaugequad

    if not Path(gaugequad.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: gaugequad imported from {gaugequad.__file__}, not {src}", file=sys.stderr)
        return 2
    own_setup, instances = _setup(args.workload, args.seed)
    setup = _setup_samples(args)
    print("# env " + json.dumps(_environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {len(instances)} instances per pass; "
          f"set-up samples {[round(s, 4) for s in setup]} (in-process {own_setup:.4f})")

    from tracer import COUNT_METRICS, Tracer

    deadline = clock() + args.seconds
    warm_s, warm_out = _run_pass(instances, PlainHooks)
    first = _judge(instances, warm_out, None)
    sigs = [v.signature for v in first]
    passes = [("warm-up", warm_s, first)]
    plain_s, traced_s, layer_runs = [], [], []
    while True:
        traced = args.trace == 1 and len(traced_s) <= len(plain_s)
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                seconds, outs = _run_pass(instances, tracer)
            finally:
                tracer.uninstall()
            traced_s.append(seconds)
            layer_runs.append(tracer.metrics())
        else:
            seconds, outs = _run_pass(instances, PlainHooks)
            plain_s.append(seconds)
        passes.append(("traced" if traced else "plain", seconds, _judge(instances, outs, sigs)))
        enough = plain_s and (args.trace == 0 or traced_s)
        if enough and clock() >= deadline:
            break

    attempted = failed = base = misses = 0
    for label, seconds, verdicts in passes:
        print(f"# pass {label} {seconds:.4f} s")
        for inst, v in zip(instances, verdicts):
            attempted += 1
            failed += not v.ok
            if not v.ok:
                print(f"# FAIL {inst.name}: {v.detail}")
            if v.estimate is not None:
                base += 1
                misses += v.estimate[0] > v.estimate[1]
    for inst, v in zip(instances, first):
        if v.estimate is not None and v.estimate[0] > v.estimate[1]:
            print(f"# estimate-miss {inst.name}: {v.detail}")
    print(f"# fail_frac {failed}/{attempted}; estimate_miss_frac {misses}/{base}")

    if args.trace == 0:
        lo, hi = _quartiles(plain_s)
        print(f"# run_s median of {len(plain_s)} passes, quartiles {lo:.4f} {hi:.4f}")
        values = {
            "run_s": statistics.median(plain_s),
            "setup_s": statistics.median(setup),
            "pass_frac": 1.0 - failed / attempted,
            # An empty base (no value result carries an estimate) has no miss.
            "estimate_hold_frac": 1.0 - misses / base if base else 1.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        counts_repeat = all(
            all(run[name] == layer_runs[0][name] for name in COUNT_METRICS) for run in layer_runs
        )
        print(f"# {len(traced_s)} traced and {len(plain_s)} untraced passes; "
              f"counts repeat exactly across traced passes: {counts_repeat}")
        # Counts repeat exactly; times are the median over the traced passes.
        values = {name: layer_runs[0][name] if name in COUNT_METRICS
                  else statistics.median(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    for name, value in values.items():
        print(f"# {name} = {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
