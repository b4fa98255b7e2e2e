"""Benchmark of the mixedmono command line, end to end and per layer.

    python3 perfbench/run.py --workload reach --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process, one thread: a closed loop
calls mixedmono.cli.main(argv) in-process on the inputs generated from the
seed, one op after another, and checks every output with perfbench/oracle.py.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps the
program's layers (perfbench/layers.py) and prints the per-layer metrics.  The
last line of stdout is one JSON object; the full result also goes to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# pin the numeric thread pools before numpy is imported, here and in the
# set-up probes started below
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"

TAIL_PERCENTILE = 97.5
MIN_OPS = 400          # so that at least ten samples lie beyond the tail percentile
SETUP_REPEATS = 5
REF_LOOP_REPEATS = 5

# import of the program plus input generation, in a fresh interpreter
_SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import mixedmono.cli
import inputs
from pathlib import Path
inputs.make_inputs({workload!r}, {seed!r}, Path({root!r}))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("reach", "bound", "tv_smooth", "tv_kink"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import mixedmono from ./src of the checkout, and from nowhere else."""
    if not (SRC / "mixedmono" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC}/mixedmono not found; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import mixedmono.cli
    if Path(mixedmono.cli.__file__).resolve().parent != (SRC / "mixedmono").resolve():
        raise SystemExit(f"error: imported mixedmono from {mixedmono.cli.__file__}, not {SRC}")
    return mixedmono.cli


def _setup_seconds(workload: str, seed: int) -> list[float]:
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload,
                               seed=seed, root=str(ROOT))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdin=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def _reference_loop_ms() -> float:
    """A fixed pure-Python loop, timed to show the machine's speed during a run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def _call(cli, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    import inputs
    import oracle
    from layers import METRICS as LAYER_METRICS, Tracer

    setup = _setup_seconds(args.workload, args.seed)
    ops = inputs.make_inputs(args.workload, args.seed, ROOT)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        argvs = []
        for k, op in enumerate(ops):
            path = op.config_path
            if op.config is not None:
                path = str(work / f"{k:02d}-{op.label}.ini")
                Path(path).write_text(op.config, encoding="utf-8")
            argvs.append([op.command] + ([path] if path else []) + op.args)

        # untimed warm-up: one op per input, each output checked in full
        verdicts: dict[tuple[int, int, str], oracle.Verdict] = {}

        def judge(k: int, rc: int, out: str) -> oracle.Verdict:
            key = (k, rc, out)
            if key not in verdicts:
                verdicts[key] = oracle.check(ops[k], rc, out)
            return verdicts[key]

        for k, argv_k in enumerate(argvs):
            rc, out, _ = _call(cli, argv_k)
            judge(k, rc, out)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        ref_ms = [_reference_loop_ms() for _ in range(REF_LOOP_REPEATS)]

        # timed closed loop over whole rounds of the inputs
        durations: list[float] = []
        failed, ratios, failures = 0, [], {}
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(durations) < MIN_OPS:
            for k, argv_k in enumerate(argvs):
                gc.collect()
                rc, out, dt = _call(cli, argv_k)
                durations.append(dt)
                v = judge(k, rc, out)
                if v.ok:
                    ratios.append(v.width_ratio)
                else:
                    failed += 1
                    failures[ops[k].label] = v.reason
        if tracer is not None:
            tracer.uninstall()
        ref_ms += [_reference_loop_ms() for _ in range(REF_LOOP_REPEATS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(durations)
    # every failure must be on an input kept as a known fault
    known = {op.label for op in ops if op.known_fault}
    correct = set(failures) <= known
    ordered = sorted(durations)
    p90 = [_percentile(sorted(durations[k::len(ops)]), 90) for k in range(len(ops))]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            # the machine's speed drifts between a fast and a slow state
            # (README.md); each input's p90 time falls in the slow state,
            # which every run reaches, so the rate is read from those
            "ops_per_s": (len(ops) / sum(p90), "1/s"),
            "op_ms.tail": (_percentile(ordered, TAIL_PERCENTILE) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "width_ratio": (math.exp(statistics.fmean(math.log(r) for r in ratios)), "ratio"),
        }
    else:
        units = dict(LAYER_METRICS)
        metrics = {name: (v, units[name]) for name, v in tracer.per_op(attempted).items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, inputs=len(ops), rounds=attempted // len(ops),
                  tail_percentile=TAIL_PERCENTILE, op_ms_p50=statistics.median(durations) * 1000.0,
                  setup_runs_s=setup, reference_loop_ms=ref_ms, failures=failures,
                  op_ms=[d * 1000.0 for d in durations],
                  python=sys.version.split()[0])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in "
          f"{attempted // len(ops)} rounds of {len(ops)} inputs, {failed} failed")
    for label, reason in sorted(failures.items()):
        tag = "known fault" if label in known else "FAILED"
        print(f"  {tag}: {label}: {reason}")
    for name, (v, u) in metrics.items():
        print(f"  {name} = {v:.6g} {u}")
    print(f"  reference loop: median {statistics.median(ref_ms):.2f} ms "
          f"(min {min(ref_ms):.2f}, max {max(ref_ms):.2f})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
