"""Merge perfbench results of parent/change pairs into one BENCH_<n>.json.

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT BENCH_7.json

PARENT_OUT and CHANGE_OUT are the perfbench/out directories of two
checkouts, each holding the <workload>-seed<n>-trace0.json files of one side
of the pairs; a pair is the two files of one workload and seed.  For every
workload and end-to-end metric of BENCHMARK.json the output holds each
side's median and quartiles (inclusive method), the number of pairs the
change won, and the machine, Python and numpy it ran on.  When both
directories also hold <workload>-seed<n>-trace1.json files, it adds each
side's median of every per-layer metric of BENCHMARK.json over those pairs.
Every workload needs at least two pairs.  Stdlib only.
"""

import json
import os
import platform
import statistics
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _runs(out_dir: Path, trace: int) -> dict:
    runs = {}
    for path in sorted(out_dir.glob(f"*-seed*-trace{trace}.json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def _pairs(parent: dict, change: dict) -> dict:
    """{workload: [(parent run, change run) per seed]}, at least two pairs each."""
    pairs = {}
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        if len(seeds) < 2:
            sys.exit(f"error: workload {w} has {len(seeds)} parent/change pair(s) of one "
                     "trace level; a summary needs at least two")
        pairs[w] = [(parent[w][s], change[w][s]) for s in seeds]
    return pairs


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(parent_dir: str, change_dir: str, out_path: str) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = _runs(Path(parent_dir), 0), _runs(Path(change_dir), 0)
    traced = _pairs(_runs(Path(parent_dir), 1), _runs(Path(change_dir), 1))
    workloads = {}
    for w, pairs in _pairs(parent, change).items():
        row = {"seeds": [p["seed"] for p, _ in pairs],
               "correct": all(p["correct"] and c["correct"] for p, c in pairs),
               "failed_share": {"parent": sorted({p["failed"] / p["attempted"] for p, _ in pairs}),
                                "change": sorted({c["failed"] / c["attempted"] for _, c in pairs})}}
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
            p = [r["metrics"][name]["value"] for r, _ in pairs]
            c = [r["metrics"][name]["value"] for _, r in pairs]
            row[name] = {"unit": metric["unit"], "parent": _summary(p), "change": _summary(c),
                         "change_won": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                         "pairs": len(pairs)}
        if w in traced:
            row["per_layer"] = {"seeds": [p["seed"] for p, _ in traced[w]],
                                "seconds": sorted({r["seconds"] for pair in traced[w] for r in pair})}
            for metric in bench["per_layer"]:
                name = metric["name"]
                row["per_layer"][name] = {
                    "unit": metric["unit"],
                    "parent": statistics.median(r["metrics"][name]["value"] for r, _ in traced[w]),
                    "change": statistics.median(r["metrics"][name]["value"] for _, r in traced[w])}
        workloads[w] = row
    runs = [r for side in (parent, change) for by_seed in side.values() for r in by_seed.values()]
    record = {"command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
              "seconds": sorted({r["seconds"] for r in runs}),
              "python": sorted({r["python"] for r in runs}), "numpy": metadata.version("numpy"),
              "cpu": _cpu(), "cpus": os.cpu_count(), "workloads": workloads}
    Path(out_path).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
