"""Hash what mixedmono commands print, so two checkouts can be compared.

    python3 tools/same_outputs.py [SEED ...] > outputs.jsonl

Runs in-process, through mixedmono.cli.main with the root of the checkout
that holds this file as cwd, every input of perfbench/inputs.py for each
seed (1, 7 and 123 when none is given), then decompose (text and CSV),
bound --depth 3 --check (text and CSV), reach, and tv (text and CSV) on each
config of configs/, and decompose (text and CSV) on a field whose one row
holds all four sign cases.  For each command it prints one JSON line: the
argv, with the paths of the configs it writes made relative to their
directory, the exit code, and the sha256 of stdout and of stderr.  Two
checkouts print the same outputs when `diff` of their lines is empty.
Stdlib only; it writes nothing under the checkout.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# x1 reads x, x2 reads y, x3 and x4 are sign-unstable: case1 .. case4 over [-1, 2]^4
FOUR_CASES = ('[system]\ndim = 4\nf1 = "x1 - x2 + x3^2 - x4^2"\n\n[domain]\n'
              + "".join(f"x{j} = [-1, 2]\n" for j in range(1, 5)))


def _argvs(seeds: list[int], work: Path) -> list[list[str]]:
    import inputs

    argvs = []
    for seed in seeds:
        for workload in inputs.WORKLOADS:
            for k, op in enumerate(inputs.make_inputs(workload, seed, ROOT)):
                path = op.config_path
                if op.config is not None:
                    path = str(work / f"{workload}-{seed}-{k:02d}-{op.label}.ini")
                    Path(path).write_text(op.config, encoding="utf-8")
                argvs.append([op.command] + ([path] if path else []) + op.args)
    for config in sorted(str(p.relative_to(ROOT)) for p in (ROOT / "configs").glob("*.ini")):
        for fmt in ([], ["--format", "csv"]):
            argvs += [["decompose", config, *fmt],
                      ["bound", config, "--depth", "3", "--check", *fmt]]
        argvs += [["reach", config], ["tv", config], ["tv", config, "--format", "csv"]]
    four = work / "four_cases.ini"
    four.write_text(FOUR_CASES, encoding="utf-8")
    argvs += [["decompose", str(four)], ["decompose", str(four), "--format", "csv"]]
    return argvs


def _sha(text: str, tmp: str) -> str:
    """sha256 of text, with the directory of the written configs left out."""
    return hashlib.sha256(text.replace(tmp + os.sep, "").encode("utf-8")).hexdigest()


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]] or [1, 7, 123]
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    os.chdir(ROOT)
    from mixedmono import cli

    with tempfile.TemporaryDirectory() as tmp:
        for argv in _argvs(seeds, Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            shown = [os.path.relpath(a, tmp) if a.startswith(tmp) else a for a in argv]
            print(json.dumps({"argv": shown, "exit": rc, "stdout": _sha(out.getvalue(), tmp),
                              "stderr": _sha(err.getvalue(), tmp)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
