"""The two-tree harness that every `scripts/bench_*.py` evidence script uses.

An evidence script measures one thing in two source trees, `--before` and
`--after` (default: this checkout), each a repository root with a
`src/surrokit`. It builds its fixed inputs once, then runs `--pairs` pairs,
each measuring both trees in new processes and alternating which tree goes
first. A script writes only its worker, the code that measures one tree,
and what it records; this module holds the rest:

- `parser` and `parse`: the common flags and their bounds;
- `run`: one child process with a tree's source and one BLAS thread, which
  gives the child's stdout, wall seconds and peak resident memory;
- `alternate`: the pair loop;
- `summary` and `compare`: medians, quartiles and the per-pair win count;
- `build_inputs`: a perfbench workload's set-up and pass 0 as inputs;
- `write`: the record, with its common header (`revision` of each tree
  and the machine), as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("before", "after")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parser(script: str, doc: str, *, seed: int, pairs: int, repeats: int,
           out: str) -> argparse.ArgumentParser:
    """The common flags of the evidence script `script` (its `__file__`),
    with its own defaults; a script adds its own flags before `parse`."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument("--before", type=Path)
    p.add_argument("--after", type=Path,
                   default=Path(__file__).resolve().parents[1])
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--pairs", type=int, default=pairs)
    p.add_argument("--repeats", type=int, default=repeats)
    p.add_argument("--out", type=Path, default=Path(out))
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.set_defaults(script=Path(script).resolve())
    return p


def parse(p: argparse.ArgumentParser) -> argparse.Namespace:
    """Parse and check the flags. Outside a worker, `args.trees` maps each
    side to its resolved tree, and this process runs BLAS on one thread."""
    args = p.parse_args()
    if args.worker:
        return args
    if args.before is None or min(args.pairs, args.repeats) < 1:
        p.error("--before is required, and --pairs and --repeats must be "
                ">= 1")
    args.trees = {"before": args.before.resolve(),
                  "after": args.after.resolve()}
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    return args


def run(tree: Path, argv: list[str]) -> tuple[str, float, float]:
    """Run `python *argv` with `tree`'s `src` on the path and one BLAS
    thread; return its stdout, its wall seconds and its peak resident MB
    (the child's `ru_maxrss`). A nonzero exit stops this script with a
    message that holds the child's stderr."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryFile() as stdout, \
            tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        if proc.returncode != 0:
            stderr.seek(0)
            raise SystemExit(f"{' '.join(argv)} in {tree} exited "
                             f"{proc.returncode}: {stderr.read().decode()}")
        stdout.seek(0)
        return stdout.read().decode(), seconds, usage.ru_maxrss / 1024


def run_worker(args: argparse.Namespace, side: str, target: str,
               *argv: str) -> dict:
    """The JSON that the script's worker prints when run in `side`'s tree
    as `--worker target` with this run's `--seed` and `--repeats` and
    `argv`, plus the worker's peak resident MB as `max_rss_mb`."""
    out, _, rss_mb = run(args.trees[side], [
        str(args.script), "--worker", target, "--seed", str(args.seed),
        "--repeats", str(args.repeats), *argv])
    return {**json.loads(out), "max_rss_mb": rss_mb}


def alternate(pairs: int, measure, describe) -> dict:
    """Each side's `measure(side, pair)` results over `pairs` pairs, in pair
    order; `before` goes first in even pairs and `after` in odd ones. Each
    result gets one progress line on stderr, `describe(result)`."""
    runs = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in SIDES[::1 if pair % 2 == 0 else -1]:
            runs[side].append(measure(side, pair))
            print(f"pair {pair} {side}: {describe(runs[side][-1])}",
                  file=sys.stderr)
    return runs


def summary(values: list[float]) -> dict:
    """Median and quartiles of `values`; a single value is all three."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(runs: dict, get) -> dict:
    """Both sides' summaries of `get(result)` over `runs` (side -> results
    in pair order), `after_lower`, the pairs in which `after` is strictly
    lower (a tie counts for neither side), and `change`, the ratio of the
    medians minus 1."""
    values = {side: [get(r) for r in runs[side]] for side in SIDES}
    out = {side: summary(values[side]) for side in SIDES}
    lower = sum(a < b for b, a in zip(values["before"], values["after"]))
    out["after_lower"] = f"{lower}/{len(values['before'])}"
    out["change"] = out["after"]["median"] / out["before"]["median"] - 1.0
    return out


def build_inputs(args: argparse.Namespace, workload: str,
                 work: Path) -> dict:
    """Run the perfbench workload `workload` (seed `--seed`, full size), its
    set-up and pass 0, with the `--after` tree into `work`; return the
    config it wrote there (`project.json`)."""
    after = args.trees["after"]
    sys.path[:0] = [str(after / "src"), str(after / "perfbench")]
    import workloads
    flow = workloads.WORKLOADS[workload](args.seed, "full")
    flow.setup()
    state = flow.execute(0, work)
    if any(state["codes"].values()):
        raise SystemExit(f"input pipeline failed: {state['codes']}")
    return json.loads((work / "project.json").read_text())


def revision(tree: Path) -> str:
    """`tree`'s short commit hash, marked when tracked files changed."""
    try:
        rev = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("+uncommitted" if dirty else "")


def write(args: argparse.Namespace, inputs: dict, body: dict) -> None:
    """Write the record to `--out`: the header (script, trees, machine,
    `inputs`, pairs, repeats), then `body`."""
    import numpy
    record = {"script": f"scripts/{args.script.name}",
              "trees": {side: revision(path)
                        for side, path in args.trees.items()},
              "machine": {"platform": platform.platform(),
                          "processor": (platform.processor()
                                        or platform.machine()),
                          "cpus": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": numpy.__version__, "blas_threads": 1},
              "inputs": inputs, "pairs": args.pairs,
              "repeats": args.repeats, **body}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
