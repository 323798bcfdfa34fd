"""Time `optimize-mofa` and `optimize-abc` in two source trees on the same
fixed opamp-flow inputs, and write the before/after record as JSON.

    python scripts/bench_optimizers.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_optimizer_loop.json

`--before` and `--after` (default: this checkout) are repository roots, each
with a `src/surrokit`. The inputs are built once, with the `--after` tree:
the opamp-flow pipeline of `perfbench/workloads.py` (seed `--seed`, pass 0:
120 training rows, 36 verify rows, 8 ANN responses) runs to completion,
and its config and model files are what both trees optimize. Each pair then
runs one worker process per tree, alternating which goes first. A worker
imports surrokit from its tree, runs each command once to warm up and
`--repeats` times timed, and reports the median seconds of the command
and of its optimizer call alone (`mofa_optimize` or `abc_optimize`; per
firefly iteration or bee-colony cycle, `us_per_step`). It then runs each
command once more with `tracemalloc` on and the optimizer's model evaluator
wrapped, which gives the command's peak traced memory and the model rows it
evaluated (rows times models per evaluator call). The record also gives the
largest relative difference between the two trees' output files. BLAS runs
on one thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ("optimize-mofa", "optimize-abc")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _argv(command: str, work: Path, out: Path) -> list[str]:
    return [command, "--config", str(work / "project.json"),
            "--models", str(work / "models"), "--out", str(out)]


def _count_evaluator_rows(counts: dict) -> None:
    """Wrap the optimizers' model evaluator so each call adds its rows times
    its model count to `counts`: `metamodel.ModelBank.predict`, or in trees
    from before the bank, `predict_columns` as the optimizers import it."""
    import numpy as np
    from surrokit import bee_colony, metamodel, mofa

    def add(rows: int, models: int) -> None:
        counts["model_rows"] += rows * models
        counts["evaluator_calls"] += 1

    if hasattr(metamodel, "ModelBank"):
        predict = metamodel.ModelBank.predict

        def counted(self, x):
            add(np.atleast_2d(x).shape[0], self.width)
            return predict(self, x)
        metamodel.ModelBank.predict = counted
    else:
        columns = metamodel.predict_columns

        def counted(models, x):
            add(np.atleast_2d(x).shape[0], len(models))
            return columns(models, x)
        mofa.predict_columns = bee_colony.predict_columns = counted


def worker(work: Path, repeats: int) -> dict:
    """Measure both commands in this process's tree (see the module doc)."""
    import tracemalloc
    import numpy as np
    from surrokit import bee_colony, cli, mofa

    inner = {}

    def timed(optimize):
        """`optimize`, recording the seconds of its last call in `inner`."""
        def call(*args, **kwargs):
            start = time.perf_counter()
            result = optimize(*args, **kwargs)
            inner["s"] = time.perf_counter() - start
            return result
        return call
    mofa.mofa_optimize = timed(mofa.mofa_optimize)
    bee_colony.abc_optimize = timed(bee_colony.abc_optimize)

    def run(command: str, out: Path) -> tuple[float, float]:
        """The command's seconds and its optimizer call's seconds."""
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(_argv(command, work, out))
        seconds = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"{command} exited {code}")
        return seconds, inner["s"]

    scratch = Path(tempfile.mkdtemp(prefix="bench_opt_"))
    try:
        result = {}
        for command in COMMANDS:
            out = scratch / f"{command}.csv"
            run(command, out)  # warm-up
            times = [run(command, out) for _ in range(repeats)]
            result[command] = {
                "wall_s": statistics.median(t for t, _ in times),
                "optimizer_s": statistics.median(t for _, t in times)}
        counts = {}
        _count_evaluator_rows(counts)
        for command in COMMANDS:
            counts.update(model_rows=0, evaluator_calls=0)
            tracemalloc.start()
            try:
                run(command, scratch / f"{command}.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            result[command].update(counts, peak_traced_mb=peak / 2 ** 20)
            result[command]["output"] = np.loadtxt(
                scratch / f"{command}.csv", delimiter=",", skiprows=1,
                ndmin=2).tolist()
        result["max_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024)
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _spawn(tree: Path, work: Path, repeats: int) -> dict:
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(work),
         "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _build_inputs(after: Path, seed: int, work: Path) -> dict:
    """Run the opamp-flow pipeline of seed `seed`, pass 0, with the `after`
    tree into `work`; return its optimizer config sections."""
    sys.path[:0] = [str(after / "src"), str(after / "perfbench")]
    import workloads
    flow = workloads.OpampFlow(seed, "full")
    flow.setup()
    state = flow.execute(0, work)
    if any(state["codes"].values()):
        raise SystemExit(f"input pipeline failed: {state['codes']}")
    config = json.loads((work / "project.json").read_text())
    return {key: config[key] for key in ("mofa", "abc")}


def _revision(tree: Path) -> str:
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


def _summary(values: list[float]) -> dict:
    """Median and quartiles of `values`; a single value is all three."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _max_relative_difference(a, b) -> float | None:
    """Largest |a - b| / max(|a|, |b|) over two outputs' entries (0 where
    both are 0); None when their shapes differ."""
    import numpy as np
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return None
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0),
                        initial=0.0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_optimizer_loop.json"))
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker, args.repeats)))
        return
    if args.before is None or min(args.pairs, args.repeats) < 1:
        parser.error("--before is required, and --pairs and --repeats must "
                     "be >= 1")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads

    work = Path(tempfile.mkdtemp(prefix="bench_opt_inputs_"))
    try:
        config = _build_inputs(trees["after"], args.seed, work / "flow")
        runs = {side: [] for side in trees}
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(_spawn(trees[side], work / "flow",
                                         args.repeats))
                print(f"pair {pair} {side}: " + ", ".join(
                    f"{c} {runs[side][-1][c]['wall_s']:.4f} s"
                    for c in COMMANDS), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # firefly iterations and bee-colony cycles per run
    steps = {"optimize-mofa": config["mofa"]["t_max"],
             "optimize-abc": config["abc"]["max_cycles"]}
    commands = {}
    for command in COMMANDS:
        record = {}
        for side in trees:
            first = runs[side][0][command]
            optimizer_s = _summary([r[command]["optimizer_s"]
                                    for r in runs[side]])
            record[side] = {
                "wall_s": _summary([r[command]["wall_s"] for r in runs[side]]),
                "optimizer_s": optimizer_s,
                "us_per_step": optimizer_s["median"] / steps[command] * 1e6,
                "peak_traced_mb": first["peak_traced_mb"],
                "model_rows": first["model_rows"],
                "evaluator_calls": first["evaluator_calls"],
            }
        before, after = (record[s]["wall_s"]["runs"] for s in trees)
        record["after_wins"] = f"{sum(a < b for b, a in zip(before, after))}" \
                               f"/{len(before)}"
        record["wall_change"] = (record["after"]["wall_s"]["median"]
                                 / record["before"]["wall_s"]["median"] - 1.0)
        record["output_max_relative_difference"] = _max_relative_difference(
            runs["before"][0][command]["output"],
            runs["after"][0][command]["output"])
        commands[command] = record

    import numpy
    report = {
        "script": "scripts/bench_optimizers.py",
        "trees": {side: _revision(path) for side, path in trees.items()},
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "blas_threads": 1},
        "inputs": {"workload": "opamp-flow", "seed": args.seed, "pass": 0,
                   "config": config},
        "pairs": args.pairs, "repeats": args.repeats,
        "process_max_rss_mb": {side: statistics.median(
            r["max_rss_mb"] for r in runs[side]) for side in trees},
        "commands": commands,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for command, record in commands.items():
        print(f"{command}: before {record['before']['wall_s']['median']:.4f}"
              f" s, after {record['after']['wall_s']['median']:.4f} s "
              f"({record['wall_change']:+.1%}, after wins "
              f"{record['after_wins']}), us per step "
              f"{record['before']['us_per_step']:.1f} -> "
              f"{record['after']['us_per_step']:.1f}, model rows "
              f"{record['before']['model_rows']} -> "
              f"{record['after']['model_rows']}", file=sys.stderr)


if __name__ == "__main__":
    main()
