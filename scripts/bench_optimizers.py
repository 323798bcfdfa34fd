"""Time `optimize-mofa` and `optimize-abc` in two source trees on the same
fixed opamp-flow inputs, and write the before/after record as JSON.

    python scripts/bench_optimizers.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_optimizer_loop.json

The two-tree harness, its flags and the record's header are
`scripts/benchpairs.py`'s. The inputs are built once, with the `--after`
tree: the opamp-flow pipeline of `perfbench/workloads.py` (seed `--seed`,
pass 0: 120 training rows, 36 verify rows, 8 ANN responses) runs to
completion, and its config and model files are what both trees optimize.
A worker imports surrokit from its tree, runs each command once to warm up
and `--repeats` times timed, and reports the median seconds of the command
and of its optimizer call alone (`mofa_optimize` or `abc_optimize`; per
firefly iteration or bee-colony cycle, `us_per_step`). It then runs each
command once more with `tracemalloc` on and `metamodel.ModelBank.predict`,
the optimizers' model evaluator, wrapped, which gives the command's peak
traced memory and the model rows it evaluated (rows times models per
evaluator call). The record also gives each worker's peak resident memory
and the largest relative difference between the two trees' output files.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import benchpairs  # same directory
from benchpairs import SIDES

COMMANDS = ("optimize-mofa", "optimize-abc")


def _argv(command: str, work: Path, out: Path) -> list[str]:
    return [command, "--config", str(work / "project.json"),
            "--models", str(work / "models"), "--out", str(out)]


def _count_evaluator_rows(counts: dict) -> None:
    """Wrap `metamodel.ModelBank.predict` so each call adds its rows times
    its model count to `counts`."""
    import numpy as np
    from surrokit import metamodel

    predict = metamodel.ModelBank.predict

    def counted(self, x):
        counts["model_rows"] += np.atleast_2d(x).shape[0] * self.width
        counts["evaluator_calls"] += 1
        return predict(self, x)
    metamodel.ModelBank.predict = counted


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

    with tempfile.TemporaryDirectory(prefix="bench_opt_") as scratch:
        scratch, result = Path(scratch), {}
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
        return result


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
    args = benchpairs.parse(benchpairs.parser(
        __file__, __doc__, seed=41, pairs=10, repeats=3,
        out="BENCH_optimizer_loop.json"))
    if args.worker:
        print(json.dumps(worker(args.worker, args.repeats)))
        return

    with tempfile.TemporaryDirectory(prefix="bench_opt_inputs_") as work:
        flow = Path(work) / "flow"
        config = benchpairs.build_inputs(args, "opamp-flow", flow)
        config = {key: config[key] for key in ("mofa", "abc")}
        runs = benchpairs.alternate(
            args.pairs, lambda side, pair: benchpairs.run_worker(
                args, side, str(flow)),
            lambda run: ", ".join(f"{c} {run[c]['wall_s']:.4f} s"
                                  for c in COMMANDS))

    # firefly iterations and bee-colony cycles per run
    steps = {"optimize-mofa": config["mofa"]["t_max"],
             "optimize-abc": config["abc"]["max_cycles"]}
    commands = {}
    for command in COMMANDS:
        first = {side: runs[side][0][command] for side in SIDES}
        optimizer_s = benchpairs.compare(
            runs, lambda r: r[command]["optimizer_s"])
        commands[command] = {
            "wall_s": benchpairs.compare(runs, lambda r: r[command]["wall_s"]),
            "optimizer_s": optimizer_s,
            "us_per_step": {side: optimizer_s[side]["median"]
                            / steps[command] * 1e6 for side in SIDES},
            **{key: {side: first[side][key] for side in SIDES}
               for key in ("peak_traced_mb", "model_rows",
                           "evaluator_calls")},
            "output_max_relative_difference": _max_relative_difference(
                first["before"]["output"], first["after"]["output"]),
        }
    benchpairs.write(
        args, {"workload": "opamp-flow", "seed": args.seed, "pass": 0,
               "config": config},
        {"max_rss_mb": benchpairs.compare(runs, lambda r: r["max_rss_mb"]),
         "commands": commands})
    for command, record in commands.items():
        wall = record["wall_s"]
        print(f"{command}: before {wall['before']['median']:.4f} s, after "
              f"{wall['after']['median']:.4f} s ({wall['change']:+.1%}, "
              f"after lower {wall['after_lower']}), us per step "
              f"{record['us_per_step']['before']:.1f} -> "
              f"{record['us_per_step']['after']:.1f}, model rows "
              f"{record['model_rows']['before']} -> "
              f"{record['model_rows']['after']}", file=sys.stderr)


if __name__ == "__main__":
    main()
