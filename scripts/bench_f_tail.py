"""Measure the stepwise polynomial's F test in two source trees on the same
fixed pll-fit inputs, and write the before/after record as JSON.

    python scripts/bench_f_tail.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_f_tail.json

The two-tree harness, its flags and the record's header are
`scripts/benchpairs.py`'s. The inputs are built once, with the `--after`
tree: the pll-fit pipeline of `perfbench/workloads.py` (seed `--seed`, pass 0:
120 training rows, 50 verify rows, a stepwise degree-3 polynomial, a grown
RBF network and the ANN sweep) runs to completion, and its config and CSV
files are what both trees train on. Each pair then runs, per tree:

- a cold `python -m surrokit train` on those inputs, timed from outside,
  with the child's peak resident memory (`ru_maxrss`);
- one worker process, which runs the same `train` once with
  `training._f_sf` wrapped to record its arguments, then replays those
  calls `--repeats` times through the tree's `_f_sf` and through
  `scipy.special.fdtrc`, and reports the median seconds of each replay.

The record also gives the largest relative difference between the
`--after` tree's `_f_sf` and `scipy.special.fdtrc` over df 1..500 and
df = 1e3, 1e4, 1e5, each at 200 F values log-spaced in [1e-8, 1e4], and
whether the two trees' model files and fit reports are byte-identical.
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


def _train_argv(work: Path, out: Path) -> list[str]:
    return ["train", "--config", str(work / "project.json"),
            "--train", str(work / "train.csv"),
            "--verify", str(work / "verify.csv"),
            "--out-dir", str(out / "models"),
            "--report-json", str(out / "reports.json")]


def worker(work: Path, repeats: int) -> dict:
    """Record one `train` run's F-tail calls in this process's tree and time
    replaying them (see the module doc)."""
    from scipy import special
    from surrokit import cli, training

    f_sf, calls = training._f_sf, []

    def recorded(f_stat, df):
        calls.append((f_stat, df))
        return f_sf(f_stat, df)

    training._f_sf = recorded
    try:
        with tempfile.TemporaryDirectory(prefix="bench_f_tail_") as scratch, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(_train_argv(work, Path(scratch)))
    finally:
        training._f_sf = f_sf
    if code != 0:
        raise SystemExit(f"train exited {code}")

    def replay(tail) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for f_stat, df in calls:
                tail(f_stat, df)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return {"calls": len(calls), "f_tail_s": replay(f_sf),
            "scipy_fdtrc_s": replay(
                lambda f_stat, df: float(special.fdtrc(1, df, f_stat)))}


def _accuracy() -> dict:
    """Largest relative difference of this process's `_f_sf` from
    `scipy.special.fdtrc` on the grid of the module doc. Points whose
    reference is below the smallest normal double carry no relative
    precision and are counted apart."""
    import numpy as np
    from scipy import special
    from surrokit import training
    f_stats = np.logspace(-8, 4, 200)
    worst = {"max_relative_difference": 0.0, "df": None, "f": None}
    points = below_normal = 0
    for df in [*range(1, 501), 1_000, 10_000, 100_000]:
        for f_stat, want in zip(f_stats, special.fdtrc(1, df, f_stats)):
            if want < sys.float_info.min:
                below_normal += 1
                continue
            points += 1
            diff = abs(training._f_sf(float(f_stat), df) - want) / want
            if diff > worst["max_relative_difference"]:
                worst = {"max_relative_difference": float(diff), "df": df,
                         "f": float(f_stat)}
    return {"grid": "df 1..500, 1e3, 1e4, 1e5; 200 F log-spaced in "
                    "[1e-8, 1e4]",
            "points": points, "below_normal_points": below_normal, **worst}


def _outputs(root: Path) -> dict:
    """The bytes of each file a `train` run wrote under `root`."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def measure(args, work: Path, side: str, pair: int) -> dict:
    """One pair's run in `side`'s tree: the cold `train` on the inputs in
    `work / "fit"`, writing to `work / "<side>-<pair>"`, then the worker.
    `wall_s` and `max_rss_mb` are the cold `train` child's; the worker's
    own peak memory is not recorded."""
    out = work / f"{side}-{pair}"
    out.mkdir()
    _, wall_s, rss_mb = benchpairs.run(
        args.trees[side], ["-m", "surrokit", *_train_argv(work / "fit", out)])
    return {**benchpairs.run_worker(args, side, str(work / "fit")),
            "wall_s": wall_s, "max_rss_mb": rss_mb}


def main() -> None:
    args = benchpairs.parse(benchpairs.parser(
        __file__, __doc__, seed=3, pairs=10, repeats=20,
        out="BENCH_f_tail.json"))
    if args.worker:
        print(json.dumps(worker(args.worker, args.repeats)))
        return

    with tempfile.TemporaryDirectory(prefix="bench_f_tail_inputs_") as work:
        work = Path(work)
        training = benchpairs.build_inputs(args, "pll-fit",
                                           work / "fit")["training"]

        runs = benchpairs.alternate(
            args.pairs,
            lambda side, pair: measure(args, work, side, pair),
            lambda run: f"train {run['wall_s']:.3f} s {run['max_rss_mb']:.1f}"
            f" MB, F tail {run['f_tail_s'] * 1e3:.3f} ms")
        identical = all(_outputs(work / f"before-{pair}")
                        == _outputs(work / f"after-{pair}")
                        for pair in range(args.pairs))

    cold_train = {key: benchpairs.compare(runs, lambda r: r[key])
                  for key in ("wall_s", "max_rss_mb")}
    cold_train["outputs_identical"] = identical
    f_tail = {"calls_per_pass": runs["after"][0]["calls"],
              "pass_s": benchpairs.compare(runs, lambda r: r["f_tail_s"]),
              "scipy_fdtrc_pass_s": benchpairs.summary(
                  [r["scipy_fdtrc_s"] for side in SIDES for r in runs[side]])}
    f_tail["after_over_scipy_fdtrc"] = (
        f_tail["pass_s"]["after"]["median"]
        / f_tail["scipy_fdtrc_pass_s"]["median"])
    accuracy = _accuracy()
    benchpairs.write(
        args, {"workload": "pll-fit", "seed": args.seed, "pass": 0,
               "training": training},
        {"cold_train": cold_train, "f_tail": f_tail, "accuracy": accuracy})
    rss = cold_train["max_rss_mb"]
    print(f"cold train: peak RSS {rss['before']['median']:.1f} -> "
          f"{rss['after']['median']:.1f} MB (after lower "
          f"{rss['after_lower']}), wall "
          f"{cold_train['wall_s']['before']['median']:.3f} -> "
          f"{cold_train['wall_s']['after']['median']:.3f} s; F tail "
          f"{f_tail['pass_s']['change'] + 1:.2f}x the before tree's; max "
          f"relative difference {accuracy['max_relative_difference']:.2e}; "
          f"outputs identical: {identical}", file=sys.stderr)


if __name__ == "__main__":
    main()
