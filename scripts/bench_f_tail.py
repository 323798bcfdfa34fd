"""Measure the stepwise polynomial's F test in two source trees on the same
fixed pll-fit inputs, and write the before/after record as JSON.

    python scripts/bench_f_tail.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_f_tail.json

`--before` and `--after` (default: this checkout) are repository roots, each
with a `src/surrokit`. The inputs are built once, with the `--after` tree:
the pll-fit pipeline of `perfbench/workloads.py` (seed `--seed`, pass 0:
120 training rows, 50 verify rows, a stepwise degree-3 polynomial, a grown
RBF network and the ANN sweep) runs to completion, and its config and CSV
files are what both trees train on. Each pair then runs, per tree and
alternating which tree goes first:

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
BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_optimizers import THREAD_VARS, _revision, _summary  # same directory


def _train_argv(work: Path, out: Path) -> list[str]:
    return ["train", "--config", str(work / "project.json"),
            "--train", str(work / "train.csv"),
            "--verify", str(work / "verify.csv"),
            "--out-dir", str(out / "models"),
            "--report-json", str(out / "reports.json")]


def _env(tree: Path) -> dict:
    return {**os.environ, **{var: "1" for var in THREAD_VARS},
            "PYTHONPATH": str(tree / "src")}


def worker(work: Path, repeats: int) -> dict:
    """Record one `train` run's F-tail calls in this process's tree and time
    replaying them (see the module doc)."""
    from scipy import special
    from surrokit import cli, training

    f_sf, calls = training._f_sf, []

    def recorded(f_stat, df):
        calls.append((f_stat, df))
        return f_sf(f_stat, df)

    scratch = Path(tempfile.mkdtemp(prefix="bench_f_tail_"))
    training._f_sf = recorded
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(_train_argv(work, scratch))
    finally:
        training._f_sf = f_sf
        shutil.rmtree(scratch, ignore_errors=True)
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


def _cold_train(tree: Path, work: Path, out: Path) -> dict:
    """Run `python -m surrokit train` from `tree` in a new process; return
    its wall seconds and peak resident memory."""
    with tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "surrokit", *_train_argv(work, out)],
            env=_env(tree), stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        if proc.returncode != 0:
            stderr.seek(0)
            raise SystemExit(f"train in {tree} exited {proc.returncode}: "
                             f"{stderr.read().decode()}")
    return {"wall_s": seconds, "max_rss_mb": usage.ru_maxrss / 1024}


def _spawn(tree: Path, work: Path, repeats: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(work),
         "--repeats", str(repeats)],
        env=_env(tree), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _build_inputs(after: Path, seed: int, work: Path) -> dict:
    """Run the pll-fit pipeline of seed `seed`, pass 0, with the `after`
    tree into `work`; return its training config section."""
    sys.path[:0] = [str(after / "src"), str(after / "perfbench")]
    import workloads
    fit = workloads.PllFit(seed, "full")
    fit.setup()
    state = fit.execute(0, work)
    if any(state["codes"].values()):
        raise SystemExit(f"input pipeline failed: {state['codes']}")
    return json.loads((work / "project.json").read_text())["training"]


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--out", type=Path, default=Path("BENCH_f_tail.json"))
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker, args.repeats)))
        return
    if args.before is None or args.pairs < 2:
        parser.error("--before is required and --pairs must be >= 2")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads

    work = Path(tempfile.mkdtemp(prefix="bench_f_tail_inputs_"))
    try:
        training = _build_inputs(trees["after"], args.seed, work / "fit")
        cold = {side: [] for side in trees}
        tails = {side: [] for side in trees}
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for side in order:
                out = work / f"{side}-{pair}"
                cold[side].append(_cold_train(trees[side], work / "fit", out))
                tails[side].append(_spawn(trees[side], work / "fit",
                                          args.repeats))
                print(f"pair {pair} {side}: train "
                      f"{cold[side][-1]['wall_s']:.3f} s "
                      f"{cold[side][-1]['max_rss_mb']:.1f} MB, F tail "
                      f"{tails[side][-1]['f_tail_s'] * 1e3:.3f} ms",
                      file=sys.stderr)
        identical = all(_outputs(work / f"before-{pair}")
                        == _outputs(work / f"after-{pair}")
                        for pair in range(args.pairs))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def wins(key: str, records: dict) -> str:
        before, after = ([r[key] for r in records[s]] for s in trees)
        return f"{sum(a < b for b, a in zip(before, after))}/{len(before)}"

    cold_train = {side: {key: _summary([r[key] for r in cold[side]])
                         for key in ("wall_s", "max_rss_mb")}
                  for side in trees}
    for key in ("wall_s", "max_rss_mb"):
        cold_train[f"{key}_after_wins"] = wins(key, cold)
        cold_train[f"{key}_change"] = (
            cold_train["after"][key]["median"]
            / cold_train["before"][key]["median"] - 1.0)
    cold_train["outputs_identical"] = identical

    f_tail = {"calls_per_pass": tails["after"][0]["calls"]}
    for side in trees:
        f_tail[side] = {"pass_s": _summary([r["f_tail_s"]
                                            for r in tails[side]])}
    f_tail["scipy_fdtrc"] = {"pass_s": _summary(
        [r["scipy_fdtrc_s"] for side in trees for r in tails[side]])}
    after_s = f_tail["after"]["pass_s"]["median"]
    f_tail["after_over_before"] = after_s / f_tail["before"]["pass_s"]["median"]
    f_tail["after_over_scipy_fdtrc"] = (
        after_s / f_tail["scipy_fdtrc"]["pass_s"]["median"])

    import numpy
    report = {
        "script": "scripts/bench_f_tail.py",
        "trees": {side: _revision(path) for side, path in trees.items()},
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "blas_threads": 1},
        "inputs": {"workload": "pll-fit", "seed": args.seed, "pass": 0,
                   "training": training},
        "pairs": args.pairs, "repeats": args.repeats,
        "cold_train": cold_train,
        "f_tail": f_tail,
        "accuracy": _accuracy(),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"cold train: peak RSS {cold_train['before']['max_rss_mb']['median']:.1f}"
          f" -> {cold_train['after']['max_rss_mb']['median']:.1f} MB (after "
          f"wins {cold_train['max_rss_mb_after_wins']}), wall "
          f"{cold_train['before']['wall_s']['median']:.3f} -> "
          f"{cold_train['after']['wall_s']['median']:.3f} s; F tail "
          f"{f_tail['after_over_before']:.2f}x the before tree's; max "
          f"relative difference {report['accuracy']['max_relative_difference']:.2e}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
