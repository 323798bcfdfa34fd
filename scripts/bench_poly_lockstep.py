"""Time the stepwise polynomial `train` in two source trees on the same fixed
pll-fit inputs, and write the before/after record as JSON.

    python scripts/bench_poly_lockstep.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_poly_lockstep.json

The two-tree harness, its flags and the record's header are
`scripts/benchpairs.py`'s; the `--after` tree also needs a `perfbench`. The
inputs are built once, with the `--after` tree: the pll-fit pipeline of
`perfbench/workloads.py` (seed `--seed`, pass 0: 120 training rows and 50
verify rows of the 21-variable PLL oracle, responses freq, power and
lock_time) runs to completion, and its config with `training.kinds` set to
`["poly"]` (degree 3, stepwise, `p_enter` 0.05: 2,024 candidate terms) is
what both trees train on. A worker imports surrokit from its tree and runs
`train` in-process, once to warm up and `--repeats` times timed, and
reports the median seconds and the terms each response's model kept. The
record gives each worker's peak resident memory and whether the two trees
wrote byte-identical model files.
"""

from __future__ import annotations

import argparse
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


def worker(work: Path, repeats: int, models: Path) -> dict:
    """Measure this process's tree (see the module doc)."""
    from surrokit import cli

    argv = ["train", "--config", str(work / "poly.json"), "--train",
            str(work / "train.csv"), "--verify", str(work / "verify.csv"),
            "--out-dir", str(models)]

    def run() -> float:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"train exited {code}")
        return seconds

    run()  # warm-up
    train_s = statistics.median(run() for _ in range(repeats))
    responses = json.loads((work / "poly.json").read_text())["training"][
        "responses"]
    return {"train_s": train_s, "terms_kept": {
        r: len(json.loads((models / f"{r}.json").read_text())["terms"])
        for r in responses}}


def main() -> None:
    parser = benchpairs.parser(__file__, __doc__, seed=3, pairs=10, repeats=5,
                               out="BENCH_poly_lockstep.json")
    parser.add_argument("--models", type=Path, help=argparse.SUPPRESS)
    args = benchpairs.parse(parser)
    if args.worker:
        print(json.dumps(worker(args.worker, args.repeats, args.models)))
        return

    with tempfile.TemporaryDirectory(prefix="bench_poly_") as work:
        pll = Path(work) / "pll"
        config = benchpairs.build_inputs(args, "pll-fit", pll)
        config["training"]["kinds"] = ["poly"]
        (pll / "poly.json").write_text(json.dumps(config))
        models = {side: Path(work) / f"models-{side}" for side in SIDES}
        runs = benchpairs.alternate(
            args.pairs, lambda side, pair: benchpairs.run_worker(
                args, side, str(pll), "--models", str(models[side])),
            lambda run: f"train {run['train_s']:.4f} s, terms "
            f"{run['terms_kept']}, {run['max_rss_mb']:.1f} MB")
        files = {side: {p.name: p.read_bytes()
                        for p in sorted(models[side].iterdir())}
                 for side in SIDES}

    train_s = benchpairs.compare(runs, lambda r: r["train_s"])
    terms = {side: runs[side][0]["terms_kept"] for side in SIDES}
    identical = files["before"] == files["after"]
    benchpairs.write(
        args, {"workload": "pll-fit", "seed": args.seed, "pass": 0,
               "rows": config["sampling"]["n"],
               "training": {key: config["training"][key]
                            for key in ("responses", "kinds", "poly")}},
        {"train_s": train_s,
         "max_rss_mb": benchpairs.compare(runs, lambda r: r["max_rss_mb"]),
         "terms_kept": terms, "models_identical": identical})
    print(f"train: before {train_s['before']['median']:.4f} s, after "
          f"{train_s['after']['median']:.4f} s ({train_s['change']:+.1%}, "
          f"after lower {train_s['after_lower']}); terms kept "
          f"{terms['after']}; model files identical {identical}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
