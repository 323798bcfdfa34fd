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
reports the median seconds and the terms each response's model kept. It
then builds the candidate basis `poly_basis(x, monomial_exponents(21, 3))`
of the training rows, `--repeats` times 20 builds timed, and reports the
median seconds of one build, the peak of one build under `tracemalloc`,
and the basis's strides and SHA-256 of its bytes. The record gives each
worker's peak resident memory and whether the two trees wrote
byte-identical model files and built byte-identical bases.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import benchpairs  # same directory
from benchpairs import SIDES


def worker(work: Path, repeats: int, models: Path) -> dict:
    """Measure this process's tree (see the module doc)."""
    from surrokit import cli, oracles
    from surrokit.metamodel import poly_basis
    from surrokit.training import monomial_exponents

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
    config = json.loads((work / "poly.json").read_text())
    responses = config["training"]["responses"]
    terms_kept = {
        r: len(json.loads((models / f"{r}.json").read_text())["terms"])
        for r in responses}

    x = oracles.load_csv(work / "train.csv",
                         [v["name"] for v in config["space"]]).inputs
    terms = monomial_exponents(x.shape[1], config["training"]["poly"]["degree"])
    basis = poly_basis(x, terms)  # warm-up

    def build() -> float:
        start = time.perf_counter()
        for _ in range(20):
            poly_basis(x, terms)
        return (time.perf_counter() - start) / 20

    basis_s = statistics.median(build() for _ in range(repeats))
    del basis
    tracemalloc.start()
    basis = poly_basis(x, terms)
    basis_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"train_s": train_s, "terms_kept": terms_kept,
            "basis_s": basis_s, "basis_peak_mb": basis_peak / 2 ** 20,
            "basis_shape": basis.shape, "basis_strides": basis.strides,
            "basis_sha256": hashlib.sha256(basis.tobytes("A")).hexdigest()}


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
            f"{run['terms_kept']}, {run['max_rss_mb']:.1f} MB; basis "
            f"{run['basis_s'] * 1e3:.3f} ms, {run['basis_peak_mb']:.2f} MB")
        files = {side: {p.name: p.read_bytes()
                        for p in sorted(models[side].iterdir())}
                 for side in SIDES}

    train_s = benchpairs.compare(runs, lambda r: r["train_s"])
    terms = {side: runs[side][0]["terms_kept"] for side in SIDES}
    identical = files["before"] == files["after"]
    basis_s = benchpairs.compare(runs, lambda r: r["basis_s"])
    # the bytes in memory order, with the shape and strides that order them
    layouts = {side: {(tuple(r["basis_shape"]), tuple(r["basis_strides"]),
                       r["basis_sha256"]) for r in runs[side]}
               for side in SIDES}
    basis_identical = len(layouts["before"] | layouts["after"]) == 1
    benchpairs.write(
        args, {"workload": "pll-fit", "seed": args.seed, "pass": 0,
               "rows": config["sampling"]["n"],
               "training": {key: config["training"][key]
                            for key in ("responses", "kinds", "poly")}},
        {"train_s": train_s,
         "max_rss_mb": benchpairs.compare(runs, lambda r: r["max_rss_mb"]),
         "terms_kept": terms, "models_identical": identical,
         "basis": {"shape": runs["after"][0]["basis_shape"],
                   "strides": runs["after"][0]["basis_strides"],
                   "seconds": basis_s,
                   "peak_mb": benchpairs.compare(
                       runs, lambda r: r["basis_peak_mb"]),
                   "identical": basis_identical}})
    print(f"train: before {train_s['before']['median']:.4f} s, after "
          f"{train_s['after']['median']:.4f} s ({train_s['change']:+.1%}, "
          f"after lower {train_s['after_lower']}); terms kept "
          f"{terms['after']}; model files identical {identical}; basis "
          f"{basis_s['before']['median'] * 1e3:.3f} -> "
          f"{basis_s['after']['median'] * 1e3:.3f} ms, identical "
          f"{basis_identical}", file=sys.stderr)


if __name__ == "__main__":
    main()
