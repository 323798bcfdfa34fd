"""Time ANN training epochs in two source trees on the same fixed inputs,
and write the before/after record as JSON.

    python scripts/bench_ann_epoch.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_ann_epoch.json

`--before` and `--after` (default: this checkout) are repository roots, each
with a `src/surrokit` and a `perfbench`. Each pair runs one worker process
per tree, alternating which tree goes first. A worker imports surrokit from
its tree and, `--repeats` times, trains three stacks that have the shapes of
the benchmark's workloads, each on 120 LHS rows drawn with `--seed`:

- `one-network`: one 4-unit network on the op-amp response `sr` (16
  inputs), as in opamp-screen's set-up;
- `opamp-flow`: eight 4-unit networks, one per op-amp response;
- `pll-fit`: nine networks, hidden sizes 4, 8 and 12 for each of the three
  PLL responses (21 inputs).

Every network trains `--epochs` epochs (the patience equals the epoch
count, as in perfbench). The time of `training._descend`, the epoch loop,
divided by the passes it runs gives the microseconds per epoch, and the
worker reports the median over its repeats. The worker then runs
opamp-screen's set-up (`perfbench/workloads.py`, seed `--seed`, full size)
`--repeats` times and reports the median of its `train_s`, then its own peak
resident memory (`ru_maxrss`). The record also gives the rows times epochs
each shape evaluates, and whether the two trees' trained weights and
opamp-screen set-up model files are byte-identical. BLAS runs on one
thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_optimizers import THREAD_VARS, _revision, _summary  # same directory

SHAPES = {"one-network": ("opamp", ["sr"], [4]),
          "opamp-flow": ("opamp", ["sr", "pd", "a0", "bw", "pm", "gm", "ip",
                                   "in"], [4]),
          "pll-fit": ("pll", ["freq", "power", "lock_time"], [4, 8, 12])}
ROWS = 120


def worker(tree: Path, seed: int, epochs: int, repeats: int) -> dict:
    """Measure this process's tree (see the module doc)."""
    import numpy as np
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads
    from surrokit import design_space, oracles, training

    descend, seconds = training._descend, []

    def timed(*args):
        start = time.perf_counter()
        try:
            return descend(*args)
        finally:
            seconds.append(time.perf_counter() - start)
    training._descend = timed

    opts = training.TrainOptions(max_epochs=epochs, learning_rate=0.05,
                                 l2_penalty=1e-4, early_stop_patience=epochs,
                                 seed=seed)
    shapes, digest = {}, hashlib.sha256()
    for name, (oracle, responses, sizes) in SHAPES.items():
        space = oracles.BUILTIN_SPACES[oracle]()
        data = oracles.evaluate(oracles.BUILTIN_ORACLES[oracle](),
                                design_space.lhs_sample(space, ROWS, seed),
                                space.names)
        del seconds[:]
        for _ in range(repeats):
            models = training.train_anns(data, responses, sizes, opts)
        for model, _ in models.values():
            for weights in (model.W1, model.b1, model.W2, [model.b2]):
                digest.update(np.asarray(weights, dtype=float).tobytes())
        # epoch 0 evaluates the initial weights: epochs + 1 passes
        shapes[name] = {"epoch_us": statistics.median(seconds)
                        / (epochs + 1) * 1e6,
                        "networks": len(models),
                        "rows_x_epochs": ROWS * (epochs + 1)}
    training._descend = descend

    train_s = []
    for _ in range(repeats):
        screen = workloads.OpampScreen(seed, "full")
        train_s.append(screen.setup()["train_s"])
    with tempfile.TemporaryDirectory(prefix="bench_ann_epoch_") as scratch:
        screen_models = screen.setup_fingerprint(Path(scratch) / "models")
    return {"shapes": shapes, "weights_sha256": digest.hexdigest(),
            "screen_train_s": statistics.median(train_s),
            "screen_models_sha256": screen_models,
            "max_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def _spawn(tree: Path, args) -> dict:
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree), "--seed",
         str(args.seed), "--epochs", str(args.epochs), "--repeats",
         str(args.repeats)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("BENCH_ann_epoch.json"))
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker, args.seed, args.epochs,
                                args.repeats)))
        return
    if args.before is None or min(args.pairs, args.epochs, args.repeats) < 1:
        parser.error("--before is required, and --pairs, --epochs and "
                     "--repeats must be >= 1")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}

    runs = {side: [] for side in trees}
    for pair in range(args.pairs):
        for side in ("before", "after")[::1 if pair % 2 == 0 else -1]:
            runs[side].append(_spawn(trees[side], args))
            run = runs[side][-1]
            print(f"pair {pair} {side}: " + ", ".join(
                f"{name} {shape['epoch_us']:.1f} us/epoch"
                for name, shape in run["shapes"].items())
                + f", opamp-screen train {run['screen_train_s']:.3f} s, "
                f"{run['max_rss_mb']:.1f} MB", file=sys.stderr)

    def compare(values: dict) -> dict:
        """Both trees' summaries of `values[side]`, the share of pairs in
        which `after` is lower, and the change of the medians."""
        out = {side: _summary(values[side]) for side in trees}
        out["after_lower"] = (f"{sum(a < b for b, a in zip(*values.values()))}"
                              f"/{args.pairs}")
        out["change"] = out["after"]["median"] / out["before"]["median"] - 1.0
        return out

    epoch_us = {name: {"networks": runs["after"][0]["shapes"][name]["networks"],
                       "rows_x_epochs": runs["after"][0]["shapes"][name][
                           "rows_x_epochs"],
                       **compare({side: [r["shapes"][name]["epoch_us"]
                                         for r in runs[side]]
                                  for side in trees})}
                for name in SHAPES}
    identical = {key: len({r[key] for side in trees for r in runs[side]}) == 1
                 for key in ("weights_sha256", "screen_models_sha256")}

    import numpy
    report = {
        "script": "scripts/bench_ann_epoch.py",
        "trees": {side: _revision(path) for side, path in trees.items()},
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "blas_threads": 1},
        "inputs": {"seed": args.seed, "rows": ROWS, "epochs": args.epochs,
                   "shapes": {name: {"oracle": oracle, "responses": responses,
                                     "hidden_sizes": sizes}
                              for name, (oracle, responses, sizes)
                              in SHAPES.items()}},
        "pairs": args.pairs, "repeats": args.repeats,
        "epoch_us": epoch_us,
        "opamp_screen_setup_train_s": compare(
            {side: [r["screen_train_s"] for r in runs[side]] for side in trees}),
        "max_rss_mb": compare(
            {side: [r["max_rss_mb"] for r in runs[side]] for side in trees}),
        "weights_identical": identical["weights_sha256"],
        "opamp_screen_models_identical": identical["screen_models_sha256"],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("; ".join(f"{name} {e['before']['median']:.1f} -> "
                    f"{e['after']['median']:.1f} us/epoch"
                    for name, e in epoch_us.items())
          + "; opamp-screen set-up train "
          f"{report['opamp_screen_setup_train_s']['before']['median']:.3f} -> "
          f"{report['opamp_screen_setup_train_s']['after']['median']:.3f} s; "
          f"weights identical: {report['weights_identical']}, "
          f"set-up models identical: "
          f"{report['opamp_screen_models_identical']}", file=sys.stderr)


if __name__ == "__main__":
    main()
