"""Time ANN training epochs in two source trees on the same fixed inputs,
and write the before/after record as JSON.

    python scripts/bench_ann_epoch.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_ann_epoch.json

The two-tree harness, its flags and the record's header are
`scripts/benchpairs.py`'s; each tree also needs a `perfbench`. Each pair
runs one worker process per tree. A worker imports surrokit from its tree
and, `--repeats` times, trains three stacks that have the shapes of the
benchmark's workloads, each on 120 LHS rows drawn with `--seed`:

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
`--repeats` times and reports the median of its `train_s`. The record also
gives each worker's peak resident memory, the rows times epochs each shape
evaluates, and whether the two trees' trained weights and opamp-screen
set-up model files are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import benchpairs  # same directory
from benchpairs import SIDES

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
            "screen_models_sha256": screen_models}


def main() -> None:
    parser = benchpairs.parser(__file__, __doc__, seed=3, pairs=10, repeats=5,
                               out="BENCH_ann_epoch.json")
    parser.add_argument("--epochs", type=int, default=1000)
    args = benchpairs.parse(parser)
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")
    if args.worker:
        print(json.dumps(worker(args.worker, args.seed, args.epochs,
                                args.repeats)))
        return

    runs = benchpairs.alternate(
        args.pairs, lambda side, pair: benchpairs.run_worker(
            args, side, str(args.trees[side]), "--epochs", str(args.epochs)),
        lambda run: ", ".join(f"{name} {shape['epoch_us']:.1f} us/epoch"
                              for name, shape in run["shapes"].items())
        + f", opamp-screen train {run['screen_train_s']:.3f} s, "
        f"{run['max_rss_mb']:.1f} MB")

    epoch_us = {name: {"networks": runs["after"][0]["shapes"][name]["networks"],
                       "rows_x_epochs": runs["after"][0]["shapes"][name][
                           "rows_x_epochs"],
                       **benchpairs.compare(
                           runs, lambda r: r["shapes"][name]["epoch_us"])}
                for name in SHAPES}
    identical = {key: len({r[key] for side in SIDES for r in runs[side]}) == 1
                 for key in ("weights_sha256", "screen_models_sha256")}
    train_s = benchpairs.compare(runs, lambda r: r["screen_train_s"])
    benchpairs.write(
        args, {"seed": args.seed, "rows": ROWS, "epochs": args.epochs,
               "shapes": {name: {"oracle": oracle, "responses": responses,
                                 "hidden_sizes": sizes}
                          for name, (oracle, responses, sizes)
                          in SHAPES.items()}},
        {"epoch_us": epoch_us, "opamp_screen_setup_train_s": train_s,
         "max_rss_mb": benchpairs.compare(runs, lambda r: r["max_rss_mb"]),
         "weights_identical": identical["weights_sha256"],
         "opamp_screen_models_identical": identical["screen_models_sha256"]})
    print("; ".join(f"{name} {e['before']['median']:.1f} -> "
                    f"{e['after']['median']:.1f} us/epoch"
                    for name, e in epoch_us.items())
          + "; opamp-screen set-up train "
          f"{train_s['before']['median']:.3f} -> "
          f"{train_s['after']['median']:.3f} s; weights identical: "
          f"{identical['weights_sha256']}, set-up models identical: "
          f"{identical['screen_models_sha256']}", file=sys.stderr)


if __name__ == "__main__":
    main()
