"""Time `RbfModel.predict` in two source trees on the same fixed models and
rows, and write the before/after record as JSON.

    python scripts/bench_rbf_predict.py --before ../parent-checkout \\
        --pairs 10 --out BENCH_rbf_predict.json

The two-tree harness, its flags and the record's header are
`scripts/benchpairs.py`'s; the `--after` tree also needs a `perfbench`. The
inputs are built once, with the `--after` tree: opamp-screen's set-up
(`perfbench/workloads.py`, seed `--seed`, full size) trains its five RBF
models (16 inputs, spread 2.0, up to 60 neurons), which are saved, and its
pass-0 screening set of 16,384 LHS rows. A worker imports surrokit from its
tree, loads them and, `--repeats` times, measures:

- `predict_us`: the microseconds of one `predict` of the `sr` model on the
  first 1, 10, 4,096 and 8,192 rows (a loop of calls that takes about
  20 ms, divided by its calls);
- `screen_s`: the seconds to predict the 16,384 rows with each of the five
  models in chunks of 4,096 rows, as an opamp-screen pass does.

It reports the median of each, then predicts the 16,384 rows with each
model at spread 2.0 and again at 1.3 (the same centers and weights) and
saves the predictions. The record gives each worker's peak resident memory
and, per spread, whether the two trees' predictions are bit-identical and
their largest relative difference.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import benchpairs  # same directory
from benchpairs import SIDES

RESPONSES = ("sr", "pd", "a0", "bw", "pm")
ROWS = (1, 10, 4096, 8192)
CHUNK = 4096
SPREADS = (2.0, 1.3)


def save_inputs(args, work: Path) -> dict:
    """Save opamp-screen's set-up RBF models and pass-0 screening rows to
    `work`, with the `--after` tree; return what the record says of them."""
    after = args.trees["after"]
    sys.path[:0] = [str(after / "src"), str(after / "perfbench")]
    import numpy as np
    import workloads
    from surrokit import design_space, metamodel

    screen = workloads.OpampScreen(args.seed, "full")
    screen.setup()
    neurons = {}
    for r in RESPONSES:
        model = screen.models["rbf", r]
        metamodel.save_model(model, work / f"rbf-{r}.json")
        neurons[r] = model.n_neurons
    rows = design_space.lhs_sample(
        screen.space, screen.p["n_screen"],
        workloads.sub_seeds(args.seed, 0, 1)[0])
    np.save(work / "rows.npy", rows)
    return {"workload": "opamp-screen", "seed": args.seed, "pass": 0,
            "rows": len(rows), "inputs": rows.shape[1], "chunk": CHUNK,
            "neurons": neurons, "spread": screen.models["rbf", "sr"].spread}


def worker(work: Path, repeats: int, predictions: Path) -> dict:
    """Measure this process's tree (see the module doc)."""
    import numpy as np
    from surrokit import metamodel

    models = [metamodel.load_model(work / f"rbf-{r}.json") for r in RESPONSES]
    x = np.load(work / "rows.npy")
    model = models[0]
    model.predict(x[:CHUNK])  # warm-up

    def per_call_us(rows: int) -> float:
        calls = max(1, 20_000 // rows)
        part = x[:rows]
        start = time.perf_counter()
        for _ in range(calls):
            model.predict(part)
        return (time.perf_counter() - start) / calls * 1e6

    def screen_s() -> float:
        start = time.perf_counter()
        for m in models:
            np.concatenate([m.predict(x[i:i + CHUNK])
                            for i in range(0, len(x), CHUNK)])
        return time.perf_counter() - start

    predict_us = {rows: statistics.median(per_call_us(rows)
                                          for _ in range(repeats))
                  for rows in ROWS}
    screen = statistics.median(screen_s() for _ in range(repeats))
    np.savez(predictions, **{
        str(spread): np.column_stack([
            dataclasses.replace(m, spread=spread).predict(x) for m in models])
        for spread in SPREADS})
    return {"predict_us": predict_us, "screen_s": screen,
            "model_rows": len(x) * len(models)}


def _differences(files: dict) -> dict:
    """Per spread: whether the two sides' predictions are bit-identical, and
    their largest |a - b| / max(|a|, |b|) (0 where both are 0)."""
    import numpy as np
    preds = {side: np.load(path) for side, path in files.items()}
    out = {}
    for spread in map(str, SPREADS):
        a, b = preds["before"][spread], preds["after"][spread]
        scale = np.maximum(np.abs(a), np.abs(b))
        out[spread] = {"identical": bool(np.array_equal(a, b)),
                       "max_relative_difference": float(np.max(
                           np.abs(a - b) / np.where(scale > 0, scale, 1.0)))}
    return out


def main() -> None:
    parser = benchpairs.parser(__file__, __doc__, seed=3, pairs=10, repeats=5,
                               out="BENCH_rbf_predict.json")
    parser.add_argument("--predictions", type=Path, help=argparse.SUPPRESS)
    args = benchpairs.parse(parser)
    if args.worker:
        print(json.dumps(worker(args.worker, args.repeats, args.predictions)))
        return

    with tempfile.TemporaryDirectory(prefix="bench_rbf_") as work:
        work = Path(work)
        inputs = save_inputs(args, work)
        files = {side: work / f"predictions-{side}.npz" for side in SIDES}
        runs = benchpairs.alternate(
            args.pairs, lambda side, pair: benchpairs.run_worker(
                args, side, str(work), "--predictions", str(files[side])),
            lambda run: ", ".join(f"{rows} rows {us:.1f} us"
                                  for rows, us in run["predict_us"].items())
            + f", screen {run['screen_s']:.4f} s, "
            f"{run['max_rss_mb']:.1f} MB")
        differences = _differences(files)

    predict_us = {rows: benchpairs.compare(
        runs, lambda r: r["predict_us"][str(rows)]) for rows in ROWS}
    screen = benchpairs.compare(runs, lambda r: r["screen_s"])
    benchpairs.write(
        args, inputs,
        {"predict_us": predict_us, "screen_s": screen,
         "screen_model_rows": runs["after"][0]["model_rows"],
         "max_rss_mb": benchpairs.compare(runs, lambda r: r["max_rss_mb"]),
         "predictions": differences})
    print("; ".join(f"{rows} rows {e['before']['median']:.1f} -> "
                    f"{e['after']['median']:.1f} us"
                    for rows, e in predict_us.items())
          + f"; screen {screen['before']['median']:.4f} -> "
          f"{screen['after']['median']:.4f} s (after lower "
          f"{screen['after_lower']}); "
          + "; ".join(f"spread {spread}: identical {d['identical']}, max "
                      f"relative difference {d['max_relative_difference']:.2e}"
                      for spread, d in differences.items()), file=sys.stderr)


if __name__ == "__main__":
    main()
