"""Time batch predicts in two source trees on the same fixed models and rows,
sweeping the `--after` tree's predict block size, and write the before/after
record as JSON.

    python scripts/bench_predict_block.py --before ../parent-checkout \\
        --pairs 10 --repeats 3 --entries 16384,32768,65536,131072,262144 \\
        --out BENCH_predict_block.json

The two-tree harness, its flags and the record's header are
`scripts/benchpairs.py`'s; the `--after` tree also needs a `perfbench`. The
inputs are built once, with the `--after` tree:

- screen: opamp-screen's set-up models (`perfbench/workloads.py`, seed
  `--seed`, full size: an ANN of 4 hidden units, an RBF network of up to 60
  neurons and a stepwise degree-2 polynomial for each of the 5 responses, 16
  inputs) and its pass-0 screening set of 16,384 LHS rows;
- wide: two RBF networks of 500 and 2,000 neurons and a `ModelBank` of 24
  ANNs of 12 hidden units (one stack), random weights on 16 inputs, and
  200,000 random rows.

A worker imports surrokit from its tree, in one process for the screen and
one for the wide models. With `--entries E` (the `--after` tree only) it
sets `metamodel.PREDICT_ENTRIES` to E before it loads the models, which
size their blocks when they are made. It measures, `--repeats` times:

- screen: per family, the microseconds per 4,096-row chunk of predicting
  the 16,384 rows with each of the 5 models in chunks, as an opamp-screen
  pass does (after one untimed screen), and the largest `tracemalloc` peak
  of one chunk's predict;
- wide: the seconds of one 200,000-row predict of each wide model. The
  first of the `--repeats` calls runs under `tracemalloc` and gives the
  traced peak and the saved predictions; tracing costs a call a little per
  allocation, so it slows small blocks a little more than large ones.

A worker is a fresh process, and how often a block's temporaries fault
pages in follows the process's allocation history (glibc's dynamic mmap
threshold), so the chunk times of a block size can differ from those in a
long-running process such as a perfbench run.

It reports the medians and saves the predictions. The record gives, for
each `--entries` value (or the `--after` tree's own constant), both sides'
times, traced peaks and worker peak resident memory, each model's block
rows, and whether the predictions are bit-identical to the `--before`
tree's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import benchpairs  # same directory
from benchpairs import SIDES

RESPONSES = ("sr", "pd", "a0", "bw", "pm")
FAMILIES = ("ann", "rbf", "poly")
CHUNK = 4096
WIDE_ROWS = 200_000
WIDE = ("rbf-500", "rbf-2000", "ann-bank-24x12")
PARTS = ("screen", "wide")


def save_inputs(args, work: Path) -> dict:
    """Save the screen and wide models and rows to `work` with the `--after`
    tree; return what the record says of them."""
    after = args.trees["after"]
    sys.path[:0] = [str(after / "src"), str(after / "perfbench")]
    import numpy as np
    import workloads
    from surrokit import design_space, metamodel
    from surrokit.scaling import Scaler

    screen = workloads.OpampScreen(args.seed, "full")
    screen.setup()
    sizes = {}
    for (fam, r), model in screen.models.items():
        metamodel.save_model(model, work / f"{fam}-{r}.json")
        sizes[f"{fam}-{r}"] = (model.hidden_size if fam == "ann" else
                               model.n_neurons if fam == "rbf" else
                               len(model.terms))
    rows = design_space.lhs_sample(
        screen.space, screen.p["n_screen"],
        workloads.sub_seeds(args.seed, 0, 1)[0])
    np.save(work / "rows.npy", rows)

    n = rows.shape[1]
    rng = np.random.default_rng(args.seed)
    scaled = {"input_scaler": Scaler("meanstd", np.full(n, 0.5),
                                     np.full(n, 0.3)),
              "output_scaler": Scaler("meanstd", [1.0], [2.0])}
    for neurons in (500, 2000):
        metamodel.save_model(metamodel.RbfModel(
            input_dim=n, centers=rng.normal(size=(neurons, n)), spread=2.0,
            weights=rng.normal(size=neurons), bias=0.3, **scaled),
            work / f"rbf-{neurons}.json")
    for k in range(24):
        metamodel.save_model(metamodel.AnnModel(
            input_dim=n, hidden_size=12, activation="tanh",
            W1=rng.normal(size=(12, n)), b1=rng.normal(size=12),
            W2=rng.normal(size=12), b2=0.1, **scaled),
            work / f"bank-{k}.json")
    np.save(work / "wide.npy", rng.random((WIDE_ROWS, n)))
    return {"screen": {"workload": "opamp-screen", "seed": args.seed,
                       "pass": 0, "rows": len(rows), "inputs": n,
                       "chunk": CHUNK, "sizes": sizes},
            "wide": {"rows": WIDE_ROWS, "inputs": n,
                     "models": {"rbf-500": "500 neurons",
                                "rbf-2000": "2,000 neurons",
                                "ann-bank-24x12": "ModelBank of 24 tanh "
                                                  "ANNs, 12 hidden units"}}}


def _traced(fn):
    """fn()'s result and its `tracemalloc` peak in MiB."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2 ** 20


def _screen(work: Path, repeats: int) -> tuple[dict, dict]:
    import numpy as np
    from surrokit.metamodel import load_model

    models = {fam: [load_model(work / f"{fam}-{r}.json") for r in RESPONSES]
              for fam in FAMILIES}
    x = np.load(work / "rows.npy")
    chunks = [x[i:i + CHUNK] for i in range(0, len(x), CHUNK)]

    def screen(fam: str) -> np.ndarray:
        return np.column_stack([np.concatenate([m.predict(c) for c in chunks])
                                for m in models[fam]])

    preds = {fam: screen(fam) for fam in FAMILIES}  # also the warm-up
    peaks = {fam: max(_traced(lambda: m.predict(c))[1]
                      for m in models[fam] for c in chunks)
             for fam in FAMILIES}
    times = {fam: [] for fam in FAMILIES}
    for _ in range(repeats):
        for fam in FAMILIES:
            start = time.perf_counter()
            screen(fam)
            times[fam].append((time.perf_counter() - start) * 1e6
                              / (len(chunks) * len(RESPONSES)))
    return {"us_per_chunk": {fam: statistics.median(t)
                             for fam, t in times.items()},
            "peak_mib": peaks,
            "block_rows": {f"{fam}-{r}": getattr(m, "_rows", None)
                           for fam in FAMILIES
                           for r, m in zip(RESPONSES, models[fam])}}, preds


def _wide(work: Path, repeats: int) -> tuple[dict, dict]:
    import numpy as np
    from surrokit.metamodel import ModelBank, load_model

    models = {"rbf-500": load_model(work / "rbf-500.json"),
              "rbf-2000": load_model(work / "rbf-2000.json"),
              "ann-bank-24x12": ModelBank([load_model(work / f"bank-{k}.json")
                                           for k in range(24)])}
    x = np.load(work / "wide.npy")
    out, preds = {"s_per_call": {}, "peak_mib": {}, "output_mib": {},
                  "block_rows": {}}, {}
    for name, model in models.items():
        times = []
        for rep in range(repeats):
            start = time.perf_counter()
            if rep == 0:
                preds[name], out["peak_mib"][name] = _traced(
                    lambda: model.predict(x))
            else:
                model.predict(x)
            times.append(time.perf_counter() - start)
        out["s_per_call"][name] = statistics.median(times)
        out["output_mib"][name] = preds[name].nbytes / 2 ** 20
        # a bank's one stack, or the model; the before tree has neither
        stack = getattr(model, "_whole", None)
        out["block_rows"][name] = (getattr(model, "_rows", None)
                                   if stack is None else
                                   getattr(stack, "rows", None))
    return out, preds


def worker(work: Path, part: str, repeats: int, entries: int | None,
           predictions: Path) -> dict:
    """Measure this process's tree (see the module doc)."""
    import numpy as np
    from surrokit import metamodel

    if entries is not None:
        if not hasattr(metamodel, "PREDICT_ENTRIES"):
            raise SystemExit("--entries needs a tree with PREDICT_ENTRIES")
        metamodel.PREDICT_ENTRIES = entries
    result, preds = (_screen if part == "screen" else _wide)(work, repeats)
    np.savez(predictions, **preds)
    return {**result, "entries": getattr(metamodel, "PREDICT_ENTRIES", None)}


def _differences(before: Path, after: Path) -> dict:
    """Per saved array: whether the two sides' predictions are
    bit-identical, and their largest |a - b| / max(|a|, |b|)."""
    import numpy as np
    a, b = np.load(before), np.load(after)
    out = {}
    for name in a.files:
        scale = np.maximum(np.abs(a[name]), np.abs(b[name]))
        out[name] = {"identical": bool(np.array_equal(a[name], b[name])),
                     "max_relative_difference": float(np.max(
                         np.abs(a[name] - b[name])
                         / np.where(scale > 0, scale, 1.0)))}
    return out


def main() -> None:
    parser = benchpairs.parser(__file__, __doc__, seed=3, pairs=10, repeats=3,
                               out="BENCH_predict_block.json")
    parser.add_argument("--entries", type=lambda s: [int(v) for v in
                                                     s.split(",")],
                        help="comma-separated PREDICT_ENTRIES values for "
                             "the --after tree (default: its own)")
    parser.add_argument("--part", choices=PARTS, help=argparse.SUPPRESS)
    parser.add_argument("--predictions", type=Path, help=argparse.SUPPRESS)
    args = benchpairs.parse(parser)
    if args.worker:
        entries = args.entries[0] if args.entries else None
        print(json.dumps(worker(args.worker, args.part, args.repeats, entries,
                                args.predictions)))
        return

    # one label per after-tree setting; the before tree runs as it is
    labels = [str(e) for e in args.entries] if args.entries else ["tree"]
    with tempfile.TemporaryDirectory(prefix="bench_block_") as work:
        work = Path(work)
        inputs = save_inputs(args, work)

        def files(label: str, part: str) -> Path:
            return work / f"predictions-{label}-{part}.npz"

        def measure(side: str, pair: int) -> dict:
            todo = (["before"] if side == "before"
                    else labels[pair % len(labels):]
                    + labels[:pair % len(labels)])
            out = {}
            for label in todo:
                extra = ([] if label in ("before", "tree")
                         else ["--entries", label])
                out[label] = {part: benchpairs.run_worker(
                    args, side, str(work), "--part", part, "--predictions",
                    str(files(label, part)), *extra) for part in PARTS}
            return out

        def describe(run: dict) -> str:
            return "; ".join(
                f"{label}: " + ", ".join(
                    f"{fam} {us:.0f} us"
                    for fam, us in r["screen"]["us_per_chunk"].items())
                + ", " + ", ".join(f"{name} {s:.3f} s" for name, s
                                   in r["wide"]["s_per_call"].items())
                for label, r in run.items())

        runs = benchpairs.alternate(args.pairs, measure, describe)
        identity = {label: {part: _differences(files("before", part),
                                               files(label, part))
                            for part in PARTS} for label in labels}

    before = [r["before"] for r in runs["before"]]
    sweep = {}
    for label in labels:
        pair_runs = {"before": before,
                     "after": [r[label] for r in runs["after"]]}
        first = {side: pair_runs[side][0] for side in SIDES}
        sweep[label] = {
            "entries": first["after"]["screen"]["entries"],
            "screen": {
                "us_per_chunk": {fam: benchpairs.compare(
                    pair_runs, lambda r: r["screen"]["us_per_chunk"][fam])
                    for fam in FAMILIES},
                "peak_mib": {side: first[side]["screen"]["peak_mib"]
                             for side in SIDES},
                "block_rows": {side: first[side]["screen"]["block_rows"]
                               for side in SIDES},
                "max_rss_mb": benchpairs.compare(
                    pair_runs, lambda r: r["screen"]["max_rss_mb"])},
            "wide": {
                "s_per_call": {name: benchpairs.compare(
                    pair_runs, lambda r: r["wide"]["s_per_call"][name])
                    for name in WIDE},
                "peak_mib": {side: first[side]["wide"]["peak_mib"]
                             for side in SIDES},
                "output_mib": first["after"]["wide"]["output_mib"],
                "block_rows": {side: first[side]["wide"]["block_rows"]
                               for side in SIDES},
                "max_rss_mb": benchpairs.compare(
                    pair_runs, lambda r: r["wide"]["max_rss_mb"])},
            "predictions": identity[label]}
    benchpairs.write(args, inputs, {"sweep": sweep})
    for label, s in sweep.items():
        same = all(d["identical"] for part in s["predictions"].values()
                   for d in part.values())
        screen = ", ".join(
            f"{fam} {e['before']['median']:.0f} -> "
            f"{e['after']['median']:.0f} us/chunk ({e['after_lower']})"
            for fam, e in s["screen"]["us_per_chunk"].items())
        wide = ", ".join(
            f"{name} {e['before']['median']:.3f} -> {e['after']['median']:.3f}"
            f" s, {s['wide']['peak_mib']['before'][name]:.1f} -> "
            f"{s['wide']['peak_mib']['after'][name]:.1f} MiB"
            for name, e in s["wide"]["s_per_call"].items())
        print(f"entries {s['entries']}: {screen}; {wide}; identical {same}",
              file=sys.stderr)


if __name__ == "__main__":
    main()
