"""surrokit benchmark: one workload per invocation, in one process.

    python3 perfbench/run.py --workload opamp-flow --seed 1 --seconds 38 \
        --trace 0

Workloads: opamp-flow, pll-fit, opamp-screen (see perfbench/README.md).
The run sets the workload up several times (the median is `setup_s`), then
repeats timed passes for about `--seconds` seconds and checks every pass's
outputs. Pass 0 and pass 1 run the same inputs, so their outputs must be
byte-identical; later passes draw fresh inputs from the seed. With
`--trace 1`, passes come in pairs on the same inputs, the first untraced
and the second traced, and the run reports per-layer metrics and the
tracing overhead instead of the end-to-end metrics. `--tiny` shrinks every
workload for the smoke test. Reported times are scaled to the speed of an
idle reference core (see `Calibration`); the measured medians are printed
beside them.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread: the load comes from this process alone, and a second
# thread on a 2-CPU machine mostly adds scheduling noise
BLAS_THREADS = 1
SETUP_REPS = {"full": 5, "tiny": 2}
# Other tenants of a shared machine slow a core by up to 1.7x for seconds
# at a time. A calibration loop runs before the set-ups and after every
# set-up and pass. The speed of a phase (set-up or passes) is the mean time
# of the calibrations around it over the loop's time on an idle core of the
# reference machine (a 2-vCPU Intel Xeon VM); each time the run reports is
# divided by the speed of its phase.
CALIBRATION_REF_S = 0.032
WORKLOAD_NAMES = ("opamp-flow", "pll-fit", "opamp-screen")

# end-to-end metrics in BENCHMARK.json: reported by every workload
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "train_s": "s"}
# printed where they apply; not every workload has them
STAGE_METRICS = {"front_s": "s", "abc_s": "s", "screen_rows_per_s": "rows/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": "tiny" if args.tiny else "full", "seconds": args.seconds,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "commit": git_commit(),
    }


class Calibration:
    """Times a fixed loop of single-row-sized numpy operations, the kind of
    work that dominates the workloads, between the timed sections."""

    def __init__(self, np):
        self.np = np
        self.x = np.linspace(0.1, 1.0, 16)
        self.w = np.linspace(-1.0, 1.0, 64).reshape(4, 16)
        self.samples: list[float] = []
        self.measure()  # the first call pays one-off costs; not a sample
        self.samples.clear()

    def measure(self) -> None:
        tanh, w, x = self.np.tanh, self.w, self.x
        start = time.perf_counter()
        for _ in range(12000):
            tanh(w @ x).sum()
        self.samples.append(time.perf_counter() - start)

    def speed(self, first: int, last: int | None = None) -> float:
        """Mean time of samples[first:last] over the reference: 1.0 on an
        idle core."""
        return (statistics.fmean(self.samples[first:last])
                / CALIBRATION_REF_S)


def to_reference(unit: str, value: float, speed: float) -> float:
    """A measured value expressed at the reference machine's speed."""
    if unit in ("s", "us"):
        return value / speed
    if unit == "rows/s":
        return value * speed
    return value


def summary(values) -> tuple[float, float, float, int]:
    """(median, first quartile, third quartile, count)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3, len(values)


def set_up(wl, work, reps, calibration) -> list[dict]:
    """Set the workload up `reps` times; each dict has wall, stages and the
    fingerprint of what the set-up built."""
    setups = []
    for r in range(reps):
        t0 = time.perf_counter()
        stages = wl.setup()
        setups.append({"wall": time.perf_counter() - t0, "stages": stages,
                       "fingerprint": wl.setup_fingerprint(
                           work / f"setup{r}")})
        calibration.measure()
    return setups


def run_passes(wl, args, work, tracer, calibration):
    """Timed passes for about args.seconds; each pass dict has wall, stages,
    ops, fingerprint, sub (input index) and traced."""
    passes = []
    start = time.perf_counter()
    step = 2 if args.trace else 1
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        sub = i // 2 if args.trace else max(0, i - 1)
        d = work / f"pass{i}"
        t0 = time.perf_counter()
        if traced:
            with tracer.traced_pass():
                state = wl.execute(sub, d)
        else:
            state = wl.execute(sub, d)
        wall = time.perf_counter() - t0
        ops, fp = wl.check(state)
        shutil.rmtree(d, ignore_errors=True)
        calibration.measure()
        passes.append({"wall": wall, "stages": state["stages"], "ops": ops,
                       "fingerprint": fp, "sub": sub, "traced": traced,
                       "cycle": time.perf_counter() - t0})
        elapsed = time.perf_counter() - start
        cycle = statistics.median(p["cycle"] for p in passes)
        if len(passes) >= 2 and len(passes) % step == 0 \
                and elapsed + step * cycle > args.seconds:
            return passes


def determinism_op(label, fingerprints_by_key) -> tuple:
    mismatched = [k for k, fps in fingerprints_by_key.items()
                  if len(set(fps)) != 1 or "" in fps]
    pairs = sum(1 for fps in fingerprints_by_key.values() if len(fps) > 1)
    return (label, not mismatched and pairs > 0,
            f"{pairs} repeated input sets, mismatched {mismatched}")


def end_to_end(wl, passes, setups, import_s, setup_speed,
               pass_speed) -> dict:
    """Samples of every end-to-end and stage metric; times are divided by
    the speed of the phase they were measured in."""
    plain = [p for p in passes if not p["traced"]]
    values = {"wall_s": [p["wall"] / pass_speed for p in plain],
              "setup_s": [(import_s + s["wall"]) / setup_speed
                          for s in setups],
              "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0]}
    for key in ("train_s", "front_s", "abc_s"):
        if key in plain[0]["stages"]:
            values[key] = [p["stages"][key] / pass_speed for p in plain]
    if "train_s" in setups[0]["stages"]:
        values["train_s"] = [s["stages"]["train_s"] / setup_speed
                             for s in setups]
    if wl.name == "opamp-screen":
        values["screen_rows_per_s"] = [wl.p["n_screen"] / p["wall"]
                                       * pass_speed for p in plain]
    return values


def per_layer(tracer, passes) -> dict:
    import tracing
    reduced = [tracer.reduce_pass(spans, counts)
               for spans, counts in tracer.passes]
    out = {k: statistics.median(r[k] for r in reduced)
           for k in tracing.PER_LAYER}
    by_sub = {}
    for p in passes:
        by_sub.setdefault(p["sub"], {})[p["traced"]] = p["wall"]
    overhead = [w[True] / w[False] - 1.0 for w in by_sub.values()
                if True in w and False in w]
    out["trace.untraced_wall_s"] = statistics.median(
        p["wall"] for p in passes if not p["traced"])
    out["trace.overhead_frac"] = statistics.median(overhead)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "surrokit" / "__init__.py").is_file():
        print(f"error: no surrokit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import tracing
    import workloads
    import_s = time.perf_counter() - START

    size = "tiny" if args.tiny else "full"
    env = environment(args, np, scipy)
    print(f"surrokit benchmark: {args.workload}, seed {args.seed}, "
          f"size {size}, trace {args.trace}")
    print("env " + json.dumps(env))

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    calibration = Calibration(np)
    calibration.measure()
    wl = workloads.WORKLOADS[args.workload](args.seed, size)
    try:
        setups = set_up(wl, work, SETUP_REPS[size], calibration)
        passes = run_passes(wl, args, work, tracer, calibration)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    fps = {}
    for p in passes:
        fps.setdefault(p["sub"], []).append(p["fingerprint"])
    ops.append(determinism_op("same inputs, byte-identical outputs", fps))
    if setups[0]["fingerprint"]:
        ops.append(determinism_op(
            "set-up models byte-identical",
            {"setup": [s["fingerprint"] for s in setups]}))
    failed = [op for op in ops if not op[1]]

    for i, p in enumerate(passes):
        stages = " ".join(f"{k} {v:.4f}" for k, v in p["stages"].items())
        print(f"pass {i}: inputs {p['sub']}, "
              f"{'traced' if p['traced'] else 'untraced'}, "
              f"{p['wall']:.4f} s {stages}")
    for name, ok, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(f"checks: {len(ops) - len(failed)} of {len(ops)} passed, "
          f"failed_ops_frac {len(failed) / len(ops):.4f}")

    setup_speed = calibration.speed(0, len(setups) + 1)
    pass_speed = calibration.speed(len(setups))
    print(f"speed: set-up {setup_speed:.4f}, passes {pass_speed:.4f} "
          f"(calibration {CALIBRATION_REF_S} s on an idle core); times below "
          f"are measured times / speed")
    units = {**END_TO_END, **STAGE_METRICS}
    values = end_to_end(wl, passes, setups, import_s, setup_speed,
                        pass_speed)
    measured = end_to_end(wl, passes, setups, import_s, 1.0, 1.0)
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit"
          f"{'measured':>16}")
    for key, vals in values.items():
        med, q1, q3, n = summary(vals)
        print(f"{key:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{n:>4}  "
              f"{units[key]:<8}{summary(measured[key])[0]:>12.6g}")
    if args.trace:
        layers = {k: to_reference(tracing.PER_LAYER[k][0], v, pass_speed)
                  for k, v in per_layer(tracer, passes).items()}
        for key, (unit, _) in tracing.PER_LAYER.items():
            print(f"{key:<44}{layers[key]:>16.6g}  {unit}")
        trace_path = base / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, env)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary(values[k])[0], "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
