"""The three benchmark workloads.

Each workload draws all of its inputs from the run seed and a pass index,
so the same seed gives the same inputs. `setup()` is the work done before
timing starts; `execute(sub, directory)` is one timed pass and returns what
`check(state)` later verifies (untimed). A pass reports its stage times and
a fingerprint of its outputs; two passes on the same inputs must have equal
fingerprints.

Every ANN in the benchmark trains with `early_stop_patience` equal to
`max_epochs`, so each network runs a fixed number of epochs whatever the
seed; otherwise the training time of a pass would follow the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from surrokit import cli, design_space, metamodel, metrics, mofa, oracles
from surrokit import training

OPAMP_RESPONSES = ["sr", "pd", "a0", "bw", "pm", "gm", "ip", "in"]
# acceptance-13 op-amp problem: two objectives, three constraints
OBJECTIVES = [{"response": "sr", "direction": "maximize"},
              {"response": "pd", "direction": "minimize"}]
CONSTRAINTS = [{"response": "a0", "bound": 43.0, "sense": "greater"},
               {"response": "bw", "bound": 50.0, "sense": "greater"},
               {"response": "pm", "bound": 70.0, "sense": "greater"}]
A0_WINDOW = {"response": "a0", "center": 50.0}
PLL_RESPONSES = ["freq", "power", "lock_time"]
# Lowest verify R^2 the selected pll-fit model must reach, per response.
# The worst values seen over 40 full-size input sets (seeds 0-19, inputs 0
# and 1) were freq 0.53, power 0.86, lock_time 0.79; the floors leave room
# for other seeds and still fail a trainer that stops fitting.
PLL_R2_FLOOR = {"full": {"freq": 0.35, "power": 0.70, "lock_time": 0.60},
                "tiny": {"freq": -1.0, "power": 0.0, "lock_time": 0.0}}

SIZES = {
    "opamp-flow": {
        "full": {"n_train": 120, "n_verify": 36, "hidden": [4],
                 "max_epochs": 1200, "K": 20, "t_max": 500, "cycles": 500,
                 "window_tol": 0.005},
        "tiny": {"n_train": 80, "n_verify": 20, "hidden": [3],
                 "max_epochs": 400, "K": 10, "t_max": 30, "cycles": 60,
                 "window_tol": 0.02},
    },
    "pll-fit": {
        "full": {"n_train": 120, "n_verify": 50, "hidden": [4, 8, 12],
                 "max_epochs": 1500, "rbf_neurons": 80, "poly_degree": 3},
        "tiny": {"n_train": 30, "n_verify": 12, "hidden": [2],
                 "max_epochs": 50, "rbf_neurons": 5, "poly_degree": 2},
    },
    "opamp-screen": {
        "full": {"n_train": 120, "hidden": 4, "max_epochs": 1200,
                 "rbf_neurons": 60, "poly_degree": 2, "n_screen": 16384,
                 "chunk": 4096, "n_front": 2048, "n_check": 256},
        "tiny": {"n_train": 80, "hidden": 3, "max_epochs": 400,
                 "rbf_neurons": 30, "poly_degree": 2, "n_screen": 2048,
                 "chunk": 128, "n_front": 256, "n_check": 64},
    },
}


SETUP_SUB = 2 ** 20  # sub-seed index of set-up inputs; passes count from 0


def sub_seeds(seed: int, sub: int, n: int) -> list[int]:
    """`n` seeds for the pass inputs numbered `sub` of run seed `seed`."""
    rng = np.random.default_rng([seed, sub])
    return [int(v) for v in rng.integers(0, 2 ** 31 - 1, size=n)]


def fingerprint(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one surrokit command in-process; return (code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def dominates(a, b, directions) -> bool:
    """Brute-force Pareto dominance of row `a` over row `b`."""
    better = False
    for x, y, d in zip(a, b, directions):
        if d == "minimize":
            x, y = -x, -y
        if x < y:
            return False
        if x > y:
            better = True
    return better


def brute_non_dominated(points, directions) -> list[int]:
    return [i for i, p in enumerate(points)
            if not any(dominates(q, p, directions) for q in points)]


class Workload:
    name = ""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.p = SIZES[self.name][size]

    def setup_fingerprint(self, d: Path) -> str:
        """Fingerprint of what `setup()` built; empty when it built no
        models."""
        return ""


class OpampFlow(Workload):
    """The acceptance-13 op-amp project through the CLI."""

    name = "opamp-flow"

    def setup(self) -> dict:
        self.space = oracles.opamp_space().to_dicts()
        return {}

    def _config(self, seeds) -> dict:
        p = self.p
        return {
            "space": self.space,
            "oracle": {"name": "opamp"},
            "sampling": {"n": p["n_train"], "seed": seeds[0]},
            "training": {
                "responses": OPAMP_RESPONSES, "kinds": ["ann"],
                "ann": {"hidden_sizes": p["hidden"],
                        "max_epochs": p["max_epochs"],
                        "learning_rate": 0.05, "l2_penalty": 1e-4,
                        "early_stop_patience": p["max_epochs"],
                        "seed": seeds[2]},
            },
            # max_regen 1, not the default 5: a firefly that never becomes
            # feasible retries every iteration, so the move count follows
            # the seed (coefficient of variation 17 % over 8 input sets at
            # 5, 7 % at 1)
            "mofa": {"objectives": OBJECTIVES, "constraints": CONSTRAINTS,
                     "K": p["K"], "t_max": p["t_max"], "max_regen": 1,
                     "seed": seeds[3]},
            "abc": {"objective": [{"response": "pd", "weight": 1.0}],
                    "window": [{**A0_WINDOW,
                                "relative_tolerance": p["window_tol"]}],
                    "colony_size": 20, "limit": 50,
                    "max_cycles": p["cycles"], "seed": seeds[4]},
            "vams": {"module_name": "opamp_block"},
        }

    def execute(self, sub: int, d: Path) -> dict:
        seeds = sub_seeds(self.seed, sub, 5)
        d.mkdir(parents=True)
        cfg = d / "project.json"
        cfg.write_text(json.dumps(self._config(seeds)))
        f = {k: str(d / v) for k, v in (
            ("train", "train.csv"), ("verify", "verify.csv"),
            ("models", "models"), ("front", "front.csv"),
            ("trace", "trace.csv"), ("vams", "vams"))}
        c = str(cfg)
        commands = [
            ("sample", ["sample", "--config", c, "--out", f["train"],
                        "--evaluate"]),
            ("sample-verify", ["sample", "--config", c, "--out", f["verify"],
                               "--n", str(self.p["n_verify"]),
                               "--seed", str(seeds[1]), "--evaluate",
                               "--disjoint-from", f["train"]]),
            ("train", ["train", "--config", c, "--train", f["train"],
                       "--verify", f["verify"], "--out-dir", f["models"]]),
            ("optimize-mofa", ["optimize-mofa", "--config", c, "--models",
                               f["models"], "--out", f["front"]]),
            ("optimize-abc", ["optimize-abc", "--config", c, "--models",
                              f["models"], "--out", f["trace"]]),
            ("emit-vams", ["emit-vams", "--config", c, "--models",
                           f["models"], "--out-dir", f["vams"]]),
        ]
        codes, stdout, times = {}, {}, {}
        for label, argv in commands:
            codes[label], stdout[label], times[label] = run_cli(argv)
        return {"dir": d, "files": f, "codes": codes, "stdout": stdout,
                "stages": {"train_s": times["train"],
                           "front_s": times["optimize-mofa"],
                           "abc_s": times["optimize-abc"]}}

    def check(self, state) -> tuple[list, str]:
        f, d = state["files"], state["dir"]
        ops = [(f"exit {label}", code == 0, f"code {code}")
               for label, code in state["codes"].items()]
        models_dir = Path(f["models"])
        model_files = [models_dir / f"{r}.json" for r in OPAMP_RESPONSES]
        vams = Path(f["vams"])
        expected = [Path(f[k]) for k in ("train", "verify", "front", "trace")]
        expected += model_files + [vams / "opamp_block.vams"]
        expected += [vams / f"{p}_{n}.txt" for p in ("gm", "ip", "in")
                     for n in ("w1", "w2", "b1", "b2")]
        missing = [p.name for p in expected if not p.exists()]
        ops.append(("files exist", not missing, f"missing {missing}"))
        if missing or not all(ok for _, ok, _ in ops):
            return ops, ""

        names = [v["name"] for v in self.space]
        front = np.loadtxt(f["front"], delimiter=",", skiprows=1, ndmin=2)
        designs = front[:, :len(names)]
        models = {r: metamodel.load_model(models_dir / f"{r}.json")
                  for r in ("sr", "pd", "a0", "bw", "pm")}
        bad = []
        for con in CONSTRAINTS:
            model = models[con["response"]]
            for row in designs:
                value = model.predict(row[None, :])[0]
                if value < con["bound"] - 1e-9 * abs(con["bound"]):
                    bad.append((con["response"], value))
        ops.append(("front feasible", not bad and len(designs) > 0,
                    f"{len(designs)} rows, violations {bad[:3]}"))
        objs = front[:, len(names):len(names) + len(OBJECTIVES)].tolist()
        dirs = [o["direction"] for o in OBJECTIVES]
        kept = brute_non_dominated(objs, dirs)
        ops.append(("front non-dominated", len(kept) == len(objs),
                    f"{len(objs) - len(kept)} dominated rows"))

        lines = dict(line.split(",", 1)
                     for line in state["stdout"]["optimize-abc"].splitlines())
        best = np.array([float(lines[n]) for n in names])
        a0 = models["a0"].predict(best)
        rel = abs(a0 - A0_WINDOW["center"]) / A0_WINDOW["center"]
        ops.append(("abc best in a0 window",
                    rel <= self.p["window_tol"] + 1e-12, f"a0 {a0:.6g}"))
        outputs = [f["front"], f["trace"]] + model_files
        return ops, fingerprint(outputs)


class PllFit(Workload):
    """Sample and train every model family on the 21-variable PLL oracle."""

    name = "pll-fit"

    def setup(self) -> dict:
        self.space = oracles.pll_space().to_dicts()
        return {}

    def _config(self, seeds) -> dict:
        p = self.p
        return {
            "space": self.space,
            "oracle": {"name": "pll"},
            "sampling": {"n": p["n_train"], "seed": seeds[0]},
            "training": {
                "responses": PLL_RESPONSES, "kinds": ["ann", "rbf", "poly"],
                "ann": {"hidden_sizes": p["hidden"],
                        "max_epochs": p["max_epochs"],
                        "learning_rate": 0.05, "l2_penalty": 1e-4,
                        "early_stop_patience": p["max_epochs"],
                        "seed": seeds[2]},
                # an error goal no fit reaches: grow to max_neurons
                "rbf": {"error_goal": 1e-12, "spread": 4.0,
                        "max_neurons": p["rbf_neurons"]},
                "poly": {"degree": p["poly_degree"], "stepwise": True,
                         "p_enter": 0.05},
                "selection": "verify_rmse",
            },
        }

    def execute(self, sub: int, d: Path) -> dict:
        seeds = sub_seeds(self.seed, sub, 3)
        d.mkdir(parents=True)
        cfg = d / "project.json"
        cfg.write_text(json.dumps(self._config(seeds)))
        c = str(cfg)
        train, verify = str(d / "train.csv"), str(d / "verify.csv")
        models, report = d / "models", str(d / "reports.json")
        commands = [
            ("sample", ["sample", "--config", c, "--out", train,
                        "--evaluate"]),
            ("sample-verify", ["sample", "--config", c, "--out", verify,
                               "--n", str(self.p["n_verify"]),
                               "--seed", str(seeds[1]), "--evaluate",
                               "--disjoint-from", train]),
            ("train", ["train", "--config", c, "--train", train, "--verify",
                       verify, "--out-dir", str(models),
                       "--report-json", report]),
        ]
        codes, times = {}, {}
        for label, argv in commands:
            codes[label], _, times[label] = run_cli(argv)
        return {"codes": codes, "verify": verify, "models": models,
                "report": report, "stages": {"train_s": times["train"]}}

    def check(self, state) -> tuple[list, str]:
        ops = [(f"exit {label}", code == 0, f"code {code}")
               for label, code in state["codes"].items()]
        model_files = [state["models"] / f"{r}.json" for r in PLL_RESPONSES]
        missing = [p.name for p in model_files if not p.exists()]
        ops.append(("files exist", not missing, f"missing {missing}"))
        if missing or not all(ok for _, ok, _ in ops):
            return ops, ""
        names = [v["name"] for v in self.space]
        verify = oracles.load_csv(state["verify"], names)
        for r in PLL_RESPONSES:
            model = metamodel.load_model(state["models"] / f"{r}.json")
            r2 = metrics.r_squared(verify.response(r),
                                   model.predict(verify.inputs))
            floor = PLL_R2_FLOOR[self.size][r]
            ops.append((f"{r} verify R2 >= {floor}", r2 >= floor,
                        f"R2 {r2:.4f}"))
        return ops, fingerprint(model_files + [state["report"]])


class OpampScreen(Workload):
    """Library use: batch-predict a large LHS screening set with each model
    family, keep the acceptance-13-feasible rows, Pareto-filter them.

    Only the first `n_front` feasible rows enter the Pareto filter. How many
    rows are feasible follows the seed's models (ANN: 2,500 to 4,500 of
    16,384 over seeds 108-117), and `non_dominated` costs time quadratic in
    it, so without the cap the pass time would follow the seed.
    """

    name = "opamp-screen"
    FAMILIES = ("ann", "rbf", "poly")
    RESPONSES = ("sr", "pd", "a0", "bw", "pm")

    def setup(self) -> dict:
        p = self.p
        self.space = oracles.opamp_space()
        seeds = sub_seeds(self.seed, SETUP_SUB, 2)
        data = oracles.evaluate(
            oracles.builtin_opamp_oracle(),
            design_space.lhs_sample(self.space, p["n_train"], seeds[0]),
            self.space.names)
        start = time.perf_counter()
        opts = training.TrainOptions(
            hidden_size=p["hidden"], max_epochs=p["max_epochs"],
            learning_rate=0.05, l2_penalty=1e-4,
            early_stop_patience=p["max_epochs"], seed=seeds[1])
        self.models = {}
        for r in self.RESPONSES:
            self.models["ann", r], _ = training.train_ann(data, r, opts)
            self.models["rbf", r], _ = training.train_rbf(
                data, r, error_goal=1e-12, spread=2.0,
                max_neurons=p["rbf_neurons"])
            self.models["poly", r], _ = training.fit_polynomial(
                data, r, degree=p["poly_degree"], stepwise=True)
        return {"train_s": time.perf_counter() - start}

    def setup_fingerprint(self, d: Path) -> str:
        d.mkdir(parents=True)
        paths = []
        for fam, r in sorted(self.models):
            paths.append(d / f"{fam}-{r}.json")
            metamodel.save_model(self.models[fam, r], paths[-1])
        return fingerprint(paths)

    def execute(self, sub: int, d: Path) -> dict:
        p = self.p
        x = design_space.lhs_sample(self.space, p["n_screen"],
                                    sub_seeds(self.seed, sub, 1)[0])
        dirs = [o["direction"] for o in OBJECTIVES]
        fronts = {}
        for fam in self.FAMILIES:
            pred = {r: np.concatenate([
                        self.models[fam, r].predict(x[i:i + p["chunk"]])
                        for i in range(0, len(x), p["chunk"])])
                    for r in self.RESPONSES}
            feasible = np.ones(len(x), dtype=bool)
            for con in CONSTRAINTS:
                feasible &= pred[con["response"]] >= con["bound"]
            rows = np.flatnonzero(feasible)[:p["n_front"]]
            objs = np.column_stack([pred[o["response"]][rows]
                                    for o in OBJECTIVES])
            nd = mofa.non_dominated(objs, dirs)
            fronts[fam] = (objs, nd)
        return {"fronts": fronts, "stages": {}}

    def check(self, state) -> tuple[list, str]:
        ops = []
        digest = hashlib.sha256()
        dirs = [o["direction"] for o in OBJECTIVES]
        for fam, (objs, nd) in state["fronts"].items():
            ops.append((f"{fam} front nonempty", len(nd) > 0,
                        f"{len(objs)} feasible rows"))
            sub = objs[:self.p["n_check"]]
            got = mofa.non_dominated(sub, dirs)
            want = brute_non_dominated(sub.tolist(), dirs)
            ops.append((f"{fam} non_dominated == brute force", got == want,
                        f"{len(got)} vs {len(want)} of {len(sub)}"))
            digest.update(np.asarray(nd, dtype=np.int64).tobytes())
            digest.update(objs.tobytes())
        return ops, digest.hexdigest()


WORKLOADS = {w.name: w for w in (OpampFlow, PllFit, OpampScreen)}
