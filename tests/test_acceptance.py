"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here; nothing is deferred to later calibration.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from surrokit.bee_colony import AbcParams, FomProblem, FomTerm, abc_optimize
from surrokit.cli import main as cli_main
from surrokit.design_space import (DesignSpace, DesignVariable, lhs_disjoint,
                                   lhs_sample)
from surrokit.metamodel import AnnModel, CallableModel
from surrokit.metrics import r_squared, rmae, rmse, rrse
from surrokit.mofa import (ConstraintSpec, MofaParams, ObjectiveSpec,
                           mofa_optimize, non_dominated)
from surrokit.oracles import (builtin_opamp_oracle, builtin_pll_oracle,
                              evaluate, opamp_space, pll_space,
                              response_model)
from surrokit.scaling import Scaler, apply as scale_apply, fit_scaler, invert
from surrokit.training import (SampleSet, TrainOptions, ann_loss_and_gradient,
                               fit_polynomial, train_ann, train_rbf)
from surrokit.vams_codegen import (MacromodelSpec, emit_vams_module,
                                   export_weights, import_weights)


def record(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def random_space(rng, dim):
    lowers = rng.uniform(-20, 20, dim)
    widths = rng.uniform(0.05, 30, dim)
    return DesignSpace(tuple(
        DesignVariable(f"v{i}", lowers[i], lowers[i] + widths[i])
        for i in range(dim)
    ))


def test_01_lhs_stratification():
    start = time.perf_counter()
    failures = 0
    for case in range(200):
        rng = np.random.default_rng(10_000 + case)
        dim = int(rng.integers(1, 26))
        n = int(rng.integers(1, 501))
        space = random_space(rng, dim)
        pts = lhs_sample(space, n, seed=int(rng.integers(1 << 31)))
        for j, var in enumerate(space.variables):
            strata = np.floor((pts[:, j] - var.lower)
                              / (var.upper - var.lower) * n).astype(int)
            strata = np.clip(strata, 0, n - 1)
            if not np.array_equal(np.sort(strata), np.arange(n)):
                failures += 1
                break
    elapsed = time.perf_counter() - start
    record(1, "lhs-stratification", failures == 0 and elapsed < 10.0,
           f"failures={failures}, {elapsed:.1f}s")


def test_02_scaler_round_trip():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(20_000 + trial)
        rows = int(rng.integers(2, 60))
        cols = int(rng.integers(1, 10))
        data = rng.normal(0, 10, (rows, cols)) + rng.normal(0, 100, cols)
        kind = ("meanstd", "minmax", "none")[trial % 3]
        scaler = fit_scaler(data, kind)
        other = rng.normal(0, 40, (rows, cols))
        worst = max(worst, float(np.max(np.abs(
            invert(scaler, scale_apply(scaler, other)) - other))))
    record(2, "scaler-round-trip", worst < 1e-12, f"max err {worst:.2e}")


def test_03_ann_gradient_check():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(30_000 + trial)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        x = rng.standard_normal((15, n))
        y = rng.standard_normal(15)
        theta = rng.uniform(-0.5, 0.5, m * (n + 2) + 1)
        activation = "tanh" if trial % 2 else "logsig"
        lam = float(rng.uniform(0.5, 2.0))
        _, grad = ann_loss_and_gradient(theta, x, y, 1e-3, activation, lam)
        h = 1e-6
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (ann_loss_and_gradient(up, x, y, 1e-3, activation, lam)[0]
                     - ann_loss_and_gradient(down, x, y, 1e-3, activation,
                                             lam)[0]) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-300)
        worst = max(worst, float(rel))
    record(3, "ann-gradient-check", worst < 1e-6, f"max rel err {worst:.2e}")


def test_04_sine_universal_approximation():
    start = time.perf_counter()
    space = DesignSpace((DesignVariable("x", 0.0, 1.0),))
    xt = lhs_sample(space, 500, seed=11)
    xv = lhs_disjoint(space, 150, xt, seed=12)
    train = SampleSet(xt, {"y": np.sin(np.pi * xt[:, 0])}, ["x"])
    opts = TrainOptions(hidden_size=4, activation="tanh", max_epochs=3000,
                        learning_rate=0.05, l2_penalty=1e-5,
                        early_stop_patience=200, seed=3)
    model, _ = train_ann(train, "y", opts)
    err = rmse(np.sin(np.pi * xv[:, 0]), model.predict(xv))
    elapsed = time.perf_counter() - start
    record(4, "sine-fit", err < 0.05 and elapsed < 60.0,
           f"verify rmse {err:.4f}, {elapsed:.1f}s")


def test_05_pll_scale_ann_vs_stepwise_poly():
    space = pll_space()
    oracle = builtin_pll_oracle()
    xt = lhs_sample(space, 100, seed=61)
    xv = lhs_disjoint(space, 30, xt, seed=62)
    train = evaluate(oracle, xt, space.names)
    verify = evaluate(oracle, xv, space.names)
    y_verify = verify.response("freq")

    # hidden-size/seed sweep selected on the internal holdout, never on
    # the verification set
    candidates = []
    for m in (2, 3, 4, 5, 6, 8, 10):
        for seed in (7, 17):
            model, report = train_ann(train, "freq", TrainOptions(
                hidden_size=m, max_epochs=8000, learning_rate=0.05,
                l2_penalty=3e-4, early_stop_patience=500,
                holdout_fraction=0.2, seed=seed))
            candidates.append((report.rmse, model))
    ann_model = min(candidates, key=lambda t: t[0])[1]
    ann_rmse = rmse(y_verify, ann_model.predict(xv))
    ann_r2 = r_squared(y_verify, ann_model.predict(xv))

    poly_model, _ = fit_polynomial(train, "freq", degree=4, stepwise=True,
                                   p_enter=0.05)
    poly_rmse = rmse(y_verify, poly_model.predict(xv))

    record(5, "pll-ann-vs-poly", ann_r2 > 0.0 and ann_rmse <= poly_rmse,
           f"ann r2 {ann_r2:.3f}, ann rmse {ann_rmse:.4f}, "
           f"poly rmse {poly_rmse:.4f} ({poly_model.n_parameters} coeffs)")


def test_06_rbf_interpolation():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(60_000 + trial)
        n = int(rng.integers(5, 45))
        x = rng.random((n, 3))
        y = (np.sin(3 * x[:, 0]) + x[:, 1] ** 2 - 0.5 * x[:, 2]
             + 0.1 * rng.standard_normal(n))
        data = SampleSet(x, {"y": y})
        model, _ = train_rbf(data, "y", error_goal=0.0, spread=0.7,
                             max_neurons=n)
        worst = max(worst, rmse(y, model.predict(x)))
    record(6, "rbf-interpolation", worst < 1e-6, f"worst rmse {worst:.2e}")


def test_07_metrics_identities():
    ok = True
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(70_000 + trial)
        y = rng.normal(size=int(rng.integers(3, 80)))
        yhat = y + rng.normal(scale=0.7, size=y.size)
        gap = abs(rrse(y, yhat) ** 2 - (1.0 - r_squared(y, yhat)))
        worst = max(worst, gap)
    ok &= worst < 1e-12
    y = np.array([1.0, 2.0, 6.0])
    ok &= rmse(y, y) == 0.0
    ok &= rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2.0))
    ok &= r_squared(y, y) == 1.0
    ok &= abs(r_squared(y, np.full(3, y.mean()))) < 1e-15
    ok &= rmae(y, y) == 0.0 and rrse(y, y) == 0.0
    ok &= rrse(y, np.full(3, y.mean())) == pytest.approx(1.0)
    record(7, "metrics-identities", bool(ok), f"max identity gap {worst:.2e}")


def brute_force_filter(points, directions):
    sign = np.array([1.0 if d == "minimize" else -1.0 for d in directions])
    f = points * sign
    out = []
    for i in range(len(f)):
        if not any(np.all(f[j] <= f[i]) and np.any(f[j] < f[i])
                   for j in range(len(f)) if j != i):
            out.append(i)
    return out


def test_08_non_domination_oracle_equivalence():
    mismatches = 0
    for trial in range(100):
        rng = np.random.default_rng(80_000 + trial)
        n = int(rng.integers(1, 201))
        k = int(rng.integers(2, 5))
        pts = np.round(rng.normal(size=(n, k)), 2)  # force ties sometimes
        directions = [("minimize", "maximize")[b]
                      for b in rng.integers(0, 2, k)]
        if non_dominated(pts, directions) != brute_force_filter(pts,
                                                                directions):
            mismatches += 1
    record(8, "non-domination-oracle", mismatches == 0,
           f"{mismatches} mismatches")


def test_09_mofa_front_quality():
    start = time.perf_counter()
    dim = 2
    space = DesignSpace(tuple(
        DesignVariable(f"x{i + 1}", 0.0, 1.0) for i in range(dim)))
    f1 = CallableModel(input_dim=dim, fn=lambda X: X[:, 0],
                       response_name="f1")
    f2 = CallableModel(
        input_dim=dim,
        fn=lambda X: (1.0 - X[:, 0]) ** 2 + np.sum(X[:, 1:] ** 2, axis=1),
        response_name="f2")
    objectives = [ObjectiveSpec("f1", "minimize", f1),
                  ObjectiveSpec("f2", "minimize", f2)]
    archive = mofa_optimize(space, objectives, [],
                            MofaParams(K=20, t_max=500, seed=42))

    t = np.linspace(0.0, 1.0, 4001)
    curve = np.column_stack([t, (1.0 - t) ** 2])
    d = np.sqrt(
        (archive.objectives[:, 0][:, None] - curve[None, :, 0]) ** 2
        + (archive.objectives[:, 1][:, None] - curve[None, :, 1]) ** 2)
    max_dist = float(d.min(axis=1).max())
    mutually_nd = brute_force_filter(
        archive.objectives, ["minimize", "minimize"]) == \
        list(range(len(archive)))

    # constraint demo: all archive entries feasible per the models
    oracle = builtin_opamp_oracle()
    ospace = opamp_space()
    obj = [ObjectiveSpec("sr", "maximize", response_model(oracle, "sr")),
           ObjectiveSpec("pd", "minimize", response_model(oracle, "pd"))]
    cons = [ConstraintSpec("a0", response_model(oracle, "a0"), 43.0, "greater"),
            ConstraintSpec("bw", response_model(oracle, "bw"), 50.0, "greater"),
            ConstraintSpec("pm", response_model(oracle, "pm"), 70.0, "greater")]
    demo = mofa_optimize(ospace, obj, cons,
                         MofaParams(K=15, t_max=60, seed=8))
    feasible = (np.all(demo.constraints[:, 0] > 43.0)
                and np.all(demo.constraints[:, 1] > 50.0)
                and np.all(demo.constraints[:, 2] > 70.0))
    demo_nd = brute_force_filter(demo.objectives,
                                 ["maximize", "minimize"]) == \
        list(range(len(demo)))

    elapsed = time.perf_counter() - start
    ok = (max_dist < 0.05 and mutually_nd and feasible and demo_nd
          and elapsed < 120.0)
    record(9, "mofa-front-quality", ok,
           f"max front dist {max_dist:.4f}, {len(archive)} pts, "
           f"demo feasible={feasible}, {elapsed:.1f}s")


def test_10_abc_convergence():
    space = DesignSpace(tuple(
        DesignVariable(f"x{i + 1}", -10.0, 10.0) for i in range(5)))
    model = CallableModel(input_dim=5, fn=lambda X: np.sum(X ** 2, axis=1))
    problem = FomProblem(terms=(FomTerm(model),))
    params = AbcParams(colony_size=20, limit=50, max_cycles=500, seed=3)
    best_x1, best_f1, trace1 = abc_optimize(space, problem, params)
    best_x2, best_f2, trace2 = abc_optimize(space, problem, params)
    ok = (best_f1 < 1e-3 and np.all(np.diff(trace1) <= 0)
          and np.array_equal(best_x1, best_x2) and trace1 == trace2)
    record(10, "abc-convergence", ok, f"best {best_f1:.2e}")


def test_11_codegen_round_trip(tmp_path):
    worst = 0.0
    rng = np.random.default_rng(90_000)
    for trial in range(100):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 10))
        model = AnnModel(
            input_dim=n, hidden_size=m, activation="tanh",
            W1=rng.normal(size=(m, n)), b1=rng.normal(size=m),
            W2=rng.normal(size=m), b2=float(rng.normal()),
            input_scaler=Scaler("meanstd", rng.normal(size=n),
                                rng.uniform(0.5, 2, n)),
            output_scaler=Scaler("meanstd", rng.normal(size=1),
                                 rng.uniform(0.5, 2, 1)),
            steepness=float(rng.uniform(0.5, 2.0)),
        )
        export_weights(model, tmp_path, prefix=f"m{trial}_")
        clone = import_weights(tmp_path, m, n, prefix=f"m{trial}_")
        pts = rng.normal(size=(1000, n))
        worst = max(worst, float(np.max(np.abs(
            model.predict(pts) - clone.predict(pts)))))

    # structural and determinism checks on the emitted module
    cpms = {}
    for key in ("gm", "ip", "in"):
        cpm = AnnModel(
            input_dim=3, hidden_size=2, activation="tanh",
            W1=rng.normal(size=(2, 3)), b1=rng.normal(size=2),
            W2=rng.normal(size=2), b2=0.0,
            input_scaler=Scaler.identity(3), output_scaler=Scaler.identity(1),
            role="CPM")
        cpms[key] = cpm
    spec = MacromodelSpec(module_name="block", variable_names=("a", "b", "c"),
                          parameter_defaults=(1.0, 2.0, 3.0), cpms=cpms)
    text1 = emit_vams_module(spec)
    text2 = emit_vams_module(spec)
    pos, ordered = -1, True
    for token in ("function real nn_metamodel", "$fopen", "initial",
                  "analog", "endmodule"):
        nxt = text1.find(token)
        ordered &= nxt > pos
        pos = nxt
    ok = worst < 1e-9 and text1 == text2 and ordered
    record(11, "codegen-round-trip", ok, f"max deviation {worst:.2e}")


def test_12_speedup_demonstration():
    space = opamp_space()
    oracle = builtin_opamp_oracle()
    delayed = dataclasses.replace(oracle, artificial_delay=0.010)

    # quick surrogate training; accuracy is irrelevant to the timing claim
    xt = lhs_sample(space, 60, seed=21)
    train = evaluate(oracle, xt, space.names)
    models = {}
    for name in ("sr", "pd"):
        models[name], _ = train_ann(train, name, TrainOptions(
            hidden_size=3, max_epochs=200, learning_rate=0.05, seed=1))

    params = MofaParams(K=20, t_max=50, seed=13)
    meta_obj = [ObjectiveSpec("sr", "maximize", models["sr"]),
                ObjectiveSpec("pd", "minimize", models["pd"])]
    start = time.perf_counter()
    mofa_optimize(space, meta_obj, [], params)
    meta_time = time.perf_counter() - start

    direct_obj = [ObjectiveSpec("sr", "maximize", response_model(delayed, "sr")),
                  ObjectiveSpec("pd", "minimize", response_model(delayed, "pd"))]
    start = time.perf_counter()
    mofa_optimize(space, direct_obj, [], params)
    direct_time = time.perf_counter() - start
    speedup = direct_time / meta_time

    pts = lhs_sample(space, 100_000, seed=22)
    start = time.perf_counter()
    models["sr"].predict(pts)
    throughput = pts.shape[0] / (time.perf_counter() - start)

    ok = speedup >= 100.0 and throughput >= 1e4
    record(12, "speedup", ok,
           f"{speedup:.0f}x ({direct_time:.1f}s vs {meta_time:.3f}s), "
           f"{throughput:.2e} predictions/s")


def test_13_end_to_end_pipeline(tmp_path):
    start = time.perf_counter()
    space = opamp_space()
    config = {
        "space": space.to_dicts(),
        "oracle": {"name": "opamp"},
        "sampling": {"n": 120, "seed": 31},
        "training": {
            "responses": ["sr", "pd", "a0", "bw", "pm", "gm", "ip", "in"],
            "kinds": ["ann"],
            "ann": {"hidden_sizes": [4], "max_epochs": 1200,
                    "learning_rate": 0.05, "l2_penalty": 1e-4,
                    "early_stop_patience": 150, "seed": 2},
        },
        "mofa": {
            "objectives": [{"response": "sr", "direction": "maximize"},
                           {"response": "pd", "direction": "minimize"}],
            "constraints": [
                {"response": "a0", "bound": 43.0, "sense": "greater"},
                {"response": "bw", "bound": 50.0, "sense": "greater"},
                {"response": "pm", "bound": 70.0, "sense": "greater"}],
            "K": 20, "t_max": 150, "seed": 7,
        },
        "vams": {"module_name": "opamp_block"},
    }
    cfg = tmp_path / "project.json"
    cfg.write_text(json.dumps(config))
    train_csv = tmp_path / "train.csv"
    verify_csv = tmp_path / "verify.csv"
    models_dir = tmp_path / "models"
    front_csv = tmp_path / "front.csv"
    vams_dir = tmp_path / "vams"

    codes = [
        cli_main(["sample", "--config", str(cfg), "--out", str(train_csv),
                  "--evaluate"]),
        cli_main(["sample", "--config", str(cfg), "--out", str(verify_csv),
                  "--n", "36", "--seed", "32", "--evaluate",
                  "--disjoint-from", str(train_csv)]),
        cli_main(["train", "--config", str(cfg), "--train", str(train_csv),
                  "--verify", str(verify_csv), "--out-dir", str(models_dir)]),
        cli_main(["optimize-mofa", "--config", str(cfg),
                  "--models", str(models_dir), "--out", str(front_csv)]),
        cli_main(["emit-vams", "--config", str(cfg),
                  "--models", str(models_dir), "--out-dir", str(vams_dir)]),
    ]

    expected = [train_csv, verify_csv, front_csv,
                vams_dir / "opamp_block.vams"]
    expected += [models_dir / f"{r}.json"
                 for r in config["training"]["responses"]]
    expected += [vams_dir / f"{p}_{n}.txt" for p in ("gm", "ip", "in")
                 for n in ("w1", "w2", "b1", "b2")]
    missing = [str(p) for p in expected if not p.exists()]
    elapsed = time.perf_counter() - start
    ok = all(c == 0 for c in codes) and not missing and elapsed < 300.0
    record(13, "end-to-end-pipeline", ok,
           f"exit codes {codes}, missing={missing}, {elapsed:.1f}s")
