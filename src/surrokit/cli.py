"""Command-line front end: sample -> evaluate/ingest -> train -> report ->
optimize -> emit.

One JSON config file declares the design space and per-stage settings;
flags override the config. Exit codes: 0 ok, 1 usage/config error, 2 data
error, 3 numerical failure. Stdout carries only data and tables;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bee_colony, mofa, oracles, vams_codegen
from .design_space import DesignSpace, lhs_disjoint, lhs_sample
from .errors import (DataFormatError, DegenerateColumnError,
                     InfeasibleRunError, RankDeficiencyError, SurrokitError,
                     TrainingDivergedError, UndefinedVarianceError)
from .metamodel import load_model, save_model
from .metrics import fit_report, render_report_table, select_best
from .training import (MIN_ANN_ROWS, TrainOptions, check_poly_settings,
                       check_rbf_settings, fit_polynomial, train_anns,
                       train_rbf)

__all__ = ["main", "entry"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we want 1
        raise UsageError(message)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    if "space" not in cfg:
        raise UsageError("config must declare a 'space' section")
    return cfg


def _space(cfg: dict) -> DesignSpace:
    try:
        return DesignSpace.from_dicts(cfg["space"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad space declaration: {exc}") from None


def _oracle(cfg: dict) -> oracles.Oracle:
    section = cfg.get("oracle", {})
    name = section.get("name")
    if name not in oracles.BUILTIN_ORACLES:
        raise UsageError(
            f"unknown oracle {name!r}; built-ins: "
            f"{sorted(oracles.BUILTIN_ORACLES)}"
        )
    oracle = oracles.BUILTIN_ORACLES[name]()
    delay = float(section.get("artificial_delay", 0.0))
    return oracle.with_delay(delay) if delay > 0 else oracle


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


# the type of each key the CLI reads from a 'training.<kind>' section
_FIELDS = {
    "ann": {"activation": str, "max_epochs": int, "learning_rate": float,
            "l2_penalty": float, "early_stop_patience": int,
            "holdout_fraction": float, "seed": int, "momentum": float,
            "input_scaling": str, "steepness": float},
    "rbf": {"error_goal": float, "spread": float, "max_neurons": int,
            "input_scaling": str},
    "poly": {"degree": int, "stepwise": _flag, "p_enter": float},
}
_DEFAULTS = {
    "ann": {},
    "rbf": {"error_goal": 1e-4, "spread": 1.0, "max_neurons": 25,
            "input_scaling": "meanstd"},
    "poly": {"degree": 2, "stepwise": True, "p_enter": 0.05},
}


def _section(tcfg: dict, kind: str, build):
    """`build` applied to the 'training.<kind>' values, cast to their types
    over their defaults; a value either step rejects is a usage error
    naming the section."""
    section = tcfg.get(kind, {})
    settings = dict(_DEFAULTS[kind])
    try:
        for key, cast in _FIELDS[kind].items():
            if key in section:
                try:
                    settings[key] = cast(section[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{key}: {exc}") from None
        return build(settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad 'training.{kind}' section: {exc}") from None


def _ann_settings(tcfg: dict) -> tuple[list[int], TrainOptions]:
    """The hidden sizes and trainer options of the 'training.ann' section."""
    def build(settings):
        sizes = [int(m) for m in tcfg.get("ann", {}).get("hidden_sizes", [4])]
        # the options check the smallest hidden size
        return sizes, TrainOptions(hidden_size=min(sizes, default=1),
                                   **settings)
    return _section(tcfg, "ann", build)


def _rbf_kwargs(settings: dict) -> dict:
    check_rbf_settings(**settings)
    return settings


def _poly_kwargs(settings: dict) -> dict:
    check_poly_settings(settings["degree"], settings["p_enter"])
    return settings


def _fit_settings(tcfg: dict) -> dict[str, dict]:
    """The `train_rbf` and `fit_polynomial` keyword arguments of the
    'training.rbf' and 'training.poly' sections, for the configured kinds;
    both sections are checked whatever the kinds."""
    settings = {"rbf": _section(tcfg, "rbf", _rbf_kwargs),
                "poly": _section(tcfg, "poly", _poly_kwargs)}
    kinds = tcfg.get("kinds", ["ann"])
    return {kind: kw for kind, kw in settings.items() if kind in kinds}


def _load_train_set(path, space: DesignSpace, with_anns: bool):
    train_set = oracles.load_csv(path, space.names)
    if with_anns and train_set.n_rows < MIN_ANN_ROWS:
        raise DataFormatError(
            f"{path} has {train_set.n_rows} rows; ANN training needs at "
            f"least {MIN_ANN_ROWS}")
    return train_set


def _check_responses(train_set, responses, path) -> None:
    for response in responses:
        if response not in train_set.responses:
            raise DataFormatError(
                f"response {response!r} not present in {path}"
            )


def _sweep_response(train_set, verify_set, response: str, fits: dict,
                    ann_rows: list):
    """Fit the non-ANN model kinds of `fits` {kind: keyword arguments}
    after the response's trained ANNs `ann_rows` [(label, model)]; return
    [(label, model, report)]."""
    rows = list(ann_rows)
    if "rbf" in fits:
        model, _ = train_rbf(train_set, response, **fits["rbf"])
        rows.append((f"rbf-{model.n_neurons}", model))
    if "poly" in fits:
        model, _ = fit_polynomial(train_set, response, **fits["poly"])
        rows.append((f"poly-{model.degree}", model))

    reported = []
    for label, model in rows:
        rep = fit_report(
            model, train_set.inputs, train_set.response(response),
            verify_set.inputs, verify_set.response(response),
            descriptor=label,
        )
        reported.append((label, model, rep))
    return reported


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    sampling = cfg.get("sampling", {})
    n = args.n if args.n is not None else int(sampling.get("n", 100))
    seed = args.seed if args.seed is not None else int(sampling.get("seed", 0))
    if n < 1:
        raise UsageError(f"sample count must be >= 1, got {n}")

    if args.disjoint_from:
        base = oracles.load_csv(args.disjoint_from, space.names)
        points = lhs_disjoint(space, n, base.inputs, seed)
    else:
        points = lhs_sample(space, n, seed)

    if args.evaluate:
        oracle = _oracle(cfg)
        sample_set = oracles.evaluate(oracle, points, space.names)
    else:
        from .training import SampleSet
        sample_set = SampleSet(points, {}, space.names, provenance="imported")
    oracles.save_csv(sample_set, args.out)
    print(f"wrote {n} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    tcfg = cfg.get("training", {})
    if args.seed is not None:
        tcfg.setdefault("ann", {})["seed"] = args.seed
    sizes, opts = _ann_settings(tcfg)
    fits = _fit_settings(tcfg)
    with_anns = "ann" in tcfg.get("kinds", ["ann"])
    train_set = _load_train_set(args.train, space, with_anns)
    verify_set = oracles.load_csv(args.verify, space.names)

    responses = tcfg.get("responses") or train_set.response_names
    if not responses:
        raise UsageError("no responses configured and none found in the data")
    _check_responses(train_set, responses, args.train)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    anns = train_anns(train_set, responses, sizes, opts) if with_anns else {}
    criterion = tcfg.get("selection", "verify_rmse")
    all_reports = {}
    for response in responses:
        ann_rows = [(f"ann-{m}", anns[response, m][0])
                    for m in sizes if (response, m) in anns]
        rows = _sweep_response(train_set, verify_set, response, fits,
                               ann_rows)
        print(f"# response: {response}")
        print(render_report_table([(label, rep) for label, _, rep in rows]))
        best = select_best([rep for _, _, rep in rows], criterion)
        label, model, _ = rows[best]
        path = out_dir / f"{response}.json"
        save_model(model, path)
        print(f"selected {label} for {response} -> {path}", file=sys.stderr)
        all_reports[response] = [
            {"model": label, **rep.to_dict()} for label, _, rep in rows
        ]
    if args.report_json:
        with open(args.report_json, "w") as fh:
            json.dump(all_reports, fh, indent=1)
            fh.write("\n")
    return 0


def cmd_report(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    data = oracles.load_csv(args.data, space.names)
    rows = []
    for model_path in args.model:
        model = load_model(model_path)
        response = model.response_name
        if response not in data.responses:
            raise DataFormatError(
                f"model {model_path} predicts {response!r}, absent from "
                f"{args.data}"
            )
        rep = fit_report(model, data.inputs, data.response(response),
                         descriptor=Path(model_path).stem)
        rows.append((f"{Path(model_path).stem}", rep))
    print(render_report_table(rows))
    return 0


def _load_models(models_dir, responses) -> dict:
    out = {}
    for r in responses:
        path = Path(models_dir) / f"{r}.json"
        if not path.exists():
            raise DataFormatError(f"missing model file {path}")
        out[r] = load_model(path)
    return out


def cmd_optimize_mofa(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    section = cfg.get("mofa")
    if not section:
        raise UsageError("config has no 'mofa' section")
    obj_cfg = section.get("objectives", [])
    con_cfg = section.get("constraints", [])
    if len(obj_cfg) < 2:
        raise UsageError("mofa needs at least two objectives")
    names = [o["response"] for o in obj_cfg] + [c["response"] for c in con_cfg]
    models = _load_models(args.models, names)

    try:
        objectives = [mofa.ObjectiveSpec(o["response"], o["direction"],
                                         models[o["response"]])
                      for o in obj_cfg]
        constraints = [mofa.ConstraintSpec(c["response"],
                                           models[c["response"]],
                                           float(c["bound"]), c["sense"])
                       for c in con_cfg]
        params = mofa.MofaParams(
            K=int(section.get("K", 20)),
            t_max=int(section.get("t_max", 500)),
            beta0=float(section.get("beta0", 1.0)),
            gamma=float(section.get("gamma", 1.0)),
            alpha=float(section.get("alpha", 0.25)),
            alpha_decay=float(section.get("alpha_decay", 0.97)),
            max_regen=int(section.get("max_regen", 5)),
            seed=(args.seed if args.seed is not None
                  else int(section.get("seed", 0))),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad 'mofa' section: {exc}") from None
    archive = mofa.mofa_optimize(space, objectives, constraints, params)
    archive.write_csv(args.out)
    print(f"wrote {len(archive)} non-dominated designs to {args.out}",
          file=sys.stderr)
    return 0


def cmd_optimize_abc(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    section = cfg.get("abc")
    if not section:
        raise UsageError("config has no 'abc' section")
    term_cfg = section.get("objective", [])
    window_cfg = section.get("window", [])
    if not term_cfg:
        raise UsageError("abc needs at least one objective term")
    names = [t["response"] for t in term_cfg] + [w["response"] for w in window_cfg]
    models = _load_models(args.models, names)

    try:
        problem = bee_colony.FomProblem(
            terms=tuple(bee_colony.FomTerm(models[t["response"]],
                                           float(t.get("weight", 1.0)))
                        for t in term_cfg),
            windows=tuple(bee_colony.WindowConstraint(
                models[w["response"]], float(w["center"]),
                float(w.get("relative_tolerance", 0.005)))
                for w in window_cfg),
            penalty_weight=float(section.get("penalty_weight", 1e3)),
        )
        params = bee_colony.AbcParams(
            colony_size=int(section.get("colony_size", 20)),
            limit=int(section.get("limit", 50)),
            max_cycles=int(section.get("max_cycles", 500)),
            seed=(args.seed if args.seed is not None
                  else int(section.get("seed", 0))),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad 'abc' section: {exc}") from None
    best_x, best_f, trace = bee_colony.abc_optimize(space, problem, params)
    bee_colony.write_trace_csv(trace, args.out)
    for name, value in zip(space.names, best_x):
        print(f"{name},{value:.17g}")
    print(f"fom,{best_f:.17g}")
    print(f"wrote {len(trace)}-cycle trace to {args.out}", file=sys.stderr)
    return 0


def cmd_emit_vams(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    section = cfg.get("vams", {})
    cpm_files = section.get("cpms", {k: k for k in vams_codegen.CPM_KEYS})
    cpms = {}
    for key in vams_codegen.CPM_KEYS:
        response = cpm_files.get(key, key)
        path = Path(args.models) / f"{response}.json"
        if not path.exists():
            raise DataFormatError(f"missing model file {path}")
        model = load_model(path)
        if not hasattr(model, "W1"):
            raise DataFormatError(
                f"{path} is not a network model; cannot emit weights"
            )
        cpms[key] = model

    defaults = section.get("parameter_defaults")
    if defaults is None:
        defaults = ((space.lower + space.upper) / 2.0).tolist()
    spec = vams_codegen.MacromodelSpec(
        module_name=section.get("module_name", "analog_block"),
        variable_names=tuple(space.names),
        parameter_defaults=tuple(defaults),
        cpms=cpms,
        ports=tuple(section.get("ports", ("inp", "inn", "out"))),
        hs_numerator=tuple(section.get("hs_numerator", (1.0,))),
        hs_denominator=tuple(section.get("hs_denominator",
                                         (1.0, 1.59155e-05))),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundles = {}
    for key, model in cpms.items():
        bundles[key] = vams_codegen.export_weights(model, out_dir,
                                                   prefix=f"{key}_")
    text = vams_codegen.emit_vams_module(spec, bundles)
    module_path = out_dir / f"{spec.module_name}.vams"
    module_path.write_text(text)
    print(f"wrote {module_path} and {4 * len(bundles)} weight files",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    tcfg = {**cfg.get("training", {}), "kinds": ["poly"]}
    sizes, opts = _ann_settings(tcfg)
    fits = _fit_settings(tcfg)
    train_set = _load_train_set(args.train, space, with_anns=True)
    verify_set = oracles.load_csv(args.verify, space.names)
    responses = ([args.response] if args.response
                 else tcfg.get("responses") or train_set.response_names)
    _check_responses(train_set, responses, args.train)

    anns = train_anns(train_set, responses, sizes, opts)
    for response in responses:
        # pick by holdout so the verification set stays unbiased
        nets = [anns[response, m] for m in sizes]
        model = nets[select_best([rep for _, rep in nets], "verify_rmse")][0]
        rows = _sweep_response(train_set, verify_set, response, fits,
                               [(f"ann-{model.hidden_size}", model)])
        print(f"# response: {response}")
        print(render_report_table([(label, rep) for label, _, rep in rows]))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="surrokit",
                     description="surrogate-assisted design optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw LHS samples, optionally evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--evaluate", action="store_true",
                   help="run the configured oracle over the samples")
    p.add_argument("--disjoint-from",
                   help="existing sample CSV the new set must not collide with")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train", help="fit metamodels, print fit reports")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--verify", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--report-json",
                   help="also write the full fit-report sweep as JSON")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("report", help="evaluate saved models against a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, action="append")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("optimize-mofa", help="multi-objective firefly run")
    p.add_argument("--config", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_optimize_mofa)

    p = sub.add_parser("optimize-abc", help="constrained bee-colony run")
    p.add_argument("--config", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_optimize_abc)

    p = sub.add_parser("emit-vams", help="export weights and the AMS module")
    p.add_argument("--config", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_emit_vams)

    p = sub.add_parser("compare", help="ANN vs polynomial on the same data")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--verify", required=True)
    p.add_argument("--response")
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, DegenerateColumnError, FileNotFoundError,
            KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, RankDeficiencyError, InfeasibleRunError,
            UndefinedVarianceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SurrokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
