"""Command-line front end: sample -> evaluate/ingest -> train -> report ->
optimize -> emit.

One JSON config file declares the design space and per-stage settings;
flags override the config. Exit codes: 0 ok, 1 usage/config error, 2 data
error, 3 numerical failure. Stdout carries only data and tables;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bee_colony, mofa, oracles, vams_codegen
from .design_space import DesignSpace, lhs_disjoint, lhs_sample
from .errors import (DataFormatError, DegenerateColumnError,
                     InfeasibleRunError, RankDeficiencyError, SurrokitError,
                     TrainingDivergedError, UndefinedVarianceError)
from .files import atomic_write
from .metamodel import load_model, save_model
from .metrics import CRITERIA, fit_report, render_report_table, select_best
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


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _objects(value) -> list[dict]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of JSON objects, got {value!r}")
    return [_object(v) for v in value]


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


@contextmanager
def _checked(path: str):
    """Report a TypeError or ValueError of the block as a usage error naming
    the config section at the dotted `path`."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad '{path}' section: {exc}") from None


def _section(cfg: dict, path: str, fields: dict, **overrides) -> dict:
    """The settings of the config section at the dotted `path`, one per key
    of `fields` {key: (cast, default)}: the configured value cast, else the
    default. An override that is not None replaces the configured value. A
    section that is not a JSON object and a value its cast rejects are usage
    errors naming the section."""
    section, settings = cfg, {}
    with _checked(path):
        for key in path.split("."):
            section = _object(section.get(key, {}))
        section = {**section, **{key: value for key, value in overrides.items()
                                 if value is not None}}
        for key, (cast, default) in fields.items():
            try:
                settings[key] = cast(section[key]) if key in section else default
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from None
    return settings


# the cast of each field type of the parameter dataclasses the CLI fills
_CASTS = {"int": int, "float": float, "str": str,
          "tuple[str, ...]": tuple, "tuple[float, ...]": tuple}


def _fields(cls, *skip) -> dict:
    """{field: (cast, default)} of the dataclass `cls`, but for `skip`."""
    return {f.name: (_CASTS[f.type], f.default)
            for f in dataclasses.fields(cls) if f.name not in skip}


def _entries(path: str, *required) -> tuple:
    """The (cast, default) of the list of JSON objects at the dotted `path`,
    each of which must hold the `required` keys."""
    def cast(value):
        entries = _objects(value)
        for i, entry in enumerate(entries):
            for key in required:
                if key not in entry:
                    raise UsageError(f"{path}[{i}]: missing {key!r}")
        return entries
    return cast, []


_TRAINING = {"responses": (list, None), "kinds": (list, ["ann"]),
             "selection": (str, "verify_rmse")}
_ANN = {**_fields(TrainOptions, "hidden_size"),
        "hidden_sizes": (lambda sizes: [int(m) for m in sizes], [4])}
# the CLI's own defaults: `fit_polynomial` alone does not select stepwise
_RBF = {"error_goal": (float, 1e-4), "spread": (float, 1.0),
        "max_neurons": (int, 25), "input_scaling": (str, "meanstd")}
_POLY = {"degree": (int, 2), "stepwise": (_flag, True),
         "p_enter": (float, 0.05)}
_MOFA = {**_fields(mofa.MofaParams),
         "objectives": _entries("mofa.objectives", "response", "direction"),
         "constraints": _entries("mofa.constraints", "response", "bound",
                                 "sense")}
_ABC = {**_fields(bee_colony.AbcParams),
        **_fields(bee_colony.FomProblem, "terms", "windows"),
        "objective": _entries("abc.objective", "response"),
        "window": _entries("abc.window", "response", "center")}
_VAMS = {**_fields(vams_codegen.MacromodelSpec, "module_name",
                  "variable_names", "parameter_defaults", "cpms"),
         "module_name": (str, "analog_block"), "cpms": (_object, {}),
         "parameter_defaults": (tuple, None)}


def _oracle(cfg: dict) -> oracles.Oracle:
    settings = _section(cfg, "oracle", {"name": (str, None),
                                        "artificial_delay": (float, 0.0)})
    name, delay = settings["name"], settings["artificial_delay"]
    if name not in oracles.BUILTIN_ORACLES:
        raise UsageError(
            f"unknown oracle {name!r}; built-ins: "
            f"{sorted(oracles.BUILTIN_ORACLES)}"
        )
    oracle = oracles.BUILTIN_ORACLES[name]()
    return oracle.with_delay(delay) if delay > 0 else oracle


def _training(cfg: dict, seed=None, kinds=None):
    """The 'training' section settings, the hidden sizes and trainer options
    of 'training.ann', and the `train_rbf` and `fit_polynomial` keyword
    arguments of 'training.rbf' and 'training.poly' for the configured
    kinds; every one of these sections is checked whatever the kinds."""
    tcfg = _section(cfg, "training", _TRAINING, kinds=kinds)
    if tcfg["selection"] not in CRITERIA:
        raise UsageError(f"training.selection must be one of "
                         f"{', '.join(CRITERIA)}; got {tcfg['selection']!r}")
    ann = _section(cfg, "training.ann", _ANN, seed=seed)
    sizes = ann.pop("hidden_sizes")
    with _checked("training.ann"):
        # the options check the smallest hidden size
        opts = TrainOptions(hidden_size=min(sizes, default=1), **ann)
    rbf = _section(cfg, "training.rbf", _RBF)
    with _checked("training.rbf"):
        check_rbf_settings(**rbf)
    poly = _section(cfg, "training.poly", _POLY)
    with _checked("training.poly"):
        check_poly_settings(poly["degree"], poly["p_enter"])
    fits = {kind: kw for kind, kw in (("rbf", rbf), ("poly", poly))
            if kind in tcfg["kinds"]}
    return tcfg, sizes, opts, fits


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
    sampling = _section(cfg, "sampling", {"n": (int, 100), "seed": (int, 0)},
                        n=args.n, seed=args.seed)
    n, seed = sampling["n"], sampling["seed"]
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
    tcfg, sizes, opts, fits = _training(cfg, seed=args.seed)
    with_anns = "ann" in tcfg["kinds"]
    train_set = _load_train_set(args.train, space, with_anns)
    verify_set = oracles.load_csv(args.verify, space.names)

    responses = tcfg["responses"] or train_set.response_names
    if not responses:
        raise UsageError("no responses configured and none found in the data")
    _check_responses(train_set, responses, args.train)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    anns = train_anns(train_set, responses, sizes, opts) if with_anns else {}
    criterion = tcfg["selection"]
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
        with atomic_write(args.report_json) as fh:
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
    settings = _section(cfg, "mofa", _MOFA, seed=args.seed)
    obj_cfg, con_cfg = settings.pop("objectives"), settings.pop("constraints")
    if len(obj_cfg) < 2:
        raise UsageError("mofa needs at least two objectives")
    names = [o["response"] for o in obj_cfg] + [c["response"] for c in con_cfg]
    models = _load_models(args.models, names)

    with _checked("mofa"):
        objectives = [mofa.ObjectiveSpec(o["response"], o["direction"],
                                         models[o["response"]])
                      for o in obj_cfg]
        constraints = [mofa.ConstraintSpec(c["response"],
                                           models[c["response"]],
                                           float(c["bound"]), c["sense"])
                       for c in con_cfg]
        params = mofa.MofaParams(**settings)
    archive = mofa.mofa_optimize(space, objectives, constraints, params)
    archive.write_csv(args.out)
    print(f"wrote {len(archive)} non-dominated designs to {args.out}",
          file=sys.stderr)
    return 0


def cmd_optimize_abc(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    settings = _section(cfg, "abc", _ABC, seed=args.seed)
    term_cfg, window_cfg = settings.pop("objective"), settings.pop("window")
    penalty_weight = settings.pop("penalty_weight")
    if not term_cfg:
        raise UsageError("abc needs at least one objective term")
    names = [t["response"] for t in term_cfg] + [w["response"] for w in window_cfg]
    models = _load_models(args.models, names)

    with _checked("abc"):
        problem = bee_colony.FomProblem(
            terms=tuple(bee_colony.FomTerm(models[t["response"]],
                                           float(t.get("weight", 1.0)))
                        for t in term_cfg),
            windows=tuple(bee_colony.WindowConstraint(
                models[w["response"]], float(w["center"]),
                float(w.get("relative_tolerance", 0.005)))
                for w in window_cfg),
            penalty_weight=penalty_weight,
        )
        params = bee_colony.AbcParams(**settings)
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
    settings = _section(cfg, "vams", _VAMS)
    cpm_files = settings.pop("cpms")
    cpms = {}
    for key in vams_codegen.CPM_KEYS:
        path = Path(args.models) / f"{cpm_files.get(key, key)}.json"
        if not path.exists():
            raise DataFormatError(f"missing model file {path}")
        model = load_model(path)
        if not hasattr(model, "W1"):
            raise DataFormatError(
                f"{path} is not a network model; cannot emit weights"
            )
        if model.input_dim != space.dim:
            raise DataFormatError(f"{path} takes {model.input_dim} inputs, "
                                  f"space has {space.dim}")
        cpms[key] = model

    if settings["parameter_defaults"] is None:
        settings["parameter_defaults"] = (space.lower + space.upper) / 2.0
    with _checked("vams"):
        spec = vams_codegen.MacromodelSpec(
            variable_names=tuple(space.names), cpms=cpms, **settings)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundles = {}
    for key, model in cpms.items():
        bundles[key] = vams_codegen.export_weights(model, out_dir,
                                                   prefix=f"{key}_")
    text = vams_codegen.emit_vams_module(spec, bundles)
    module_path = out_dir / f"{spec.module_name}.vams"
    with atomic_write(module_path) as fh:
        fh.write(text)
    print(f"wrote {module_path} and {4 * len(bundles)} weight files",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    space = _space(cfg)
    tcfg, sizes, opts, fits = _training(cfg, kinds=["poly"])
    train_set = _load_train_set(args.train, space, with_anns=True)
    verify_set = oracles.load_csv(args.verify, space.names)
    responses = ([args.response] if args.response
                 else tcfg["responses"] or train_set.response_names)
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
