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
from .metamodel import _KINDS, AnnModel, load_model, save_model
from .metrics import CRITERIA, fit_report, render_report_table, select_best
from .training import (MIN_ANN_ROWS, SampleSet, TrainOptions,
                       check_poly_settings, check_rbf_settings,
                       fit_polynomial, train_anns, train_rbf)

__all__ = ["main", "entry"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we want 1
        raise UsageError(message)


def _load_config(path, args) -> tuple[dict, DesignSpace]:
    """The settings of each section of the JSON config file `path` by dotted
    path, the `_FLAGGED` section taking the `--n`/`--seed` flags of `args`,
    and the design space; a top-level key naming no section is rejected."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict) or "space" not in cfg:
        raise UsageError("config must be a JSON object with a 'space' section")
    try:
        space = DesignSpace.from_dicts(_SPACE_ENTRIES(cfg["space"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad space declaration: {exc}") from None
    for key in cfg:
        if "." in key or key not in {"space", *_SECTIONS}:
            raise UsageError(f"config: unknown key {key!r}")
    flags = {key: getattr(args, key, None) for key in ("n", "seed")}
    return {section: _section(cfg, section, fields, **(
        flags if _FLAGGED.get(args.command) == section else {}))
        for section, fields in _SECTIONS.items()}, space


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    if not _float(value).is_integer() or float(value) < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return int(value)


@contextmanager
def _checked(path: str):
    """Report a TypeError, ValueError or OverflowError of the block as a
    usage error naming the config section at the dotted `path`."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad '{path}' section: {exc}") from None


def _section(cfg: dict, path: str, fields: dict, **overrides) -> dict:
    """The settings of the config section at the dotted `path`, one per key
    of `fields` {key: (cast, default)}: the configured value cast, else the
    default. An override that is not None replaces the configured value. A
    section that is not a JSON object, a key that is neither a field nor a
    subsection name, and a value its cast rejects are usage errors naming
    the section."""
    section, settings = cfg, {}
    with _checked(path):
        for key in path.split("."):
            section = _object(section.get(key, {}))
        for key in section:
            if key not in fields and f"{path}.{key}" not in _SECTIONS:
                raise ValueError(f"unknown key {key!r}")
        section = {**section, **{key: value for key, value in overrides.items()
                                 if value is not None}}
        for key, (cast, default) in fields.items():
            try:
                settings[key] = cast(section[key]) if key in section else default
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{key}: {exc}") from None
    return settings


# the cast of each field type of the parameter dataclasses the CLI fills
_CASTS = {"int": _int, "float": _float, "str": str,
          "tuple[str, ...]": tuple, "tuple[float, ...]": tuple}


def _fields(cls, *skip) -> dict:
    """{field: (cast, default)} of the dataclass `cls`, but for `skip`."""
    return {f.name: (_CASTS[f.type], f.default)
            for f in dataclasses.fields(cls) if f.name not in skip}


def _entries(path: str, required, optional=()) -> tuple:
    """The (cast, default) of the list of JSON objects at the dotted `path`,
    each of which holds the `required` keys, may hold the `optional` ones
    {key: default}, which fill in what it lacks, and holds no other key."""
    def cast(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list of JSON objects, got {value!r}")
        entries = [dict(optional, **_object(entry)) for entry in value]
        for i, entry in enumerate(entries):
            for key in required:
                if key not in entry:
                    raise UsageError(f"{path}[{i}]: missing {key!r}")
            for key in entry:
                if key not in required and key not in optional:
                    raise UsageError(f"{path}[{i}]: unknown key {key!r}")
        return entries
    return cast, []


def _names(value, allowed=None) -> list[str]:
    """`value`: a JSON list of strings, non-empty and from `allowed` if given."""
    if not (isinstance(value, list) and all(isinstance(v, str)
                                            for v in value)):
        raise TypeError(f"expected a list of strings, got {value!r}")
    if allowed is not None and not (value and set(value) <= set(allowed)):
        raise ValueError(f"expected a non-empty list drawn from "
                         f"{list(allowed)}, got {value!r}")
    return value


def _cpms(value) -> dict:
    """`value`: a JSON object naming, for some of `vams_codegen.CPM_KEYS`,
    the model file (without `.json`) to load for that circuit parameter."""
    for key, name in _object(value).items():
        if key not in vams_codegen.CPM_KEYS:
            raise ValueError(f"unknown key {key!r}; expected one of "
                             f"{list(vams_codegen.CPM_KEYS)}")
        if not isinstance(name, str):
            raise TypeError(f"{key}: expected a model name string, "
                            f"got {name!r}")
    return value


def _sizes(value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise TypeError(f"expected a non-empty list, got {value!r}")
    return [_int(m) for m in value]


# every config section: dotted path -> {key: (cast, default)}
_SECTIONS = {
    "sampling": {"n": (_int, 100), "seed": (_int, 0)},
    "oracle": {"name": (str, None), "artificial_delay": (_float, 0.0)},
    "training": {"responses": (_names, None),
                 "kinds": (lambda kinds: _names(kinds, _KINDS), ["ann"]),
                 "selection": (str, "verify_rmse")},
    "training.ann": {**_fields(TrainOptions, "hidden_size"),
                     "hidden_sizes": (_sizes, [4])},
    # the CLI's own defaults: `fit_polynomial` alone does not select stepwise
    "training.rbf": {"error_goal": (_float, 1e-4), "spread": (_float, 1.0),
                     "max_neurons": (_int, 25),
                     "input_scaling": (str, "meanstd")},
    "training.poly": {"degree": (_int, 2), "stepwise": (_flag, True),
                      "p_enter": (_float, 0.05)},
    "mofa": {**_fields(mofa.MofaParams),
             "objectives": _entries("mofa.objectives",
                                    ("response", "direction")),
             "constraints": _entries("mofa.constraints",
                                     ("response", "bound", "sense"))},
    "abc": {**_fields(bee_colony.AbcParams),
            **_fields(bee_colony.FomProblem, "terms", "windows"),
            "objective": _entries("abc.objective", ("response",),
                                  {"weight": 1.0}),
            "window": _entries("abc.window", ("response", "center"),
                               {"relative_tolerance": 0.005})},
    "vams": {**_fields(vams_codegen.MacromodelSpec, "module_name",
                       "variable_names", "parameter_defaults", "cpms"),
             "module_name": (str, "analog_block"), "cpms": (_cpms, {}),
             "parameter_defaults": (tuple, None)},
}
_SPACE_ENTRIES, _ = _entries("space", ("name", "lower", "upper"))
# the section whose settings each command's --n and --seed flags override
_FLAGGED = {"sample": "sampling", "train": "training.ann",
            "optimize-mofa": "mofa", "optimize-abc": "abc"}


def _oracle(settings: dict) -> oracles.Oracle:
    name = settings["name"]
    if name not in oracles.BUILTIN_ORACLES:
        raise UsageError(
            f"unknown oracle {name!r}; built-ins: "
            f"{sorted(oracles.BUILTIN_ORACLES)}"
        )
    return oracles.BUILTIN_ORACLES[name]().with_delay(
        settings["artificial_delay"])


def _training(cfg: dict):
    """The 'training' section settings, the hidden sizes and trainer options
    of 'training.ann', and the `train_rbf` and `fit_polynomial` keyword
    arguments of 'training.rbf' and 'training.poly' by kind; every one of
    these sections is checked whatever the kinds."""
    tcfg, ann = cfg["training"], cfg["training.ann"]
    if tcfg["selection"] not in CRITERIA:
        raise UsageError(f"training.selection must be one of "
                         f"{', '.join(CRITERIA)}; got {tcfg['selection']!r}")
    sizes = ann.pop("hidden_sizes")
    with _checked("training.ann"):
        # the options check the smallest hidden size
        opts = TrainOptions(hidden_size=min(sizes), **ann)
    fits = {"rbf": cfg["training.rbf"], "poly": cfg["training.poly"]}
    with _checked("training.rbf"):
        check_rbf_settings(**fits["rbf"])
    with _checked("training.poly"):
        check_poly_settings(fits["poly"]["degree"], fits["poly"]["p_enter"])
    return tcfg, sizes, opts, fits


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


def _fit_sweep(args, space: DesignSpace, cfg: dict, compare=False):
    """Fit the model kinds of the config settings `cfg` to each response,
    print the response's fit-report table and yield (response, [(label,
    model, report)]). `compare` fits the ANN of least holdout error and a
    polynomial whatever the kinds."""
    tcfg, sizes, opts, fits = _training(cfg)
    kinds = ["ann", "poly"] if compare else tcfg["kinds"]
    train_set = oracles.load_csv(args.train, space.names)
    if "ann" in kinds and train_set.n_rows < MIN_ANN_ROWS:
        raise DataFormatError(
            f"{args.train} has {train_set.n_rows} rows; ANN training needs at "
            f"least {MIN_ANN_ROWS}")
    verify_set = oracles.load_csv(args.verify, space.names)
    responses = ([args.response] if getattr(args, "response", None)
                 else tcfg["responses"] or train_set.response_names)
    if not responses:
        raise UsageError("no responses configured and none found in the data")
    for response in responses:
        if response not in train_set.responses:
            raise DataFormatError(
                f"response {response!r} not present in {args.train}")

    fits = {kind: kw for kind, kw in fits.items() if kind in kinds}
    anns = (train_anns(train_set, responses, sizes, opts)
            if "ann" in kinds else {})
    for response in responses:
        ann_rows = [(f"ann-{m}", anns[response, m][0])
                    for m in sizes if (response, m) in anns]
        if compare:  # pick by holdout so the verification set stays unbiased
            best = select_best([anns[response, m][1] for m in sizes],
                               "verify_rmse")
            ann_rows = [ann_rows[best]]
        rows = _sweep_response(train_set, verify_set, response, fits,
                               ann_rows)
        print(f"# response: {response}")
        print(render_report_table([(label, rep) for label, _, rep in rows]))
        yield response, rows


def cmd_sample(args, cfg: dict, space: DesignSpace) -> int:
    n, seed = cfg["sampling"]["n"], cfg["sampling"]["seed"]
    if n < 1:
        raise UsageError(f"sample count must be >= 1, got {n}")

    if args.disjoint_from:
        base = oracles.load_csv(args.disjoint_from, space.names)
        points = lhs_disjoint(space, n, base.inputs, seed)
    else:
        points = lhs_sample(space, n, seed)

    if args.evaluate:
        # an oracle that cannot take the space reports it once, as the
        # usage error, not also as numpy warnings
        with _checked("oracle"), np.errstate(invalid="ignore",
                                             divide="ignore", over="ignore"):
            sample_set = oracles.evaluate(_oracle(cfg["oracle"]), points,
                                          space.names)
    else:
        sample_set = SampleSet(points, {}, space.names)
    oracles.save_csv(sample_set, args.out)
    print(f"wrote {n} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args, cfg: dict, space: DesignSpace) -> int:
    criterion = cfg["training"]["selection"]
    out_dir = Path(args.out_dir)
    all_reports = {}
    for response, rows in _fit_sweep(args, space, cfg):
        best = select_best([rep for _, _, rep in rows], criterion)
        label, model, _ = rows[best]
        out_dir.mkdir(parents=True, exist_ok=True)
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


def _load_models(paths, space: DesignSpace) -> list:
    """The models of the files `paths`; a missing or invalid file, or a model
    not taking the space's input count, is a data error naming the file."""
    models = []
    for path in paths:
        if not Path(path).is_file():
            raise DataFormatError(f"missing model file {path}")
        model = load_model(path)
        if model.input_dim != space.dim:
            raise DataFormatError(f"{path} takes {model.input_dim} inputs, "
                                  f"space has {space.dim}")
        models.append(model)
    return models


def cmd_report(args, cfg: dict, space: DesignSpace) -> int:
    data = oracles.load_csv(args.data, space.names)
    rows = []
    for model_path, model in zip(args.model, _load_models(args.model, space)):
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


def cmd_optimize_mofa(args, cfg: dict, space: DesignSpace) -> int:
    settings = cfg["mofa"]
    obj_cfg, con_cfg = settings.pop("objectives"), settings.pop("constraints")
    if len(obj_cfg) < 2:
        raise UsageError("mofa needs at least two objectives")
    names = [o["response"] for o in obj_cfg] + [c["response"] for c in con_cfg]
    paths = [Path(args.models) / f"{name}.json" for name in names]
    models = dict(zip(names, _load_models(paths, space)))

    with _checked("mofa"):
        objectives = [mofa.ObjectiveSpec(o["response"], o["direction"],
                                         models[o["response"]])
                      for o in obj_cfg]
        constraints = [mofa.ConstraintSpec(c["response"],
                                           models[c["response"]],
                                           _float(c["bound"]), c["sense"])
                       for c in con_cfg]
        params = mofa.MofaParams(**settings)
    archive = mofa.mofa_optimize(space, objectives, constraints, params)
    archive.write_csv(args.out)
    print(f"wrote {len(archive)} non-dominated designs to {args.out}",
          file=sys.stderr)
    return 0


def cmd_optimize_abc(args, cfg: dict, space: DesignSpace) -> int:
    settings = cfg["abc"]
    term_cfg, window_cfg = settings.pop("objective"), settings.pop("window")
    penalty_weight = settings.pop("penalty_weight")
    if not term_cfg:
        raise UsageError("abc needs at least one objective term")
    names = [t["response"] for t in term_cfg] + [w["response"] for w in window_cfg]
    paths = [Path(args.models) / f"{name}.json" for name in names]
    models = dict(zip(names, _load_models(paths, space)))

    with _checked("abc"):
        problem = bee_colony.FomProblem(
            terms=tuple(bee_colony.FomTerm(models[t["response"]],
                                           _float(t["weight"]))
                        for t in term_cfg),
            windows=tuple(bee_colony.WindowConstraint(
                models[w["response"]], _float(w["center"]),
                _float(w["relative_tolerance"]))
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


def cmd_emit_vams(args, cfg: dict, space: DesignSpace) -> int:
    settings = cfg["vams"]
    cpm_files = settings.pop("cpms")
    paths = [Path(args.models) / f"{cpm_files.get(key, key)}.json"
             for key in vams_codegen.CPM_KEYS]
    cpms = dict(zip(vams_codegen.CPM_KEYS, _load_models(paths, space)))
    for path, model in zip(paths, cpms.values()):
        if not (isinstance(model, AnnModel) and model.activation == "tanh"):
            raise DataFormatError(f"cannot emit {path}: not a tanh network")

    if settings["parameter_defaults"] is None:
        settings["parameter_defaults"] = (space.lower + space.upper) / 2.0
    with _checked("vams"):
        spec = vams_codegen.MacromodelSpec(
            variable_names=tuple(space.names), cpms=cpms, **settings)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundles = {key: vams_codegen.export_weights(model, out_dir,
                                                prefix=f"{key}_")
               for key, model in cpms.items()}
    text = vams_codegen.emit_vams_module(spec, bundles)
    module_path = out_dir / f"{spec.module_name}.vams"
    with atomic_write(module_path) as fh:
        fh.write(text)
    print(f"wrote {module_path} and {4 * len(bundles)} weight files",
          file=sys.stderr)
    return 0


def cmd_compare(args, cfg: dict, space: DesignSpace) -> int:
    for _ in _fit_sweep(args, space, cfg, compare=True):
        pass
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="surrokit",
                     description="surrogate-assisted design optimization")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True)

    def command(name: str, fn, help_text: str) -> _Parser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = command("sample", cmd_sample, "draw LHS samples, optionally evaluate")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--evaluate", action="store_true",
                   help="run the configured oracle over the samples")
    p.add_argument("--disjoint-from",
                   help="existing sample CSV the new set must not collide with")

    p = command("train", cmd_train, "fit metamodels, print fit reports")
    p.add_argument("--train", required=True)
    p.add_argument("--verify", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--report-json",
                   help="also write the full fit-report sweep as JSON")

    p = command("report", cmd_report, "evaluate saved models against a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, action="append")

    p = command("optimize-mofa", cmd_optimize_mofa,
                "multi-objective firefly run")
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = command("optimize-abc", cmd_optimize_abc, "constrained bee-colony run")
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = command("emit-vams", cmd_emit_vams,
                "export weights and the AMS module")
    p.add_argument("--models", required=True)
    p.add_argument("--out-dir", required=True)

    p = command("compare", cmd_compare, "ANN vs polynomial on the same data")
    p.add_argument("--train", required=True)
    p.add_argument("--verify", required=True)
    p.add_argument("--response")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, *_load_config(args.config, args))
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


if __name__ == "__main__":
    entry()
