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
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bee_colony, mofa, oracles, vams_codegen
from .design_space import (DesignSpace, DesignVariable, check_sample_count,
                           lhs_disjoint, lhs_sample)
from .errors import (DataFormatError, DegenerateColumnError,
                     InfeasibleRunError, RankDeficiencyError, SurrokitError,
                     TrainingDivergedError, UndefinedVarianceError)
from .files import atomic_write, check_output
from .metamodel import _KINDS, AnnModel, load_model, save_model
from .metrics import CRITERIA, fit_report, render_report_table, select_best
from .training import (SampleSet, TrainOptions, check_ann_rows,
                       check_poly_settings, check_rbf_settings,
                       fit_polynomials, train_anns, train_rbf)

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
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict) or "space" not in cfg:
        raise UsageError("config must be a JSON object with a 'space' section")
    with _checked("space"):
        space = DesignSpace(_SPACE(cfg["space"]))
    for key in cfg:
        if "." in key or key not in {"space", *_SECTIONS}:
            raise UsageError(f"config: unknown key {key!r}")
    flags = {key: getattr(args, key, None) for key in ("n", "seed")}
    return {section: _section(cfg, section, fields, **(
        flags if _FLAGGED.get(args.command) == section else {}))
        for section, fields in _SECTIONS.items()}, space


def _typed(kind, what: str):
    def cast(value):  # passes a value of type `kind`, rejects any other
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value
    return cast


_object, _flag, _str = (_typed(dict, "a JSON object"),
                        _typed(bool, "true or false"), _typed(str, "a string"))


def _float(value) -> float:
    if isinstance(value, (bool, str)):  # float() would take "7" and True
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):  # json reads NaN, Infinity and -Infinity
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


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


def _keyed(key: str, cast, value):
    """`cast(value)`; a value it rejects is a ValueError naming `key`."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _section(cfg: dict, path: str, fields: dict, **overrides):
    """The settings of the config section at the dotted `path`, one per key
    of `fields` {key: (cast, default)}: the configured value cast, else the
    default; what the section's `_CHECKS` entry makes of them if it has one.
    An override that is not None replaces the configured value. A section
    that is not a JSON object, a key that is neither a field nor a
    subsection name, and a value its cast or check rejects are usage errors
    naming the section."""
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
            settings[key] = (_keyed(key, cast, section[key]) if key in section
                             else default)
        return _CHECKS[path](settings) if path in _CHECKS else settings


def _numbers(value) -> list[float]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return [_float(v) for v in value]


def _names(value, allowed=None) -> list[str]:
    """`value`: a JSON list of distinct strings, non-empty and from `allowed`
    if given."""
    if not (isinstance(value, list) and all(isinstance(v, str)
                                            for v in value)):
        raise TypeError(f"expected a list of strings, got {value!r}")
    if len(set(value)) < len(value):
        raise ValueError(f"expected distinct strings, got {value!r}")
    if allowed is not None and not (value and set(value) <= set(allowed)):
        raise ValueError(f"expected a non-empty list drawn from "
                         f"{list(allowed)}, got {value!r}")
    return value


# the cast of each field type of the parameter dataclasses the CLI fills
_CASTS = {"int": _int, "float": _float, "str": _str,
          "tuple[str, ...]": _names, "tuple[float, ...]": _numbers}


def _fields(cls, *skip) -> dict:
    """{field: (cast, default)} of the dataclass `cls`, but for `skip`."""
    return {f.name: (_CASTS[f.type], f.default)
            for f in dataclasses.fields(cls) if f.name not in skip}


def _entries(path: str, casts: dict, build, optional=()) -> tuple:
    """The (cast, default) of the list of JSON objects at the dotted `path`:
    each holds the keys of `casts` {key: cast} and no other, but may lack
    the `optional` ones {key: default}, which fill in what it lacks. The cast
    makes each entry `build(**entry)` of its cast values; a value a cast or
    `build` rejects is a usage error naming the entry's section and index."""
    section, _, key = path.rpartition(".")

    def cast(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list of JSON objects, got {value!r}")
        entries = [dict(optional, **_object(entry)) for entry in value]
        for i, entry in enumerate(entries):
            for k in casts:
                if k not in entry:
                    raise UsageError(f"{path}[{i}]: missing {k!r}")
            for k in entry:
                if k not in casts:
                    raise UsageError(f"{path}[{i}]: unknown key {k!r}")
            try:
                entries[i] = build(**{k: _keyed(k, casts[k], v)
                                      for k, v in entry.items()})
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"bad {section or key!r} section: "
                                 f"{key}[{i}]: {exc}") from None
        return entries
    return cast, []


def _sizes(value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise TypeError(f"expected a non-empty list, got {value!r}")
    sizes = [_int(m) for m in value]
    if 0 in sizes or len(set(sizes)) < len(sizes):
        raise ValueError(f"expected distinct positive integers, got {value!r}")
    return sizes


# every config section: dotted path -> {key: (cast, default)}
_SECTIONS = {
    "sampling": {"n": (_int, 100), "seed": (_int, 0)},
    "oracle": {"name": (_str, None), "artificial_delay": (_float, 0.0)},
    "training": {"responses": (_names, None),
                 "kinds": (lambda kinds: _names(kinds, _KINDS), ["ann"]),
                 "selection": (_str, "verify_rmse")},
    "training.ann": {**_fields(TrainOptions, "hidden_size"),
                     "hidden_sizes": (_sizes, [4])},
    # the CLI's own defaults: `fit_polynomials` alone does not select stepwise
    "training.rbf": {"error_goal": (_float, 1e-4), "spread": (_float, 1.0),
                     "max_neurons": (_int, 25),
                     "input_scaling": (_str, "meanstd")},
    "training.poly": {"degree": (_int, 2), "stepwise": (_flag, True),
                      "p_enter": (_float, 0.05)},
    # the optimizers' entries: (response, spec built without a model)
    "mofa": {**_fields(mofa.MofaParams),
             "objectives": _entries(
                 "mofa.objectives", {"response": _str, "direction": _str},
                 lambda response, direction: (response, mofa.ObjectiveSpec(
                     response, direction, None))),
             "constraints": _entries(
                 "mofa.constraints",
                 {"response": _str, "bound": _float, "sense": _str},
                 lambda response, bound, sense: (response, mofa.ConstraintSpec(
                     response, None, bound, sense)))},
    "abc": {**_fields(bee_colony.AbcParams),
            **_fields(bee_colony.FomProblem, "terms", "windows"),
            "objective": _entries(
                "abc.objective", {"response": _str, "weight": _float},
                lambda response, weight: (response, bee_colony.FomTerm(
                    None, weight)), {"weight": 1.0}),
            "window": _entries(
                "abc.window", {"response": _str, "center": _float,
                               "relative_tolerance": _float},
                lambda response, **window: (
                    response, bee_colony.WindowConstraint(None, **window)),
                {"relative_tolerance": 0.005})},
    "vams": {**_fields(vams_codegen.MacromodelSpec, "module_name",
                       "variable_names", "parameter_defaults", "cpms"),
             "module_name": (_str, "analog_block"),
             "parameter_defaults": (_numbers, None)},
    # the model file (without `.json`) of each circuit parameter
    "vams.cpms": {key: (_str, key) for key in vams_codegen.CPM_KEYS},
}
_SPACE, _ = _entries("space", {"name": _str, "lower": _float,
                                "upper": _float}, DesignVariable)
# the section whose settings each command's --n and --seed flags override
_FLAGGED = {"sample": "sampling", "train": "training.ann",
            "optimize-mofa": "mofa", "optimize-abc": "abc"}


def _oracle(settings: dict):
    """The built-in oracle the 'oracle' settings name, slowed by their delay,
    or None if they name none; the delay is checked either way."""
    name, delay = settings["name"], settings["artificial_delay"]
    if name is None:
        oracles.Oracle("", 0, (), None, delay)
        return None
    if name not in oracles.BUILTIN_ORACLES:
        raise ValueError(f"unknown oracle {name!r}; built-ins: "
                         f"{sorted(oracles.BUILTIN_ORACLES)}")
    return dataclasses.replace(oracles.BUILTIN_ORACLES[name](),
                               artificial_delay=delay)


def _selection(settings: dict) -> dict:
    if settings["selection"] not in CRITERIA:
        raise ValueError(f"training.selection must be one of "
                         f"{', '.join(CRITERIA)}; got "
                         f"{settings['selection']!r}")
    return settings


# each section's check, run by `_section` on its cast settings: it raises
# ValueError for a value the library rejects and returns what the commands
# read (a `check_*` returns None, so `or s` keeps the settings)
_CHECKS = {
    "sampling": lambda s: check_sample_count(s["n"]) or s,
    "oracle": _oracle,
    "training": _selection,
    "training.ann": lambda s: (s.pop("hidden_sizes"), TrainOptions(**s)),
    "training.rbf": lambda s: check_rbf_settings(**s) or s,
    "training.poly": lambda s: (check_poly_settings(s["degree"], s["p_enter"])
                                or s),
    "mofa": lambda s: (s.pop("objectives"), s.pop("constraints"),
                       mofa.MofaParams(**s)),
    "abc": lambda s: (s.pop("objective"), s.pop("window"),
                      s.pop("penalty_weight"), bee_colony.AbcParams(**s)),
}


def cmd_sample(args, cfg: dict, space: DesignSpace) -> int:
    n, seed = cfg["sampling"]["n"], cfg["sampling"]["seed"]
    if args.evaluate and cfg["oracle"] is None:
        raise UsageError(f"--evaluate needs oracle.name, one of "
                         f"{sorted(oracles.BUILTIN_ORACLES)}")

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
            sample_set = oracles.evaluate(cfg["oracle"], points, space.names)
    else:
        sample_set = SampleSet(points, {}, space.names)
    oracles.save_csv(sample_set, args.out)
    print(f"wrote {n} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args, cfg: dict, space: DesignSpace) -> int:
    tcfg, (sizes, opts) = cfg["training"], cfg["training.ann"]
    kinds = tcfg["kinds"]
    train_set = oracles.load_csv(args.train, space.names)
    if "ann" in kinds:
        check_ann_rows(train_set.n_rows, opts.holdout_fraction, args.train)
    verify_set = oracles.load_csv(args.verify, space.names)
    responses = tcfg["responses"] or train_set.response_names
    if not responses:
        raise UsageError("no responses configured and none found in the data")
    for response in responses:
        for data, path in ((train_set, args.train), (verify_set, args.verify)):
            if response not in data.responses:
                raise DataFormatError(
                    f"response {response!r} not present in {path}")
        if (tcfg["selection"] == "verify_r2"
                and np.ptp(verify_set.response(response)) == 0):
            raise DataFormatError(f"response {response!r} is constant in "
                                  f"{args.verify}; verify_r2 is undefined")

    anns = (train_anns(train_set, responses, sizes, opts)
            if "ann" in kinds else {})
    polys = (fit_polynomials(train_set, responses, **cfg["training.poly"])
             if "poly" in kinds else {})
    out_dir = Path(args.out_dir)
    all_reports = {}
    for response in responses:
        rows = [(f"ann-{m}", anns[response, m][0])
                for m in sizes if (response, m) in anns]
        if "rbf" in kinds:
            model, _ = train_rbf(train_set, response, **cfg["training.rbf"])
            rows.append((f"rbf-{model.n_neurons}", model))
        if response in polys:
            model = polys[response][0]
            rows.append((f"poly-{model.degree}", model))
        rows = [(label, model, fit_report(
            model, train_set.inputs, train_set.response(response),
            verify_set.inputs, verify_set.response(response),
            descriptor=label)) for label, model in rows]
        print(f"# response: {response}")
        print(render_report_table([(label, rep) for label, _, rep in rows]))
        best = select_best([rep for _, _, rep in rows], tcfg["selection"])
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
        response, name = model.response_name, Path(model_path).stem
        if response not in data.responses:
            raise DataFormatError(f"model {model_path} predicts {response!r}, "
                                  f"absent from {args.data}")
        rows.append((name, fit_report(model, data.inputs,
                                      data.response(response), descriptor=name)))
    print(render_report_table(rows))
    return 0


def _with_models(models_dir, space: DesignSpace, *entry_lists) -> list:
    """Each list of (response, spec) config entries as the list of its specs,
    each given the model of `<models_dir>/<response>.json`; a model file of
    another response is a data error naming the file."""
    paths = {name: Path(models_dir) / f"{name}.json"
             for entries in entry_lists for name, _ in entries}
    models = dict(zip(paths, _load_models(paths.values(), space)))
    for name, model in models.items():
        if model.response_name != name:
            raise DataFormatError(f"{paths[name]} holds a model of "
                                  f"{model.response_name!r}, not {name!r}")
    return [[dataclasses.replace(spec, model=models[name])
             for name, spec in entries] for entries in entry_lists]


def cmd_optimize_mofa(args, cfg: dict, space: DesignSpace) -> int:
    objectives, constraints, params = cfg["mofa"]
    if len(objectives) < 2:
        raise UsageError("mofa needs at least two objectives")
    objectives, constraints = _with_models(args.models, space, objectives,
                                           constraints)
    archive = mofa.mofa_optimize(space, objectives, constraints, params)
    archive.write_csv(args.out)
    print(f"wrote {len(archive)} non-dominated designs to {args.out}",
          file=sys.stderr)
    return 0


def cmd_optimize_abc(args, cfg: dict, space: DesignSpace) -> int:
    terms, windows, penalty_weight, params = cfg["abc"]
    if not terms:
        raise UsageError("abc needs at least one objective term")
    problem = bee_colony.FomProblem(
        *_with_models(args.models, space, terms, windows), penalty_weight)
    best_x, best_f, trace = bee_colony.abc_optimize(space, problem, params)
    bee_colony.write_trace_csv(trace, args.out)
    for name, value in zip(space.names, best_x):
        print(f"{name},{value:.17g}")
    print(f"fom,{best_f:.17g}")
    print(f"wrote {len(trace)}-cycle trace to {args.out}", file=sys.stderr)
    return 0


def cmd_emit_vams(args, cfg: dict, space: DesignSpace) -> int:
    paths = [Path(args.models) / f"{name}.json"
             for name in cfg["vams.cpms"].values()]
    cpms = dict(zip(cfg["vams.cpms"], _load_models(paths, space)))
    for path, model in zip(paths, cpms.values()):
        if not (isinstance(model, AnnModel) and model.activation == "tanh"):
            raise DataFormatError(f"cannot emit {path}: not a tanh network")

    settings = cfg["vams"]
    if settings["parameter_defaults"] is None:
        settings["parameter_defaults"] = (space.lower + space.upper) / 2.0
    with _checked("vams"):
        spec = vams_codegen.MacromodelSpec(
            variable_names=tuple(space.names), cpms=cpms, **settings)
    module_path = vams_codegen.write_macromodel(spec, args.out_dir)
    print(f"wrote {module_path} and {4 * len(cpms)} weight files",
          file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process. It holds no
    command function: `main` looks up `cmd_<command>` when it runs one, so
    a wrapper or patch of a `cmd_*` set after the first call still runs."""
    parser = _Parser(prog="surrokit",
                     description="surrogate-assisted design optimization")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True)

    def command(name: str, help_text: str, *required,
                outputs=()) -> _Parser:
        """The subcommand `name`; `outputs` lists the (dest, is a directory)
        of the flags that name what it writes."""
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(outputs=outputs)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = command("sample", "draw LHS samples, optionally evaluate",
                "--out", outputs=[("out", False)])
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--evaluate", action="store_true",
                   help="run the configured oracle over the samples")
    p.add_argument("--disjoint-from",
                   help="existing sample CSV the new set must not collide with")

    p = command("train", "fit metamodels, print fit reports",
                "--train", "--verify", "--out-dir",
                outputs=[("out_dir", True), ("report_json", False)])
    p.add_argument("--seed", type=int)
    p.add_argument("--report-json",
                   help="also write the full fit-report sweep as JSON")

    p = command("report", "evaluate saved models against a CSV",
                "--data")
    p.add_argument("--model", required=True, action="append")

    for name, help_text in (("optimize-mofa", "multi-objective firefly run"),
                            ("optimize-abc", "constrained bee-colony run")):
        command(name, help_text, "--models", "--out",
                outputs=[("out", False)]).add_argument("--seed", type=int)

    command("emit-vams", "export weights and the AMS module",
            "--models", "--out-dir", outputs=[("out_dir", True)])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, space = _load_config(args.config, args)
        # before any work, so a bad output path costs no run and leaves no
        # partial output
        for dest, directory in args.outputs:
            if getattr(args, dest) is not None:
                check_output(getattr(args, dest), directory)
        run = globals()["cmd_" + args.command.replace("-", "_")]
        return run(args, cfg, space)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, DegenerateColumnError, OSError,
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
