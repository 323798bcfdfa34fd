"""Verilog-AMS emission of trained network metamodels.

Exports ANN weights as four whitespace-separated text files (w1, w2, b1,
b2) in the exact order the emitted module's reader loop consumes them, and
emits a behavioral macromodule whose initial block reconstructs circuit
parameters from those files. Input and output scaling is folded into the
exported weights, so the emitted code operates directly on raw design
variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .files import atomic_write
from .metamodel import AnnModel, AnnStack
from .scaling import Scaler

__all__ = [
    "WeightBundle", "MacromodelSpec", "weight_files", "export_weights",
    "import_weights", "emit_vams_module", "write_macromodel",
]

_FMT = "{:.17g}"  # round-trip exact for doubles

CPM_KEYS = ("gm", "ip", "in")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# reserved words, which no identifier may be (Verilog-AMS LRM 2.4, Annex B)
_KEYWORDS = frozenset("""
    above abs absdelay absdelta abstol access acos acosh ac_stim aliasparam
    always analog analysis and asin asinh assert assign atan atan2 atanh
    automatic begin branch buf bufif0 bufif1 case casex casez ceil cell cmos
    config connect connectmodule connectrules continuous cos cosh cross ddt
    ddt_nature ddx deassign default defparam design disable discipline
    discrete domain driver_update edge else end endcase endconfig
    endconnectrules enddiscipline endfunction endgenerate endmodule endnature
    endparamset endprimitive endspecify endtable endtask event exclude exp
    final_step flicker_noise floor flow for force forever fork from function
    generate genvar ground highz0 highz1 hypot idt idt_nature idtmod if
    ifnone incdir include inf initial initial_step inout input instance
    integer join laplace_nd laplace_np laplace_zd laplace_zp large
    last_crossing liblist library limexp ln localparam log macromodule max
    medium merged min module nand nature negedge net_resolution nmos
    noise_table noise_table_log nor noshowcancelled not notif0 notif1 or
    output parameter paramset pmos posedge potential pow primitive pull0
    pull1 pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
    realtime reg release repeat resolveto rnmos rpmos rtran rtranif0
    rtranif1 scalared showcancelled signed sin sinh slew small specify
    specparam split sqrt string strong0 strong1 supply0 supply1 table tan
    tanh task time timer tran tranif0 tranif1 transition tri tri0 tri1
    triand trior trireg units unsigned use uwire vectored wait wand weak0
    weak1 while white_noise wire wor wreal xnor xor zi_nd zi_np zi_zd zi_zp
""".split())
# the names the emitted module declares itself
_DECLARED = ("x", "gm_val", "ip_val", "in_val", "i_stage1",
             *(f"nn_metamodel_{key}" for key in CPM_KEYS))


def _parse_payload(text: str, expected: int, label: str) -> np.ndarray:
    tokens = text.split()
    if len(tokens) != expected:
        raise DataFormatError(
            f"{label}: expected {expected} values, got {len(tokens)}"
        )
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise DataFormatError(f"{label}: non-numeric token ({exc})") from None
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{label}: non-finite value")
    return values


@dataclass(frozen=True)
class WeightBundle:
    """The four text payloads `export_weights` wrote for one network.

    w1 streams the hidden-layer weight matrix in reader order (outer loop
    over hidden neurons, inner loop over inputs); w2 and b1 hold one value
    per hidden neuron; b2 holds the single output bias.
    """

    w1: str
    w2: str
    b1: str
    b2: str


def weight_files(prefix: str) -> dict[str, str]:
    """The file name of each payload of a network exported with `prefix`."""
    return {name: f"{prefix}{name}.txt" for name in ("w1", "w2", "b1", "b2")}


def export_weights(model: AnnModel, destination,
                   prefix: str = "") -> WeightBundle:
    """Write the four weight files for `model` under `destination`: its
    `folded` weights as they are, the raw-unit network `predict` runs, one
    value per line at full round-trip precision. Only tanh models are
    exportable; the emitted reader hard-codes tanh.
    """
    if model.activation != "tanh":
        raise ValueError(
            f"cannot export {model.activation!r} model: the emitted module "
            "computes tanh hidden units"
        )
    w1, b1, w2, b2 = AnnStack([model.hidden_size], model.input_dim).views(
        model.folded)  # W1 streams row-major: neuron-major, input-minor
    bundle = WeightBundle(*(
        "\n".join(_FMT.format(v) for v in np.ravel(values)) + "\n"
        for values in (w1, w2, b1, b2)))
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    for name, file_name in weight_files(prefix).items():
        with atomic_write(destination / file_name) as fh:
            fh.write(getattr(bundle, name))
    return bundle


def import_weights(directory, nl: int, size_x: int,
                   prefix: str = "") -> AnnModel:
    """Reconstruct an AnnModel of `nl` hidden units and `size_x` inputs from
    the four weight files `export_weights` wrote under `directory`.

    The model is a tanh network with identity scalers and steepness 1: it
    predicts exactly what the exported model and the emitted Verilog-AMS
    reader compute. A file with the wrong value count or a non-finite value
    is a data error naming the file.
    """
    counts = {"w1": nl * size_x, "w2": nl, "b1": nl, "b2": 1}
    w1, w2, b1, b2 = (
        _parse_payload((Path(directory) / file_name).read_text(),
                       counts[name], file_name)
        for name, file_name in weight_files(prefix).items())
    return AnnModel(
        input_dim=size_x, hidden_size=nl,
        activation="tanh", W1=w1.reshape(nl, size_x), b1=b1, W2=w2,
        b2=float(b2[0]), input_scaler=Scaler.identity(size_x),
        output_scaler=Scaler.identity(1), steepness=1.0, role="CPM",
    )


@dataclass(frozen=True)
class MacromodelSpec:
    """What to emit: module identity, ports, design variables, the three
    circuit-parameter models, and the small-signal transfer placeholder.

    `hs_numerator`/`hs_denominator` are the ascending-power coefficient
    lists handed to laplace_nd; the default is a unity-gain single pole.
    """

    module_name: str
    variable_names: tuple[str, ...]
    parameter_defaults: tuple[float, ...]
    cpms: dict[str, AnnModel]
    ports: tuple[str, ...] = ("inp", "inn", "out")
    hs_numerator: tuple[float, ...] = (1.0,)
    hs_denominator: tuple[float, ...] = (1.0, 1.59155e-05)

    def __post_init__(self):
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "parameter_defaults",
                           tuple(float(v) for v in self.parameter_defaults))
        object.__setattr__(self, "ports", tuple(self.ports))
        object.__setattr__(self, "hs_numerator", tuple(self.hs_numerator))
        object.__setattr__(self, "hs_denominator", tuple(self.hs_denominator))
        if len(self.variable_names) != len(self.parameter_defaults):
            raise ValueError("one default per design variable required")
        if len(self.ports) < 3:
            raise ValueError("need at least two inputs and one output port")
        names = self.ports + self.variable_names
        for name in (self.module_name, *names):
            if not _IDENTIFIER.fullmatch(name):
                raise ValueError(f"{name!r} is not a Verilog-AMS identifier")
            if name in _KEYWORDS:
                raise ValueError(f"{name!r} is a Verilog-AMS reserved word")
        clashes = sorted({name for name in names
                          if names.count(name) > 1 or name in _DECLARED})
        if clashes:
            raise ValueError(f"ports and design variables need distinct "
                             f"names the module does not declare itself; "
                             f"got {clashes}")
        missing = [k for k in CPM_KEYS if k not in self.cpms]
        if missing:
            raise ValueError(f"missing circuit-parameter models: {missing}")
        n = len(self.variable_names)
        for key, model in self.cpms.items():
            if model.input_dim != n:
                raise ValueError(
                    f"CPM {key!r} takes {model.input_dim} inputs, module "
                    f"has {n} design variables"
                )


def _nn_function(key: str, model: AnnModel) -> list[str]:
    """The reader function of the circuit parameter `key`, whose weights
    `write_macromodel` exports with the prefix `<key>_`."""
    name, files = f"nn_metamodel_{key}", weight_files(f"{key}_")
    return [
        f"\tfunction real {name};",
        "\t\tinteger w1, w2, b1, b2, i, j, readfile;",
        "\t\treal w, b, v, u;",
        "\t\t// Read metamodel weights and biases from text files",
        f"\t\t// {files['w1']}, {files['w2']}, {files['b1']}, {files['b2']}.",
        "\t\tbegin",
        f"\t\t\tw1 = $fopen(\"{files['w1']}\", \"r\");",
        f"\t\t\tw2 = $fopen(\"{files['w2']}\", \"r\");",
        f"\t\t\tb1 = $fopen(\"{files['b1']}\", \"r\");",
        f"\t\t\tb2 = $fopen(\"{files['b2']}\", \"r\");",
        "\t\t\tv = 0.0;",
        f"\t\t\tfor (j = 0; j < {model.hidden_size}; j = j + 1)",
        "\t\t\tbegin",
        "\t\t\t\tu = 0.0;",
        f"\t\t\t\tfor (i = 0; i < {model.input_dim}; i = i + 1)",
        "\t\t\t\tbegin",
        "\t\t\t\t\treadfile = $fscanf(w1, \"%g\", w);",
        "\t\t\t\t\tu = u + w * x[i];",
        "\t\t\t\tend",
        "\t\t\t\treadfile = $fscanf(w2, \"%g\", w);",
        "\t\t\t\treadfile = $fscanf(b1, \"%g\", b);",
        "\t\t\t\tv = v + w * tanh(u + b);",
        "\t\t\tend",
        "\t\t\treadfile = $fscanf(b2, \"%g\", b);",
        f"\t\t\t{name} = v + b;",
        "\t\t\t$fclose(w1);",
        "\t\t\t$fclose(w2);",
        "\t\t\t$fclose(b1);",
        "\t\t\t$fclose(b2);",
        "\t\tend",
        "\tendfunction",
    ]


def emit_vams_module(spec: MacromodelSpec) -> str:
    """Render the Verilog-AMS macromodule text.

    One reader function per circuit parameter (gm, ip, in), invoked from
    the initial block, reads the weight files `write_macromodel` writes;
    the analog block realizes the two-stage model with current limiting
    and a laplace_nd small-signal section. Deterministic: identical inputs
    yield byte-identical text.
    """
    n_vars = len(spec.variable_names)
    inp, inn, out = spec.ports[0], spec.ports[1], spec.ports[2]
    num = ", ".join(_FMT.format(v) for v in spec.hs_numerator)
    den = ", ".join(_FMT.format(v) for v in spec.hs_denominator)

    lines: list[str] = []
    lines.append("// Parameterized behavioral macromodel with embedded")
    lines.append("// neural-network circuit-parameter models. Generated file.")
    lines.append("`include \"constants.vams\"")
    lines.append("`include \"disciplines.vams\"")
    lines.append("")
    lines.append(f"module {spec.module_name}({', '.join(spec.ports)});")
    lines.append(f"\tinout {', '.join(spec.ports)};")
    lines.append(f"\telectrical {', '.join(spec.ports)};")
    lines.append("")
    lines.append("\t// design variables")
    for name, default in zip(spec.variable_names, spec.parameter_defaults):
        lines.append(f"\tparameter real {name} = {_FMT.format(default)};")
    lines.append("")
    lines.append(f"\treal x[0:{n_vars - 1}];")
    lines.append("\treal gm_val, ip_val, in_val;")
    lines.append("\treal i_stage1;")
    lines.append("")
    for key in CPM_KEYS:
        lines.extend(_nn_function(key, spec.cpms[key]))
        lines.append("")
    lines.append("\tinitial begin")
    for i, name in enumerate(spec.variable_names):
        lines.append(f"\t\tx[{i}] = {name};")
    lines.append("\t\tgm_val = nn_metamodel_gm();")
    lines.append("\t\tip_val = nn_metamodel_ip();")
    lines.append("\t\tin_val = nn_metamodel_in();")
    lines.append("\tend")
    lines.append("")
    lines.append("\tanalog begin")
    lines.append(f"\t\ti_stage1 = gm_val * V({inp}, {inn});")
    lines.append("\t\tif (i_stage1 > ip_val)")
    lines.append("\t\t\ti_stage1 = ip_val;")
    lines.append("\t\tif (i_stage1 < -in_val)")
    lines.append("\t\t\ti_stage1 = -in_val;")
    lines.append(f"\t\tV({out}) <+ laplace_nd(i_stage1, {{{num}}}, {{{den}}});")
    lines.append("\tend")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_macromodel(spec: MacromodelSpec, directory) -> Path:
    """Write under `directory` the weight files of each circuit parameter
    `key` (prefixed `<key>_`), then `<module_name>.vams`, whose reader
    functions open them; return the module's path."""
    directory = Path(directory)
    for key in CPM_KEYS:
        export_weights(spec.cpms[key], directory, prefix=f"{key}_")
    path = directory / f"{spec.module_name}.vams"
    with atomic_write(path) as fh:
        fh.write(emit_vams_module(spec))
    return path
