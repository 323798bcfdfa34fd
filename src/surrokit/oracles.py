"""Synthetic analytic circuit oracles and SampleSet CSV persistence.

The built-in oracles stand in for transistor-level simulation: smooth,
deterministic closed forms whose response magnitudes loosely follow the
two reference circuits (an op-amp with gain/bandwidth/phase-margin style
metrics, and a charge-pump PLL with frequency/power/locking-time). The
exact formulas are versioned constants; changing them changes every
downstream expectation, so treat them as frozen.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .design_space import DesignSpace, DesignVariable
from .errors import DataFormatError
from .files import write_csv
from .metamodel import CallableModel
from .training import SampleSet

__all__ = [
    "Oracle", "builtin_opamp_oracle", "builtin_pll_oracle",
    "opamp_space", "pll_space", "evaluate", "response_model",
    "save_csv", "load_csv",
]


@dataclass(frozen=True)
class Oracle:
    """Deterministic multi-response evaluator over a fixed input dimension.

    `fn` maps an (n, input_dim) matrix to {response_name: n-vector}.
    `artificial_delay` (seconds per row) emulates slow simulation for
    speedup studies; it is zero by default so test suites stay fast.
    """

    name: str
    input_dim: int
    response_names: tuple[str, ...]
    fn: object
    artificial_delay: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "response_names", tuple(self.response_names))
        if not 0 <= self.artificial_delay < math.inf:
            raise ValueError("artificial_delay must be finite and >= 0")


def opamp_space() -> DesignSpace:
    """Canonical 16-variable space for the op-amp oracle: grouped transistor
    widths and lengths, bias current, compensation network, bias voltage."""
    widths = [DesignVariable(n, 1.0, 10.0)
              for n in ("wd", "wm", "wt", "wc", "wo", "wf", "wb", "ws")]
    lengths = [DesignVariable(n, 0.1, 1.0) for n in ("ld", "lm", "lc", "lo")]
    rest = [
        DesignVariable("ib", 10.0, 100.0),
        DesignVariable("cc", 0.5, 5.0),
        DesignVariable("rz", 0.1, 2.0),
        DesignVariable("vb", 0.3, 0.7),
    ]
    return DesignSpace(tuple(widths + lengths + rest))


def _opamp_responses(x: np.ndarray) -> dict[str, np.ndarray]:
    (wd, wm, wt, wc, wo, wf, wb, ws,
     ld, lm, lc, lo, ib, cc, rz, vb) = (x[:, i] for i in range(16))

    gm = 2.0 * np.sqrt(wd * ib / ld)
    ro = 55.0 * (lm + 0.15) / ib ** 0.55
    a0 = 20.0 * np.log10(gm * ro) + 4.0 * np.tanh(2.0 * (wc * lc - 0.8)) \
        + 2.5 * np.tanh(3.0 * (vb - 0.5)) * np.tanh(0.4 * (wb - 5.0))
    bw = 62.0 * ib ** 0.4 / ((cc + 0.8) * (1.0 + 0.45 * wo * lo)) \
        * (0.7 + 0.6 / (1.0 + np.exp(-1.5 * (wm - 5.0))))
    pm = 91.0 - 47.0 * np.exp(-0.55 * cc * (rz + 0.35)) \
        - 9.0 * np.tanh(gm / (22.0 * cc) - 1.0) \
        - 3.0 * np.tanh(1.5 * (ws / (wt + 1.0) - 1.0))
    sr = 1.05 * ib / (cc * (9.0 + wf)) * (1.0 + 0.25 * np.tanh(wt - 5.0)) + 0.4
    pd = 1.05 * ib * (1.0 + 0.07 * (ws + wo)) * (0.9 + 0.5 * vb) + 6.0 * cc
    ip = 0.52 * ib * (1.0 + 0.22 * np.tanh(0.8 * (wt - 4.0))) \
        * (1.0 + 0.1 * np.exp(-2.0 * ld))
    i_n = 0.48 * ib * (1.0 + 0.2 * np.tanh(0.7 * (wm - 5.0))) \
        * (1.0 + 0.12 / (1.0 + wb))
    return {"a0": a0, "bw": bw, "pm": pm, "sr": sr, "pd": pd,
            "gm": gm, "ip": ip, "in": i_n}


def builtin_opamp_oracle() -> Oracle:
    """Synthetic two-stage op-amp: five performance metrics (a0, bw, pm,
    sr, pd) plus the macromodel circuit parameters (gm, ip, in)."""
    return Oracle(
        name="opamp", input_dim=16,
        response_names=("a0", "bw", "pm", "sr", "pd", "gm", "ip", "in"),
        fn=_opamp_responses,
    )


def pll_space() -> DesignSpace:
    """Canonical 21-variable space for the PLL oracle."""
    widths = [DesignVariable(f"w{i}", 0.5, 5.0) for i in range(1, 10)]
    lengths = [DesignVariable(f"l{i}", 0.2, 2.0) for i in range(1, 7)]
    rest = [
        DesignVariable("ib1", 5.0, 50.0),
        DesignVariable("ib2", 5.0, 50.0),
        DesignVariable("c1", 0.5, 5.0),
        DesignVariable("c2", 0.5, 5.0),
        DesignVariable("r1", 0.5, 5.0),
        DesignVariable("r2", 0.5, 5.0),
    ]
    return DesignSpace(tuple(widths + lengths + rest))


def _pll_responses(x: np.ndarray) -> dict[str, np.ndarray]:
    w = [x[:, i] for i in range(9)]
    l = [x[:, 9 + i] for i in range(6)]
    ib1, ib2, c1, c2, r1, r2 = (x[:, 15 + i] for i in range(6))

    # saturating drive terms; arguments traverse well past +-1
    s1 = 1.1 * (w[0] * w[1] / (l[0] + 0.4) - 5.2) / 4.0
    s2 = 1.3 * (ib1 / (c1 * 10.0) - 1.6)
    s3 = 0.9 * (r1 * c2 - 5.5) / 3.0
    s4 = 1.2 * (w[4] / (l[2] + 0.3) - 2.8) / 2.2

    freq = (2.7 + 0.34 * np.tanh(s1) + 0.21 * np.tanh(s2) * np.tanh(s3)
            + 0.12 * np.tanh(s4) + 0.018 * (w[7] - 2.75))
    power = (1.6 + 0.085 * (ib1 + ib2) * (1.0 + 0.25 * np.tanh(0.9 * (w[5] - 2.7)))
             + 0.35 * c1 * c2 / (r1 + r2) + 0.22 * np.exp(0.35 * (w[2] - 2.0)))
    lock = (2.2 + 16.0 * np.exp(-0.9 * ib2 * r2 / 25.0)
            + 3.5 / (1.0 + np.exp(2.0 * (w[8] - 2.5)))
            + 1.3 * np.tanh(0.8 * (c2 - 2.5)) + 0.05 * (l[4] + l[5]))
    return {"freq": freq, "power": power, "lock_time": lock}


def builtin_pll_oracle() -> Oracle:
    """Synthetic PLL: output frequency (GHz-like, centered near 2.7),
    power and locking time, over 21 design parameters."""
    return Oracle(
        name="pll", input_dim=21,
        response_names=("freq", "power", "lock_time"),
        fn=_pll_responses,
    )


BUILTIN_ORACLES = {"opamp": builtin_opamp_oracle, "pll": builtin_pll_oracle}
BUILTIN_SPACES = {"opamp": opamp_space, "pll": pll_space}


def evaluate(oracle: Oracle, inputs: np.ndarray,
             variable_names=()) -> SampleSet:
    """Run the oracle over each input row, producing a SampleSet.

    Sleeps artificial_delay seconds per row when the oracle carries one.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.size and inputs.shape[1] != oracle.input_dim:
        raise ValueError(
            f"inputs have {inputs.shape[1]} columns, oracle {oracle.name!r} "
            f"expects {oracle.input_dim}"
        )
    if inputs.size == 0:
        inputs = inputs.reshape(0, oracle.input_dim)
        responses = {name: np.zeros(0) for name in oracle.response_names}
    else:
        responses = {k: np.asarray(v, dtype=float)
                     for k, v in oracle.fn(inputs).items()}
        if oracle.artificial_delay > 0:
            time.sleep(oracle.artificial_delay * inputs.shape[0])
    return SampleSet(
        inputs=inputs, responses=responses,
        variable_names=list(variable_names),
    )


def response_model(oracle: Oracle, response: str) -> CallableModel:
    """Wrap one oracle response in the model predict API.

    Used to run optimizers directly against the (possibly delayed) oracle,
    the way a simulator-in-the-loop flow would.
    """
    if response not in oracle.response_names:
        raise KeyError(f"oracle {oracle.name!r} has no response {response!r}")

    def fn(points: np.ndarray) -> np.ndarray:
        if oracle.artificial_delay > 0:
            time.sleep(oracle.artificial_delay * points.shape[0])
        return oracle.fn(points)[response]

    return CallableModel(input_dim=oracle.input_dim, fn=fn,
                         response_name=response)


def save_csv(sample_set: SampleSet, path) -> None:
    """Write a SampleSet: header of variable then response names, one data
    row per sample, 17 significant digits."""
    names = sample_set.response_names
    write_csv(path, list(sample_set.variable_names) + names,
              np.column_stack([sample_set.inputs]
                              + [sample_set.responses[n] for n in names]))


def _text_lines(fh, path):
    """The lines of the text file `fh`; a byte that is not UTF-8 text is a
    data error naming `path`."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None


def load_csv(path, variable_names) -> SampleSet:
    """Read a SampleSet written by :func:`save_csv`.

    The header must start with `variable_names` in order; remaining columns
    are responses. Cells must parse as finite numbers; failures name the
    data row and column. A file without data rows is a data error.
    """
    variable_names = list(variable_names)
    with open(path, newline="") as fh:
        reader = csv.reader(_text_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]

        n_vars = len(variable_names)
        if header[:n_vars] != variable_names:
            raise DataFormatError(
                f"{path}: header must start with variables "
                f"{variable_names}, got {header[:n_vars]}"
            )
        resp_cols = header[n_vars:]

        rows = []
        for r, line in enumerate(reader, start=1):
            if not line:
                continue
            if len(line) != len(header):
                raise DataFormatError(
                    f"{path}: row {r} has {len(line)} cells, header has "
                    f"{len(header)}"
                )
            vals = []
            for c, cell in enumerate(line):
                try:
                    v = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {r}, column {c + 1} ({header[c]!r}): "
                        f"non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(v):
                    raise DataFormatError(
                        f"{path}: row {r}, column {c + 1} ({header[c]!r}): "
                        f"non-finite value {cell!r}"
                    )
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")

    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return SampleSet(
        inputs=data[:, :n_vars],
        responses={name: data[:, n_vars + j] for j, name in enumerate(resp_cols)},
        variable_names=variable_names,
    )
