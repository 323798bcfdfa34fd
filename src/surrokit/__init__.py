"""Surrogate-assisted analog/mixed-signal design optimization toolkit.

Pipeline: sample a bounded design space (Latin hypercube), train ANN/RBF/
polynomial metamodels of the circuit responses, optimize over the
metamodels (multi-objective firefly, constrained bee colony), and emit
Verilog-AMS behavioral modules embedding the trained networks.
"""

from .design_space import DesignSpace, DesignVariable, lhs_disjoint, lhs_sample
from .errors import (DataFormatError, DegenerateColumnError,
                     InfeasibleRunError, RankDeficiencyError, SurrokitError,
                     TrainingDivergedError, UndefinedVarianceError)
from .metamodel import (AnnModel, CallableModel, PolyModel, RbfModel,
                        load_model, save_model)
from .metrics import (FitReport, fit_report, r_squared, rmae, rmse, rrse,
                      select_best)
from .scaling import Scaler, fit_scaler
from .training import (SampleSet, TrainOptions, fit_polynomial,
                       fit_polynomials, train_ann, train_anns, train_rbf)

__version__ = "0.1.0"
