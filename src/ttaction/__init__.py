"""Matrix-free tensor-train toolkit.

Build tensor-train representations of high-order tensors using only their
action (contraction against one vector per mode, one mode left free), and
expose high-order derivative tensors of implicitly defined maps as such
actions.
"""

from .core import (
    ActionOracle,
    TensorTrain,
    dense_action,
    fix_signs,
    oracle_from_dense,
    oracle_from_tt,
    tt_apply,
    tt_load,
    tt_load_json,
    tt_relative_error,
    tt_round,
    tt_save,
    tt_save_json,
)
from .builder import (
    BuildConfig,
    BuildReport,
    predicted_action_count,
    solve_interpolation,
    tt_from_actions,
)
from .rangefinder import (
    RangeBasis,
    RangeProblem,
    adaptive_range,
    posterior_error,
    randomized_range,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ActionOracle",
    "BuildConfig",
    "BuildReport",
    "RangeBasis",
    "RangeProblem",
    "TensorTrain",
    "adaptive_range",
    "dense_action",
    "errors",
    "fix_signs",
    "oracle_from_dense",
    "oracle_from_tt",
    "posterior_error",
    "predicted_action_count",
    "randomized_range",
    "solve_interpolation",
    "tt_apply",
    "tt_from_actions",
    "tt_load",
    "tt_load_json",
    "tt_relative_error",
    "tt_round",
    "tt_save",
    "tt_save_json",
    "__version__",
]
