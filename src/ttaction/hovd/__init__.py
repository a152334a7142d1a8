"""Derivative tensors of implicitly defined maps, exposed through actions.

A forward map sends a parameter field to a boundary observation through the
solution of a discretized nonlinear PDE.  This subpackage differentiates that
map to arbitrary order without ever forming a derivative tensor: directional
derivatives come from forward solves over a lattice of direction multisets,
and mode-free slices come from a matching adjoint lattice.  On top of the
oracles sit spectral-norm estimation and polynomial surrogates.
"""

from .compress import compress_derivative
from .lattice import (
    block_signature,
    canonical_directions,
    expansion,
    sub_multisets,
)
from .model import ReactionDiffusionModel
from .oracle import (
    DerivativeEngine,
    WhitenedMap,
    make_derivative_oracle,
    solve_state,
)
from .sigma1 import Sigma1Result, oracle_difference, sigma1_estimate
from .taylor import (
    TaylorSurrogate,
    build_taylor_surrogate,
    jacobian_train,
    taylor_error_stats,
    taylor_eval,
)

__all__ = [
    "DerivativeEngine",
    "ReactionDiffusionModel",
    "Sigma1Result",
    "TaylorSurrogate",
    "WhitenedMap",
    "block_signature",
    "build_taylor_surrogate",
    "canonical_directions",
    "compress_derivative",
    "expansion",
    "jacobian_train",
    "make_derivative_oracle",
    "oracle_difference",
    "sigma1_estimate",
    "solve_state",
    "sub_multisets",
    "taylor_error_stats",
    "taylor_eval",
]
