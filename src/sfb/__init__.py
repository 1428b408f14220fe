"""Symbolic calculator for semi-free circle-equivariant bordism.

The package computes localized fixed-point images, rewrites operator
expressions to an additive basis, tests whether classes have geometric
representatives, and decides realizability of isolated fixed-point
data, emitting sphere-power decompositions.
"""

from .coeff import CoeffElement, aug_symbol, cp, parse_coeff
from .phi import PhiElement, ZElement, from_z_basis, to_z_basis, z_gen
from .terms import parse_term, term_degree, term_text
from .aug import AugEnv
from .engine import (
    GammaEngine,
    LambdaMismatch,
    NormalForm,
    StepBudgetExceeded,
    certify_basis,
    enumerate_basis,
    lambda_term,
    two_colored_partitions,
    verify_relations,
)
from .manifold import (
    NonIsolatedError,
    aug_manifold,
    check_cobordant,
    fixed_data,
    lambda_manifold,
    parse_manifold,
    realize,
    realize_iterative,
)

__all__ = [
    "AugEnv",
    "CoeffElement",
    "GammaEngine",
    "LambdaMismatch",
    "NonIsolatedError",
    "NormalForm",
    "PhiElement",
    "StepBudgetExceeded",
    "ZElement",
    "aug_manifold",
    "aug_symbol",
    "certify_basis",
    "check_cobordant",
    "cp",
    "enumerate_basis",
    "fixed_data",
    "from_z_basis",
    "lambda_manifold",
    "lambda_term",
    "parse_coeff",
    "parse_manifold",
    "parse_term",
    "realize",
    "realize_iterative",
    "term_degree",
    "term_text",
    "to_z_basis",
    "two_colored_partitions",
    "verify_relations",
    "z_gen",
]

__version__ = "0.1.0"
