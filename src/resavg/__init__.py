"""Exact residual averages and index-gap statistics for residual systems.

The tower module is the group-agnostic core; integers, linear and
grigorchuk build concrete towers for the integers, special linear
groups and the first Grigorchuk group; cli exposes everything as
subcommands with deterministic JSON output.
"""

from .errors import (
    BoundExceeded,
    CoprimalityViolation,
    IdentityInput,
    InconsistentTower,
    InsufficientData,
    InsufficientLevels,
    InvalidPrimePower,
    LevelTooDeep,
    ResavgError,
    SchemaError,
    TableExhausted,
    ZeroInput,
)
from .tower import (
    GrowthClass,
    IndexTower,
    LevelDecomposition,
    alphas,
    as_fraction,
    ave_partial,
    ave_partial_product_form,
    ave_terms,
    classify,
    coefficients,
    decompose,
    degenerate_levels,
    first_inconsistent_level,
    first_power_gap_index,
    gap_check_linear,
    gap_check_power,
    is_nested,
    is_prime_system,
    levels,
    measure_telescope,
    zeta_partial,
)

__all__ = [
    "BoundExceeded",
    "CoprimalityViolation",
    "GrowthClass",
    "IdentityInput",
    "InconsistentTower",
    "IndexTower",
    "InsufficientData",
    "InsufficientLevels",
    "InvalidPrimePower",
    "LevelDecomposition",
    "LevelTooDeep",
    "ResavgError",
    "SchemaError",
    "TableExhausted",
    "ZeroInput",
    "alphas",
    "as_fraction",
    "ave_partial",
    "ave_partial_product_form",
    "ave_terms",
    "classify",
    "coefficients",
    "decompose",
    "degenerate_levels",
    "first_inconsistent_level",
    "first_power_gap_index",
    "gap_check_linear",
    "gap_check_power",
    "is_nested",
    "is_prime_system",
    "levels",
    "measure_telescope",
    "zeta_partial",
]

__version__ = "0.1.0"
