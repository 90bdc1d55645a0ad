"""Finite-horizon machinery for block summability and Orlicz-family norms.

The library evaluates, on finite sequence prefixes: lacunary block
schedules, Musielak-Orlicz modulars with Luxemburg/Amemiya norms and
Young conjugates, matrix transforms with certified truncation, the
combined block statistics (window means, exception densities of order
alpha) with uniform-in-window sups, and the counterexample constructions
plus inclusion experiments built on top of them.
"""

__version__ = "0.1.0"

from .convergence import (
    BlockEngine,
    SpaceParams,
    Verdict,
    classify_trajectory,
)
from .errors import LacunaryError
from .experiments import (
    InclusionReport,
    build_thm37,
    build_thm38,
    liminf_growth_estimate,
    random_bounded_sequence,
    run_inclusion_matrix,
    thm31_block_bounds,
)
from .orlicz import (
    ConstantFamily,
    CustomFamily,
    Delta2Report,
    ExpMinusOne,
    ExponentSequence,
    IndexPowerFamily,
    IndexScaledFamily,
    LinearSlope,
    MusielakOrliczFamily,
    OrliczFunction,
    Power,
    PowerOverP,
    PrefixNorms,
    RhoSequence,
    ScaledPower,
    SpikeFamily,
    Table,
    complementary,
    delta2_check,
)
from .sequences import (
    CesaroC1,
    Explicit,
    Geometric,
    GeometricTail,
    Identity,
    LacunarySchedule,
    MatrixOperator,
    RowTable,
    Sequence,
    Shift,
    build_lacunary,
    transform_sequence,
)

__all__ = [
    "__version__",
    "BlockEngine",
    "CesaroC1",
    "ConstantFamily",
    "CustomFamily",
    "Delta2Report",
    "ExpMinusOne",
    "Explicit",
    "ExponentSequence",
    "Geometric",
    "GeometricTail",
    "Identity",
    "InclusionReport",
    "IndexPowerFamily",
    "IndexScaledFamily",
    "LacunaryError",
    "LacunarySchedule",
    "LinearSlope",
    "MatrixOperator",
    "MusielakOrliczFamily",
    "OrliczFunction",
    "Power",
    "PowerOverP",
    "PrefixNorms",
    "RhoSequence",
    "RowTable",
    "ScaledPower",
    "Sequence",
    "Shift",
    "SpaceParams",
    "SpikeFamily",
    "Table",
    "Verdict",
    "build_lacunary",
    "build_thm37",
    "build_thm38",
    "classify_trajectory",
    "complementary",
    "delta2_check",
    "liminf_growth_estimate",
    "random_bounded_sequence",
    "run_inclusion_matrix",
    "thm31_block_bounds",
    "transform_sequence",
]
