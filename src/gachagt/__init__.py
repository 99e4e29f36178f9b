"""gachagt: a sparse boolean recovery (group testing) toolkit.

Builds the birthday-coded Gacha scheme end to end: GF(2^w) polynomial outer
codes, constant-weight and linear-code inner layers, channel symmetrization,
composition gadgets, baseline decoders, and a seeded simulation CLI.
"""

__version__ = "0.5.0"

from .core_model import ConfigMatrix, ProblemInstance, TrialMetrics, sample_instance, score
from .gf2e import FieldSpec, InsufficientEvaluations, field
from .channels import (
    DiscreteChannel,
    NoiseModel,
    SymmetrizerPlan,
    ZeroCapacityError,
    parse_channel_spec,
    plan_symmetrize,
)
from .inner_code import (
    BinaryLinearCode,
    ConstantWeightCode,
    Occupancy,
    UnsupportedCodeSize,
    WeightClassifier,
)
from .gacha_core import (
    COLLISION,
    GachaParams,
    SynthWord,
    analytic_budget,
    build_column,
    default_params,
    gacha_scheme,
    list_decode,
)
from .scheme import SchemeHandle
from .gadgets import (
    expander_build,
    parallel_build,
    pyramid_build,
    pyramid_shape,
    serial_build,
)
from .baselines import OracleResult, brute_force_decode, comp_decode
