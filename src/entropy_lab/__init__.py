"""Summation operators on trees: norms, entropy numbers, certified scaling."""

from inspect import ismodule as _ismodule

from .certificate import Certificate, entropy_certificate
from .entropy import (
    EntropyEstimate,
    combine_scale,
    combine_sum,
    cover_profile,
    kuhn_value,
    matrix_norm_upper,
    net_upper,
    packing_profile,
    sample_lp_ball,
    sample_lp_sphere,
    schuett,
    volumetric_lower,
)
from .hset import (
    HProfile,
    TauFn,
    TAU_CONST,
    generate_hset_tree,
    h_level_target,
)
from .partition import (
    PartitionFamily,
    VertexWeight,
    balanced_partition,
    dyadic_family,
)
from .summation import (
    NormEstimate,
    WeightScheme,
    apply,
    apply_adjoint,
    hardy_bound,
    norm_oracle,
    validate_critical,
    weights_for_tree,
)
from .trees import (
    SubtreePartition,
    Tree,
    full_tree,
    random_tree,
)

# the names imported above, each named once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not _ismodule(value))

__version__ = "0.1.0"
