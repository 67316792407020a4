"""Exact shattering certificates for group-convolution classifiers.

The package builds finite groups, convolves exact rational functions
over them, enumerates every label pattern a two-bias ReLU classifier
with a fixed kernel can realize, synthesizes kernels that provably
shatter m functions, and checks the matching capacity bounds.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    build_bound_report,
    lower_bound,
    lower_bound_at_most,
    required_group_size,
    upper_bound_implicit,
    upper_bound_refined,
    upper_bound_simple,
    upper_bound_simple_ceil,
)
from .classifier import (
    NuProfile,
    classify,
    ranking_of_values,
)
from .errors import (
    GroupSpecError,
    GroupTooSmallError,
    GShatterError,
    InvariantError,
    ModeElementError,
    SynthesisVerificationError,
    WitnessVerificationError,
)
from .gfunc import (
    GroupFunction,
    Measure,
    convolve,
    counting_measure,
    indicator,
)
from .groups import (
    FiniteGroup,
    build_group,
    cyclic_group,
    dihedral_group,
    find_order_ge3_element,
    find_order_two_element,
    product_group,
    validate_group,
)
from .orders import (
    OrderSet,
    build_complete_orders,
    completeness_lower_bound,
    f_map,
    is_complete,
    is_strict,
    mask_elements,
    peel_chain,
)
from .shatter import (
    CriticalSet,
    ShatterCertificate,
    attained_orders,
    certificate,
    check_order_criterion,
    critical_points,
    critical_set,
    is_shattered,
)
from .synth import (
    SynthResult,
    UTower,
    build_u_tower,
    choose_subsets,
    synth_epsilon,
    synth_kernel,
    verify_synth,
)
