"""Constructive witnesses for sums of products of congruence classes and
arithmetic progressions, with exhaustive small-parameter oracles for every claim.
"""

from .classes import (
    CongruenceClass,
    Progression,
    dilate,
    product_class_contains,
    progression_product_contains,
)
from .core_arith import (
    ExtGcd,
    ext_gcd,
    is_prime,
    solve_linear3,
    sylvester_nonneg,
)
from .iterated import (
    IteratedResult,
    IteratedSpec,
    IteratedWitness,
    solve_iterated,
    verify_iterated,
)
from .oracle import (
    GridReport,
    SearchBox,
    StrictnessReport,
    grid_verify_theorem,
    iterated_member_search,
    oracle_member_class,
    oracle_member_progression,
    progression_sums_mask,
    strictness_demo,
)
from .progressions import (
    ProgressionResult,
    ThresholdReport,
    exceptional_set,
    solve_progression,
    threshold_N0,
)
from .witness import (
    Instance,
    InternalInvariantError,
    SubgroupWitness,
    Witness,
    WitnessTrace,
    lemma_lift,
    solve_class,
    solve_dilated,
    subgroup_witness,
    validate_trace,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceClass",
    "Progression",
    "product_class_contains",
    "progression_product_contains",
    "dilate",
    "ExtGcd",
    "ext_gcd",
    "is_prime",
    "solve_linear3",
    "sylvester_nonneg",
    "Instance",
    "Witness",
    "WitnessTrace",
    "SubgroupWitness",
    "InternalInvariantError",
    "lemma_lift",
    "solve_class",
    "solve_dilated",
    "subgroup_witness",
    "verify_witness",
    "validate_trace",
    "ThresholdReport",
    "ProgressionResult",
    "threshold_N0",
    "solve_progression",
    "exceptional_set",
    "IteratedSpec",
    "IteratedWitness",
    "IteratedResult",
    "solve_iterated",
    "verify_iterated",
    "SearchBox",
    "GridReport",
    "StrictnessReport",
    "oracle_member_class",
    "oracle_member_progression",
    "progression_sums_mask",
    "iterated_member_search",
    "grid_verify_theorem",
    "strictness_demo",
    "__version__",
]
