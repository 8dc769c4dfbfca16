"""Exact combinatorics of multiset Stirling permutations.

The package enumerates Stirling permutations, maps them to increasing
plane trees, acts on the trees by local flips, and builds the associated
three-variable Eulerian polynomials and their partial gamma-expansions by
several independent routes (direct counting, grammar derivatives, basis
extraction), together with a harness that checks the routes against each
other over whole families of multisets.
"""

from .action import (
    BalanceReport,
    BalanceStatus,
    PrunedTree,
    balance_report,
    canonical_representative,
    enumerate_canonical,
    is_canonical,
    is_canonical_ternary,
    orbit,
    prune,
    psi,
    serialize_pruned,
    toggle,
)
from .counts import (
    GAMMA_ROUTES,
    c_polynomial_enum,
    gamma_count_mma,
    gamma_count_perms,
    gamma_count_ternary,
    gamma_count_trees,
)
from .errors import (
    DomainError,
    FamilyTooLargeError,
    GammaExtractionError,
    NotCanonicalError,
    OrbitTooLargeError,
    ParseError,
    TreeValidationError,
)
from .grammar import (
    GrammarRuleSet,
    c_polynomial_grammar,
    change_of_variables_check,
    derive,
    derive_chain,
    gamma_polynomial_grammar,
    substitute_uv,
    uvz_rules,
    xyz_rules,
)
from .harness import (
    CHECKS,
    CampaignReport,
    FamilySpec,
    default_campaign_family,
    family_cost,
    golden_examples,
    run_campaign,
    verify,
)
from .multiset import Multiset
from .poly import (
    UVZ,
    XYZ,
    GammaTable,
    Poly3,
    gamma_extract,
    gamma_reconstruct,
    gamma_table_from_uvz,
    gamma_table_to_uvz,
    is_symmetric,
)
from .stirling import (
    StatProfile,
    StirlingPermutation,
    asc_des_plat,
    count_stirling,
    enumerate_stirling,
    is_stirling,
    parse_word,
    statistics,
    stirling_words,
)
from .trees import (
    GesselTree,
    LeafCensus,
    first_last_occurrence_flags,
    gessel_decomposition,
    gessel_forward,
    gessel_inverse,
    leaf_census,
    parse_tree,
    segment,
    segment_word,
    serialize,
    validate_tree,
)

__version__ = "0.1.0"
