"""Catalan-family posets: noncrossing partitions, 132-avoiding permutations,
a linear-scan bijection between them, and two graded partial orders (one by
descent sets on permutations, one by refinement on partitions) together with
machinery to verify their structure exhaustively at small sizes.

The names below are the library surface; every other public name is
imported from its own module.
"""

from .antichains import chain_cover_profile, max_antichain
from .bijection import ncp_to_perm, perm_to_ncp
from .census import census_to_csv, count_by_descent_set
from .errors import CapacityError
from .partitions import SetPartition, enumerate_ncp, format_partition, parse_partition
from .permutations import enumerate_av132, format_permutation, parse_permutation
from .poset import (
    GradedPoset,
    build_descent_poset,
    build_refinement_poset,
    poset_to_dot,
    poset_to_json,
)
from .verify import (
    VerificationReport,
    check_coarsening,
    check_self_duality,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "GradedPoset",
    "SetPartition",
    "VerificationReport",
    "build_descent_poset",
    "build_refinement_poset",
    "census_to_csv",
    "chain_cover_profile",
    "check_coarsening",
    "check_self_duality",
    "count_by_descent_set",
    "enumerate_av132",
    "enumerate_ncp",
    "format_partition",
    "format_permutation",
    "max_antichain",
    "ncp_to_perm",
    "parse_partition",
    "parse_permutation",
    "perm_to_ncp",
    "poset_to_dot",
    "poset_to_json",
    "run_checks",
]
