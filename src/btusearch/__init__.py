"""Girth-maximum regular bipartite graph search by staged permutation
enumeration, with a brute-force oracle for validation at small sizes."""

from ._kernel import BACKEND as kernel_backend
from .btu import (
    BTU,
    GirthReport,
    adjacent_partitions,
    canonicalize_order,
    decompose_matrix,
    girth,
    in_Z,
    in_phi,
    make_btu,
    rebase,
    to_biadjacency,
)
from .engine import (
    SearchConfig,
    SearchResult,
    StageDeadEndError,
    StageTooLargeError,
    StageTrace,
    admissible_rotations,
    enumerate_Z,
    search,
)
from .oracle import (
    BudgetExceededError,
    OracleReport,
    VerifyReport,
    enumerate_btus,
    max_girth,
    phi_census,
    verify_search,
)
from .parameters import (
    AssumptionWarning,
    DegenerateFactorizationError,
    Factorization,
    OptimalPartitionSet,
    factorize,
    optimal_partitions,
    scale_partition,
)
from .perms import (
    BTUError,
    CompatibilityError,
    PartitionP2,
    Permutation,
    TooLargeError,
    circular_rotation,
    compose,
    identity,
    invert,
    is_compatible,
    scale_permutation,
    union_cycle_partition,
)
from .searchspace import (
    CandidateWord,
    CayleyStats,
    NotACandidateError,
    candidate_count,
    cayley_stats,
    enumerate_candidates,
    rank_candidate,
    unrank_candidate,
)

__version__ = "0.1.0"
