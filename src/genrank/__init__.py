"""Exact partition rank of subspace families, with its three applications.

The core quantity is rho_c(F): the minimum over partitions of a family of
subspaces of the blockwise span dimensions, each discounted by c.  It is
computed exactly (rational or prime-field arithmetic throughout) by folding
members into a growing compressed family, one submodular minimization per
insertion.  On top of it sit deterministic rank computation for order-k
symbolic matrices, explicit bases for subspace-hyperplane intersections, and
two-dimensional generic graph rigidity.
"""

from .engine import EngineState, empty_state, insert_subspace, insertion_oracle, rho
from .errors import GenrankError, InputError, InternalInvariantError
from .fields import DEFAULT_PRIME, FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    kernel_in_subspace,
    rank,
    rref,
    sample_vector,
    span_dim,
    subspace_from_rows,
    zero_subspace,
)
from .partitions import (
    Partition,
    RhoResult,
    SubspaceFamily,
    hat_family,
    is_refinement,
    restrict_partition,
    rho_bruteforce,
    rho_of_partition,
)
from .rigidity import (
    Graph,
    RigidityReport,
    edge_subspace,
    laman_oracle,
    required_rank,
    rigidity_family,
    rigidity_randomized_rank,
    rigidity_rank_2d,
    rigidity_report,
)
from .sfm import (
    MinimizerResult,
    SubmodularOracle,
    maximality_closure,
    minimize_exhaustive,
    minimize_polynomial,
    verify_submodular,
)
from .symbolic import (
    IntersectionBasis,
    RkInstance,
    evaluate_rk_matrix,
    intersect_with_codim_k,
    intersect_with_hyperplane,
    randomized_rank,
    rk_family,
    rk_randomized_rank,
    rk_rank,
    rk_to_prime,
    split_to_planes,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME",
    "EngineState",
    "FieldSpec",
    "GenrankError",
    "Graph",
    "InputError",
    "InternalInvariantError",
    "IntersectionBasis",
    "Matrix",
    "MinimizerResult",
    "Partition",
    "RhoResult",
    "RigidityReport",
    "RkInstance",
    "SubmodularOracle",
    "Subspace",
    "SubspaceFamily",
    "edge_subspace",
    "empty_state",
    "evaluate_rk_matrix",
    "hat_family",
    "insert_subspace",
    "insertion_oracle",
    "intersect_with_codim_k",
    "intersect_with_hyperplane",
    "is_refinement",
    "kernel_in_subspace",
    "laman_oracle",
    "maximality_closure",
    "minimize_exhaustive",
    "minimize_polynomial",
    "randomized_rank",
    "rank",
    "required_rank",
    "restrict_partition",
    "rho",
    "rho_bruteforce",
    "rho_of_partition",
    "rigidity_family",
    "rigidity_randomized_rank",
    "rigidity_rank_2d",
    "rigidity_report",
    "rk_family",
    "rk_randomized_rank",
    "rk_rank",
    "rk_to_prime",
    "rref",
    "sample_vector",
    "span_dim",
    "split_to_planes",
    "subspace_from_rows",
    "verify_submodular",
    "zero_subspace",
]
