"""Exact constrained quantization of the Cantor distribution.

Builds the optimal n-point codebooks on the family of line constraints
S_j = {(x, x + 1/j) : -1/j <= x <= 1}, evaluates every error quantity in
exact rational arithmetic, and verifies the closed forms with independent
search oracles (Lloyd iteration and an exact dynamic program).
"""

from .asymptotics import (
    AsymptoticSample,
    dimension_sequence,
    sample_at,
)
from .closedform import (
    V_INFINITY,
    a_term,
    admissible_split_sets,
    build_alpha,
    canonical_split_set,
    count_optimal_sets,
    level_of,
    quantization_error,
    unconstrained_error,
)
from .constraint import (
    ConstraintPoint,
    PointSet,
    feasible_window,
    foot_point,
    rho,
    u_forward,
    u_inverse,
)
from .measure import (
    MEAN,
    VARIANCE,
    Word,
    apply_map,
    centroid,
    centroid_numerators,
    partial_moments,
    words,
)
from .oracle import (
    EmptyCellError,
    OracleError,
    cell_measures,
    dp_optimal_upto,
    exact_distortion,
    lloyd_step,
)

__version__ = "0.1.0"
