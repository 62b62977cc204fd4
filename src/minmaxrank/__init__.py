"""Multiclass minmax rank aggregation under Kendall tau and footrule distances."""

from .rankings import (
    Instance,
    PartialRanking,
    Permutation,
    RankingClass,
    RankingError,
)
from .distances import (
    DistanceError,
    DistanceKind,
    SetDistanceKind,
    distance,
    minmax_objective,
    set_distance,
)
from .lp import (
    FractionalSolution,
    LinearProgram,
    SolverError,
    build_footrule_program,
    build_kendall_lp,
    solve,
    tie_mass,
)
from .aggregators import (
    AggregationResult,
    PivotScore,
    max_weight_members,
    median_footrule_matching_baseline,
    median_pivot_baseline,
    min_mmkt_conv,
    min_mmsp_conv,
    min_pick_perm,
    mmkt_conv,
    mmsp_conv,
    pick_opt_perm,
    pick_rnd_perm,
    pivot_rounding,
    restrict_to_min_witnesses,
)
from .exact import OptimalSolution, TooLarge, brute_force, lp_gap, relaxation_gap
from .mallows import TwoLevelConfig, sample_instance, sample_mallows

__version__ = "0.1.0"

__all__ = [
    "AggregationResult",
    "DistanceError",
    "DistanceKind",
    "FractionalSolution",
    "Instance",
    "LinearProgram",
    "OptimalSolution",
    "PartialRanking",
    "Permutation",
    "PivotScore",
    "RankingClass",
    "RankingError",
    "SetDistanceKind",
    "SolverError",
    "TooLarge",
    "TwoLevelConfig",
    "brute_force",
    "build_footrule_program",
    "build_kendall_lp",
    "distance",
    "lp_gap",
    "max_weight_members",
    "median_footrule_matching_baseline",
    "median_pivot_baseline",
    "min_mmkt_conv",
    "min_mmsp_conv",
    "min_pick_perm",
    "minmax_objective",
    "mmkt_conv",
    "mmsp_conv",
    "pick_opt_perm",
    "pick_rnd_perm",
    "pivot_rounding",
    "relaxation_gap",
    "restrict_to_min_witnesses",
    "sample_instance",
    "sample_mallows",
    "set_distance",
    "solve",
    "tie_mass",
]
