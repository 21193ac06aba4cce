"""Hypergroups from pointed-graph random walks, open quantum random walks on
distance sets, realization of structure constants as walks, and the
block-decomposition condition tying walk distributions to algebra folds."""

from .errors import (
    AmbiguousInvolutionError,
    BoundaryContactError,
    ConditionSViolatedError,
    DisconnectedGraphError,
    EmptySphereError,
    FormatError,
    HypergroupAxiomError,
    HyperwalkError,
    InvolutionError,
    NoCandidateError,
    NotAGroupError,
    NotInvolutiveError,
    TruncationExceededError,
)
from .graphs import (
    PointedGraph,
    SphereTable,
    TransitionMatrixFamily,
    build_spheres,
    check_condition_s,
    check_distance_regular,
    complete_graph,
    cycle_graph,
    free_ball_graph,
    hypercube_graph,
    line_window_graph,
    path_graph,
    path_sum_distribution,
    pointed_graph,
    transition_family,
    wildberger_tensor,
)
from .hypergroups import (
    EPS_ASSOC,
    EPS_PROB,
    Hypergroup,
    StructureTensor,
    ValidationReport,
    check_isomorphism,
    derive_involution,
    hypergroup_from_group,
    identity_permutation,
    multi_constants,
    structure_tensor,
    tensor_difference,
    validate_hypergroup,
)
from .oqrw import (
    EPS_HB,
    EPS_KRAUS,
    EPS_PSD,
    BlockState,
    IndependenceVerdict,
    KrausFamily,
    block_state,
    check_hb,
    check_linear_independence,
    distribution,
    kraus_family,
    maximally_mixed_state,
    mixture_distribution,
    point_state,
    produced_tensor,
    realize,
    scalar_isometry_defect,
    state_from_density,
    step,
    validate_kraus,
    walk_distribution,
)
from .report import Report
from .verify import (
    random_block_state,
    random_kraus_family,
    random_unitary,
    spanning_states,
    verify_corollary_2_6,
    verify_roundtrip,
    verify_theorem_2_4,
    verify_theorem_5_1,
)

__version__ = "0.1.0"
