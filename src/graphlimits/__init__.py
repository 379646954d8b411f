"""Prescribed-degree random multigraphs, additive/Lipschitz/concave graph
parameters, interpolation-style inequality verifiers, and estimation of
per-vertex infinite-volume limits."""

from .config_model import (
    Bipartition,
    Matching,
    PairingCounts,
    RejectionLimitError,
    enumerate_matchings,
    enumerate_maximal_matchings,
    graph_of_matching,
    sample_simple,
    sample_uniform_graph,
)
from .degree import (
    DegreeDistribution,
    HalfEdgeSystem,
    empirical,
    sample_iid,
    sorted_l1,
    wasserstein,
)
from .graphs import (
    INDEPENDENCE,
    MAX_CUT,
    NEG_COMPONENTS,
    POS_COMPONENTS,
    CertificationReport,
    GraphParameter,
    Multigraph,
    SpinModel,
    certify_parameter,
    increment_matrix,
    independence_number,
    is_cnd,
    ising_model,
    ising_parameter,
    log_partition,
    max_cut,
    num_components,
    parameter_from_name,
    potts_model,
    potts_parameter,
    random_multigraph,
    spin_parameter,
)
from .interpolation import (
    InterpolationInstance,
    SweepSummary,
    UniformitySummary,
    check_corridor_exit,
    class_mean,
    default_corridor_width,
    expected_parameter,
    history_counts,
    penalty,
    penalty_constant,
    run_sweep,
    sweep_pairing_uniformity,
    verify_global,
    verify_lipschitz,
    verify_local_superadd,
    verify_main,
)
from .limits import (
    ConcentrationReport,
    PsiEstimate,
    Verdict,
    check_concentration,
    check_lipschitz_psi,
    check_midpoint_concavity,
    check_superadditivity,
    compare_expectations,
    concentration_bound,
    estimate_psi,
    fixed_degree_sequence,
)

__version__ = "0.1.0"
