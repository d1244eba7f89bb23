"""satscope: an instrumented CDCL SAT solver for studying branching behavior
against community structure and temporal graph centrality."""

from .branching import (
    ActivityTable,
    AdaptVsidsHeuristic,
    CvsidsHeuristic,
    MvsidsHeuristic,
    RandomHeuristic,
    make_heuristic,
    normalized_vsids,
    normalized_vsids_recursive,
)
from .centrality import CentralityVector, degree_centrality, eigenvector_centrality
from .cnf import (
    Clause,
    DimacsError,
    Formula,
    parse_dimacs,
    parse_dimacs_file,
    write_dimacs,
    write_dimacs_file,
)
from .community import (
    CommunityAssignment,
    LouvainTimeout,
    bridge_variables,
    louvain,
    modularity,
    read_community_file,
    write_community_file,
)
from .generator import PlantedConfig, gen_planted_community, gen_random_ksat
from .graph import Tvig, build_vig
from .harness import (
    ExperimentReport,
    Instance,
    InstanceRecord,
    RunPlan,
    RunStore,
    emit_report,
    load_instances,
    run_experiment,
    write_cactus_csv,
)
from .metrics import (
    CorrelationSample,
    FocusCounters,
    bridge_percentages,
    fisher_mean,
    gini,
    pearson,
    spatial_score,
    spearman,
    temporal_score,
    top_k,
)
from .solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    ConflictAnalysis,
    InstrumentationHooks,
    SatResult,
    Solver,
    SolverConfig,
    SolverInternalError,
    SolverStats,
    luby,
    propagate_closure,
    solve,
)

__version__ = "0.1.0"
