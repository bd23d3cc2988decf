"""Flowshop scheduling accelerated by economical auxiliary tasks and
evolutionary multitasking."""

from .auxiliary import EatSpec, MEASURES, build_eat, importance_scores
from .distance import (
    CenteredMatrix,
    DistanceResult,
    center,
    cos_theta_lower_bound,
    itdm,
    optimal_scale_shift,
    zero_pad,
)
from .emt import (
    Engine,
    EngineConfig,
    ImpTsk,
    Individual,
    RndTsk,
    RunResult,
    TaskPair,
    TracePoint,
    run,
)
from .errors import FlowmtError
from .harness import (
    CampaignConfig,
    MetricsRow,
    RunRecord,
    aggregate,
    distance_sweep,
    load_instance_file,
    parse_algorithm,
    parse_campaign_config,
    relative_error,
    run_campaign,
)
from .instance import (
    Instance,
    ProblemMatrix,
    generate_taillard,
    lower_bound,
    makespan,
    parse_instance,
    write_instance,
)
from .search import neh, solve_eat
from .transfer import (
    PATCH_STRATEGIES,
    default_key_values,
    patch,
    perm_to_vector,
    project_to_eat,
    rov_decode,
)

__version__ = "0.1.0"
