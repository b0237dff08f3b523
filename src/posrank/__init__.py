"""Position-aware CTR prediction: models, synthetic world, metrics, serving."""

from .autodiff import (
    Optimizer,
    Tensor,
    backward,
    no_grad,
)
from .data import (
    RawBehavior,
    RawImpression,
    Request,
    Vocabulary,
    build_position_behavior_sequences,
    encode_history,
    group_requests,
    read_behaviors,
    read_impressions,
    write_behaviors,
    write_impressions,
)
from .errors import (
    FormatError,
    NumericError,
    PosrankError,
    UndefinedMetricError,
    UsageError,
)
from .metrics import PaucReport, auc, pauc
from .model import (
    VARIANTS,
    ModelConfig,
    ParameterSet,
    build_model,
    load_checkpoint,
    paper_scale_config,
    predict_matrix,
    save_checkpoint,
)
from .serving import (
    Allocation,
    LatencyTable,
    allocate_request,
    benchmark_latency,
    exhaustive_allocate,
    greedy_allocate,
)
from .train import TrainConfig, TrainHistory, evaluate, train
from .world import (
    SimConfig,
    SyntheticWorld,
    examination_probability,
    generate_world,
    oracle_ctr,
    relevance_probability,
    simulate_traffic,
)

__version__ = "0.1.0"
