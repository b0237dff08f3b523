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
    read_tsv,
    write_tsv,
)
from .errors import (
    FormatError,
    NumericError,
    PosrankError,
    UndefinedMetricError,
    UsageError,
)
from .metrics import PaucReport, PositionAuc, auc, pauc
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
    LatencyRow,
    LatencyTable,
    allocate_request,
    benchmark_latency,
    greedy_allocate,
)
# `train` is left unbound here, so `posrank.train` names the submodule
from .train import EpochStats, GradNorm, TrainConfig, TrainHistory, evaluate
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
