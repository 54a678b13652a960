"""Desk-scale laboratory for self-verifying world models."""

__version__ = "0.1.0"

from .gridworld import (  # noqa: F401
    Action,
    AgentState,
    Color,
    Encoder,
    GridObject,
    GridState,
    ObjectKind,
    changed_elements,
    generate_layout,
    step,
)
from .datasets import (  # noqa: F401
    CompositionTable,
    EnvConfig,
    ExperimentSplit,
    LabeledTransition,
    SplitConfig,
    UnlabeledTransition,
    apply_composition_filter,
    build_split,
    collect_random_play,
    default_composition_table,
    reveal_action,
)
from .models import (  # noqa: F401
    Ensemble,
    InverseModel,
    TrainConfig,
    WorldModel,
    train_ensemble,
    train_idm,
    train_world_model,
)
from .metrics import dynamics_accuracy, kendall, prediction_loss, spearman  # noqa: F401
from .verify import (  # noqa: F401
    AcquisitionScore,
    ExplorationConfig,
    ModelSet,
    RoundLog,
    baseline_scores,
    run_exploration,
    score_candidates,
)
from .theory import (  # noqa: F401
    GapReport,
    LinearGaussianSpec,
    lemma_excess_risk,
    measure_gap,
    ols_fit,
    sweep_gap,
)
from .tlcm import TlcmReport, TlcmSpec, default_tlcm, tlcm_demo  # noqa: F401
