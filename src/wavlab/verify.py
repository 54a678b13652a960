"""Acquisition scoring and the multi-round exploration loop.

The reverse-cycle score chains subgoal proposal, action inference, and a
forward rollout, then measures the disagreement between the proposed and
predicted successors. Pool mode (the primary mode) uses each candidate's
observed successor as the on-manifold subgoal; env mode samples K subgoals
from the generator and keeps the most surprising one.

Baselines: random, ensemble-disagreement uncertainty, learning progress,
and the oracle family, which is the only code allowed to read hidden pool
labels. Uncertainty and progress need an action for unlabeled candidates
and use the vanilla inverse model's argmax, which keeps them label-free.
:func:`score_candidates` maps every strategy to its scores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Collection, Mapping, Optional, Sequence

import numpy as np

from .datasets import (
    ExperimentSplit,
    LabeledTransition,
    UnlabeledTransition,
    peek_hidden_action,
    reveal_action,
    stack_labeled,
)
from .errors import ConfigError, MetricUndefinedError, PoolExhaustedError
from .gridworld import Action, Encoder
from .metrics import dynamics_accuracy, kendall, prediction_loss, spearman
from .models import (
    DEFAULT_IDM_HYPER,
    DEFAULT_WM_HYPER,
    Ensemble,
    InverseModel,
    SubgoalGenerator,
    TrainConfig,
    WorldModel,
    _per_item_ce,
    disagreement_batch,
    sample_subgoals,
    train_ensemble,
    train_idm,
    train_world_model,
)

__all__ = [
    "AcquisitionScore",
    "RoundLog",
    "ModelSet",
    "ExplorationConfig",
    "STRATEGIES",
    "CONSULTED_MODELS",
    "group_distance",
    "wav_score_pool",
    "wav_score_env",
    "baseline_scores",
    "select_top",
    "run_exploration",
    "score_candidates",
    "train_models",
    "DEFAULT_DISTANCE",
]

STRATEGIES = (
    "random",
    "uncertainty",
    "progress",
    "oracle",
    "oracle-easy",
    "oracle-uniform",
    "wav-vanilla",
    "wav-sparse",
)

_WAV_STRATEGIES = ("wav-vanilla", "wav-sparse")

# The ModelSet fields each strategy consults besides the world model, which
# every strategy's round needs (it is evaluated, and it scores the oracle
# reference). :func:`train_models` trains exactly these.
CONSULTED_MODELS = {
    "uncertainty": ("idm_vanilla", "ensemble"),
    "progress": ("idm_vanilla",),
    "wav-vanilla": ("idm_vanilla",),
    "wav-sparse": ("idm_sparse",),
}


@dataclass(frozen=True)
class AcquisitionScore:
    """Estimated informativeness of one candidate; higher means acquire first."""

    candidate_id: int
    strategy: str
    score: float
    round: int = 0


@dataclass
class RoundLog:
    round: int
    acquired_ids: list[int]
    pre_test_loss: float
    post_test_loss: float
    pre_dynamics_accuracy: float
    post_dynamics_accuracy: float
    scores: list[AcquisitionScore] = field(default_factory=list)
    spearman_vs_oracle: float = float("nan")
    kendall_vs_oracle: float = float("nan")
    wall_time_s: float = 0.0


@dataclass
class ModelSet:
    """Trained models a strategy may consult."""

    world: WorldModel
    idm_vanilla: Optional[InverseModel] = None
    idm_sparse: Optional[InverseModel] = None
    ensemble: Optional[Ensemble] = None
    prev_candidate_losses: Optional[dict[int, float]] = None


def group_distance(encoder: Encoder, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of one-hot groups whose argmax differs between x and y."""
    return float(_group_distance_batch(encoder, np.atleast_2d(x), np.atleast_2d(y))[0])


def _group_distance_batch(encoder: Encoder, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    mismatch = (encoder.group_argmax(X) != encoder.group_argmax(Y)).sum(axis=1)
    return mismatch / encoder.n_groups


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


DISTANCES = ("group-mismatch", "cross-entropy")
# The cross-entropy form is what the experiments use: unpredictable noise
# groups contribute a near constant to it instead of per-candidate mismatch
# noise.
DEFAULT_DISTANCE = "cross-entropy"


def wav_score_pool(
    wm: WorldModel,
    idm: InverseModel,
    candidate: UnlabeledTransition,
    round: int = 0,
    strategy: str = "wav-sparse",
    distance: str = DEFAULT_DISTANCE,
) -> AcquisitionScore:
    """Reverse-cycle score with the candidate's observed successor as subgoal.

    ``distance`` picks the discrepancy: the fraction of disagreeing one-hot
    groups (bounded, equal-weighted) or the mean per-group cross-entropy of
    the subgoal under the predicted distributions.
    """
    scores, _ = _wav_scores(wm, idm, *_candidate_matrices([candidate]), distance)
    return AcquisitionScore(
        candidate_id=candidate.tid, strategy=strategy, score=float(scores[0]), round=round
    )


def _subgoal_distance(
    wm: WorldModel, probs: np.ndarray, subgoals: np.ndarray, distance: str
) -> np.ndarray:
    if distance == "group-mismatch":
        predicted = wm.argmax_features(probs)
        return _group_distance_batch(wm.encoder, subgoals, predicted)
    if distance == "cross-entropy":
        return _per_item_ce(probs, subgoals, wm.encoder.n_groups)
    raise ConfigError(f"unknown distance {distance!r}; known: {DISTANCES}")


def _wav_scores(
    wm: WorldModel, idm: InverseModel, S: np.ndarray, G: np.ndarray, distance: str
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-cycle scores and inferred actions for states ``S`` and subgoals ``G``."""
    actions, _ = idm.infer_batch(S, G)
    probs = wm.predict_proba(S, actions)
    return _subgoal_distance(wm, probs, G, distance), actions


def wav_score_env(
    wm: WorldModel,
    idm: InverseModel,
    gen: SubgoalGenerator,
    s_features: np.ndarray,
    K: int,
    rng: np.random.Generator,
    round: int = 0,
    strategy: str = "wav-sparse",
    distance: str = DEFAULT_DISTANCE,
) -> tuple[AcquisitionScore, Action]:
    """Reverse-cycle score over K sampled subgoals; returns the most surprising.

    Ties between subgoals break to the lowest index.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    subgoals = sample_subgoals(gen, s_features, K, rng)
    S = np.tile(np.asarray(s_features), (K, 1))
    scores, actions = _wav_scores(wm, idm, S, np.stack(subgoals), distance)
    best = int(np.argmax(scores))
    score = AcquisitionScore(
        candidate_id=-1, strategy=strategy, score=float(scores[best]), round=round
    )
    return score, Action(int(actions[best]))


def _candidate_matrices(candidates: Sequence[UnlabeledTransition]):
    S = np.stack([c.features for c in candidates])
    S2 = np.stack([c.next_features for c in candidates])
    return S, S2


def _label_free_losses(
    wm: WorldModel, idm: InverseModel, candidates: Sequence[UnlabeledTransition]
) -> np.ndarray:
    """Candidate loss with the vanilla inverse model standing in for the label."""
    S, S2 = _candidate_matrices(candidates)
    actions, _ = idm.infer_batch(S, S2)
    return wm.per_item_loss(S, actions, S2)


def _oracle_uniform_scores(losses: np.ndarray, intervals: int) -> np.ndarray:
    """High score for the top-loss candidate of each equal-width loss interval."""
    lo, hi = float(losses.min()), float(losses.max())
    width = (hi - lo) / intervals if hi > lo else 1.0
    bins = np.minimum(((losses - lo) / width).astype(int), intervals - 1)
    span = hi - lo if hi > lo else 1.0
    scores = (losses - lo) / span  # tie-break inside and across intervals by loss
    for b in range(intervals):
        members = np.flatnonzero(bins == b)
        if len(members):
            top = members[np.argmax(losses[members])]
            scores[top] += span + 1.0  # lift interval winners above everyone else
    return scores


def score_candidates(
    strategy: str,
    models: ModelSet,
    candidates: Sequence[UnlabeledTransition],
    rng: Optional[np.random.Generator] = None,
    intervals: Optional[int] = None,
    distance: str = DEFAULT_DISTANCE,
) -> np.ndarray:
    """One score per candidate under ``strategy``; higher means acquire first.

    random      iid uniform draws (needs rng)
    uncertainty ensemble disagreement at the vanilla-inferred action
    progress    previous-round loss minus current loss per candidate
    oracle      true prediction loss from hidden labels (upper bound)
    oracle-easy negated oracle
    oracle-uniform  per-interval top oracle picks, `intervals` bins
    wav-vanilla, wav-sparse  reverse-cycle score under ``distance`` with the
                named inverse model and the candidate's successor as subgoal
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; known: {STRATEGIES}")
    if not candidates:
        return np.empty(0)
    if strategy == "random":
        if rng is None:
            raise ConfigError("random scoring needs a generator")
        return rng.uniform(size=len(candidates))
    if strategy == "progress":
        if models.prev_candidate_losses is None:
            raise ConfigError("progress scoring needs previous-round losses")
        if models.idm_vanilla is None:
            raise ConfigError("progress scoring needs a vanilla idm")
        current = _label_free_losses(models.world, models.idm_vanilla, candidates)
        prev = models.prev_candidate_losses
        missing = [c.tid for c in candidates if c.tid not in prev]
        if missing:
            raise ConfigError(f"progress has no previous loss for ids {missing[:5]}")
        return np.asarray([prev[c.tid] for c in candidates]) - current
    S, S2 = _candidate_matrices(candidates)
    if strategy in _WAV_STRATEGIES:
        idm = models.idm_sparse if strategy == "wav-sparse" else models.idm_vanilla
        if idm is None:
            raise ConfigError(f"{strategy} scoring needs its inverse model")
        return _wav_scores(models.world, idm, S, S2, distance)[0]
    if strategy == "uncertainty":
        if models.ensemble is None or models.idm_vanilla is None:
            raise ConfigError("uncertainty scoring needs an ensemble and a vanilla idm")
        actions, _ = models.idm_vanilla.infer_batch(S, S2)
        return disagreement_batch(models.ensemble, S, actions)
    # The oracle family is the only code that reads the hidden labels.
    losses = models.world.per_item_loss(
        S, [int(peek_hidden_action(c)) for c in candidates], S2
    )
    if strategy == "oracle":
        return losses
    if strategy == "oracle-easy":
        return -losses
    if intervals is None or intervals < 1:
        raise ConfigError("oracle-uniform needs a positive interval count")
    return _oracle_uniform_scores(losses, intervals)


def _as_scores(
    strategy: str, candidates: Sequence[UnlabeledTransition], values: np.ndarray, round: int
) -> list[AcquisitionScore]:
    return [
        AcquisitionScore(candidate_id=c.tid, strategy=strategy, score=float(v), round=round)
        for c, v in zip(candidates, values)
    ]


def baseline_scores(
    strategy: str,
    models: ModelSet,
    candidates: Sequence[UnlabeledTransition],
    rng: Optional[np.random.Generator] = None,
    round: int = 0,
    intervals: Optional[int] = None,
) -> list[AcquisitionScore]:
    """:func:`score_candidates` as one :class:`AcquisitionScore` per candidate."""
    values = score_candidates(strategy, models, candidates, rng=rng, intervals=intervals)
    return _as_scores(strategy, candidates, values, round)


def select_top(scores: Sequence[AcquisitionScore], budget: int) -> list[int]:
    """Candidate ids of the `budget` highest scores; ties break to lower id."""
    ranked = sorted(scores, key=lambda s: (-s.score, s.candidate_id))
    return [s.candidate_id for s in ranked[:budget]]


# ---------------------------------------------------------------------------
# Exploration loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorationConfig:
    rounds: int = 3
    budget: int = 100
    ensemble_size: int = 3
    sparsity_weight: float = 0.1
    distance: str = DEFAULT_DISTANCE
    wm_hyper: TrainConfig = field(default_factory=lambda: DEFAULT_WM_HYPER)
    idm_hyper: TrainConfig = field(default_factory=lambda: DEFAULT_IDM_HYPER)


def train_models(
    consulted: Collection[str],
    labeled: Sequence[LabeledTransition],
    encoder: Encoder,
    config: ExplorationConfig,
    rngs: Mapping[str, np.random.Generator],
) -> ModelSet:
    """The world model plus each ``consulted`` :class:`ModelSet` field.

    ``rngs`` maps ``"world"`` and every consulted field to the generator
    its model trains on.
    """
    models = ModelSet(
        world=train_world_model(labeled, encoder, hyper=config.wm_hyper, rng=rngs["world"])
    )
    if "idm_vanilla" in consulted:
        models.idm_vanilla = train_idm(
            labeled, 0.0, hyper=config.idm_hyper, rng=rngs["idm_vanilla"], encoder=encoder
        )
    if "idm_sparse" in consulted:
        models.idm_sparse = train_idm(
            labeled,
            config.sparsity_weight,
            hyper=config.idm_hyper,
            rng=rngs["idm_sparse"],
            encoder=encoder,
        )
    if "ensemble" in consulted:
        models.ensemble = train_ensemble(
            labeled, encoder, config.ensemble_size, hyper=config.wm_hyper, rng=rngs["ensemble"]
        )
    return models


def _strategy_scores(
    strategy: str,
    models: ModelSet,
    candidates: Sequence[UnlabeledTransition],
    config: ExplorationConfig,
    rng: np.random.Generator,
    round: int,
) -> list[AcquisitionScore]:
    # Progress has no previous round to compare against in round 1, so it
    # scores randomly there; oracle-uniform takes one interval per acquired
    # sample.
    first_progress = strategy == "progress" and models.prev_candidate_losses is None
    values = score_candidates(
        "random" if first_progress else strategy, models, candidates,
        rng=rng, intervals=config.budget, distance=config.distance,
    )
    return _as_scores(strategy, candidates, values, round)


def _evaluate(wm: WorldModel, test: Sequence[LabeledTransition]) -> tuple[float, float]:
    loss = prediction_loss(wm, test)
    feats, actions, _ = stack_labeled(test)
    classes = wm.encoder.group_argmax(wm.predict_proba(feats, actions))
    predictions = [wm.encoder.decode_classes(row) for row in classes.tolist()]
    accuracy = dynamics_accuracy(
        predictions, [t.next_state for t in test], [t.state for t in test]
    )
    return loss, accuracy


def _rank_vs_oracle(
    scores: Sequence[AcquisitionScore], oracle_scores: Sequence[AcquisitionScore]
) -> tuple[float, float]:
    x = [s.score for s in scores]
    y = [s.score for s in oracle_scores]
    try:
        return spearman(x, y), kendall(x, y)
    except MetricUndefinedError:
        return float("nan"), float("nan")


def run_exploration(
    split: ExperimentSplit,
    strategy: str,
    config: ExplorationConfig,
    rng: np.random.Generator,
    on_models=None,
) -> list[RoundLog]:
    """Score, acquire, retrain, and evaluate for the configured rounds.

    The split's pool ledger is mutated; total reveals equal rounds * budget.
    ``on_models(round_no, models)`` is invoked after every retrain, which is
    where checkpointing hooks in.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; known: {STRATEGIES}")
    pool = split.pool
    unrevealed = pool.unrevealed_indices()
    if len(unrevealed) < config.rounds * config.budget:
        raise PoolExhaustedError(
            f"{config.rounds} rounds x {config.budget} budget need "
            f"{config.rounds * config.budget} candidates; pool has {len(unrevealed)} unrevealed"
        )
    index_of = {pool.items[i].tid: i for i in range(len(pool.items))}
    labeled = list(split.seed_labeled)
    encoder = split.encoder()

    def retrain() -> ModelSet:
        # Both inverse models share one generator; no strategy consults both.
        wm_rng, idm_rng, ens_rng = rng.spawn(1)[0].spawn(3)
        rngs = {"world": wm_rng, "idm_vanilla": idm_rng, "idm_sparse": idm_rng,
                "ensemble": ens_rng}
        return train_models(CONSULTED_MODELS.get(strategy, ()), labeled, encoder, config, rngs)

    models = retrain()
    test_loss, test_acc = _evaluate(models.world, split.test)

    logs: list[RoundLog] = []
    for round_no in range(1, config.rounds + 1):
        started = time.perf_counter()
        candidates = [pool.items[i] for i in pool.unrevealed_indices()]
        scores: list[AcquisitionScore] = []
        acquired: list[int] = []
        spear = kend = float("nan")
        if config.budget > 0:
            score_rng = rng.spawn(1)[0]
            scores = _strategy_scores(strategy, models, candidates, config, score_rng, round_no)
            # The oracle strategy's scores are the reference itself.
            oracle_ref = scores if strategy == "oracle" else baseline_scores(
                "oracle", models, candidates, round=round_no
            )
            spear, kend = _rank_vs_oracle(scores, oracle_ref)
            acquired = select_top(scores, config.budget)
            for tid in acquired:
                labeled.append(reveal_action(pool, index_of[tid]))
        pre_loss, pre_acc = test_loss, test_acc
        if acquired:
            models = retrain()
            if strategy == "progress":
                remaining = [pool.items[i] for i in pool.unrevealed_indices()]
                losses = _label_free_losses(models.world, models.idm_vanilla, remaining)
                models.prev_candidate_losses = {
                    c.tid: float(v) for c, v in zip(remaining, losses)
                }
            test_loss, test_acc = _evaluate(models.world, split.test)
            if on_models is not None:
                on_models(round_no, models)
        logs.append(
            RoundLog(
                round=round_no,
                acquired_ids=acquired,
                pre_test_loss=pre_loss,
                post_test_loss=test_loss,
                pre_dynamics_accuracy=pre_acc,
                post_dynamics_accuracy=test_acc,
                scores=scores,
                spearman_vs_oracle=spear,
                kendall_vs_oracle=kend,
                wall_time_s=time.perf_counter() - started,
            )
        )
    return logs
