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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .datasets import (
    ExperimentSplit,
    ExplorationPool,
    LabeledTransition,
    UnlabeledTransition,
    peek_hidden_action,
    reveal_action,
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
    disagreement_batch,
    fit_subgoal_generator,
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
    "group_distance",
    "wav_score_pool",
    "wav_score_env",
    "baseline_scores",
    "select_top",
    "run_exploration",
    "score_vs_error_table",
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
_ORACLE_STRATEGIES = ("oracle", "oracle-easy", "oracle-uniform")


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
    subgoal: Optional[SubgoalGenerator] = None
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


def wav_score_pool(
    wm: WorldModel,
    idm: InverseModel,
    candidate: UnlabeledTransition,
    round: int = 0,
    strategy: str = "wav-sparse",
    distance: str = "group-mismatch",
) -> AcquisitionScore:
    """Reverse-cycle score with the candidate's observed successor as subgoal.

    ``distance`` picks the discrepancy: the fraction of disagreeing one-hot
    groups (bounded, equal-weighted) or the mean per-group cross-entropy of
    the subgoal under the predicted distributions. The cross-entropy form is
    what the experiments use: unpredictable noise groups contribute a near
    constant to it instead of per-candidate mismatch noise.
    """
    scores = _wav_scores_batch(wm, idm, [candidate], distance)
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
        from .models import _per_item_ce

        return _per_item_ce(probs, subgoals, wm.encoder.n_groups)
    raise ConfigError(f"unknown distance {distance!r}; known: {DISTANCES}")


def _wav_scores_batch(
    wm: WorldModel,
    idm: InverseModel,
    candidates: Sequence[UnlabeledTransition],
    distance: str = "group-mismatch",
) -> np.ndarray:
    S = np.stack([c.features for c in candidates])
    S2 = np.stack([c.next_features for c in candidates])
    actions, _ = idm.infer_batch(S, S2)
    probs = wm.predict_proba(S, actions)
    return _subgoal_distance(wm, probs, S2, distance)


def wav_score_env(
    wm: WorldModel,
    idm: InverseModel,
    gen: SubgoalGenerator,
    s_features: np.ndarray,
    K: int,
    rng: np.random.Generator,
    round: int = 0,
    strategy: str = "wav-sparse",
    distance: str = "group-mismatch",
) -> tuple[AcquisitionScore, Action]:
    """Reverse-cycle score over K sampled subgoals; returns the most surprising.

    Ties between subgoals break to the lowest index.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    subgoals = sample_subgoals(gen, s_features, K, rng)
    S = np.tile(np.asarray(s_features), (K, 1))
    G = np.stack(subgoals)
    actions, _ = idm.infer_batch(S, G)
    probs = wm.predict_proba(S, actions)
    scores = _subgoal_distance(wm, probs, G, distance)
    best = int(np.argmax(scores))
    score = AcquisitionScore(
        candidate_id=-1, strategy=strategy, score=float(scores[best]), round=round
    )
    return score, Action(int(actions[best]))


def _candidate_matrices(candidates: Sequence[UnlabeledTransition]):
    S = np.stack([c.features for c in candidates])
    S2 = np.stack([c.next_features for c in candidates])
    return S, S2


def _true_losses(wm: WorldModel, candidates: Sequence[UnlabeledTransition]) -> np.ndarray:
    """Prediction loss under the hidden ground-truth actions (oracle only)."""
    S, S2 = _candidate_matrices(candidates)
    actions = [int(peek_hidden_action(c)) for c in candidates]
    return wm.per_item_loss(S, actions, S2)


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


def baseline_scores(
    strategy: str,
    models: ModelSet,
    candidates: Sequence[UnlabeledTransition],
    rng: Optional[np.random.Generator] = None,
    round: int = 0,
    intervals: Optional[int] = None,
) -> list[AcquisitionScore]:
    """Scores for one of the non-cycle strategies.

    random      iid uniform draws (needs rng)
    uncertainty ensemble disagreement at the vanilla-inferred action
    progress    previous-round loss minus current loss per candidate
    oracle      true prediction loss from hidden labels (upper bound)
    oracle-easy negated oracle
    oracle-uniform  per-interval top oracle picks, `intervals` bins
    """
    if not candidates:
        return []
    if strategy == "random":
        if rng is None:
            raise ConfigError("random scoring needs a generator")
        values = rng.uniform(size=len(candidates))
    elif strategy == "uncertainty":
        if models.ensemble is None or models.idm_vanilla is None:
            raise ConfigError("uncertainty scoring needs an ensemble and a vanilla idm")
        S, S2 = _candidate_matrices(candidates)
        actions, _ = models.idm_vanilla.infer_batch(S, S2)
        values = disagreement_batch(models.ensemble, S, actions)
    elif strategy == "progress":
        if models.prev_candidate_losses is None:
            raise ConfigError("progress scoring needs previous-round losses")
        if models.idm_vanilla is None:
            raise ConfigError("progress scoring needs a vanilla idm")
        current = _label_free_losses(models.world, models.idm_vanilla, candidates)
        prev = models.prev_candidate_losses
        missing = [c.tid for c in candidates if c.tid not in prev]
        if missing:
            raise ConfigError(f"progress has no previous loss for ids {missing[:5]}")
        values = np.asarray([prev[c.tid] for c in candidates]) - current
    elif strategy in _ORACLE_STRATEGIES:
        losses = _true_losses(models.world, candidates)
        if strategy == "oracle":
            values = losses
        elif strategy == "oracle-easy":
            values = -losses
        else:
            if intervals is None or intervals < 1:
                raise ConfigError("oracle-uniform needs a positive interval count")
            values = _oracle_uniform_scores(losses, intervals)
    else:
        raise ConfigError(f"unknown baseline strategy {strategy!r}")
    return [
        AcquisitionScore(candidate_id=c.tid, strategy=strategy, score=float(v), round=round)
        for c, v in zip(candidates, values)
    ]


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
    subgoal_candidates: int = 4
    ensemble_size: int = 3
    ensemble_bootstrap: bool = True
    sparsity_weight: float = 0.1
    distance: str = "cross-entropy"
    wm_hyper: TrainConfig = field(default_factory=lambda: DEFAULT_WM_HYPER)
    idm_hyper: TrainConfig = field(default_factory=lambda: DEFAULT_IDM_HYPER)
    oracle_uniform_intervals: Optional[int] = None  # None: one per acquired sample


def _train_models(
    strategy: str,
    labeled: Sequence[LabeledTransition],
    split: ExperimentSplit,
    config: ExplorationConfig,
    rng: np.random.Generator,
) -> ModelSet:
    encoder = split.encoder()
    wm_rng, idm_rng, ens_rng = rng.spawn(3)
    models = ModelSet(
        world=train_world_model(labeled, encoder, hyper=config.wm_hyper, rng=wm_rng)
    )
    if strategy in ("uncertainty", "progress", "wav-vanilla"):
        models.idm_vanilla = train_idm(
            labeled, 0.0, hyper=config.idm_hyper, rng=idm_rng, encoder=encoder
        )
    if strategy == "wav-sparse":
        models.idm_sparse = train_idm(
            labeled,
            config.sparsity_weight,
            hyper=config.idm_hyper,
            rng=idm_rng,
            encoder=encoder,
        )
    if strategy == "uncertainty":
        models.ensemble = train_ensemble(
            labeled,
            encoder,
            config.ensemble_size,
            hyper=config.wm_hyper,
            rng=ens_rng,
            bootstrap=config.ensemble_bootstrap,
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
    if strategy in _WAV_STRATEGIES:
        idm = models.idm_sparse if strategy == "wav-sparse" else models.idm_vanilla
        values = _wav_scores_batch(models.world, idm, candidates, config.distance)
        return [
            AcquisitionScore(candidate_id=c.tid, strategy=strategy, score=float(v), round=round)
            for c, v in zip(candidates, values)
        ]
    if strategy == "progress" and models.prev_candidate_losses is None:
        # No previous round to compare against; the first round is random.
        scores = baseline_scores("random", models, candidates, rng=rng, round=round)
        return [
            AcquisitionScore(candidate_id=s.candidate_id, strategy="progress",
                             score=s.score, round=round)
            for s in scores
        ]
    intervals = config.oracle_uniform_intervals or config.budget
    return baseline_scores(
        strategy, models, candidates, rng=rng, round=round, intervals=intervals
    )


def _evaluate(wm: WorldModel, test: Sequence[LabeledTransition]) -> tuple[float, float]:
    loss = prediction_loss(wm, test)
    feats = np.stack([t.features for t in test])
    actions = [int(t.action) for t in test]
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
    models = _train_models(strategy, labeled, split, config, rng.spawn(1)[0])
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
            oracle_ref = baseline_scores("oracle", models, candidates, round=round_no)
            spear, kend = _rank_vs_oracle(scores, oracle_ref)
            acquired = select_top(scores, config.budget)
            for tid in acquired:
                labeled.append(reveal_action(pool, index_of[tid]))
        pre_loss, pre_acc = test_loss, test_acc
        if acquired:
            models = _train_models(strategy, labeled, split, config, rng.spawn(1)[0])
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


# ---------------------------------------------------------------------------
# Score-vs-error diagnostics
# ---------------------------------------------------------------------------


def score_vs_error_table(
    strategy: str,
    models: ModelSet,
    labeled_eval_set: Sequence[LabeledTransition],
    rng: Optional[np.random.Generator] = None,
    distance: str = "cross-entropy",
) -> list[tuple[float, float]]:
    """(score, true prediction loss) per item; label-free where the strategy is."""
    feats = np.stack([t.features for t in labeled_eval_set])
    actions = [int(t.action) for t in labeled_eval_set]
    next_feats = np.stack([t.next_features for t in labeled_eval_set])
    true_error = models.world.per_item_loss(feats, actions, next_feats)

    as_unlabeled = [
        UnlabeledTransition(
            tid=t.tid,
            state=t.state,
            next_state=t.next_state,
            features=t.features,
            next_features=t.next_features,
            task=t.task,
            _hidden_action=t.action,
            _front_object=t.front_object,
        )
        for t in labeled_eval_set
    ]
    if strategy in _WAV_STRATEGIES:
        idm = models.idm_sparse if strategy == "wav-sparse" else models.idm_vanilla
        values = _wav_scores_batch(models.world, idm, as_unlabeled, distance)
    else:
        intervals = max(1, len(labeled_eval_set) // 10)
        scored = baseline_scores(
            strategy, models, as_unlabeled, rng=rng, intervals=intervals
        )
        values = np.asarray([s.score for s in scored])
    return [(float(v), float(e)) for v, e in zip(values, true_error)]
