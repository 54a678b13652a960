"""Acquisition scoring, label hygiene, and the exploration loop."""

import dataclasses

import numpy as np
import pytest

from wavlab.datasets import (
    EnvConfig,
    SplitConfig,
    _to_unlabeled,
    build_split,
    collect_task_play,
    peek_hidden_action,
)
from wavlab.errors import ConfigError, PoolExhaustedError
from wavlab.gridworld import Action, generate_layout, step
from wavlab.metrics import spearman
from wavlab.models import (
    TrainConfig,
    persistence_world_model,
    train_ensemble,
    train_idm,
    train_world_model,
)
from wavlab.verify import (
    ExplorationConfig,
    ModelSet,
    baseline_scores,
    run_exploration,
    score_candidates,
    select_top,
)


FAST = ExplorationConfig(
    rounds=2,
    budget=12,
    ensemble_size=2,
    wm_hyper=TrainConfig(learning_rate=0.3, batch_size=32, epochs=8),
    idm_hyper=TrainConfig(learning_rate=0.03, batch_size=16, epochs=40),
)


@pytest.fixture(scope="module")
def models(small_split, small_encoder):
    labeled = small_split.seed_labeled
    rng = np.random.default_rng(50)
    return ModelSet(
        world=train_world_model(labeled, small_encoder, FAST.wm_hyper, rng.spawn(1)[0]),
        idm_vanilla=train_idm(labeled, 0.0, FAST.idm_hyper, rng.spawn(1)[0],
                              encoder=small_encoder),
        idm_sparse=train_idm(labeled, 0.1, FAST.idm_hyper, rng.spawn(1)[0],
                             encoder=small_encoder),
        ensemble=train_ensemble(labeled, small_encoder, 2, FAST.wm_hyper, rng.spawn(1)[0]),
    )


def scrambled(items, seed=0):
    rng = np.random.default_rng(seed)
    return [
        dataclasses.replace(u, _hidden_action=Action(int(rng.integers(7))))
        for u in items
    ]


class TestWavScorePool:
    def test_score_zero_when_cycle_closes(self, small_split, models, small_encoder):
        # A pool candidate whose successor the world model reproduces under
        # the inferred action gets a zero score; engineer it with the
        # persistence model on a floor-free no-op transition.
        pers = ModelSet(world=persistence_world_model(small_encoder),
                        idm_vanilla=models.idm_vanilla)
        for u in small_split.pool.items:
            if u.state == u.next_state:
                got = score_candidates("wav-vanilla", pers, [u], distance="group-mismatch")
                assert got[0] == 0.0
                return
        pytest.skip("no no-op candidate in the pool")

    def test_persistence_score_counts_changed_groups(self, small_split, small_encoder, models):
        pers = ModelSet(world=persistence_world_model(small_encoder),
                        idm_vanilla=models.idm_vanilla)
        for u in small_split.pool.items:
            changed = int((small_encoder.group_argmax(u.features)
                           != small_encoder.group_argmax(u.next_features)).sum())
            if changed == 1:
                got = score_candidates("wav-vanilla", pers, [u], distance="group-mismatch")
                assert got[0] == pytest.approx(1 / small_encoder.n_groups)
                return
        pytest.skip("no single-group candidate found")

    def test_scores_bounded(self, small_split, models):
        scores = score_candidates("wav-sparse", models, small_split.pool.items[:40],
                                  distance="group-mismatch")
        assert np.all((0.0 <= scores) & (scores <= 1.0))


class TestBaselineScores:
    def test_random_reproducible(self, models, small_split):
        candidates = small_split.pool.items[:30]
        a = baseline_scores("random", models, candidates, rng=np.random.default_rng(7))
        b = baseline_scores("random", models, candidates, rng=np.random.default_rng(7))
        assert [s.score for s in a] == [s.score for s in b]

    def test_oracle_orders_by_true_loss(self, models, small_split):
        candidates = small_split.pool.items[:40]
        scores = baseline_scores("oracle", models, candidates)
        feats = np.stack([c.features for c in candidates])
        acts = [int(peek_hidden_action(c)) for c in candidates]
        nxt = np.stack([c.next_features for c in candidates])
        losses = models.world.per_item_loss(feats, acts, nxt)
        by_score = [s.candidate_id for s in sorted(scores, key=lambda s: -s.score)]
        by_loss = [candidates[i].tid for i in np.argsort(-losses, kind="stable")]
        assert set(by_score[:10]) == set(by_loss[:10])

    def test_oracle_easy_is_negated_oracle(self, models, small_split):
        candidates = small_split.pool.items[:30]
        hard = baseline_scores("oracle", models, candidates)
        easy = baseline_scores("oracle-easy", models, candidates)
        for h, e in zip(hard, easy):
            assert e.score == pytest.approx(-h.score)
        k = 8
        hard_top = set(select_top(hard, k))
        easy_top = set(select_top(easy, k))
        assert not hard_top & easy_top

    def test_oracle_uniform_takes_interval_winners(self, models, small_split):
        candidates = small_split.pool.items[:60]
        intervals = 6
        scores = baseline_scores("oracle-uniform", models, candidates,
                                 intervals=intervals)
        oracle = baseline_scores("oracle", models, candidates)
        losses = np.asarray([s.score for s in oracle])
        lo, hi = losses.min(), losses.max()
        width = (hi - lo) / intervals
        bins = np.minimum(((losses - lo) / width).astype(int), intervals - 1)
        winners = {
            candidates[int(members[np.argmax(losses[members])])].tid
            for b in range(intervals)
            if len(members := np.flatnonzero(bins == b))
        }
        assert winners <= set(select_top(scores, intervals))

    def test_progress_requires_previous_losses(self, models, small_split):
        stripped = dataclasses.replace(models) if False else models
        clean = ModelSet(world=models.world, idm_vanilla=models.idm_vanilla)
        with pytest.raises(ConfigError):
            baseline_scores("progress", clean, small_split.pool.items[:5])

    def test_uncertainty_requires_ensemble(self, models, small_split):
        clean = ModelSet(world=models.world, idm_vanilla=models.idm_vanilla)
        with pytest.raises(ConfigError):
            baseline_scores("uncertainty", clean, small_split.pool.items[:5])

    def test_unknown_strategy_rejected(self, models, small_split):
        with pytest.raises(ConfigError):
            baseline_scores("galaxy-brain", models, small_split.pool.items[:5])


class TestLabelHygiene:
    def test_label_free_strategies_ignore_hidden_labels(self, models, small_split):
        candidates = small_split.pool.items[:40]
        twisted = scrambled(candidates, seed=8)
        models.prev_candidate_losses = {c.tid: 0.5 for c in candidates}
        try:
            for strategy in ("random", "uncertainty", "progress"):
                a = baseline_scores(strategy, models, candidates,
                                    rng=np.random.default_rng(9))
                b = baseline_scores(strategy, models, twisted,
                                    rng=np.random.default_rng(9))
                assert [s.score for s in a] == [s.score for s in b], strategy
        finally:
            models.prev_candidate_losses = None
        for strategy in ("wav-vanilla", "wav-sparse"):
            a = score_candidates(strategy, models, candidates)
            b = score_candidates(strategy, models, twisted)
            assert np.array_equal(a, b)

    def test_oracle_depends_on_labels(self, models, small_split):
        candidates = small_split.pool.items[:40]
        a = [s.score for s in baseline_scores("oracle", models, candidates)]
        b = [s.score for s in baseline_scores("oracle", models, scrambled(candidates, 10))]
        assert a != b


class TestSelectTop:
    def test_monotone_transform_invariance(self, models, small_split):
        candidates = small_split.pool.items[:50]
        scores = baseline_scores("oracle", models, candidates)
        transformed = [
            dataclasses.replace(s, score=np.exp(3 * s.score) + 1.0) for s in scores
        ]
        assert select_top(scores, 13) == select_top(transformed, 13)

    def test_ties_break_to_lower_id(self):
        from wavlab.verify import AcquisitionScore
        scores = [AcquisitionScore(candidate_id=i, strategy="x", score=1.0)
                  for i in (5, 2, 9)]
        assert select_top(scores, 2) == [2, 5]


class TestRunExploration:
    def test_unknown_distance_rejected(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            dataclasses.replace(FAST, distance="bogus")

    def test_budget_zero_keeps_loss_constant(self, small_split):
        split = small_split.fresh_copy()
        config = dataclasses.replace(FAST, budget=0, rounds=3)
        logs = run_exploration(split, "random", config, np.random.default_rng(11))
        losses = {log.post_test_loss for log in logs}
        assert len(losses) == 1
        assert split.pool.reveals == 0

    def test_budget_integrity_and_final_size(self, small_split):
        split = small_split.fresh_copy()
        logs = run_exploration(split, "oracle", FAST, np.random.default_rng(12))
        assert split.pool.reveals == FAST.rounds * FAST.budget
        assert [len(log.acquired_ids) for log in logs] == [FAST.budget] * FAST.rounds
        all_ids = [tid for log in logs for tid in log.acquired_ids]
        assert len(all_ids) == len(set(all_ids))

    def test_pool_exhaustion_detected_before_work(self, small_split):
        split = small_split.fresh_copy()
        config = dataclasses.replace(FAST, budget=10**6)
        with pytest.raises(PoolExhaustedError):
            run_exploration(split, "random", config, np.random.default_rng(13))

    def test_oracle_rank_correlation_is_one(self, small_split):
        split = small_split.fresh_copy()
        config = dataclasses.replace(FAST, rounds=1)
        logs = run_exploration(split, "oracle", config, np.random.default_rng(14))
        assert logs[0].spearman_vs_oracle == pytest.approx(1.0)
        # Tied scores are excluded from the tau numerator but not the
        # denominator, so kendall dips just below one when losses tie.
        assert logs[0].kendall_vs_oracle >= 0.99

    def test_oracle_scores_pool_once_per_round(self, small_split, monkeypatch):
        # The oracle strategy's scores double as its rank reference.
        from wavlab.models import WorldModel

        rows = []
        per_item_loss = WorldModel.per_item_loss

        def counted(self, feats, actions, next_feats):
            rows.append(len(feats))
            return per_item_loss(self, feats, actions, next_feats)

        monkeypatch.setattr(WorldModel, "per_item_loss", counted)
        split = small_split.fresh_copy()
        pool_size = len(split.pool.unrevealed_indices())
        logs = run_exploration(split, "oracle", FAST, np.random.default_rng(12))
        pool_rows = [r for r in rows if r > len(split.test)]
        assert pool_rows == [pool_size - k * FAST.budget for k in range(FAST.rounds)]
        assert all(log.spearman_vs_oracle == 1.0 for log in logs)

    def test_wav_sparse_runs_and_logs(self, small_split):
        split = small_split.fresh_copy()
        logs = run_exploration(split, "wav-sparse", FAST, np.random.default_rng(15))
        assert len(logs) == FAST.rounds
        for log in logs:
            assert np.isfinite(log.post_test_loss)
            assert set(log.acquired_ids) <= {s.candidate_id for s in log.scores}

    def test_progress_round_one_falls_back_to_random(self, small_split):
        split = small_split.fresh_copy()
        config = dataclasses.replace(FAST, rounds=2)
        logs = run_exploration(split, "progress", config, np.random.default_rng(16))
        assert logs[0].scores[0].strategy == "progress"
        assert len(logs) == 2


class TestScoreVsError:
    @staticmethod
    def _scatter(strategy, models, labeled, rng=None):
        """(score, true prediction loss) per item of a labeled set."""
        items = [_to_unlabeled(t) for t in labeled]
        scores = score_candidates(strategy, models, items, rng=rng)
        return list(zip(scores, score_candidates("oracle", models, items)))

    def test_oracle_scatter_is_diagonal(self, models, small_split):
        table = self._scatter("oracle", models, small_split.test[:60])
        assert len(table) == 60
        xs = [row[0] for row in table]
        ys = [row[1] for row in table]
        assert xs == ys
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_random_scatter_uncorrelated(self, models, small_split):
        rhos = []
        for seed in range(5):
            table = self._scatter("random", models, small_split.test[:100],
                                  rng=np.random.default_rng(17 + seed))
            rhos.append(spearman([r[0] for r in table], [r[1] for r in table]))
        assert abs(np.mean(rhos)) <= 0.15

    def test_wav_scatter_positively_related(self, models, small_split):
        # The small grid and the briefly trained models leave the relation
        # noisy, so only its sign is asserted here; the desk-scale ordering
        # against the baselines lives in the acceptance suite.
        table = self._scatter("wav-sparse", models, small_split.test)
        rho = spearman([r[0] for r in table], [r[1] for r in table])
        assert rho > 0.05
