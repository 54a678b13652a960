"""Model training: gradients, determinism, reduction, mask behavior, priors."""

import base64
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from wavlab.datasets import EnvConfig, _to_unlabeled, collect_random_play, collect_task_play
from wavlab.errors import ConfigError, ParseError, UnsupportedVersionError
from wavlab.gridworld import Action, Encoder, generate_layout, step, validate_state
from wavlab.models import (
    DeltaKind,
    TrainConfig,
    action_accuracy,
    apply_delta,
    classify_delta,
    disagreement,
    disagreement_batch,
    fit_subgoal_generator,
    infer_action,
    load_model,
    persistence_world_model,
    predict_next,
    sample_subgoals,
    save_model,
    train_ensemble,
    train_idm,
    train_world_model,
    _idm_inputs,
    _idm_loss_and_grad,
    _pair_columns,
    _pair_structure,
    _sigmoid,
    _softmax_runs,
    _wm_loss_and_grad,
)
from wavlab.metrics import dynamics_accuracy, prediction_loss


TINY = EnvConfig(width=4, height=4, n_objects=2, n_noisy_floors=0, horizon=20)


def turn_only_data(n, rng, env=TINY):
    enc = env.encoder()
    from wavlab.datasets import LabeledTransition
    out = []
    state = generate_layout(env.width, env.height, env.n_objects, 0, rng)
    for i in range(n):
        action = Action(int(rng.integers(2)))  # turn left or right
        nxt = step(state, action)
        out.append(LabeledTransition(
            tid=i, state=state, action=action, next_state=nxt,
            features=enc.encode(state), next_features=enc.encode(nxt)))
        state = nxt
    return out


class TestWorldModelTraining:
    def test_memorizes_single_transition(self, small_encoder):
        env = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0)
        item = collect_random_play(env, 1, np.random.default_rng(0))
        wm = train_world_model(
            item * 500, small_encoder,
            hyper=TrainConfig(learning_rate=0.5, batch_size=64, epochs=20),
            rng=np.random.default_rng(1),
        )
        assert wm.loss_curve[-1] < 0.02
        pred, _ = predict_next(wm, item[0].features, item[0].action)
        assert np.array_equal(pred, item[0].next_features)

    def test_beats_persistence_baseline(self, small_encoder):
        # Persistence is the stated oracle: by construction it scores zero
        # dynamics accuracy, so the trained model must score above it.
        env = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0)
        data = collect_random_play(env, 2200, np.random.default_rng(2))
        train, held = data[:2000], data[2000:]
        wm = train_world_model(train, small_encoder, rng=np.random.default_rng(3))
        feats = np.stack([t.features for t in held])
        acts = [int(t.action) for t in held]
        preds = wm.argmax_features(wm.predict_proba(feats, acts))
        decoded = [small_encoder.decode(preds[i]) for i in range(len(held))]
        acc = dynamics_accuracy(decoded, [t.next_state for t in held], [t.state for t in held])
        pers = persistence_world_model(small_encoder)
        pfeats = pers.argmax_features(pers.predict_proba(feats, acts))
        pdecoded = [small_encoder.decode(pfeats[i]) for i in range(len(held))]
        pacc = dynamics_accuracy(pdecoded, [t.next_state for t in held], [t.state for t in held])
        assert pacc == 0.0
        assert acc > pacc

    def test_bit_identical_given_seed(self, small_split, small_encoder):
        hyper = TrainConfig(epochs=3)
        a = train_world_model(small_split.seed_labeled, small_encoder, hyper,
                              np.random.default_rng(42))
        b = train_world_model(small_split.seed_labeled, small_encoder, hyper,
                              np.random.default_rng(42))
        assert np.array_equal(a.weights, b.weights)
        assert a.loss_curve == b.loss_curve

    def test_empty_data_rejected(self, small_encoder):
        with pytest.raises(ConfigError):
            train_world_model([], small_encoder)


class TestPredictNext:
    def test_uniform_distributions_from_zero_weights(self, small_encoder):
        from wavlab.models import WorldModel
        d = small_encoder.n_features
        wm = WorldModel(encoder=small_encoder, weights=np.zeros((8, d + 1, d)),
                        hyper=TrainConfig(epochs=0))
        s = generate_layout(6, 6, 4, 0, np.random.default_rng(4))
        _, dists = predict_next(wm, small_encoder.encode(s), Action.FORWARD)
        for dist in dists:
            assert np.allclose(dist, dist[0])

    def test_distributions_sum_to_one(self, trained_wm, small_split):
        t = small_split.test[0]
        _, dists = predict_next(trained_wm, t.features, t.action)
        for dist in dists:
            assert abs(dist.sum() - 1.0) < 1e-9

    def test_prediction_is_valid_one_hot(self, trained_wm, small_split, small_encoder):
        t = small_split.test[1]
        pred, _ = predict_next(trained_wm, t.features, t.action)
        for g in small_encoder.groups:
            assert pred[g.start:g.stop].sum() == 1.0


class TestGradients:
    """Analytic gradients against central finite differences."""

    ENC = TINY.encoder()

    def _batch(self, n=12):
        rng = np.random.default_rng(5)
        data = collect_random_play(TINY, n, rng)
        S = np.stack([t.features for t in data])
        A = np.asarray([int(t.action) for t in data], dtype=np.intp)
        N = np.stack([t.next_features for t in data])
        return S, A, N

    def test_world_model_gradient(self):
        S, A, N = self._batch()
        enc = self.ENC
        X = np.concatenate([S, np.ones((len(S), 1))], axis=1)
        rng = np.random.default_rng(6)
        W = rng.normal(0, 0.05, size=(8, X.shape[1], N.shape[1]))
        _, grad = _wm_loss_and_grad(W, X, A, N, enc)
        eps = 1e-6
        for a, i, j in [(0, 3, 10), (2, X.shape[1] - 1, 0), (5, 7, 33), (7, 2, 21)]:
            Wp, Wm = W.copy(), W.copy()
            Wp[a, i, j] += eps
            Wm[a, i, j] -= eps
            lp, _ = _wm_loss_and_grad(Wp, X, A, N, enc)
            lm, _ = _wm_loss_and_grad(Wm, X, A, N, enc)
            fd = (lp - lm) / (2 * eps)
            if abs(fd) > 1e-9:
                assert abs(grad[a][i, j] - fd) / max(abs(fd), 1e-9) < 1e-4
            else:
                assert abs(grad[a][i, j]) < 1e-7

    def test_idm_gradient_including_mask(self):
        S, A, N = self._batch()
        enc = self.ENC
        ps = _pair_structure(enc)
        columns = _pair_columns(ps, enc.group_argmax(S), enc.group_argmax(N))
        rng = np.random.default_rng(7)
        W = rng.normal(0, 0.05, size=(ps.input_width, 7))
        gates = rng.normal(0, 0.5, size=enc.n_features)
        sw = 0.1

        def inputs(gx):
            m = _sigmoid(gx)
            return _idm_inputs(m, S, N, columns, ps), sw * float(m.mean())

        def loss_at(Wx, gx):
            X, penalty = inputs(gx)
            value, _, _ = _idm_loss_and_grad(Wx, X, A, penalty)
            return value

        X, penalty = inputs(gates)
        gated = (_sigmoid(gates), sw, S, N, columns, ps)
        _, dW, dg = _idm_loss_and_grad(W, X, A, penalty, gated)
        eps = 1e-6
        for i, j in [(0, 0), (enc.n_features + 4, 3), (W.shape[0] - 1, 6)]:
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += eps
            Wm[i, j] -= eps
            fd = (loss_at(Wp, gates) - loss_at(Wm, gates)) / (2 * eps)
            assert abs(dW[i, j] - fd) / max(abs(fd), 1e-8) < 1e-4
        for k in [0, 5, enc.n_features - 1]:
            gp, gm = gates.copy(), gates.copy()
            gp[k] += eps
            gm[k] -= eps
            fd = (loss_at(W, gp) - loss_at(W, gm)) / (2 * eps)
            assert abs(dg[k] - fd) / max(abs(fd), 1e-8) < 1e-4


# Per-batch reference trainers: the textbook formulas, one batch at a time,
# with a per-run softmax and np.add.at scatters. Training must match them
# bit for bit, however it batches, precomputes or scatters.


def _ref_softmax_runs(logits, runs):
    probs = np.empty_like(logits)
    n = logits.shape[0]
    for start, stop, count, size in runs:
        seg = logits[:, start:stop].reshape(n, count, size)
        seg = seg - seg.max(axis=2, keepdims=True)
        np.exp(seg, out=seg)
        seg /= seg.sum(axis=2, keepdims=True)
        probs[:, start:stop] = seg.reshape(n, count * size)
    return probs


def _ref_train_world_model(data, enc, hyper, rng):
    S = np.stack([t.features for t in data])
    A = np.asarray([int(t.action) for t in data])
    N = np.stack([t.next_features for t in data])
    W = rng.normal(0.0, hyper.init_scale, size=(8, S.shape[1] + 1, N.shape[1]))
    X = np.concatenate([S, np.ones((len(data), 1))], axis=1)
    G = enc.n_groups
    curve = []
    for _ in range(hyper.epochs):
        batches = []
        for a in range(7):
            rows = np.flatnonzero(A == a)
            rows = rows[rng.permutation(len(rows))]
            batches += [rows[i:i + hyper.batch_size] for i in range(0, len(rows), hyper.batch_size)]
        losses = []
        for bi in rng.permutation(len(batches)):
            b = batches[bi]
            a = A[b[0]]
            probs = _ref_softmax_runs(X[b] @ (W[0] + W[1 + a]), enc.run_slices)
            logs = np.where(N[b] > 0, np.log(np.maximum(probs, 1e-300)), 0.0)
            losses.append(float((-logs.sum(axis=1) / G).mean()))
            g = X[b].T @ ((probs - N[b]) / (len(b) * G))
            W[0] -= hyper.learning_rate * g
            W[1 + a] -= hyper.learning_rate * g
        curve.append(float(np.mean(losses)))
    return W, curve


def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_idm_step(W, gates, learn_gates, sw, S, S2, A, enc, ps):
    n, d = S.shape
    m = np.ones(d) if gates is None else _ref_sigmoid(gates)
    cs, cs2 = enc.group_argmax(S), enc.group_argmax(S2)
    cols = ps.base + cs * ps.group_size + cs2
    i_idx, j_idx = ps.group_start + cs, ps.group_start + cs2
    pairs = np.zeros((n, ps.n_columns))
    np.add.at(pairs, (np.arange(n)[:, None], cols), m[i_idx] * m[j_idx] * ps.scale)
    X = np.concatenate([S * m, S2 * m - S * m, pairs, np.ones((n, 1))], axis=1)
    T = np.zeros((n, 7))
    T[np.arange(n), A] = 1.0
    logits = X @ W
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    ce = float(-np.log(np.maximum((probs * T).sum(axis=1), 1e-300)).mean())
    dlogits = (probs - T) / n
    dW = X.T @ dlogits
    if not learn_gates:
        return ce + sw * float(m.mean()), dW, None
    dX = dlogits @ W.T
    dm = (dX[:, :d] * S).sum(axis=0)
    dm += (dX[:, d:2 * d] * (S2 - S)).sum(axis=0)
    dpairs = dX[np.arange(n)[:, None], 2 * d + cols] * ps.scale
    np.add.at(dm, i_idx, dpairs * m[j_idx])
    np.add.at(dm, j_idx, dpairs * m[i_idx])
    dm += sw / d
    return ce + sw * float(m.mean()), dW, dm * m * (1.0 - m)


def _ref_train_idm(data, sw, hyper, rng, enc):
    S = np.stack([t.features for t in data])
    A = np.asarray([int(t.action) for t in data])
    S2 = np.stack([t.next_features for t in data])
    ps = _pair_structure(enc)
    W = rng.normal(0.0, hyper.init_scale, size=(ps.input_width, 7))
    gates = np.full(enc.n_features, float(hyper.gate_init)) if sw > 0 else None
    warmup = int(np.ceil(hyper.gate_warmup_frac * hyper.epochs))
    curve = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(data))
        learn = gates is not None and epoch >= warmup
        losses = []
        for i in range(0, len(order), hyper.batch_size):
            b = order[i:i + hyper.batch_size]
            loss, dW, dg = _ref_idm_step(W, gates, learn, sw, S[b], S2[b], A[b], enc, ps)
            W -= hyper.learning_rate * dW
            if learn:
                gates -= hyper.resolved_gate_lr(enc.n_features) * dg
            losses.append(loss)
        curve.append(float(np.mean(losses)))
    return W, gates, curve


EXACT_ENVS = {
    "5x5": EnvConfig(width=5, height=5, n_objects=4, n_noisy_floors=2, horizon=40),
    "8x8": EnvConfig(width=8, height=8, n_objects=6, n_noisy_floors=2, horizon=40),
}


@pytest.fixture(scope="module", params=sorted(EXACT_ENVS))
def exact_case(request):
    env = EXACT_ENVS[request.param]
    rng = np.random.default_rng(50)
    data = collect_task_play(env, 50, rng) + collect_random_play(env, 30, rng)
    return data, env.encoder()


class TestExactKernels:
    """Training equals the per-batch reference loops bit for bit."""

    WM_HYPER = TrainConfig(learning_rate=0.3, batch_size=8, epochs=3)
    IDM_HYPER = TrainConfig(learning_rate=0.03, batch_size=16, epochs=5)

    def test_softmax_runs_matches_per_run_reference(self, exact_case):
        _, enc = exact_case
        logits = np.random.default_rng(51).normal(0.0, 30.0, size=(13, enc.n_features))
        assert np.array_equal(_softmax_runs(logits, enc), _ref_softmax_runs(logits, enc.run_slices))

    def test_world_model_matches_reference(self, exact_case):
        data, enc = exact_case
        wm = train_world_model(data, enc, self.WM_HYPER, np.random.default_rng(52))
        W, curve = _ref_train_world_model(data, enc, self.WM_HYPER, np.random.default_rng(52))
        assert np.array_equal(wm.weights, W)
        assert wm.loss_curve == curve

    def test_ensemble_matches_reference(self, exact_case):
        data, enc = exact_case
        ens = train_ensemble(data, enc, 2, self.WM_HYPER, np.random.default_rng(53))
        for member, child in zip(ens.members, np.random.default_rng(53).spawn(2)):
            idx = child.integers(len(data), size=len(data))
            W, curve = _ref_train_world_model([data[i] for i in idx], enc, self.WM_HYPER, child)
            assert np.array_equal(member.weights, W)
            assert member.loss_curve == curve

    @pytest.mark.parametrize("sw", [0.0, 0.1], ids=["vanilla", "sparse"])
    def test_idm_matches_reference(self, exact_case, sw):
        data, enc = exact_case
        # 5 epochs at warm-up 0.3: two frozen epochs, then three learning the gates.
        idm = train_idm(data, sw, self.IDM_HYPER, np.random.default_rng(54), encoder=enc)
        W, gates, curve = _ref_train_idm(data, sw, self.IDM_HYPER, np.random.default_rng(54), enc)
        assert np.array_equal(idm.weights, W)
        assert (idm.gate_logits is None) == (gates is None)
        if gates is not None:
            assert np.array_equal(idm.gate_logits, gates)
        assert idm.loss_curve == curve


class TestInverseModel:
    def test_vanilla_reduction_is_exact(self, small_split, small_encoder):
        # sparsity weight 0 IS the vanilla model: no gates, a unit mask, and
        # the gate knobs are never read.
        hyper = TrainConfig(learning_rate=0.03, batch_size=16, epochs=5)
        a = train_idm(small_split.seed_labeled, 0.0, hyper,
                      np.random.default_rng(8), encoder=small_encoder)
        b = train_idm(small_split.seed_labeled, 0.0,
                      dataclasses.replace(hyper, gate_init=-3.0, gate_lr=5.0),
                      np.random.default_rng(8), encoder=small_encoder)
        assert np.array_equal(a.weights, b.weights)
        assert a.loss_curve == b.loss_curve
        assert a.gate_logits is None
        assert np.all(a.mask == 1.0)
        assert a.sparsity == 0.0

    def test_distribution_sums_to_one(self, trained_idm, small_split):
        t = small_split.test[0]
        _, dist = infer_action(trained_idm, t.features, t.next_features)
        assert abs(dist.sum() - 1.0) < 1e-9

    def test_turn_inference_confident(self, small_encoder):
        env = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0)
        data = collect_task_play(env, 1500, np.random.default_rng(9))
        idm = train_idm(data, 0.0, TrainConfig(learning_rate=0.03, batch_size=16, epochs=120),
                        np.random.default_rng(10), encoder=small_encoder)
        turns = [t for t in data if t.action is Action.TURN_LEFT][:50]
        probs = []
        for t in turns:
            action, dist = infer_action(idm, t.features, t.next_features)
            assert action is Action.TURN_LEFT
            probs.append(dist[int(Action.TURN_LEFT)])
        assert np.mean(probs) >= 0.9

    def test_tie_break_is_lexicographic(self, small_encoder):
        from wavlab.models import InverseModel
        ps = _pair_structure(small_encoder)
        idm = InverseModel(
            encoder=small_encoder,
            weights=np.zeros((ps.input_width, 7)),
            gate_logits=None, sparsity_weight=0.0, hyper=TrainConfig(epochs=0),
        )
        s = generate_layout(6, 6, 4, 0, np.random.default_rng(11))
        feats = small_encoder.encode(s)
        action, dist = infer_action(idm, feats, feats)
        assert action is Action.TURN_LEFT  # index 0 wins exact ties
        assert np.allclose(dist, 1 / 7)

    def test_mask_bounded_in_open_interval(self, small_split, small_encoder):
        idm = train_idm(small_split.seed_labeled, 0.1,
                        TrainConfig(learning_rate=0.03, batch_size=16, epochs=10),
                        np.random.default_rng(12), encoder=small_encoder)
        assert np.all(idm.mask > 0.0) and np.all(idm.mask < 1.0)

    def test_sparsity_frontier_on_noiseless_data(self):
        # Grid point of the accuracy/sparsity frontier: the default weight
        # must close at least half the gates while keeping train accuracy
        # within 2 points of vanilla.
        env = EnvConfig(width=6, height=6, n_objects=5, n_noisy_floors=0)
        data = collect_task_play(env, 2000, np.random.default_rng(13))
        enc = env.encoder()
        hyper = TrainConfig(learning_rate=0.03, batch_size=16, epochs=120)
        vanilla = train_idm(data, 0.0, hyper, np.random.default_rng(14), encoder=enc)
        sparse = train_idm(data, 0.1, hyper, np.random.default_rng(14), encoder=enc)
        assert sparse.sparsity >= 0.5
        assert action_accuracy(sparse, data) >= action_accuracy(vanilla, data) - 0.02

    def test_turn_only_mask_concentrates_on_agent_features(self):
        # Feature-ablation oracle: hiding the agent features collapses
        # accuracy, so the mask should put its top mass there.
        rng = np.random.default_rng(15)
        data = turn_only_data(1500, rng)
        enc = TINY.encoder()
        hyper = TrainConfig(learning_rate=0.03, batch_size=16, epochs=150)
        sparse = train_idm(data, 0.1, hyper, np.random.default_rng(16), encoder=enc)
        assert action_accuracy(sparse, data) > 0.95

        agent = set(enc.agent_feature_indices().tolist())
        ablated = []
        for t in data:
            f = t.features.copy()
            f2 = t.next_features.copy()
            f[list(agent)] = 0.0
            f2[list(agent)] = 0.0
            ablated.append(dataclasses.replace(t, features=f, next_features=f2))
        blind = train_idm(ablated, 0.0, hyper, np.random.default_rng(17), encoder=enc)
        assert action_accuracy(blind, ablated) < 0.7  # collapse without agent features

        mask = sparse.mask
        k = 16
        top = np.argsort(mask)[::-1][:k]
        top_mass = mask[top].sum()
        agent_mass = sum(mask[i] for i in top if i in agent)
        assert agent_mass / top_mass >= 0.8


class TestEnsemble:
    def test_identical_members_have_zero_disagreement(self, small_split, small_encoder):
        hyper = TrainConfig(epochs=2)
        wm = train_world_model(small_split.seed_labeled, small_encoder, hyper,
                               np.random.default_rng(18))
        from wavlab.models import Ensemble
        ens = Ensemble(members=[wm, wm])
        t = small_split.test[0]
        assert disagreement(ens, t.features, t.action) == 0.0

    def test_disagreement_nonnegative(self, small_split, small_encoder):
        ens = train_ensemble(small_split.seed_labeled, small_encoder, 3,
                             TrainConfig(epochs=3), np.random.default_rng(19))
        for t in small_split.test[:10]:
            assert disagreement(ens, t.features, t.action) >= 0.0

    def test_batch_equals_per_group_loop(self, small_split, small_encoder):
        ens = train_ensemble(small_split.seed_labeled, small_encoder, 3,
                             TrainConfig(epochs=3), np.random.default_rng(19))
        S = np.stack([t.features for t in small_split.test[:40]])
        A = [int(t.action) for t in small_split.test[:40]]
        var = np.stack([m.predict_proba(S, A) for m in ens.members]).var(axis=0)
        per_group = [var[:, g.start:g.stop].mean(axis=1) for g in small_encoder.groups]
        assert np.array_equal(disagreement_batch(ens, S, A),
                              np.stack(per_group, axis=1).mean(axis=1))

    def test_size_validated(self, small_split, small_encoder):
        with pytest.raises(ConfigError):
            train_ensemble(small_split.seed_labeled, small_encoder, 1,
                           TrainConfig(epochs=1), np.random.default_rng(20))

    def test_higher_disagreement_off_distribution(self, small_encoder):
        # Median disagreement on held-out unfamiliar compositions exceeds
        # the median on the memorized training items.
        from wavlab.datasets import apply_composition_filter, default_composition_table
        env = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0)
        data = collect_task_play(env, 3000, np.random.default_rng(21))
        train_part, oos_part = apply_composition_filter(data, default_composition_table())
        train = train_part[:500]
        ens = train_ensemble(train, small_encoder, 3,
                             TrainConfig(learning_rate=0.3, batch_size=32, epochs=15),
                             np.random.default_rng(22))
        d_train = [disagreement(ens, t.features, t.action) for t in train[:80]]
        d_oos = [disagreement(ens, t.features, t.action) for t in oos_part[:80]]
        assert np.median(d_oos) > np.median(d_train)


class TestSubgoalGenerator:
    def test_turn_only_video_yields_rotations(self, small_encoder):
        rng = np.random.default_rng(23)
        env = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0)
        video = [_to_unlabeled(t) for t in turn_only_data(300, rng,
                 EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0))]
        gen = fit_subgoal_generator(video, encoder=small_encoder)
        state = video[0].state
        feats = small_encoder.encode(state)
        for vec in sample_subgoals(gen, feats, 8, np.random.default_rng(24)):
            nxt = small_encoder.decode(vec)
            assert nxt.agent.pos == state.agent.pos
            assert nxt.cells == state.cells
            assert nxt.agent.dir != state.agent.dir

    def test_samples_decode_to_valid_states(self, small_split, small_encoder):
        gen = fit_subgoal_generator(small_split.video, encoder=small_encoder)
        rng = np.random.default_rng(25)
        for u in small_split.pool.items[:20]:
            for vec in sample_subgoals(gen, u.features, 4, rng):
                validate_state(small_encoder.decode(vec))

    def test_unseen_context_backs_off_to_global(self, small_encoder):
        rng = np.random.default_rng(26)
        data = turn_only_data(100, rng)
        gen = fit_subgoal_generator([_to_unlabeled(t) for t in data],
                                    encoder=TINY.encoder())
        # A context key never stored: carrying an object changes nothing for
        # turn deltas, which stay applicable through the global backoff.
        state = data[0].state
        carrying = dataclasses.replace(
            state, agent=dataclasses.replace(state.agent, dir=(state.agent.dir + 2) % 4)
        )
        feats = TINY.encoder().encode(carrying)
        out = sample_subgoals(gen, feats, 3, np.random.default_rng(27))
        assert len(out) == 3

    def test_single_delta_store_is_deterministic(self, small_encoder):
        rng = np.random.default_rng(28)
        env = EnvConfig(width=6, height=6, n_objects=3, n_noisy_floors=0)
        base = collect_random_play(env, 1, rng)[0]
        s = base.state
        advanced = step(s, Action.FORWARD)
        if advanced == s:  # facing a wall or object; rotate first
            s = step(s, Action.TURN_LEFT)
            advanced = step(s, Action.FORWARD)
        from wavlab.datasets import LabeledTransition
        enc = env.encoder()
        item = LabeledTransition(
            tid=0, state=s, action=Action.FORWARD, next_state=advanced,
            features=enc.encode(s), next_features=enc.encode(advanced))
        gen = fit_subgoal_generator([_to_unlabeled(item)], encoder=enc)
        got = sample_subgoals(gen, enc.encode(s), 1, np.random.default_rng(29))
        assert np.array_equal(got[0], enc.encode(advanced))

    def test_sample_frequencies_match_store(self):
        # Chi-squared at 1% over 10^4 single draws against the stored
        # multiset frequencies.
        enc = TINY.encoder()
        rng = np.random.default_rng(30)
        state = generate_layout(4, 4, 0, 0, rng)
        from wavlab.models import SubgoalGenerator
        counts = {DeltaKind.ADVANCE: 5, DeltaKind.TURN_LEFT: 3, DeltaKind.TURN_RIGHT: 2}
        from wavlab.models import _context_key
        gen = SubgoalGenerator(encoder=enc, smoothing=0.0,
                               by_key={_context_key(state): counts},
                               global_counts=dict(counts))
        feats = enc.encode(state)
        draw_rng = np.random.default_rng(31)
        tally = {k: 0 for k in counts}
        n = 10_000
        applicable = [k for k in counts if k is not DeltaKind.ADVANCE or
                      state.in_interior((state.agent.pos[0] + 1, state.agent.pos[1]))]
        for _ in range(n):
            vec = sample_subgoals(gen, feats, 1, draw_rng)[0]
            nxt = enc.decode(vec)
            got = classify_delta(state, nxt)
            tally[got] += 1
        total_weight = sum(counts[k] for k in applicable)
        chi2 = sum(
            (tally[k] - n * counts[k] / total_weight) ** 2 / (n * counts[k] / total_weight)
            for k in applicable
        )
        assert chi2 < stats.chi2.ppf(0.99, df=len(applicable) - 1)


class TestDeltaClassification:
    def test_round_trip_on_environment_steps(self):
        rng = np.random.default_rng(32)
        seen = set()
        for _ in range(300):
            s = generate_layout(6, 6, 5, 0, rng)
            a = Action(int(rng.integers(7)))
            s2 = step(s, a)
            kind = classify_delta(s, s2)
            assert kind is not None
            seen.add(kind)
            if kind is not DeltaKind.STAY:
                replayed = apply_delta(kind, s, None)
                assert replayed == s2
        assert DeltaKind.STAY in seen

    def test_inapplicable_delta_rejected(self):
        s = generate_layout(6, 6, 0, 0, np.random.default_rng(33))
        with pytest.raises(ValueError):
            apply_delta(DeltaKind.TAKE_FRONT, s, None)


class TestCheckpoints:
    def test_world_model_round_trip(self, trained_wm, small_split, tmp_path):
        path = tmp_path / "wm.json"
        save_model(trained_wm, path)
        loaded = load_model(path)
        t = small_split.test[0]
        a = trained_wm.predict_proba(np.atleast_2d(t.features), [int(t.action)])
        b = loaded.predict_proba(np.atleast_2d(t.features), [int(t.action)])
        assert np.array_equal(a, b)
        assert loaded.loss_curve == trained_wm.loss_curve

    def test_idm_round_trip(self, small_split, small_encoder, tmp_path):
        idm = train_idm(small_split.seed_labeled, 0.1,
                        TrainConfig(learning_rate=0.03, batch_size=16, epochs=5),
                        np.random.default_rng(34), encoder=small_encoder)
        path = tmp_path / "idm.json"
        save_model(idm, path)
        loaded = load_model(path)
        t = small_split.test[0]
        _, da = infer_action(idm, t.features, t.next_features)
        _, db = infer_action(loaded, t.features, t.next_features)
        assert np.array_equal(da, db)
        assert np.array_equal(loaded.gate_logits, idm.gate_logits)

    def test_subgoal_generator_round_trip(self, small_split, small_encoder, tmp_path):
        gen = fit_subgoal_generator(small_split.video, encoder=small_encoder)
        path = tmp_path / "gen.json"
        save_model(gen, path)
        loaded = load_model(path)
        assert loaded.by_key == gen.by_key
        assert loaded.global_counts == gen.global_counts

    def test_ensemble_round_trip(self, small_split, small_encoder, tmp_path):
        ens = train_ensemble(small_split.seed_labeled, small_encoder, 2,
                             TrainConfig(epochs=2), np.random.default_rng(35))
        path = tmp_path / "ens.json"
        save_model(ens, path)
        loaded = load_model(path)
        t = small_split.test[0]
        assert disagreement(loaded, t.features, t.action) == pytest.approx(
            disagreement(ens, t.features, t.action), abs=0)

    # Every field differs from its TrainConfig default.
    ODD_HYPER = TrainConfig(learning_rate=0.05, batch_size=8, epochs=3, init_scale=0.02,
                            gate_init=1.5, gate_lr=0.7, gate_warmup_frac=0.9)

    def test_full_train_config_round_trips(self, small_split, small_encoder, tmp_path):
        defaults = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            assert getattr(self.ODD_HYPER, f.name) != getattr(defaults, f.name)
        data = small_split.seed_labeled[:40]
        wm = train_world_model(data, small_encoder, self.ODD_HYPER, np.random.default_rng(36))
        idm = train_idm(data, 0.1, self.ODD_HYPER, np.random.default_rng(37),
                        encoder=small_encoder)
        for name, model in (("wm", wm), ("idm", idm)):
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.hyper == model.hyper
            assert np.array_equal(loaded.weights, model.weights)
            assert loaded.loss_curve == model.loss_curve

    def test_old_schema_refused(self, trained_wm, tmp_path):
        path = tmp_path / "wm.json"
        save_model(trained_wm, path)
        obj = json.loads(path.read_text())
        obj["schema"] = "wav-model/1"
        path.write_text(json.dumps(obj))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    @staticmethod
    def _truncate_payload(obj):
        raw = base64.b64decode(obj["weights"]["f8"])
        obj["weights"]["f8"] = base64.b64encode(raw[:-8]).decode()

    @staticmethod
    def _reshape_weights(obj):
        shape = obj["weights"]["shape"]
        obj["weights"]["shape"] = [shape[0], shape[1] * shape[2], 1]

    @pytest.mark.parametrize("mutate, key", [
        (lambda o: o.pop("loss_curve"), "loss_curve"),
        (lambda o: o.pop("weights"), "weights"),
        (lambda o: o["weights"].update(f8="not*base64"), "weights"),
        (_truncate_payload, "weights"),
        (_reshape_weights, "weights"),
        (lambda o: o["weights"].update(shape="3x4"), "weights"),
        (lambda o: o["hyper"].update(momentum=0.9), "hyper"),
        (lambda o: o["hyper"].pop("gate_warmup_frac"), "hyper"),
        (lambda o: o["env"].pop("width"), "env"),
        (lambda o: o.update(loss_curve="low"), "loss_curve"),
        (lambda o: o["hyper"].update(learning_rate="0.1"), "hyper.learning_rate"),
        (lambda o: o["hyper"].update(epochs=[3]), "hyper.epochs"),
        (lambda o: o["hyper"].update(epochs=3.0), "hyper.epochs"),
        (lambda o: o["hyper"].update(batch_size=True), "hyper.batch_size"),
        (lambda o: o["hyper"].update(init_scale=False), "hyper.init_scale"),
        (lambda o: o["hyper"].update(gate_lr="fast"), "hyper.gate_lr"),
        (lambda o: o["hyper"].update(batch_size=0), "hyper.batch_size"),
        (lambda o: o["hyper"].update(epochs=-1), "hyper.epochs"),
        (lambda o: o["hyper"].update(learning_rate=-0.1), "hyper.learning_rate"),
        (lambda o: o["hyper"].update(init_scale=-1.0), "hyper.init_scale"),
        (lambda o: o["hyper"].update(gate_warmup_frac=2.0), "hyper.gate_warmup_frac"),
        (lambda o: o["hyper"].update(gate_lr=0.0), "hyper.gate_lr"),
    ], ids=["no-loss-curve", "no-weights", "bad-base64", "short-payload",
            "shape-off-encoder", "shape-not-a-list", "unknown-hyper", "missing-hyper",
            "bad-env", "loss-curve-type", "hyper-str-float", "hyper-list-int",
            "hyper-float-int", "hyper-bool-int", "hyper-bool-float", "hyper-str-optional",
            "batch-size-0", "epochs-negative", "lr-negative", "init-scale-negative",
            "warmup-above-1", "gate-lr-0"])
    def test_malformed_world_model_raises_parse_error(self, trained_wm, tmp_path,
                                                      mutate, key):
        path = tmp_path / "wm.json"
        save_model(trained_wm, path)
        obj = json.loads(path.read_text())
        mutate(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=f"'{key}'"):
            load_model(path)

    @pytest.mark.parametrize("entry", [
        [["a", "b"], "stay", 2],  # context key of strings
        [[0, 1], "stay", 2.5],  # fractional count
        [[0, 1], "stay", True],  # boolean count
    ], ids=["str-key", "float-count", "bool-count"])
    def test_malformed_subgoal_store_raises_parse_error(self, small_split, small_encoder,
                                                         tmp_path, entry):
        path = tmp_path / "gen.json"
        save_model(fit_subgoal_generator(small_split.video, encoder=small_encoder), path)
        obj = json.loads(path.read_text())
        obj["store"][0] = entry
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="'store'"):
            load_model(path)


_CHECKPOINT_KINDS = {
    "world": lambda data, enc, hyper, rng: train_world_model(data, enc, hyper, rng),
    "idm-vanilla": lambda data, enc, hyper, rng: train_idm(data, 0.0, hyper, rng, encoder=enc),
    "idm-sparse": lambda data, enc, hyper, rng: train_idm(data, 0.1, hyper, rng, encoder=enc),
    "ensemble": lambda data, enc, hyper, rng: train_ensemble(data, enc, 2, hyper, rng),
    "subgoal": lambda data, enc, hyper, rng: fit_subgoal_generator(
        [_to_unlabeled(t) for t in data], encoder=enc),
}


@pytest.mark.parametrize("kind", sorted(_CHECKPOINT_KINDS))
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_checkpoint_save_load_save_is_byte_identical(tmp_path_factory, kind, seed):
    rng = np.random.default_rng(seed)
    env = EnvConfig(width=4, height=4, n_objects=2, n_noisy_floors=1, horizon=20)
    data = collect_random_play(env, 60, rng)
    model = _CHECKPOINT_KINDS[kind](data, env.encoder(), TrainConfig(epochs=2, batch_size=16), rng)
    first = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_model(model, first)
    again = first.with_name("again.json")
    save_model(load_model(first), again)
    assert again.read_bytes() == first.read_bytes()
