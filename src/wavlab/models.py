"""Learnable dynamics models over the factored feature encoding.

All models are softmax-linear heads over fixed feature maps, trained from
scratch with plain mini-batch gradient descent at a fixed step size, so
training is deterministic given (data order, hyperparameters, seed) and has
no dependency beyond numpy. The training kernels are bit-identical to building
each batch from scratch, with dense matrix products (README, "Training kernels").

Feature maps: purely additive heads over concatenated one-hots cannot
represent shift dynamics on cyclic groups (no weight assignment separates
"direction rotated left" from "rotated right"), so both models use explicit
interaction features:

- :class:`WorldModel`: one linear map per action from ``[features(s), 1]``
  to the output group logits, i.e. a linear head over the sparse product
  ``features(s) x onehot(a)``.
- :class:`InverseModel`: a 7-way classifier on ``[m*s, m*s' - m*s, pairs, 1]``
  where ``m = sigmoid(gates)`` is a learned per-feature mask shared by both
  states and ``pairs`` holds, for every one-hot group, the product of the
  group's masked s-feature with its masked s'-feature, in one transition
  table per family of groups. The mask is learned exactly when the sparsity
  weight is positive; at weight 0 there are no gates and the mask is one.
- :class:`Ensemble`: world models trained on different seeds/bootstraps;
  their prediction variance is the epistemic-uncertainty signal.
"""

from __future__ import annotations

import base64
import json
import math
import typing
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ParseError, TrainingDivergedError, UnsupportedVersionError
from .datasets import LabeledTransition, stack_labeled
from .gridworld import Action, Encoder

__all__ = [
    "TrainConfig",
    "DEFAULT_WM_HYPER",
    "DEFAULT_IDM_HYPER",
    "WorldModel",
    "InverseModel",
    "Ensemble",
    "train_world_model",
    "train_idm",
    "train_ensemble",
    "disagreement_batch",
    "action_accuracy",
    "persistence_world_model",
    "save_model",
    "load_model",
]

N_ACTIONS = len(Action)
MODEL_SCHEMA = "wav-model/2"
SPARSITY_CUTOFF = 0.05


# The range of each TrainConfig field; gate_init is a logit and takes any value.
_HYPER_RANGES = {
    "learning_rate": ("> 0", lambda v: v > 0),
    "batch_size": (">= 1", lambda v: v >= 1),
    "epochs": (">= 0", lambda v: v >= 0),
    "init_scale": (">= 0", lambda v: v >= 0),
    "gate_lr": ("> 0 or null", lambda v: v is None or v > 0),
    "gate_warmup_frac": ("in [0, 1]", lambda v: 0 <= v <= 1),
}


def _range_error(name: str, value) -> Optional[str]:
    rule, ok = _HYPER_RANGES.get(name, ("", lambda v: True))
    return None if ok(value) else f"must be {rule}, got {value!r}"


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent hyperparameters (all knobs, defaults are desk-scale).

    The gate knobs apply to the mask only. ``gate_lr`` defaults to a multiple
    of the base step scaled by the feature count, so the mean-normalized
    sparsity penalty exerts a per-gate pressure independent of the feature
    count. Gates start near-open (``gate_init`` is a logit) and stay frozen
    for the first ``gate_warmup_frac`` of the epochs so the classifier first
    learns which features carry signal; the penalty then prunes the gates
    whose removal costs nothing.
    """

    learning_rate: float = 0.1
    batch_size: int = 64
    epochs: int = 30
    init_scale: float = 0.01
    gate_init: float = 2.0
    gate_lr: Optional[float] = None
    gate_warmup_frac: float = 0.3

    def __post_init__(self):
        for name in _HYPER_RANGES:
            problem = _range_error(name, getattr(self, name))
            if problem:
                raise ConfigError(f"{name}: {problem}")

    def resolved_gate_lr(self, n_features: int) -> float:
        if self.gate_lr is not None:
            return self.gate_lr
        return 20.0 * self.learning_rate * n_features


# The world model tolerates a larger step because its loss averages over all
# output groups; the inverse model's single softmax head over ~400 active
# binary features needs a small step and many passes to fit the rare
# interaction classes.
DEFAULT_WM_HYPER = TrainConfig(learning_rate=0.3, batch_size=64, epochs=30)
DEFAULT_IDM_HYPER = TrainConfig(learning_rate=0.03, batch_size=16, epochs=300)


def _batches(order: np.ndarray, size: int):
    for i in range(0, len(order), size):
        yield order[i : i + size]


def _softmax_runs(logits: np.ndarray, encoder: Encoder) -> np.ndarray:
    """Per-group softmax over a concatenation of one-hot groups; it sums per run
    of equal-size groups, since ``add.reduceat`` adds in another order."""
    n = logits.shape[0]
    sizes = encoder.group_sizes
    probs = logits - np.repeat(
        np.maximum.reduceat(logits, encoder.group_starts, axis=1), sizes, axis=1
    )
    np.exp(probs, out=probs)
    sums = np.concatenate([
        probs[:, start:stop].reshape(n, count, size).sum(axis=2)
        for start, stop, count, size in encoder.run_slices
    ], axis=1)
    probs /= np.repeat(sums, sizes, axis=1)
    return probs


def _per_item_ce(probs: np.ndarray, targets: np.ndarray, n_groups: int) -> np.ndarray:
    """Mean per-group cross-entropy for each row; targets are one-hot."""
    logs = np.where(targets > 0, np.log(np.maximum(probs, 1e-300)), 0.0)
    return -logs.sum(axis=1) / n_groups


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


# ---------------------------------------------------------------------------
# World model
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class WorldModel:
    """Shared-plus-per-action linear next-state predictor.

    ``weights`` has shape (1 + n_actions, d+1, d_out): block 0 is shared by
    every action and learns the action-independent dynamics (persistence,
    walls, floor statistics); block 1+a is the action's residual. Without
    the shared block, actions that are rare in a small seed set would be
    predicted from a nearly untrained table.
    """

    encoder: Encoder
    weights: np.ndarray
    hyper: TrainConfig
    loss_curve: list[float] = field(default_factory=list)

    def logits(self, feats: np.ndarray, actions) -> np.ndarray:
        feats = np.atleast_2d(feats)
        actions = np.asarray(actions, dtype=np.intp)
        X = np.concatenate([feats, np.ones((feats.shape[0], 1))], axis=1)
        out = X @ self.weights[0]
        for a in range(N_ACTIONS):
            rows = np.flatnonzero(actions == a)
            if len(rows):
                out[rows] += X[rows] @ self.weights[1 + a]
        return out

    def predict_proba(self, feats: np.ndarray, actions) -> np.ndarray:
        return _softmax_runs(self.logits(feats, actions), self.encoder)

    def argmax_features(self, probs: np.ndarray) -> np.ndarray:
        """Per-group argmax as a one-hot feature matrix."""
        out = np.zeros_like(probs)
        winners = self.encoder.group_argmax(probs) + self.encoder.group_starts
        np.put_along_axis(out, winners, 1.0, axis=1)
        return out

    def per_item_loss(self, feats: np.ndarray, actions, next_feats: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(feats, actions)
        return _per_item_ce(probs, np.atleast_2d(next_feats), self.encoder.n_groups)


def _wm_loss_and_grad(
    weights: np.ndarray,
    X: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    encoder: Encoder,
):
    """Mean per-group cross-entropy and its gradient for one batch.

    ``X`` already carries the bias column; weights[0] is the shared block.
    The gradient maps each block the batch touches to its array: the shared
    block and the block of every action present. A single-action batch
    takes one product, which serves both of its blocks.
    """
    n, n_groups = X.shape[0], encoder.n_groups
    present = sorted(set(actions.tolist()))
    rows_of = {
        a: np.flatnonzero(actions == a) if len(present) > 1 else slice(None) for a in present
    }
    logits = np.empty((n, weights.shape[2]))
    for a, rows in rows_of.items():
        logits[rows] = X[rows] @ (weights[0] + weights[1 + a])
    probs = _softmax_runs(logits, encoder)
    loss = float(_per_item_ce(probs, targets, n_groups).sum() / n)
    dlogits = (probs - targets) / (n * n_groups)
    grad = {0: X.T @ dlogits}
    for a, rows in rows_of.items():
        grad[1 + a] = grad[0] if len(rows_of) == 1 else X[rows].T @ dlogits[rows]
    return loss, grad


def train_world_model(
    data: Sequence[LabeledTransition],
    encoder: Encoder,
    hyper: Optional[TrainConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> WorldModel:
    """Minimize mean per-group cross-entropy of the successor encoding."""
    if not data:
        raise ConfigError("cannot train a world model on an empty dataset")
    hyper = hyper or DEFAULT_WM_HYPER
    rng = rng if rng is not None else np.random.default_rng(0)
    S, A, N = stack_labeled(data)
    d_out = N.shape[1]
    W = rng.normal(0.0, hyper.init_scale, size=(1 + N_ACTIONS, S.shape[1] + 1, d_out))
    model = WorldModel(encoder=encoder, weights=W, hyper=hyper)
    X = np.concatenate([S, np.ones((len(data), 1))], axis=1)
    by_action = [np.flatnonzero(A == a) for a in range(N_ACTIONS)]
    for _ in range(hyper.epochs):
        # Batches are stratified by action: each update touches the shared
        # block and exactly one per-action block with one matrix product.
        batches = [
            batch
            for rows in by_action
            for batch in _batches(rows[rng.permutation(len(rows))], hyper.batch_size)
        ]
        epoch_losses = []
        for bi in rng.permutation(len(batches)):
            batch = batches[bi]
            loss, grad = _wm_loss_and_grad(W, X[batch], A[batch], N[batch], encoder)
            # One action per batch, so both blocks take the same step.
            step = hyper.learning_rate * grad[0]
            for block in grad:
                W[block] -= step
            epoch_losses.append(loss)
        epoch_loss = float(np.mean(epoch_losses))
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"world-model loss became non-finite at epoch {len(model.loss_curve) + 1} "
                f"(lr={hyper.learning_rate}, batch={hyper.batch_size})"
            )
        model.loss_curve.append(epoch_loss)
    return model


def persistence_world_model(encoder: Encoder, gain: float = 12.0) -> WorldModel:
    """A fixed model predicting s' = s; the trivial baseline for dynamics accuracy."""
    d = encoder.n_features
    W = np.zeros((1 + N_ACTIONS, d + 1, d))
    W[0, :d, :] = gain * np.eye(d)
    return WorldModel(encoder=encoder, weights=W, hyper=TrainConfig(epochs=0))


# ---------------------------------------------------------------------------
# Inverse dynamics model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PairStructure:
    """Transition-pair feature layout: one table of (class, next class) columns.

    Groups whose names share a first element form a family, which owns one
    block of ``size * size`` columns; each member adds its pair there scaled
    by 1 / member count. A singleton group (direction, position, hands) thus
    gets a full pair table, while per-cell families share a position-pooled
    one, so an interaction seen at one cell informs every other cell and the
    model cannot memorize it positionally. Singleton families come first.
    """

    group_start: np.ndarray  # (G,) feature offset of each group
    group_size: np.ndarray  # (G,)
    base: np.ndarray  # (G,) first pair column of the group's family
    scale: np.ndarray  # (G,) 1 / member count of the group's family
    n_columns: int

    @property
    def input_width(self) -> int:
        """Columns of the inverse model's input ``[m*s, m*s' - m*s, pairs, 1]``."""
        return 2 * int(self.group_size.sum()) + self.n_columns + 1


def _pair_structure(encoder: Encoder) -> _PairStructure:
    families: dict[str, list[int]] = {}
    for gi, g in enumerate(encoder.groups):
        families.setdefault(g.name[0], []).append(gi)

    G = len(encoder.groups)
    base = np.zeros(G, dtype=np.intp)
    scale = np.zeros(G)
    n_columns = 0
    # A stable sort: singleton families first, each kind in group order.
    for members in sorted(families.values(), key=lambda m: len(m) > 1):
        base[members] = n_columns
        scale[members] = 1.0 / len(members)
        n_columns += int(encoder.group_sizes[members[0]]) ** 2
    return _PairStructure(encoder.group_starts, encoder.group_sizes, base, scale, n_columns)


def _pair_columns(ps: _PairStructure, cls_s: np.ndarray, cls_s2: np.ndarray):
    """Active pair columns and the feature indices of both states, all (n, G)."""
    cols = ps.base + cls_s * ps.group_size + cls_s2
    return cols, ps.group_start + cls_s, ps.group_start + cls_s2


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over each row, computed in place."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


@dataclass(eq=False)
class InverseModel:
    """Masked 7-way action classifier on state-pair features."""

    encoder: Encoder
    weights: np.ndarray
    gate_logits: Optional[np.ndarray]
    sparsity_weight: float
    hyper: TrainConfig
    loss_curve: list[float] = field(default_factory=list)

    def __post_init__(self):
        self._pairs = _pair_structure(self.encoder)

    @property
    def mask(self) -> np.ndarray:
        if self.gate_logits is None:
            return np.ones(self.encoder.n_features)
        return _sigmoid(self.gate_logits)

    @property
    def sparsity(self) -> float:
        """Fraction of gates effectively closed (below the report cutoff)."""
        if self.gate_logits is None:
            return 0.0
        return float((self.mask < SPARSITY_CUTOFF).mean())

    def inputs(self, feats: np.ndarray, next_feats: np.ndarray) -> np.ndarray:
        feats = np.atleast_2d(feats)
        next_feats = np.atleast_2d(next_feats)
        columns = _pair_columns(
            self._pairs, self.encoder.group_argmax(feats), self.encoder.group_argmax(next_feats)
        )
        return _idm_inputs(self.mask, feats, next_feats, columns, self._pairs)

    def predict_proba(self, feats: np.ndarray, next_feats: np.ndarray) -> np.ndarray:
        return _row_softmax(self.inputs(feats, next_feats) @ self.weights)

    def infer_batch(self, feats: np.ndarray, next_feats: np.ndarray):
        """Most likely action per row (ties break to the lowest index) and the distributions."""
        probs = self.predict_proba(np.atleast_2d(feats), np.atleast_2d(next_feats))
        return probs.argmax(axis=1), probs


def _idm_inputs(mask, feats, next_feats, columns, ps: _PairStructure) -> np.ndarray:
    """[m*s, m*s' - m*s, pairs, 1] for the ``columns`` of :func:`_pair_columns`.

    The second block is the change in the masked features, an invertible
    reparameterization of the raw pair that concentrates the transition
    signal in the few features that differ.
    """
    n = feats.shape[0]
    cols, i_idx, j_idx = columns
    flat = (np.arange(n)[:, None] * ps.n_columns + cols).ravel()
    weights = (mask[i_idx] * mask[j_idx] * ps.scale).ravel()
    pairs = np.bincount(flat, weights, n * ps.n_columns).reshape(n, ps.n_columns)
    masked = feats * mask
    return np.concatenate([masked, next_feats * mask - masked, pairs, np.ones((n, 1))], axis=1)


def _idm_loss_and_grad(
    W: np.ndarray,
    X: np.ndarray,
    actions: np.ndarray,
    penalty: float,
    gated: Optional[tuple] = None,
):
    """Loss = cross-entropy of the ``actions`` on the inputs ``X`` + ``penalty``.

    ``X`` is :func:`_idm_inputs` of the batch under a mask ``m`` and
    ``penalty`` is sparsity_weight * mean(m). The gate gradient is None
    unless ``gated`` is ``(m, sparsity_weight, feats, next_feats, columns,
    ps)``, the mask ``sigmoid(gates)`` and the batch that built ``X``.
    """
    n = X.shape[0]
    rows = np.arange(n)
    dlogits = _row_softmax(X @ W)
    ce = float(-np.log(np.maximum(dlogits[rows, actions], 1e-300)).sum() / n)
    loss = ce + penalty
    dlogits[rows, actions] -= 1.0
    dlogits /= n
    dW = X.T @ dlogits
    if gated is None:
        return loss, dW, None
    m, sparsity_weight, feats, next_feats, (cols, i_idx, j_idx), ps = gated
    d = len(m)
    dX = dlogits @ W.T
    dm = (dX[:, :d] * feats).sum(axis=0)
    dm += (dX[:, d : 2 * d] * (next_feats - feats)).sum(axis=0)
    dpairs = dX[rows[:, None], 2 * d + cols] * ps.scale
    # One scatter in np.add.at's order: the running dm, the i terms, the j terms.
    dm = np.bincount(
        np.concatenate([np.arange(d), i_idx.ravel(), j_idx.ravel()]),
        np.concatenate([dm, (dpairs * m[j_idx]).ravel(), (dpairs * m[i_idx]).ravel()]),
    )
    dm += sparsity_weight / d
    return loss, dW, dm * m * (1.0 - m)


def train_idm(
    data: Sequence[LabeledTransition],
    sparsity_weight: float = 0.0,
    hyper: Optional[TrainConfig] = None,
    rng: Optional[np.random.Generator] = None,
    encoder: Optional[Encoder] = None,
) -> InverseModel:
    """Fit the action classifier; the mask is learned exactly when sparsity_weight > 0.

    The vanilla configuration (weight 0, no gates) is a plain softmax
    classifier on the unmasked pair features. While the mask is fixed (vanilla,
    or sparse warm-up) batches are row slices of inputs built once.
    """
    if not data:
        raise ConfigError("cannot train an inverse model on an empty dataset")
    if sparsity_weight < 0:
        raise ConfigError("sparsity_weight must be >= 0")
    hyper = hyper or DEFAULT_IDM_HYPER
    rng = rng if rng is not None else np.random.default_rng(0)
    if encoder is None:
        t0 = data[0]
        encoder = Encoder(t0.state.width, t0.state.height, t0.state.floor_palette)

    S, A, S2 = stack_labeled(data)
    d = encoder.n_features
    ps = _pair_structure(encoder)
    columns = _pair_columns(ps, encoder.group_argmax(S), encoder.group_argmax(S2))
    W = rng.normal(0.0, hyper.init_scale, size=(ps.input_width, N_ACTIONS))
    gates = np.full(d, float(hyper.gate_init)) if sparsity_weight > 0 else None
    model = InverseModel(encoder=encoder, weights=W, gate_logits=gates,
                         sparsity_weight=sparsity_weight, hyper=hyper)
    gate_lr = hyper.resolved_gate_lr(d)
    warmup_epochs = int(np.ceil(hyper.gate_warmup_frac * hyper.epochs))
    m = model.mask
    X = _idm_inputs(m, S, S2, columns, ps)
    penalty = sparsity_weight * float(m.sum() / d)

    for epoch in range(hyper.epochs):
        order = rng.permutation(len(data))
        epoch_losses = []
        # The gates stay frozen through the warm-up epochs.
        learn_gates = gates is not None and epoch >= warmup_epochs
        for batch in _batches(order, hyper.batch_size):
            if learn_gates:
                m = _sigmoid(gates)
                penalty = sparsity_weight * float(m.sum() / d)
                sb, s2b, cb = S[batch], S2[batch], tuple(c[batch] for c in columns)
                Xb = _idm_inputs(m, sb, s2b, cb, ps)
                gated = (m, sparsity_weight, sb, s2b, cb, ps)
            else:
                Xb, gated = X[batch], None
            loss, dW, dgates = _idm_loss_and_grad(W, Xb, A[batch], penalty, gated)
            W -= hyper.learning_rate * dW
            if learn_gates:
                gates -= gate_lr * dgates
            epoch_losses.append(loss)
        epoch_loss = float(np.mean(epoch_losses))
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"inverse-model loss became non-finite at epoch {len(model.loss_curve) + 1}"
            )
        model.loss_curve.append(epoch_loss)
    return model


def action_accuracy(idm: InverseModel, data: Sequence[LabeledTransition]) -> float:
    if not data:
        raise ConfigError("accuracy over an empty dataset is undefined")
    S, A, S2 = stack_labeled(data)
    pred, _ = idm.infer_batch(S, S2)
    return float((pred == A).mean())


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Ensemble:
    members: list[WorldModel]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ConfigError("an ensemble needs at least 2 members")


def train_ensemble(
    data: Sequence[LabeledTransition],
    encoder: Encoder,
    m: int,
    hyper: Optional[TrainConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> Ensemble:
    """Train ``m`` world models, each on its own seed and bootstrap resample."""
    if m < 2:
        raise ConfigError(f"ensemble size must be >= 2, got {m}")
    rng = rng if rng is not None else np.random.default_rng(0)
    members = []
    for child in rng.spawn(m):
        idx = child.integers(len(data), size=len(data))
        subset = [data[i] for i in idx]
        members.append(train_world_model(subset, encoder, hyper=hyper, rng=child))
    return Ensemble(members=members)


def disagreement_batch(ens: Ensemble, feats: np.ndarray, actions) -> np.ndarray:
    """Per item, the mean over groups of the across-member prediction variance."""
    feats = np.atleast_2d(feats)
    stacked = np.stack([m.predict_proba(feats, actions) for m in ens.members])
    var = stacked.var(axis=0)
    n = feats.shape[0]
    per_group = np.concatenate([
        var[:, start:stop].reshape(n, count, size).mean(axis=2)
        for start, stop, count, size in ens.members[0].encoder.run_slices
    ], axis=1)
    return per_group.mean(axis=1)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _encoder_meta(encoder: Encoder) -> dict:
    return {
        "width": encoder.width,
        "height": encoder.height,
        "floor_palette": encoder.floor_palette,
    }


def _pack(array: np.ndarray) -> dict:
    """A float array as its shape plus base64 of its little-endian float64 bytes."""
    raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return {"shape": list(array.shape), "f8": base64.b64encode(raw).decode("ascii")}


def _model_payload(model) -> dict:
    if isinstance(model, WorldModel):
        return {
            "kind": "world",
            "env": _encoder_meta(model.encoder),
            "hyper": asdict(model.hyper),
            "weights": _pack(model.weights),
            "loss_curve": model.loss_curve,
        }
    if isinstance(model, InverseModel):
        return {
            "kind": "idm",
            "env": _encoder_meta(model.encoder),
            "hyper": asdict(model.hyper),
            "sparsity_weight": model.sparsity_weight,
            "weights": _pack(model.weights),
            "gate_logits": None if model.gate_logits is None else _pack(model.gate_logits),
            "loss_curve": model.loss_curve,
        }
    if isinstance(model, Ensemble):
        return {"kind": "ensemble", "members": [_model_payload(m) for m in model.members]}
    raise ConfigError(f"cannot serialize model of type {type(model)!r}")


def save_model(model, path) -> None:
    """Write one JSON object; float arrays are stored as base64 float64 payloads."""
    payload = {"schema": MODEL_SCHEMA}
    payload.update(_model_payload(model))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")))
        fh.write("\n")


_NUMBER = (int, float)


def _key(obj: dict, key: str, where: str, types: tuple):
    """``obj[key]`` checked against ``types``; ``where`` prefixes the key's path."""
    name = where + key
    if key not in obj:
        raise ParseError(f"missing key {name!r}")
    value = obj[key]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ParseError(f"key {name!r}: unexpected {type(value).__name__} value")
    return value


def _unpack(obj: dict, key: str, where: str, want_shape: tuple) -> np.ndarray:
    name = where + key
    packed = _key(obj, key, where, (dict,))
    if set(packed) != {"shape", "f8"}:
        raise ParseError(f"key {name!r}: expected exactly 'shape' and 'f8', got {sorted(packed)}")
    shape = packed["shape"]
    if not isinstance(shape, list) or not all(type(k) is int and k >= 0 for k in shape):
        raise ParseError(f"key {name!r}: shape {shape!r} is not a list of sizes")
    try:
        raw = base64.b64decode(packed["f8"], validate=True)
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise ParseError(f"key {name!r}: bad base64 payload ({err})") from err
    if len(raw) != 8 * math.prod(shape):
        raise ParseError(
            f"key {name!r}: payload has {len(raw)} bytes, shape {shape} needs "
            f"{8 * math.prod(shape)}"
        )
    if tuple(shape) != want_shape:
        raise ParseError(
            f"key {name!r}: shape {shape} does not fit the encoder, expected {list(want_shape)}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


# JSON value types each annotation accepts: floats take integers too, and
# booleans fit no number.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), tuple: (list, tuple)}


def _json_type_error(value, hint) -> Optional[str]:
    """Why ``value`` does not fit the annotation ``hint``, or None if it fits.

    ``Optional[X]`` also takes null.
    """
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if type(value) in _JSON_TYPES[hint]:
        return None
    expected = "list" if hint is tuple else hint.__name__
    return f"expected {expected}, got {type(value).__name__} {value!r}"


def _hyper_from(obj: dict, where: str) -> TrainConfig:
    hyper = _key(obj, "hyper", where, (dict,))
    hints = typing.get_type_hints(TrainConfig)
    unknown, missing = sorted(set(hyper) - set(hints)), sorted(set(hints) - set(hyper))
    if unknown or missing:
        raise ParseError(
            f"key {where + 'hyper'!r}: unknown keys {unknown}, missing keys {missing}"
        )
    for name, value in hyper.items():
        problem = _json_type_error(value, hints[name]) or _range_error(name, value)
        if problem:
            raise ParseError(f"key {where + 'hyper.' + name!r}: {problem}")
    return TrainConfig(**hyper)


def _loss_curve_from(obj: dict, where: str) -> list[float]:
    curve = _key(obj, "loss_curve", where, (list,))
    if not all(isinstance(v, _NUMBER) and not isinstance(v, bool) for v in curve):
        raise ParseError(f"key {where + 'loss_curve'!r}: expected a list of numbers")
    return list(curve)


def _model_from_payload(obj, where: str = ""):
    if not isinstance(obj, dict):
        raise ParseError(f"{where or 'model file'}: expected an object")
    kind = obj.get("kind")
    if kind == "ensemble":
        members = _key(obj, "members", where, (list,))
        if len(members) < 2:
            raise ParseError(f"key {where + 'members'!r}: an ensemble needs at least 2 members")
        loaded = []
        for i, member in enumerate(members):
            at = f"{where}members[{i}]."
            if isinstance(member, dict) and member.get("kind") != "world":
                raise ParseError(
                    f"key {at + 'kind'!r}: an ensemble member must be a world model, "
                    f"got {member.get('kind')!r}"
                )
            loaded.append(_model_from_payload(member, at))
            env, env0 = _encoder_meta(loaded[i].encoder), _encoder_meta(loaded[0].encoder)
            if env != env0:
                raise ParseError(f"key {at + 'env'!r}: {env} differs from members[0]'s {env0}")
        return Ensemble(members=loaded)
    if kind not in ("world", "idm"):
        raise ParseError(f"unknown model kind {kind!r}")
    env = _key(obj, "env", where, (dict,))
    try:
        encoder = Encoder(env["width"], env["height"], env["floor_palette"])
    except (KeyError, TypeError, ConfigError) as err:
        raise ParseError(f"key {where + 'env'!r}: {err}") from err
    hyper = _hyper_from(obj, where)
    d = encoder.n_features
    if kind == "world":
        return WorldModel(
            encoder=encoder,
            weights=_unpack(obj, "weights", where, (1 + N_ACTIONS, d + 1, d)),
            hyper=hyper,
            loss_curve=_loss_curve_from(obj, where),
        )
    width = _pair_structure(encoder).input_width
    gates = None
    if _key(obj, "gate_logits", where, (dict, type(None))) is not None:
        gates = _unpack(obj, "gate_logits", where, (d,))
    return InverseModel(
        encoder=encoder,
        weights=_unpack(obj, "weights", where, (width, N_ACTIONS)),
        gate_logits=gates,
        sparsity_weight=_key(obj, "sparsity_weight", where, _NUMBER),
        hyper=hyper,
        loss_curve=_loss_curve_from(obj, where),
    )


def load_model(path):
    """Read a model written by :func:`save_model`; malformed files raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad model file: {err.msg}", line=err.lineno) from err
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != MODEL_SCHEMA:
        raise UnsupportedVersionError(f"expected schema {MODEL_SCHEMA!r}, got {schema!r}")
    return _model_from_payload(obj)
