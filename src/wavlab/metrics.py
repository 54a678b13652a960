"""Evaluation metrics: rank correlations, dynamics accuracy, prediction loss.

Tie policy (documented, not inferred): Spearman uses average ranks; Kendall
uses the tau-a denominator n(n-1)/2 and pairs tied in either argument count
as neither concordant nor discordant. Both correlations are therefore
invariant under strictly increasing transforms of either argument.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .datasets import stack_labeled
from .errors import MetricUndefinedError
from .gridworld import GridState, changed_elements, element_value
from .models import _per_item_ce

__all__ = [
    "rank_vector",
    "spearman",
    "kendall",
    "dynamics_accuracy",
    "prediction_loss",
]


def rank_vector(x: Sequence[float]) -> np.ndarray:
    """Average ranks (1-based) aligned to input order; ties share their mean rank."""
    arr = np.asarray(x, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        # Positions i..j (0-based) share the average of ranks i+1..j+1.
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape or x.ndim != 1:
        raise MetricUndefinedError("inputs must be 1-d and of equal length")
    if len(x) < 2:
        raise MetricUndefinedError("rank correlation needs at least 2 items")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise MetricUndefinedError("rank correlation is undefined for constant input")


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """rho = 1 - 6 * sum d_i^2 / (n (n^2 - 1)) over average ranks."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    _check_pair(xa, ya)
    n = len(xa)
    d = rank_vector(xa) - rank_vector(ya)
    return float(1.0 - 6.0 * np.sum(d * d) / (n * (n * n - 1)))


def kendall(x: Sequence[float], y: Sequence[float]) -> float:
    """tau = (N_c - N_d) / (n(n-1)/2) over all unordered pairs; ties excluded."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    _check_pair(xa, ya)
    n = len(xa)
    dx = np.sign(xa[:, None] - xa[None, :])
    dy = np.sign(ya[:, None] - ya[None, :])
    prod = dx * dy
    upper = np.triu_indices(n, k=1)
    concordant = int(np.sum(prod[upper] > 0))
    discordant = int(np.sum(prod[upper] < 0))
    return float((concordant - discordant) / (n * (n - 1) / 2.0))


def dynamics_accuracy(
    predictions: Sequence[GridState],
    truths: Sequence[GridState],
    priors: Sequence[GridState],
) -> float:
    """Prediction accuracy restricted to the elements that actually changed.

    For each item, the elements compared are those whose value differs
    between the prior state and the true successor; items without changes
    contribute to neither numerator nor denominator.
    """
    if not (len(predictions) == len(truths) == len(priors)):
        raise MetricUndefinedError("prediction/truth/prior lists must align")
    correct = 0
    total = 0
    for pred, truth, prior in zip(predictions, truths, priors):
        for elem in changed_elements(prior, truth):
            total += 1
            if element_value(pred, elem) == element_value(truth, elem):
                correct += 1
    if total == 0:
        raise MetricUndefinedError(
            "no element changed anywhere in the evaluation set"
        )
    return correct / total


def prediction_loss(wm, test, probs=None) -> float:
    """Mean per-group cross-entropy of the true successors on a labeled set;
    ``probs``, if given, are ``wm.predict_proba`` on ``test``."""
    if not test:
        raise MetricUndefinedError("prediction loss over an empty set is undefined")
    feats, actions, next_feats = stack_labeled(test)
    if probs is None:
        probs = wm.predict_proba(feats, actions)
    return float(_per_item_ce(probs, next_feats, wm.encoder.n_groups).mean())
