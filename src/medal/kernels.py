"""Numpy row kernels shared by scoring, rewards, search, theory and decoding.

The row kernels work on a (P, V) matrix, one row per masked position: the
max-shifted softmax, confidence scoring and exact entropy. Each runs its
ufunc chain in place in one buffer (softmax_rows exponentiates a temporary,
so integer matrices still work) and reduces rows with np.add.reduce and
np.maximum.reduce directly, since on a few rows the cost is per numpy call.
No kernel mixes rows, so a kernel over matrices stacked row-wise gives each
row the bits it gets over its own matrix: a search expansion softmaxes, and
takes the entropies of, all its children's predictions in one call each.
draw is the one sampler: a temperature softmax over a short list of scores
and one inverse-CDF draw from it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max before exponentiating."""
    out = np.exp(matrix - np.maximum.reduce(matrix, axis=1, keepdims=True))
    out /= np.add.reduce(out, axis=1, keepdims=True)
    return out


def score_rows(
    probs: np.ndarray,
    gamma: float,
    epsilon: float,
    use_entropy_penalty: bool = True,
):
    """Confidence-adjusted scores for a batch of positions.

    `probs` holds one softmax row per position. For each row: entropy
    -sum p*log(p+epsilon) clamped to [0, ln V], entropy penalty exp(-H),
    top-2 margin and its sigmoid factor 1/(1+exp(-gamma*margin)), and
    per-token scores p * penalty * margin_factor.

    Returns (entropy, ent_penalty, margin, margin_factor, scores), shapes
    (P,), (P,), (P,), (P,), (P, V).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ConfigError("probs must be 2-d (positions x vocab)")
    n_rows, width = probs.shape

    buf = probs + epsilon
    np.log(buf, out=buf)
    buf *= probs
    entropy = -np.add.reduce(buf, axis=1)
    # clip (np.clip's method) keeps a -0.0 entropy, which a np.maximum /
    # np.minimum pair would turn into +0.0
    entropy.clip(0.0, math.log(width), out=entropy)

    if use_entropy_penalty:
        ent_penalty = np.exp(-entropy)
    else:
        ent_penalty = np.ones(n_rows)

    if width >= 2:
        part = probs.copy()
        part.partition(width - 2, axis=1)
        margin = part[:, -1] - part[:, -2]
    else:
        margin = probs[:, 0].copy()
    margin_factor = margin * -gamma
    np.exp(margin_factor, out=margin_factor)
    margin_factor += 1.0
    np.divide(1.0, margin_factor, out=margin_factor)

    scores = np.multiply(probs, (ent_penalty * margin_factor)[:, None], out=buf)
    return entropy, ent_penalty, margin, margin_factor, scores


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Exact Shannon entropy -sum p*ln(p) per row, 0*ln(0)=0, clamped to [0, ln V]."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ConfigError("probs must be 2-d")
    buf = np.where(probs > 0.0, probs, 1.0)
    np.log(buf, out=buf)
    buf *= probs
    ent = -np.add.reduce(buf, axis=1)
    ent.clip(0.0, math.log(probs.shape[1]), out=ent)
    return ent


def _draw_probs(scores: Sequence[float], temperature: float) -> list[float]:
    """softmax((scores - max) / temperature): the shift and the division
    per element, one np.exp over the array, one numpy sum and a division
    per element, which is softmax_rows of the shifted (1, k) row bit for
    bit."""
    top = max(scores)
    ex = np.exp([(s - top) / temperature for s in scores])
    total = float(ex.sum())
    return [e / total for e in ex.tolist()]


def draw(scores: Sequence[float], temperature: float, rng: np.random.Generator) -> int:
    """Index drawn from softmax((scores - max) / temperature) with one
    rng.random() call u: the count of running totals of the probabilities,
    summed in order, that stay below u, clamped to len(scores) - 1 for a
    float total that ends below it."""
    u = rng.random()
    total = 0.0
    for i, p in enumerate(_draw_probs(scores, temperature)):
        total += p
        if total >= u:
            return i
    return len(scores) - 1
