"""Numpy row kernels shared by scoring, rewards, search, theory and decoding.

Every function works on a (P, V) matrix, one row per masked position: the
max-shifted softmax, confidence scoring, exact entropy, and the per-row token
pick (argmax or an inverse-CDF draw).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

# the token-pick modes of pick_tokens
PICK_MODES = ("argmax", "sample")


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max before exponentiating."""
    shifted = matrix - matrix.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


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

    ln_v = math.log(width)
    entropy = -(probs * np.log(probs + epsilon)).sum(axis=1)
    np.clip(entropy, 0.0, ln_v, out=entropy)

    if use_entropy_penalty:
        ent_penalty = np.exp(-entropy)
    else:
        ent_penalty = np.ones(n_rows)

    if width >= 2:
        part = np.partition(probs, width - 2, axis=1)
        margin = part[:, -1] - part[:, -2]
    else:
        margin = probs[:, 0].copy()
    margin_factor = 1.0 / (1.0 + np.exp(-gamma * margin))

    scores = probs * (ent_penalty * margin_factor)[:, None]
    return entropy, ent_penalty, margin, margin_factor, scores


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Exact Shannon entropy -sum p*ln(p) per row, 0*ln(0)=0, clamped to [0, ln V]."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ConfigError("probs must be 2-d")
    safe = np.where(probs > 0.0, probs, 1.0)
    ent = -(probs * np.log(safe)).sum(axis=1)
    np.clip(ent, 0.0, math.log(probs.shape[1]), out=ent)
    return ent


def pick_tokens(
    probs: np.ndarray, mode: str, rng: np.random.Generator | None = None
) -> np.ndarray:
    """One column index per row of `probs`.

    "argmax" takes each row's most probable column (first on ties).
    "sample" draws u ~ U[0, 1) per row, one rng.random(P) call, and takes
    the first column whose cumulative probability reaches u, clamped to
    V-1 for rows whose float cumsum ends below the draw.
    """
    if mode == "argmax":
        return probs.argmax(axis=1)
    if mode not in PICK_MODES:
        raise ConfigError(f"unknown token pick mode {mode!r}; choose argmax or sample")
    if rng is None:
        raise ConfigError("sample mode needs an rng")
    cum = probs.cumsum(axis=1)
    draws = rng.random(probs.shape[0])
    return np.minimum((cum < draws[:, None]).sum(axis=1), probs.shape[1] - 1)
