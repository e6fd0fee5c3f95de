"""Confidence-adjusted action scoring and the two-stage candidate filter.

Each masked position gets softmax probabilities p, an entropy penalty
exp(-H) with H = -sum_v p_v * log(p_v + epsilon), and a top-2 margin factor
sigmoid(gamma * (p_(1) - p_(2))). Token scores are the product of the three.
Candidates are filtered per position (top-k1) and then pooled globally
(top-k2); ties break toward lower position, then lower token.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .denoisers import DenoiserOutput
from .errors import NonFiniteLogits
from .seqcore import SeqState, UnmaskAction, masked_positions

DEFAULT_GAMMA = 5.0
DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True)
class PositionScore:
    """Full scoring breakdown for one masked position.

    ent_penalty == exp(-entropy) and scores[v] == probs[v] * ent_penalty *
    margin_factor in the default mode; with the entropy penalty disabled
    (ablation), ent_penalty is reported as 1.0.
    """

    position: int
    probs: tuple[float, ...]
    entropy: float
    ent_penalty: float
    top2_margin: float
    margin_factor: float
    scores: tuple[float, ...]

    def best_token(self) -> int:
        best = 0
        for v in range(1, len(self.scores)):
            if self.scores[v] > self.scores[best]:
                best = v
        return best

    def to_json(self) -> dict:
        return {
            "position": self.position,
            "probs": list(self.probs),
            "entropy": self.entropy,
            "ent_penalty": self.ent_penalty,
            "top2_margin": self.top2_margin,
            "margin_factor": self.margin_factor,
            "scores": list(self.scores),
        }


@dataclass(frozen=True, eq=False)
class ActionCandidates:
    """Output of the two-stage filter.

    Row i of tokens and scores is positions[i]'s top-k1, score descending
    (ties: token ascending). pooled is the global top-k2 across the union,
    ordered by (score desc, position asc, token asc). per_position is the
    same per-position ranking as {position: ((action, score), ...)}, built
    on first access.
    """

    positions: np.ndarray  # (P,)
    tokens: np.ndarray  # (P, min(k1, V))
    scores: np.ndarray  # (P, min(k1, V))
    pooled: tuple[tuple[UnmaskAction, float], ...]

    @cached_property
    def per_position(self) -> dict[int, tuple[tuple[UnmaskAction, float], ...]]:
        return {
            pos: tuple((UnmaskAction(pos, tok), sc) for tok, sc in zip(toks, scs))
            for pos, toks, scs in zip(
                self.positions.tolist(), self.tokens.tolist(), self.scores.tolist()
            )
        }


def _validate_logits(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteLogits("logits contain NaN or infinity")


def score_position(
    logits,
    gamma: float = DEFAULT_GAMMA,
    epsilon: float = DEFAULT_EPSILON,
    *,
    position: int = 0,
    use_entropy_penalty: bool = True,
) -> PositionScore:
    """Score a single position's logit vector."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValueError("logits must be a 1-d vector over at least two tokens")
    _validate_logits(arr)
    probs = kernels.softmax_rows(arr[None, :])
    ent, pen, margin, mf, scores = kernels.score_rows(probs, gamma, epsilon, use_entropy_penalty)
    return PositionScore(
        position=position,
        probs=tuple(probs[0]),
        entropy=float(ent[0]),
        ent_penalty=float(pen[0]),
        top2_margin=float(margin[0]),
        margin_factor=float(mf[0]),
        scores=tuple(scores[0]),
    )


def score_state(
    state: SeqState,
    output,
    gamma: float = DEFAULT_GAMMA,
    epsilon: float = DEFAULT_EPSILON,
    *,
    use_entropy_penalty: bool = True,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Batch-score all masked positions.

    `output` may be a DenoiserOutput or a plain {position: logits} mapping;
    it must cover exactly the masked positions, with one logit per content
    token. Returns (positions ascending, probs matrix, scores matrix).
    """
    if not isinstance(output, DenoiserOutput):
        output = DenoiserOutput(output)
    positions = masked_positions(state)
    output.check_cover(positions, state.vocab.size)
    probs = output.probs()
    scores = kernels.score_rows(probs, gamma, epsilon, use_entropy_penalty)[-1]
    return positions, probs, scores


def build_candidates(
    state: SeqState,
    output,
    k1: int,
    k2: int,
    gamma: float = DEFAULT_GAMMA,
    epsilon: float = DEFAULT_EPSILON,
    *,
    use_entropy_penalty: bool = True,
) -> ActionCandidates:
    """Two-stage action filter over all masked positions of `state`."""
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be >= 1")
    positions, _, scores = score_state(
        state, output, gamma, epsilon, use_entropy_penalty=use_entropy_penalty
    )
    rows = np.asarray(positions, dtype=np.int64)
    take = min(k1, scores.shape[1])
    # stage 1: per row, score desc; the stable sort keeps ties token-ascending
    tokens = np.argsort(-scores, axis=1, kind="stable")[:, :take]
    kept = np.take_along_axis(scores, tokens, axis=1)
    # stage 2: the union ranked by (score desc, position asc, token asc)
    pos = np.repeat(rows, take)
    tok = tokens.ravel()
    sc = kept.ravel()
    order = np.lexsort((tok, pos, -sc))[:k2]
    pooled = tuple(
        (UnmaskAction(p, t), s)
        for p, t, s in zip(pos[order].tolist(), tok[order].tolist(), sc[order].tolist())
    )
    return ActionCandidates(positions=rows, tokens=tokens, scores=kept, pooled=pooled)
