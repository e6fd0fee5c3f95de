"""The two-stage candidate filter over confidence-adjusted action scores.

build_candidates scores every masked row of one DenoiserOutput with
kernels.score_rows: softmax probabilities p, an entropy penalty exp(-H)
with H = -sum_v p_v * log(p_v + epsilon), and a top-2 margin factor
sigmoid(gamma * (p_(1) - p_(2))); token scores are the product of the
three. Candidates are filtered per position (top-k1) and then pooled
globally (top-k2); ties break toward lower position, then lower token. A
finish step passes the previous step's candidates back in, so only the
rows whose logits changed are scored again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .denoisers import DenoiserOutput
from .errors import ConfigError
from .seqcore import SeqState, UnmaskAction

DEFAULT_GAMMA = 5.0
DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True, eq=False)
class ActionCandidates:
    """Output of the two-stage filter.

    Row i of tokens and scores is positions[i]'s top-k1, score descending
    (ties: token ascending). pooled is the global top-k2 across the union,
    ordered by (score desc, position asc, token asc). logits is the
    read-only (P, V) matrix the rows were scored from, kept so that the
    next finish step can tell which rows are unchanged.
    """

    positions: np.ndarray  # (P,)
    tokens: np.ndarray  # (P, min(k1, V))
    scores: np.ndarray  # (P, min(k1, V))
    pooled: tuple[tuple[UnmaskAction, float], ...]
    logits: np.ndarray = field(repr=False)  # (P, V)


def _top_k1(
    probs: np.ndarray, take: int, gamma: float, epsilon: float, use_entropy_penalty: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1: each row's top-`take` tokens and scores, score desc; the
    stable sort keeps ties token-ascending."""
    scores = kernels.score_rows(probs, gamma, epsilon, use_entropy_penalty)[-1]
    tokens = (-scores).argsort(axis=1, kind="stable")[:, :take]
    return tokens, scores[np.arange(scores.shape[0])[:, None], tokens]


def build_candidates(
    state: SeqState,
    output: DenoiserOutput,
    k1: int,
    k2: int,
    gamma: float = DEFAULT_GAMMA,
    epsilon: float = DEFAULT_EPSILON,
    *,
    use_entropy_penalty: bool = True,
    prev: ActionCandidates | None = None,
) -> ActionCandidates:
    """Two-stage action filter over all masked positions of `state`.

    `output` is the model's prediction at `state`; it must cover exactly
    the masked positions, with one logit per content token. `prev`, when
    given, is the result of an earlier call with the same k1, gamma,
    epsilon and penalty setting: a row whose position and logits are
    bit-equal to a row of prev takes prev's top-k1 as is, and only the
    other rows are softmaxed and scored. Without prev every row is scored
    from output.probs(). Raises ConfigError when k1 or k2 is below 1, or
    when prev was built with another k1 or vocab width.
    """
    if k1 < 1 or k2 < 1:
        raise ConfigError("k1 and k2 must be >= 1")
    output.check_cover(state.masked_index, state.vocab.size)
    rows = np.asarray(state.masked_index, dtype=np.int64)
    logits = output.matrix()
    take = min(k1, logits.shape[1])
    if prev is None or not prev.positions.shape[0]:
        tokens, kept = _top_k1(output.probs(), take, gamma, epsilon, use_entropy_penalty)
    else:
        if prev.tokens.shape[1] != take or prev.logits.shape[1] != logits.shape[1]:
            raise ConfigError("prev was built with another k1 or vocab width")
        at = np.minimum(prev.positions.searchsorted(rows), prev.positions.shape[0] - 1)
        fresh = np.flatnonzero(
            (prev.positions[at] != rows) | (prev.logits[at] != logits).any(axis=1)
        )
        tokens = prev.tokens[at]
        kept = prev.scores[at]
        if fresh.shape[0]:
            probs = kernels.softmax_rows(logits[fresh])
            tokens[fresh], kept[fresh] = _top_k1(probs, take, gamma, epsilon, use_entropy_penalty)
    # stage 2: the union ranked by (score desc, position asc, token asc).
    # Rows ascend by position and each row lists tied tokens in ascending
    # order, so a stable sort of the flattened scores breaks ties that way.
    sc = kept.ravel()
    flat = (-sc).argsort(kind="stable")[:k2]
    pooled = tuple(
        (UnmaskAction(p, t), s)
        for p, t, s in zip(
            rows[flat // take].tolist(), tokens.ravel()[flat].tolist(), sc[flat].tolist()
        )
    )
    return ActionCandidates(
        positions=rows, tokens=tokens, scores=kept, pooled=pooled, logits=logits
    )
