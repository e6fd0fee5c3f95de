"""The two-stage candidate filter over confidence-adjusted action scores.

build_candidates scores every masked row of one DenoiserOutput with
kernels.score_rows: softmax probabilities p, an entropy penalty exp(-H)
with H = -sum_v p_v * log(p_v + epsilon), and a top-2 margin factor
sigmoid(gamma * (p_(1) - p_(2))); token scores are the product of the
three. Candidates are filtered per position (top-k1) and then pooled
globally (top-k2); ties break toward lower position, then lower token. A
finish step passes the previous step's candidates back in: rows that its
prediction does not name as changed since the previous prediction
(DenoiserOutput.changed_since) keep their top-k1, and the chain of builds
shares a memo from a row's logit bytes to its top-k1, so a changed row is
scored only when no earlier build of the chain scored the same content.
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
    ordered by (score desc, position asc, token asc). output is the
    prediction the rows were scored from, kept so that the next build can
    read which rows changed since it. gamma, epsilon and
    use_entropy_penalty are the scoring settings, which a build passing
    this as prev must share. memo is the score memo shared by every build
    along a prev chain: it maps a logit row's bytes to that row's top-k1
    tokens and scores. It starts empty; the first build from a result
    enters that result's rows, and each build enters the rows it scores.
    """

    positions: np.ndarray  # (P,)
    tokens: np.ndarray  # (P, min(k1, V))
    scores: np.ndarray  # (P, min(k1, V))
    pooled: tuple[tuple[UnmaskAction, float], ...]
    output: DenoiserOutput = field(repr=False)
    gamma: float
    epsilon: float
    use_entropy_penalty: bool
    memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = field(repr=False)


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
    the masked positions, with one logit per content token. Without prev
    every row is scored from output.probs(), and the result starts an
    empty memo. `prev`, when given, is the result of an earlier call with
    the same k1, vocab width, gamma, epsilon and penalty setting, and the
    result shares its memo; the first build from prev enters prev's rows
    into the memo. When `output` was predicted after prev's output
    (Denoiser.predict_after), a row it does not name as changed takes
    prev's top-k1 at its position as is; every other row (all of them for
    an output with no such record) whose bytes are in the memo takes the
    stored result; only the rest are softmaxed and scored, in one batch,
    and entered into the memo. Raises ConfigError when k1 or k2 is below
    1, or when prev was built with other settings.
    """
    if k1 < 1 or k2 < 1:
        raise ConfigError("k1 and k2 must be >= 1")
    rows = output.check_cover(state.masked_index, state.vocab.size)
    logits = output.matrix()
    take = min(k1, logits.shape[1])
    if prev is not None:
        if prev.tokens.shape[1] != take or prev.output.matrix().shape[1] != logits.shape[1]:
            raise ConfigError("prev was built with another k1 or vocab width")
        settings = (gamma, epsilon, use_entropy_penalty)
        if (prev.gamma, prev.epsilon, prev.use_entropy_penalty) != settings:
            raise ConfigError("prev was built with another gamma, epsilon or entropy penalty")
    if prev is None or not prev.positions.shape[0]:
        memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        tokens, kept = _top_k1(output.probs(), take, gamma, epsilon, use_entropy_penalty)
    else:
        memo = prev.memo
        if not memo:
            memo.update(
                zip(map(np.ndarray.tobytes, prev.output.matrix()), zip(prev.tokens, prev.scores))
            )
        since = output.changed_since(prev.output)
        if since is None:
            fresh = range(rows.shape[0])
            tokens = np.empty((rows.shape[0], take), dtype=prev.tokens.dtype)
            kept = np.empty((rows.shape[0], take))
        else:
            at, fresh = since
            tokens = prev.tokens.take(at, axis=0)
            kept = prev.scores.take(at, axis=0)
        unseen: list[int] = []
        keys: list[bytes] = []
        for i in fresh:
            key = logits[i].tobytes()
            hit = memo.get(key)
            if hit is None:
                unseen.append(i)
                keys.append(key)
            else:
                tokens[i], kept[i] = hit
        if unseen:
            idx = np.array(unseen)
            new_tokens, new_kept = _top_k1(
                kernels.softmax_rows(logits[idx]), take, gamma, epsilon, use_entropy_penalty
            )
            tokens[idx] = new_tokens
            kept[idx] = new_kept
            memo.update(zip(keys, zip(new_tokens, new_kept)))
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
        positions=rows,
        tokens=tokens,
        scores=kept,
        pooled=pooled,
        output=output,
        gamma=gamma,
        epsilon=epsilon,
        use_entropy_penalty=use_entropy_penalty,
        memo=memo,
    )
