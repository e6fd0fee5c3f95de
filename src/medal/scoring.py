"""The two-stage candidate filter over confidence-adjusted action scores.

build_candidates scores every masked row of one DenoiserOutput with
kernels.score_rows: softmax probabilities p, an entropy penalty exp(-H)
with H = -sum_v p_v * log(p_v + epsilon), and a top-2 margin factor
sigmoid(gamma * (p_(1) - p_(2))); token scores are the product of the
three. Candidates are filtered per position (top-k1) and then pooled
globally (top-k2); ties break toward lower position, then lower token.

build_candidates reads its settings (k1, k2, gamma, epsilon and the
penalty switch) from one SearchConfig. A row's top-k1 is a pure function
of its logit bytes and settings_key(cfg), the four of them that decide
it (k1, gamma, epsilon, penalty; k2 only pools). So a model whose rows
repeat across decodes, such as an n-gram or tabular model, can score
each row content once. The model owns a score memo from row bytes to
top-k1, one per key (Denoiser.score_memo), which every finish step of
every decode on the model looks its rows up in: finish steps score a row
content at most once per model while the memo holds it. A memo holds at
most MEMO_BYTES, counting each entry's row, its top-k1 and
MEMO_ENTRY_BYTES of Python objects, and is cleared when an entry would
pass that, so a model whose rows never repeat cannot grow it without
bound. A finish step also passes the previous step's candidates back in,
which must share its key: rows its prediction names as unchanged since
the previous prediction (DenoiserOutput.changed_since; only the n-gram
model names rows) keep their top-k1 without a lookup. A build without a
memo, such as a search expansion, scores its rows directly and hashes
none, so traffic whose rows never repeat pays for no lookup there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .denoisers import DenoiserOutput
from .errors import ConfigError
from .seqcore import SeqState, UnmaskAction

if TYPE_CHECKING:
    from .mcts import SearchConfig

# bytes one score memo may hold (4 MiB); an entry that would pass it
# clears the memo first. On rows that never repeat (V=32, L=128 finish
# decodes, 2-vCPU x86 guest), a 32 MiB memo made finish steps about 5 %
# slower than a memo dropped after each decode; 4 MiB made no difference.
MEMO_BYTES = 1 << 22
# bytes a memo entry holds besides its row and top-k1 data: the key's
# header, the value tuple, two array views and a dict slot (about 340-390
# bytes measured with tracemalloc on CPython 3.11)
MEMO_ENTRY_BYTES = 512


@dataclass(frozen=True, eq=False)
class ActionCandidates:
    """Output of the two-stage filter.

    Row i of tokens and scores is positions[i]'s top-k1, score descending
    (ties: token ascending). pooled is the global top-k2 across the union,
    ordered by (score desc, position asc, token asc). output is the
    prediction the rows were scored from, kept so that the next build can
    read which rows changed since it. settings is the settings_key of
    the build's config, which a build passing this as prev must share.
    """

    positions: np.ndarray  # (P,)
    tokens: np.ndarray  # (P, min(k1, V))
    scores: np.ndarray  # (P, min(k1, V))
    pooled: tuple[tuple[UnmaskAction, float], ...]
    output: DenoiserOutput = field(repr=False)
    settings: tuple


def settings_key(cfg: SearchConfig) -> tuple:
    """The settings that decide a row's top-k1: (k1, gamma, epsilon,
    use_entropy_penalty). It keys the model's score memo
    (Denoiser.score_memo) and a prev's reuse."""
    return cfg.k1, cfg.gamma, cfg.epsilon, cfg.use_entropy_penalty


def _top_k1(probs: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1: each row's top-min(k1, V) tokens and scores, score desc;
    the stable sort keeps ties token-ascending."""
    scores = kernels.score_rows(probs, cfg.gamma, cfg.epsilon, cfg.use_entropy_penalty)[-1]
    # a copy: memo entries are views of it, and a view would keep (n, V) alive
    tokens = (-scores).argsort(axis=1, kind="stable")[:, : cfg.k1].copy()
    return tokens, scores[np.arange(scores.shape[0])[:, None], tokens]


def build_candidates(
    state: SeqState,
    output: DenoiserOutput,
    cfg: SearchConfig,
    *,
    prev: ActionCandidates | None = None,
    memo: dict[bytes, tuple[np.ndarray, np.ndarray]] | None = None,
) -> ActionCandidates:
    """Two-stage action filter over all masked positions of `state`.

    `output` is the model's prediction at `state`; it must cover exactly
    the masked positions, with one logit per content token. `cfg` gives
    k1, k2, gamma, epsilon and the penalty switch; it is not validated
    here beyond k1 and k2. `prev`, when given, is the result of an
    earlier call with the same settings_key and vocab width. When
    `output` was predicted after prev's output (Denoiser.predict_after),
    a row it does not name as changed takes prev's top-k1 at its position
    as is. Without a `memo` every other row (all of them without such a
    record) is scored, in one batch. `memo` is the model's score memo for
    these settings (Denoiser.score_memo(settings_key(cfg))); with it,
    every other row whose bytes are in the memo takes the stored result,
    and only the rest are scored, each distinct content once, and entered
    into the memo (cleared first when they would pass MEMO_BYTES; only
    what fits goes in). Rows are scored from output.probs(), the
    output's softmax, computed on first use and kept. Raises ConfigError
    when k1 or k2 is below 1, or when prev was built with another
    settings_key or vocab width.
    """
    if cfg.k1 < 1 or cfg.k2 < 1:
        raise ConfigError("k1 and k2 must be >= 1")
    rows = output.check_cover(state.masked_index, state.vocab.size)
    logits = output.matrix()
    take = min(cfg.k1, logits.shape[1])
    settings = settings_key(cfg)
    since = None
    if prev is not None:
        if prev.settings != settings or prev.output.matrix().shape[1] != logits.shape[1]:
            raise ConfigError("prev was built with other scoring settings or vocab width")
        since = output.changed_since(prev.output)
    if since is not None:
        at, fresh = since
        tokens = prev.tokens.take(at, axis=0)
        kept = prev.scores.take(at, axis=0)
    elif memo is None:
        fresh = ()
        tokens, kept = _top_k1(output.probs(), cfg)
    else:
        fresh = range(rows.shape[0])
        tokens = np.empty((rows.shape[0], take), dtype=np.intp)
        kept = np.empty((rows.shape[0], take))
    if memo is None:
        if fresh:
            idx = np.array(fresh)
            tokens[idx], kept[idx] = _top_k1(output.probs()[idx], cfg)
    else:
        missed: list[int] = []
        keys: list[bytes] = []
        for i in fresh:
            key = logits[i].tobytes()
            hit = memo.get(key)
            if hit is None:
                missed.append(i)
                keys.append(key)
            else:
                tokens[i], kept[i] = hit
        if missed:
            # one row of each distinct content is scored; a repeated
            # content takes the result of its scored row
            row_of = dict(zip(keys, missed))
            scored = idx = np.array(missed)
            pick = slice(None)
            if len(row_of) < len(keys):
                scored = np.fromiter(row_of.values(), np.intp, len(row_of))
                slot = dict(zip(row_of, range(len(row_of))))
                pick = [slot[key] for key in keys]
            new_tokens, new_kept = _top_k1(output.probs()[scored], cfg)
            tokens[idx] = new_tokens[pick]
            kept[idx] = new_kept[pick]
            entry = logits[0].nbytes + (new_tokens.itemsize + new_kept.itemsize) * take
            room = MEMO_BYTES // (entry + MEMO_ENTRY_BYTES)
            if len(memo) + len(row_of) > room:
                memo.clear()
            memo.update(islice(zip(row_of, zip(new_tokens, new_kept)), room))
    # stage 2: the union ranked by (score desc, position asc, token asc).
    # Rows ascend by position and each row lists tied tokens in ascending
    # order, so a stable sort of the flattened scores breaks ties that way.
    sc = kept.ravel()
    flat = (-sc).argsort(kind="stable")[: cfg.k2]
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
        settings=settings,
    )
