"""Information-gain rewards over masked entropies.

masked_entropies(states, outputs) reads the per-masked-position Shannon
entropies of the model's predictive distributions (exact entropy here; the
epsilon-regularized variant belongs to action scoring only) from
predictions the caller already holds, a batch at a time: each read-ahead
(StateTable.read_ahead) passes the batch it predicted, all the children
of a search expansion or of a theory expansion, and a state read on its
own, such as the search root, is a batch of one. It is the one reader of
entropies, so the search and the schedule theory share it. Both read
each state's prediction through a StateTable, so no state is predicted
twice. The reward of an action is the normalized drop in total
masked entropy after committing it (entropy_gain, which mcts.simulate
applies):

    r = (before - after) / before

where `after` is the total measured on the state right after the single
action. The same normalization against the root yields the cumulative gain
of a deeper node. Values can be negative: revealing a trap token may raise
the entropy of what remains.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels
from .denoisers import DenoiserOutput
from .errors import MissingPosition, ZeroBaselineEntropy
from .seqcore import SeqState

# baseline totals at or below this are treated as an already-resolved state
ZERO_TOTAL = 1e-12


def masked_entropies(states: Sequence[SeqState], outputs: Sequence) -> list[np.ndarray]:
    """Entropies (nats) of each of `outputs`, the model's prediction at the
    state at the same index of `states`: one array per state, one entry
    per masked position in ascending order. A complete state gives an
    empty array and reads no output (it may be None). Raises
    MissingPosition unless there is one output per state, and
    MissingPosition or LogitWidthMismatch unless each output read covers
    exactly its state's masked positions with vocab-wide rows. All outputs
    read share one softmax call (DenoiserOutput.stacked_probs) and one
    entropy call, so a state's array is a slice of the batch's."""
    if len(outputs) != len(states):
        raise MissingPosition(f"{len(outputs)} predictions for {len(states)} states")
    read = [(s, out) for s, out in zip(states, outputs) if not s.is_complete]
    for state, output in read:
        output.check_cover(state.masked_index, state.vocab.size)
    if read:
        ent = kernels.entropy_rows(DenoiserOutput.stacked_probs([out for _, out in read]))
    else:
        ent = np.zeros(0)
    arrays, start = [], 0
    for state in states:
        stop = start + len(state.masked_index)
        arrays.append(ent[start:stop])
        start = stop
    return arrays


def entropy_gain(before_total: float, after_total: float) -> float:
    """The gain rule: normalized drop from a baseline total entropy."""
    if not np.isfinite(before_total) or before_total < 0.0:
        raise ZeroBaselineEntropy(f"invalid baseline entropy {before_total}")
    if before_total <= ZERO_TOTAL:
        # nothing left to resolve; any action trivially completes the job
        return 1.0
    return (before_total - after_total) / before_total
