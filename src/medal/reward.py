"""Information-gain rewards over masked entropies.

masked_entropies(state, output) reads the per-masked-position Shannon
entropies of the model's predictive distributions (exact entropy here; the
epsilon-regularized variant belongs to action scoring only) from a
prediction the caller already holds; it is the one reader of entropies, so
the search and the schedule theory share it. The search reads each state's
prediction through its StateTable, so no state is predicted twice. The
reward of an action is the normalized drop in total masked entropy after
committing it (entropy_gain, which mcts.simulate applies):

    r = (before - after) / before

where `after` is the total measured on the state right after the single
action. The same normalization against the root yields the cumulative gain
of a deeper node. Values can be negative: revealing a trap token may raise
the entropy of what remains.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ZeroBaselineEntropy
from .seqcore import SeqState

# baseline totals at or below this are treated as an already-resolved state
ZERO_TOTAL = 1e-12


def masked_entropies(state: SeqState, output) -> np.ndarray:
    """Entropies (nats) of `output`, the model's prediction at `state`, one
    per masked position in ascending order. A complete state gives an empty
    array and reads no output (it may be None). Raises MissingPosition or
    LogitWidthMismatch unless `output` covers exactly the masked positions
    with vocab-wide rows."""
    if state.is_complete:
        return np.zeros(0)
    output.check_cover(state.masked_index, state.vocab.size)
    return kernels.entropy_rows(output.probs())


def entropy_gain(before_total: float, after_total: float) -> float:
    """The gain rule: normalized drop from a baseline total entropy."""
    if not np.isfinite(before_total) or before_total < 0.0:
        raise ZeroBaselineEntropy(f"invalid baseline entropy {before_total}")
    if before_total <= ZERO_TOTAL:
        # nothing left to resolve; any action trivially completes the job
        return 1.0
    return (before_total - after_total) / before_total
