"""Information-gain rewards over masked-entropy profiles.

The profile of a state is the per-masked-position Shannon entropy of the
model's predictive distributions (exact entropy here; the epsilon-regularized
variant belongs to action scoring only). EntropyProfile.of builds it from a
prediction the caller already holds; the search reads each state's
prediction through its StateTable, so no state is predicted twice. The
reward of an action is the normalized drop in total masked entropy after
committing it (entropy_gain, which mcts.simulate applies):

    r = (before.total - after.total) / before.total

where `after` is measured on the state right after the single action. The
same normalization against the root yields the cumulative gain of a deeper
node. Values can be negative: revealing a trap token may raise the entropy
of what remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ZeroBaselineEntropy
from .seqcore import SeqState

# baseline totals at or below this are treated as an already-resolved state
ZERO_TOTAL = 1e-12


@dataclass(frozen=True)
class EntropyProfile:
    """Per-position entropies (nats) over the masked set of one state."""

    positions: tuple[int, ...]
    values: tuple[float, ...]
    total: float

    @classmethod
    def empty(cls) -> "EntropyProfile":
        return cls(positions=(), values=(), total=0.0)

    @classmethod
    def of(cls, state: SeqState, output) -> "EntropyProfile":
        """Profile of `state` from `output`, the model's prediction there
        (unused, and may be None, when the state is complete). Raises
        MissingPosition or LogitWidthMismatch unless `output` covers
        exactly the masked positions with vocab-wide rows."""
        positions = state.masked_index
        if not positions:
            return cls.empty()
        output.check_cover(positions, state.vocab.size)
        values = kernels.entropy_rows(output.probs(positions))
        return cls(positions=positions, values=tuple(values.tolist()), total=float(values.sum()))


def entropy_gain(before_total: float, after_total: float) -> float:
    """The gain rule: normalized drop from a baseline total entropy."""
    if not np.isfinite(before_total) or before_total < 0.0:
        raise ZeroBaselineEntropy(f"invalid baseline entropy {before_total}")
    if before_total <= ZERO_TOTAL:
        # nothing left to resolve; any action trivially completes the job
        return 1.0
    return (before_total - after_total) / before_total
