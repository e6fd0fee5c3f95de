"""Information-gain rewards over masked-entropy profiles.

The profile of a state is the per-masked-position Shannon entropy of the
model's predictive distributions (exact entropy here; the epsilon-regularized
variant belongs to action scoring only). The reward of an action is the
normalized drop in total masked entropy after committing it:

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
from .seqcore import SeqState, UnmaskAction, apply_action

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

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.positions, self.values))


def entropy_profile(model, state: SeqState) -> EntropyProfile:
    """Profile of `state` under `model`; a complete state has an empty
    profile and costs no model call."""
    if state.is_complete:
        return EntropyProfile.empty()
    return EntropyProfile.of(state, model.predict(state))


def entropy_gain(before_total: float, after_total: float) -> float:
    """The gain rule: normalized drop from a baseline total entropy."""
    if not np.isfinite(before_total) or before_total < 0.0:
        raise ZeroBaselineEntropy(f"invalid baseline entropy {before_total}")
    if before_total <= ZERO_TOTAL:
        # nothing left to resolve; any action trivially completes the job
        return 1.0
    return (before_total - after_total) / before_total


@dataclass(frozen=True)
class RewardRecord:
    action: UnmaskAction
    r_ig: float
    before: EntropyProfile
    after: EntropyProfile

    @classmethod
    def of(
        cls, action: UnmaskAction, before: EntropyProfile, after: EntropyProfile
    ) -> "RewardRecord":
        """Record of `action` from the profiles before and right after it."""
        return cls(
            action=action, r_ig=entropy_gain(before.total, after.total), before=before, after=after
        )

    def to_json(self) -> dict:
        return {
            "action": [self.action.position, self.action.token],
            "r_ig": self.r_ig,
            "before_total": self.before.total,
            "after_total": self.after.total,
        }


def info_gain(model, state: SeqState, action: UnmaskAction) -> RewardRecord:
    """Reward of one unmask action at `state`."""
    before = entropy_profile(model, state)
    return RewardRecord.of(action, before, entropy_profile(model, apply_action(state, action)))


def cumulative_gain(model, root: SeqState, state: SeqState) -> float:
    """Normalized entropy resolved between the root and a descendant state."""
    return entropy_gain(entropy_profile(model, root).total, entropy_profile(model, state).total)
