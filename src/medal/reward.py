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
from .seqcore import SeqState, UnmaskAction, apply_action, masked_positions

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

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.positions, self.values))


def entropy_profile(model, state: SeqState, *, output=None) -> EntropyProfile:
    """Profile of `state` under `model`; a complete state has an empty profile."""
    positions = masked_positions(state)
    if not positions:
        return EntropyProfile.empty()
    if output is None:
        output = model.predict(state)
    probs = kernels.softmax_rows(output.matrix(positions))
    values = kernels.entropy_rows(probs)
    return EntropyProfile(
        positions=tuple(positions),
        values=tuple(float(v) for v in values),
        total=float(values.sum()),
    )


@dataclass(frozen=True)
class RewardRecord:
    action: UnmaskAction
    r_ig: float
    before: EntropyProfile
    after: EntropyProfile

    def to_json(self) -> dict:
        return {
            "action": [self.action.position, self.action.token],
            "r_ig": self.r_ig,
            "before_total": self.before.total,
            "after_total": self.after.total,
        }


def _gain(before_total: float, after_total: float) -> float:
    if not np.isfinite(before_total) or before_total < 0.0:
        raise ZeroBaselineEntropy(f"invalid baseline entropy {before_total}")
    if before_total <= ZERO_TOTAL:
        # nothing left to resolve; any action trivially completes the job
        return 1.0
    return (before_total - after_total) / before_total


def info_gain(
    model,
    state: SeqState,
    action: UnmaskAction,
    *,
    before: EntropyProfile | None = None,
    after_output=None,
) -> RewardRecord:
    """Reward of one unmask action at `state`.

    `before` and `after_output` let callers reuse predictions they already
    made; semantics are unchanged.
    """
    if before is None:
        before = entropy_profile(model, state)
    next_state = apply_action(state, action)
    if next_state.is_complete:
        after = EntropyProfile.empty()
    else:
        after = entropy_profile(model, next_state, output=after_output)
    return RewardRecord(
        action=action, r_ig=_gain(before.total, after.total), before=before, after=after
    )


def cumulative_gain(
    model,
    root: SeqState,
    state: SeqState,
    *,
    root_profile: EntropyProfile | None = None,
    state_profile: EntropyProfile | None = None,
) -> float:
    """Normalized entropy resolved between the root and a descendant state."""
    if root_profile is None:
        root_profile = entropy_profile(model, root)
    if state_profile is None:
        state_profile = (
            EntropyProfile.empty()
            if state.is_complete
            else entropy_profile(model, state)
        )
    return _gain(root_profile.total, state_profile.total)
