"""Sequence states, vocabulary, and unmask actions.

A state is an immutable snapshot of a partially revealed token sequence:
a read-only prompt prefix followed by a generation region whose positions
are either revealed or masked. All engine layers operate on these values;
mutation always goes through apply_action / apply_many, which return new
states. Constructing a SeqState (directly, via fully_masked or from a
remote request frame) validates the whole sequence, in passes that run at
C speed (one comprehension for the mask index, one set of the revealed
tokens and its sum, min and max); a token-by-token loop runs only to name
the first fault. apply_many checks only its actions, since a valid state
stays valid under checked reveals.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ConfigError, PositionNotMasked, TokenIsMask


@dataclass(frozen=True)
class Vocab:
    """Content tokens are 0..size-1; mask_id lies outside that range."""

    size: int
    mask_id: int = -1

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ConfigError(f"vocab size must be >= 2, got {self.size}")
        if self.mask_id == -1:
            object.__setattr__(self, "mask_id", self.size)
        if 0 <= self.mask_id < self.size:
            raise ConfigError(
                f"mask_id {self.mask_id} collides with content range 0..{self.size - 1}"
            )

    def is_content(self, token: int) -> bool:
        return 0 <= token < self.size


@dataclass(frozen=True)
class UnmaskAction:
    """Commit `token` at `position` (absolute index into the sequence)."""

    position: int
    token: int


@dataclass(frozen=True)
class SeqState:
    """`tokens` is the only record of the mask: a position is masked exactly
    when its token is vocab.mask_id. `masked_index` (ascending masked
    positions) is derived from it once, when the state is built."""

    vocab: Vocab
    prompt_len: int
    tokens: tuple[int, ...]
    step: int = 0
    masked_index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.prompt_len <= len(self.tokens):
            raise ConfigError(f"prompt_len {self.prompt_len} out of range")
        if self.gen_length < 1:
            raise ConfigError("generation region must be non-empty")
        mask_id = self.vocab.mask_id
        index = tuple([i for i, tok in enumerate(self.tokens) if tok == mask_id])
        revealed = set(self.tokens)
        revealed.discard(mask_id)
        # min and max can pass over a NaN token, which compares false both
        # ways; it makes the sum NaN, which is not equal to itself
        total = sum(revealed)
        if (index and index[0] < self.prompt_len) or not (
            total == total
            and 0 <= min(revealed, default=0)
            and max(revealed, default=0) < self.vocab.size
        ):
            for i, tok in enumerate(self.tokens):  # name the first fault
                if tok == mask_id:
                    if i < self.prompt_len:
                        raise ConfigError(f"prompt position {i} cannot be masked")
                elif not self.vocab.is_content(tok):
                    raise ConfigError(f"revealed token {tok} at {i} outside vocab")
        object.__setattr__(self, "masked_index", index)

    @classmethod
    def fully_masked(
        cls, vocab: Vocab, prompt: Sequence[int], length: int, step: int = 0
    ) -> "SeqState":
        """Fresh decode root: prompt revealed, `length` masked slots after it."""
        prompt = tuple(prompt)
        return cls(vocab, len(prompt), prompt + (vocab.mask_id,) * length, step)

    @property
    def masked(self) -> tuple[bool, ...]:
        """One flag per position, True where the token is the mask id."""
        mask_id = self.vocab.mask_id
        return tuple([tok == mask_id for tok in self.tokens])

    @property
    def gen_length(self) -> int:
        return len(self.tokens) - self.prompt_len

    @property
    def is_complete(self) -> bool:
        return not self.masked_index

    def gen_tokens(self) -> tuple[int, ...]:
        return self.tokens[self.prompt_len :]

    def reveal_count(self) -> int:
        """Revealed positions inside the generation region (prompt positions
        are never masked)."""
        return self.gen_length - len(self.masked_index)


def apply_action(state: SeqState, action: UnmaskAction) -> SeqState:
    """Reveal one position; returns a new state with step advanced by 1."""
    return apply_many(state, [action])


def apply_many(state: SeqState, actions: Iterable[UnmaskAction]) -> SeqState:
    """Reveal several distinct positions at once; step advances by the count.

    The child is built without re-running SeqState's checks: a valid state
    plus checked reveals is valid, and its masked index is the parent's
    minus the revealed positions.
    """
    vocab = state.vocab
    tokens = list(state.tokens)
    index = list(state.masked_index)
    for act in actions:
        i = bisect_left(index, act.position)
        if i == len(index) or index[i] != act.position:
            raise PositionNotMasked(f"position {act.position} is not masked")
        if act.token == vocab.mask_id:
            raise TokenIsMask("cannot reveal the mask token")
        if not vocab.is_content(act.token):
            raise TokenIsMask(f"token {act.token} outside vocab")
        tokens[act.position] = act.token
        del index[i]
    child = object.__new__(SeqState)
    object.__setattr__(child, "vocab", vocab)
    object.__setattr__(child, "prompt_len", state.prompt_len)
    object.__setattr__(child, "tokens", tuple(tokens))
    object.__setattr__(child, "step", state.step + len(state.masked_index) - len(index))
    object.__setattr__(child, "masked_index", tuple(index))
    return child


# ---------------------------------------------------------------------------
# serialization (the CLI's JSONL records)


def state_to_json(state: SeqState) -> dict:
    return {
        "prompt_len": state.prompt_len,
        "tokens": list(state.tokens),
        "masked": list(state.masked),
        "step": state.step,
    }
