"""Sequence states, vocabulary, and unmask actions.

A state is an immutable snapshot of a partially revealed token sequence:
a read-only prompt prefix followed by a generation region whose positions
are either revealed or masked. All engine layers operate on these values;
mutation always goes through apply_action / apply_many, which return new
states. Constructing a SeqState (directly, via fully_masked or from a
remote request frame) validates the whole sequence, in passes that run at
C speed (one set of the tokens' types, one comprehension for the mask
index, one set of the revealed tokens and its min and max); a
token-by-token loop runs only to name the first fault. apply_many checks
only its actions, since a valid state stays valid under checked reveals,
then builds the child with _child, which checks nothing. A caller whose
reveals are valid by construction (a theory row's argmax children) calls
_child directly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, PositionNotMasked, TokenIsMask


def _is_int_type(kind: type) -> bool:
    """True for Python's and numpy's integer types; bool is not one."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


@dataclass(frozen=True)
class Vocab:
    """Content tokens are 0..size-1; mask_id lies outside that range."""

    size: int
    mask_id: int = -1

    def __post_init__(self) -> None:
        if not (_is_int_type(type(self.size)) and _is_int_type(type(self.mask_id))):
            raise ConfigError(
                f"vocab size and mask_id must be integers, got {self.size!r} and {self.mask_id!r}"
            )
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
        kinds = {type(self.prompt_len), type(self.step), *map(type, self.tokens)}
        if kinds != {int} and not all(map(_is_int_type, kinds)):
            for name in ("prompt_len", "step"):  # name the first fault
                value = getattr(self, name)
                if not _is_int_type(type(value)):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
            i, tok = next((i, t) for i, t in enumerate(self.tokens) if not _is_int_type(type(t)))
            raise ConfigError(f"revealed token {tok!r} at {i} is not an integer")
        if self.step < 0:
            raise ConfigError(f"step must be >= 0, got {self.step}")
        if not 0 <= self.prompt_len <= len(self.tokens):
            raise ConfigError(f"prompt_len {self.prompt_len} out of range")
        if self.gen_length < 1:
            raise ConfigError("generation region must be non-empty")
        mask_id = self.vocab.mask_id
        index = tuple([i for i, tok in enumerate(self.tokens) if tok == mask_id])
        revealed = set(self.tokens)
        revealed.discard(mask_id)
        if (index and index[0] < self.prompt_len) or not (
            0 <= min(revealed, default=0) and max(revealed, default=0) < self.vocab.size
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
        if not 0 <= act.token < vocab.size:  # vocab.is_content, without the call
            raise TokenIsMask(f"token {act.token} outside vocab")
        tokens[act.position] = act.token
        del index[i]
    return _child(state, tuple(tokens), tuple(index))


def _child(state: SeqState, tokens: tuple[int, ...], index: tuple[int, ...]) -> SeqState:
    """The child of `state` with `tokens` and masked index `index`, built
    without SeqState's checks; step advances by the count of reveals. The
    caller vouches for the reveals: content tokens at masked positions of
    `state`, and `index` the parent's masked index minus those positions."""
    child = object.__new__(SeqState)
    object.__setattr__(child, "vocab", state.vocab)
    object.__setattr__(child, "prompt_len", state.prompt_len)
    object.__setattr__(child, "tokens", tokens)
    object.__setattr__(child, "step", state.step + len(state.masked_index) - len(index))
    object.__setattr__(child, "masked_index", index)
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
