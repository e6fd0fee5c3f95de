"""Denoiser interface and desk-scale reference models.

A denoiser takes a partially masked state and returns one logit vector per
masked position, covering content tokens only. Predictions must be pure
functions of the state so that search and replay stay deterministic. A
finish step asks for the prediction after the previous one
(Denoiser.predict_after), which is predict unless a model knows what a
reveal changed: the n-gram model looks up only those rows again and names
them. Every other row goes to the model's score memo, which recognises
repeated rows by their bytes.

Three toy families with known structure:

* TabularModel: explicit joint over the generation region; conditionals are
  exact posteriors given all revealed generation tokens.
* FactorizedModel: independent per-position distributions.
* NGramMaskedModel: smoothed n-gram conditioned on the longest contiguous
  revealed suffix preceding each position (prompt included); a prediction
  copies rows from one table of logit rows, one per context, built when
  the model is.

A prediction is checked once, where it enters medal. A user's model's rows
go through DenoiserOutput.from_matrix and all of its checks; a remote
reply goes through decode_reply, which checks it against the request it
answers. The three models above check their tables when they are built
(the n-gram model checks its finished logit rows), so their predictions
are finite by construction and skip the checks.

RemoteDenoiser lets an external process stand in for the model over a
socket. A request and a reply are each framed alike: a line holding a byte
count, followed by that many raw bytes of one little-endian binary frame
(a request's prompt length, step and tokens as int64; a reply's positions
and float64 logits). predict_many pipelines a batch of requests in one
write. A call returns the exact answer to its request or raises and drops
the connection. serve_denoiser exposes any local model over the same wire
format.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import reprlib
import socket
import socketserver
import struct
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from . import jsonspec, kernels
from .errors import (
    ConfigError,
    EmptyCorpus,
    LogitWidthMismatch,
    MissingPosition,
    NoMaskedPositions,
    NonFiniteLogits,
    RemoteError,
    SubsetNotMasked,
    ZeroMassContext,
)
from .seqcore import SeqState, Vocab

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

# floor added before log so tabular/factorized logits stay finite at p=0
LOGIT_FLOOR = 1e-12

# seconds between a serving loop's shutdown checks, so shutdown() returns fast
SERVE_POLL_S = 0.02


class DenoiserOutput:
    """Logits of one prediction as a (positions, matrix) pair.

    positions() lists the absolute masked positions in ascending order;
    row i of matrix() is the logit vector of the i-th position over the
    content tokens (the mask token gets no logit), so the matrix has shape
    (P, V). A prediction is checked once, where it enters medal:
    from_matrix(positions, matrix) is the constructor for a user's model's
    rows, and it validates the whole matrix: 2-d with one row per
    position, and every entry finite (a remote reply is checked by
    decode_reply against the request it answers). The in-repo models build
    their outputs from rows they checked when they were built (a model's
    tables), through _of_rows, a private builder that checks nothing and
    that from_matrix and decode_reply also end in. The stored arrays are
    read-only; matrix() without arguments returns them without
    copying. probs() is the row softmax of the matrix, computed on its
    first call and kept, so scoring and entropies over one prediction
    share one softmax; stacked_probs() computes it for several outputs in
    one kernel call. check_cover() is the one check that an output covers
    a state's masked positions; an output built for a state's masked_index
    tuple keeps that tuple, so checking it against the same tuple is one
    identity test.

    An output the n-gram model derives from the one it was predicted
    after (its base, through _after_reveal) also records, as row indices,
    for each row the base row at the same position, and which rows may
    differ from that base row (changed_since). It holds only a weak
    reference to its base, so a chain of such outputs keeps no earlier
    matrix alive. No other output records a base.
    """

    __slots__ = (
        "_positions",
        "_index",
        "_matrix",
        "_probs",
        "_base",
        "_base_rows",
        "_changed",
        "__weakref__",
    )

    @classmethod
    def from_matrix(cls, positions: Sequence[int], matrix: ArrayLike) -> "DenoiserOutput":
        """Output whose row i holds the logits of positions[i]. Raises
        ConfigError unless the positions are strictly ascending integers
        (bools are not) and the logits are real numbers (bools and strings
        are not). A tuple of positions, such as a state's masked_index, is
        kept for check_cover."""
        index = _ascending_positions(positions)
        try:
            matrix = np.asarray(matrix)
        except (TypeError, ValueError):
            raise ConfigError("logits must be a numeric matrix with one width") from None
        if matrix.dtype.kind not in "fiu":
            raise ConfigError(f"logits must be real numbers, got {matrix.dtype} values")
        matrix = matrix.astype(np.float64, copy=False)
        if matrix.ndim != 2 or matrix.shape[0] != index.shape[0]:
            raise ConfigError(
                f"logit matrix of shape {matrix.shape} does not give one row to each"
                f" of {index.shape[0]} positions"
            )
        _check_finite(matrix, index)
        index_tuple = positions if type(positions) is tuple else None
        return cls._of_rows(index_tuple, matrix.view(), index.view())

    @classmethod
    def _of_rows(
        cls,
        index: tuple[int, ...] | None,
        matrix: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> "DenoiserOutput":
        """Output whose row i is the logit row of the i-th position of
        `index` (a state's masked_index, kept for check_cover), checking
        nothing: `matrix` must be a float64 (len(index), V) array of finite
        logits that no one else holds, which this makes read-only. A model
        passes rows it builds from the tables it checked when it was built.
        `positions`, the int64 array of `index` (None: built here), is made
        read-only too; from_matrix passes it with index None when its
        positions are not a tuple."""
        out = cls.__new__(cls)
        if positions is None:
            positions = np.array(index, dtype=np.int64)
        positions.setflags(write=False)
        matrix.setflags(write=False)
        out._positions = positions
        out._index = index
        out._matrix = matrix
        out._probs = None
        out._base = None
        return out

    def _after_reveal(
        self, index: tuple[int, ...], at: np.ndarray, rows: dict[int, np.ndarray]
    ) -> "DenoiserOutput":
        """The output for the masked_index tuple `index` whose row i is this
        one's row at[i] (at: ascending row indices) or, for i in `rows`,
        rows[i]; it records this output as its base and the keys of `rows`
        as its changed rows. It checks nothing, as _of_rows does: the
        positions it takes at `at` must be `index`, a kept row is a copy of
        a row this output holds, and `rows` must hold finite logits, one
        per column, which a model passes for rows it builds from the tables
        it checked when it was built."""
        matrix = self._matrix.take(at, axis=0)
        for i, row in rows.items():
            matrix[i] = row
        out = DenoiserOutput._of_rows(index, matrix, self._positions.take(at))
        out._base = weakref.ref(self)
        out._base_rows = at
        out._changed = sorted(rows)
        return out

    def changed_since(self, base: "DenoiserOutput") -> tuple[np.ndarray, list[int]] | None:
        """(base_rows, changed) when this output was derived from `base`
        (_after_reveal): row i is bit-equal to row base_rows[i] of base
        unless i is in `changed`, the ascending indices of the rows that
        may differ. None for any other base, or when no base is recorded."""
        if self._base is None or self._base() is not base:
            return None
        return self._base_rows, self._changed

    @property
    def logits(self) -> dict[int, np.ndarray]:
        """{position: logit vector}, a plain dict of read-only row views
        built on each read."""
        return dict(zip(self.positions(), self._matrix))

    def positions(self) -> list[int]:
        return self._positions.tolist()

    def matrix(self, positions: Sequence[int] | None = None) -> np.ndarray:
        """Rows for `positions` (default: all, as stored, without a copy).

        Raises ConfigError unless `positions` are strictly ascending
        integers, as from_matrix does (a bool, a float or a string is not
        one), and MissingPosition when a requested position has no row.
        """
        if positions is None:
            return self._matrix
        want = _ascending_positions(positions)
        if np.array_equal(want, self._positions):
            return self._matrix
        idx = np.searchsorted(self._positions, want)
        found = idx < self._positions.shape[0]
        found[found] = self._positions[idx[found]] == want[found]
        if not found.all():
            raise MissingPosition(f"no logits for positions {want[~found].tolist()}")
        return self._matrix[idx]

    def probs(self) -> np.ndarray:
        """Row softmax of the logits, (P, V), computed on the first call and
        stored read-only."""
        if self._probs is None:
            DenoiserOutput.stacked_probs((self,))
        return self._probs

    @staticmethod
    def stacked_probs(outputs: Sequence["DenoiserOutput"]) -> np.ndarray:
        """probs() of each of `outputs` (at least one, all of one width),
        stacked row-wise in order. The outputs whose probs() is not yet
        computed are softmaxed in one kernel call over their stacked
        matrices, and each keeps its own rows of the result, a read-only
        view, as its probs(); the kernel does not mix rows, so that view
        is bit for bit the softmax of the output's own matrix."""
        fresh = [out for out in outputs if out._probs is None]
        if fresh:
            logits = [out._matrix for out in fresh]
            probs = kernels.softmax_rows(logits[0] if len(fresh) == 1 else np.concatenate(logits))
            probs.flags.writeable = False  # before slicing: a view copies the flag
            start = 0
            for out in fresh:
                stop = start + out._matrix.shape[0]
                out._probs = probs[start:stop]
                start = stop
            if len(fresh) == len(outputs):
                return probs
        return np.concatenate([out._probs for out in outputs])

    def check_cover(self, positions: Sequence[int], vocab_size: int) -> np.ndarray:
        """Raise MissingPosition unless the rows are exactly `positions`
        (ascending), and LogitWidthMismatch unless every row holds one logit
        per content token. `positions` being the tuple the output was built
        for proves the first; any other is compared in full. Returns the
        stored read-only int64 positions, so a caller need not convert
        `positions` again."""
        if positions is not self._index:
            have = self.positions()
            if have != list(positions):
                missing = sorted(set(positions) - set(have))
                extra = sorted(set(have) - set(positions))
                raise MissingPosition(
                    f"denoiser output mismatch: missing positions {missing}, extra {extra}"
                )
        width = self._matrix.shape[1]
        if width != vocab_size:
            raise LogitWidthMismatch(f"logits have width {width} for vocab size {vocab_size}")
        return self._positions


def _check_finite(matrix: np.ndarray, positions: Sequence[int]) -> None:
    """The logit check of every row from outside: NonFiniteLogits, naming
    the first row's position (positions[i] for row i), unless every entry
    of `matrix` is finite."""
    finite = np.isfinite(matrix)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise NonFiniteLogits(f"non-finite logits at position {positions[row]}")


def _ascending_positions(positions: Sequence[int]) -> np.ndarray:
    """`positions` as an int64 array. Raises ConfigError unless they are a
    strictly ascending 1-d sequence of integers: floats, strings, bools and
    integers beyond int64 are not."""
    index = np.asarray(positions)
    if index.dtype != np.int64:  # Python ints read as int64 already
        integral = index.dtype.kind in "iu" and np.can_cast(index.dtype, np.int64)
        if index.size and not integral:  # an empty sequence reads as float64
            raise ConfigError(f"positions must be integers, got {index.dtype} values")
        index = index.astype(np.int64)
    if index.ndim != 1 or (index[1:] <= index[:-1]).any():
        raise ConfigError("positions must be a strictly ascending 1-d sequence")
    if index.size and index[0] <= 1:
        # a bool reads as 0 or 1, which strictly ascending positions can
        # hold only at the two places from where 0 would go in
        at = 0 if index[0] >= 0 else int(index.searchsorted(0))
        if not {bool, np.bool_}.isdisjoint(map(type, islice(positions, at, at + 2))):
            raise ConfigError("positions must be integers, got a bool")
    return index


@lru_cache(maxsize=None)
def marginal_axes(ndim: int) -> tuple[tuple[int, ...], ...]:
    """Entry i lists every axis of an ndim-d array but axis i: the axes a
    sum runs over to leave axis i's marginal. Built once per ndim (numpy
    caps ndim, so the cache stays small)."""
    return tuple(tuple(a for a in range(ndim) if a != axis) for axis in range(ndim))


class Denoiser:
    """Base interface. Subclasses set vocab and implement predict, building
    each output with DenoiserOutput.from_matrix, which checks its rows.

    predict_after(prev_state, prev_output, state) is the prediction at
    `state` given that prev_output was the prediction at prev_state; its
    output must equal predict(state) bit for bit. The base method is
    predict(state) and records nothing, so finishing looks every row up in
    the score memo, which recognises repeated rows by their bytes. A model
    that knows what a reveal changes overrides it, records the rows that
    may differ from prev_output's (DenoiserOutput.changed_since) and does
    the work inside predict, so every prediction is one predict call.

    score_memo(key) hands out the model's memo of scored logit rows, one per
    settings key (scoring.settings_key); it lives and dies with the model.

    A model is a context manager whose exit calls close(), which releases
    what the model holds open (a no-op unless a subclass holds something).
    """

    vocab: Vocab

    def predict(self, state: SeqState) -> DenoiserOutput:
        raise NotImplementedError

    def predict_after(
        self, prev_state: SeqState, prev_output: DenoiserOutput, state: SeqState
    ) -> DenoiserOutput:
        return self.predict(state)

    def predict_many(self, states: Sequence[SeqState]) -> list[DenoiserOutput]:
        """predict() of each state, in order. A subclass may answer the
        batch at once, but its outputs must equal predict()'s."""
        return [self.predict(state) for state in states]

    def score_memo(self, key: tuple) -> dict[bytes, tuple[np.ndarray, np.ndarray]]:
        """The model's score memo for one set of scoring settings, `key`
        (scoring.settings_key), which scoring.build_candidates fills: a
        dict from a logit row's bytes to that row's top-k1 tokens and
        scores. It starts empty, and the model keeps one per key for as
        long as it lives, so the finish steps of every decode on the model
        share it."""
        return vars(self).setdefault("_score_memos", {}).setdefault(key, {})

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_state(self, state: SeqState) -> tuple[int, ...]:
        if state.vocab.size != self.vocab.size:
            raise ConfigError(
                f"state vocab size {state.vocab.size} != model vocab {self.vocab.size}"
            )
        if state.is_complete:
            raise NoMaskedPositions("state is fully revealed")
        return state.masked_index


class TabularModel(Denoiser):
    """Explicit joint distribution over a fixed-length generation region.

    predict() conditions on all revealed generation tokens jointly and
    returns exact per-position posterior marginals. Prompt tokens are
    outside the modeled region and are ignored. A revealed context with
    zero joint mass falls back to uniform conditionals (predict never
    raises for reachable states); exact-inference callers that need the
    distinction use step_joints(), which raises ZeroMassContext.
    """

    def __init__(self, vocab: Vocab, joint: np.ndarray):
        joint = np.asarray(joint, dtype=np.float64)
        if joint.ndim < 1:
            raise ConfigError("joint must have at least one axis")
        if any(dim != vocab.size for dim in joint.shape):
            raise ConfigError("every joint axis must have length vocab.size")
        if not (joint >= 0).all():  # NaN too
            raise ConfigError("joint probabilities must be non-negative")
        total = joint.sum()
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"joint mass {total} not within 1e-9 of 1")
        self.vocab = vocab
        self.joint = joint / total
        self.joint.setflags(write=False)  # predict trusts it: checked here only
        self.length = joint.ndim

    def _gen_index(self, state: SeqState) -> tuple:
        if state.gen_length != self.length:
            raise ConfigError(
                f"state generation length {state.gen_length} != model length {self.length}"
            )
        mask_id = state.vocab.mask_id
        return tuple([slice(None) if tok == mask_id else tok for tok in state.gen_tokens()])

    def _context_slice(self, state: SeqState) -> tuple[tuple[int, ...], np.ndarray]:
        """Positions still masked (the state's masked_index) and the
        unnormalized joint over them, one axis per position."""
        pos = self._check_state(state)
        return pos, self.joint[self._gen_index(state)]

    def step_joints(self, state: SeqState) -> Callable[[Sequence[int]], np.ndarray]:
        """The exact joint posteriors at `state`'s revealed context, as a
        handle: a function from a subset (distinct masked positions,
        ascending) to the joint over it, one axis per position in that
        order; the empty subset gives a 0-d joint of mass 1. The context's
        mass is checked and its conditional joint divided out here, once;
        each call of the handle sums that joint over the other axes into a
        new array. Raises ZeroMassContext when the revealed context has no
        mass; the handle raises SubsetNotMasked for a subset of any other
        form.
        """
        pos, sub = self._context_slice(state)
        mass = sub.sum()
        if mass <= 0.0:
            raise ZeroMassContext(
                f"revealed context has zero mass at positions {list(pos)}"
            )
        cond = sub / mass

        def joint(subset: Sequence[int]) -> np.ndarray:
            other = tuple(a for a, p in enumerate(pos) if p not in subset)
            if len(pos) - len(other) != len(subset) or list(subset) != sorted(subset):
                raise SubsetNotMasked(f"subset {list(subset)} is not ascending masked positions")
            return cond.sum(axis=other)

        return joint

    def predict(self, state: SeqState) -> DenoiserOutput:
        """Logits log(marginal + LOGIT_FLOOR): each marginal is summed from
        the context's joint into its row of one matrix, which is divided by
        the context's mass once and then takes the floor and the log in
        place."""
        pos, sub = self._context_slice(state)
        mass = np.add.reduce(sub, axis=None)
        probs = np.empty((len(pos), self.vocab.size))
        if mass > 0.0:
            for row, other in zip(probs, marginal_axes(sub.ndim)):
                np.add.reduce(sub, axis=other, out=row)
            probs /= mass
        else:
            probs.fill(1.0 / self.vocab.size)
        probs += LOGIT_FLOOR
        np.log(probs, out=probs)
        # the joint is finite and non-negative (checked in __init__), so
        # every logit is finite
        return DenoiserOutput._of_rows(pos, probs)

    def joint_logprob(self, gen_tokens: Sequence[int]) -> float:
        """ln q(x) of a full generation-region assignment (-inf at zero mass)."""
        if len(gen_tokens) != self.length:
            raise ConfigError("assignment length mismatch")
        p = float(self.joint[tuple(int(t) for t in gen_tokens)])
        return float(np.log(p)) if p > 0.0 else float("-inf")

    def to_file(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(jsonspec.to_json(TabularFile.of(self)), fh)


class FactorizedModel(Denoiser):
    """Independent per-position distributions over the generation region."""

    def __init__(self, vocab: Vocab, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != vocab.size:
            raise ConfigError("rows must be (length, vocab.size)")
        if not (rows >= 0).all():  # NaN too
            raise ConfigError("probabilities must be non-negative")
        sums = rows.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ConfigError("each row must sum to 1")
        self.vocab = vocab
        self.rows = rows / sums[:, None]
        self.rows.setflags(write=False)  # predict trusts them: checked here only
        self.length = rows.shape[0]

    def predict(self, state: SeqState) -> DenoiserOutput:
        pos = self._check_state(state)
        if state.gen_length != self.length:
            raise ConfigError(
                f"state generation length {state.gen_length} != model length {self.length}"
            )
        rows = self.rows[np.asarray(pos) - state.prompt_len]
        # the rows are checked non-negative and summing to 1 in __init__
        return DenoiserOutput._of_rows(pos, np.log(rows + LOGIT_FLOOR))

    def as_tabular(self) -> TabularModel:
        """Product joint; intended for small instances only."""
        joint = np.array(1.0)
        for row in self.rows:
            joint = np.multiply.outer(joint, row)
        return TabularModel(self.vocab, joint)


# ---------------------------------------------------------------------------
# model files, read with jsonspec.from_json and written with jsonspec.to_json

# the most joint cells a tabular file may describe (128 MB of float64)
MAX_JOINT_CELLS = 2**24


@dataclass(frozen=True)
class TabularEntry:
    """One assignment of the generation region and its probability mass."""

    tokens: tuple[int, ...]
    p: float

    def validate(self) -> None:
        if not self.p >= 0:
            raise ConfigError(f"tabular entry key 'p' must be >= 0, got {self.p}")


@dataclass(frozen=True)
class TabularFile:
    """A joint table as a sparse list of assignments; omitted cells are 0
    and repeated assignments add up."""

    vocab_size: int
    length: int
    probs: tuple[TabularEntry, ...]

    def validate(self) -> None:
        if self.vocab_size < 2:
            raise ConfigError(f"tabular file key 'vocab_size' must be >= 2, got {self.vocab_size}")
        if self.length < 1:
            raise ConfigError(f"tabular file key 'length' must be >= 1, got {self.length}")
        # with vocab_size >= 2, a length past the cap's bit length is too big
        # already; testing it first keeps the power small
        if self.length > MAX_JOINT_CELLS.bit_length() or (
            self.vocab_size ** self.length > MAX_JOINT_CELLS
        ):
            raise ConfigError(
                f"tabular file keys 'vocab_size' and 'length' give a joint of"
                f" {self.vocab_size}**{self.length} cells, more than {MAX_JOINT_CELLS}"
            )
        for entry in self.probs:
            toks = entry.tokens
            if len(toks) != self.length or not all(0 <= t < self.vocab_size for t in toks):
                raise ConfigError(
                    f"tabular entry key 'tokens' must be {self.length} tokens in"
                    f" 0..{self.vocab_size - 1}, got {list(toks)}"
                )

    @classmethod
    def of(cls, model: TabularModel) -> "TabularFile":
        cells = zip(np.ndindex(*model.joint.shape), model.joint.ravel().tolist())
        entries = tuple(TabularEntry(toks, p) for toks, p in cells if p > 0.0)
        return cls(model.vocab.size, model.length, entries)

    def build(self) -> TabularModel:
        joint = np.zeros((self.vocab_size,) * self.length)
        for entry in self.probs:
            joint[entry.tokens] += entry.p
        return TabularModel(Vocab(self.vocab_size), joint)


@dataclass(frozen=True)
class FactorizedFile:
    """One probability row per generation position; `length`, when given,
    must equal the number of rows."""

    vocab_size: int
    rows: tuple[tuple[float, ...], ...]
    length: int | None = None

    def validate(self) -> None:
        if self.length is not None and self.length != len(self.rows):
            raise ConfigError(
                f"factorized file key 'length' is {self.length} but 'rows' has"
                f" {len(self.rows)} rows"
            )
        if not self.rows or any(len(row) != self.vocab_size for row in self.rows):
            raise ConfigError(
                f"factorized file key 'rows' must hold rows of {self.vocab_size} entries"
            )

    @classmethod
    def of(cls, model: FactorizedModel) -> "FactorizedFile":
        return cls(model.vocab.size, tuple(map(tuple, model.rows.tolist())), model.length)

    def build(self) -> FactorizedModel:
        return FactorizedModel(Vocab(self.vocab_size), self.rows)


class NGramMaskedModel(Denoiser):
    """Additively smoothed n-gram over the longest revealed suffix.

    The context for a masked position i is the run of revealed tokens
    immediately before i (prompt tokens count), truncated to the last n-1.
    Conditionals are (count + alpha) / (total + alpha * V), so every
    distribution is strictly positive and sums to 1. A fully masked
    neighborhood degrades to the smoothed unigram.

    counts[k] is the table of order k: a dict from a context, a tuple of k
    content tokens, to a 1-d array of V counts, each finite and >= 0. The
    model turns them into one read-only table of logit rows when it is
    built: `rows` maps each context in the count tables to its row, and
    `unseen`, the row of zero counts, stands for every context they lack.
    ConfigError names the order and key of a bad table or of a row that is
    not finite (so does a non-finite `unseen`: alpha times V overflows), so
    every logit row the model predicts is finite and V wide without a check
    per prediction, and a caller's later edit of its counts reaches none.
    """

    def __init__(
        self,
        vocab: Vocab,
        n: int,
        alpha: float,
        counts: list[dict[tuple[int, ...], np.ndarray]],
    ):
        if n < 1:
            raise ConfigError("n must be >= 1")
        if not 0 < alpha < math.inf:  # False for NaN and +-inf too
            raise ConfigError(f"alpha must be finite and > 0, got {alpha}")
        v = vocab.size
        unseen = _logit_rows(np.zeros((1, v)), alpha)[0]
        if not np.isfinite(unseen).all():
            raise ConfigError(f"alpha {alpha} times vocab size {v} is not finite")
        if len(counts) != n:
            raise ConfigError("need one count table per order 0..n-1")
        self.vocab = vocab
        self.n = n
        self.alpha = alpha
        self.unseen = unseen
        rows = {}
        for k, table in enumerate(counts):
            rows.update(_checked_rows(k, table, v, alpha))
        self.rows = MappingProxyType(rows)

    def predict(
        self,
        state: SeqState,
        *,
        after: tuple[SeqState, DenoiserOutput] | None = None,
    ) -> DenoiserOutput:
        """Row i is rows.get(ctx, unseen) for the context ctx of pos[i],
        found in one pass over the masked index: the revealed run before a
        masked position starts right after the previous masked position
        (or at index 0), cut to its last n-1 tokens. Only positions with a
        non-empty run look their row up one by one.

        With after=(prev_state, prev_output), prev_output being this
        model's prediction at prev_state, the rows are prev_output's minus
        the revealed ones, and only the row of the first masked position
        after each revealed token is looked up again, when that token lies
        within n-1 of it: no other context changes. The output records
        those rows against prev_output. ConfigError unless `state` extends
        prev_state (same vocab, prompt and length, every revealed token
        kept); check_cover raises unless prev_output covers prev_state.
        """
        pos = self._check_state(state)
        if after is not None:
            return self._predict_after(*after, state, pos)
        tokens = state.tokens
        keep = self.n - 1
        rows, unseen = self.rows, self.unseen
        matrix = np.empty((len(pos), self.vocab.size))
        matrix[:] = rows.get((), unseen)
        if keep:
            start = 0
            for i, p in enumerate(pos):
                if p > start:
                    matrix[i] = rows.get(tokens[max(start, p - keep) : p], unseen)
                start = p + 1
        return DenoiserOutput._of_rows(pos, matrix)

    def predict_after(
        self, prev_state: SeqState, prev_output: DenoiserOutput, state: SeqState
    ) -> DenoiserOutput:
        return self.predict(state, after=(prev_state, prev_output))

    def _predict_after(
        self,
        prev_state: SeqState,
        prev_output: DenoiserOutput,
        state: SeqState,
        pos: tuple[int, ...],
    ) -> DenoiserOutput:
        tokens = state.tokens
        mask_id = state.vocab.mask_id
        prev_pos = prev_state.masked_index
        if (
            prev_state.vocab != state.vocab
            or prev_state.prompt_len != state.prompt_len
            or len(prev_state.tokens) != len(tokens)
        ):
            raise ConfigError("state does not extend the state predicted before it")
        prev_output.check_cover(prev_pos, self.vocab.size)
        # the j-th revealed position is the first one past the previous
        # where prev_pos, shifted by j, stops matching pos: a binary search
        revealed = []
        at = np.arange(len(pos))
        i = 0
        for j in range(len(prev_pos) - len(pos)):
            i = bisect_left(range(len(pos)), True, i, key=lambda m: prev_pos[m + j] != pos[m])
            revealed.append(prev_pos[i + j])
            at[i:] += 1
        before = list(tokens)
        for r in revealed:
            before[r] = mask_id
        if tuple(before) != prev_state.tokens:
            raise ConfigError("state does not extend the state predicted before it")
        keep = self.n - 1
        looked_up = {}
        if keep:
            for r in revealed:
                i = bisect_left(pos, r)
                if i < len(pos) and pos[i] - r <= keep and i not in looked_up:
                    p = pos[i]
                    start = pos[i - 1] + 1 if i else 0
                    looked_up[i] = self.rows.get(tokens[max(start, p - keep) : p], self.unseen)
        return prev_output._after_reveal(pos, at, looked_up)


def _logit_rows(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Read-only log((c + alpha) / (total + alpha * V)) for each row of
    float64 counts (a row's sum is its 1-d sum bit for bit); a row whose
    total overflows, or that rounds a probability to 0, is not finite."""
    with np.errstate(all="ignore"):
        totals = counts.sum(axis=1, keepdims=True) + alpha * counts.shape[1]
        rows = np.log((counts + alpha) / totals)
    rows.setflags(write=False)
    return rows


def _checked_rows(
    order: int, table: dict, v: int, alpha: float
) -> dict[tuple[int, ...], np.ndarray]:
    """The logit rows of the count table of `order`, by key, its keys
    checked as one set of tokens and its rows in one pass over the stacked
    table. ConfigError, naming the order and the key, unless every key is a
    tuple of `order` content tokens (0..v-1), every value a 1-d array of v
    real counts, each finite and >= 0, and every logit row finite."""
    where = f"count table of order {order}"
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must be a dict, got {type(table).__name__}")
    keys = list(table)
    content = set(range(v))
    if not (
        all(type(key) is tuple and len(key) == order for key in keys)
        and content.issuperset(chain.from_iterable(keys))
    ):
        bad = next(
            key
            for key in keys
            if type(key) is not tuple or len(key) != order or not content.issuperset(key)
        )
        raise ConfigError(
            f"{where}: key {bad!r} is not a length-{order} tuple of tokens in 0..{v - 1}"
        )
    values = list(table.values())
    bad = next(
        (
            key
            for key, vec in zip(keys, values)
            if not isinstance(vec, np.ndarray) or vec.shape != (v,) or vec.dtype.kind not in "fiu"
        ),
        None,
    )
    if bad is not None:
        raise ConfigError(f"{where}: key {bad!r} must map to a 1-d array of {v} real counts")
    counts = np.array(values, dtype=np.float64).reshape(len(values), v)
    ok = (np.isfinite(counts) & (counts >= 0)).all(axis=1)
    if not ok.all():
        bad = keys[int(np.argmin(ok))]
        raise ConfigError(f"{where}: key {bad!r} holds a negative, NaN or infinite count")
    rows = _logit_rows(counts, alpha)
    ok = np.isfinite(rows).all(axis=1)
    if not ok.all():
        bad = keys[int(np.argmin(ok))]
        raise ConfigError(f"{where}: key {bad!r} has counts too large for alpha {alpha}")
    return dict(zip(keys, rows))


def fit_ngram(
    corpus: Iterable[Sequence[int]],
    n: int,
    alpha: float,
    vocab_size: int | None = None,
) -> NGramMaskedModel:
    """Count-based fit over integer sequences.

    vocab_size defaults to max(token)+1 (at least 2). Raises EmptyCorpus
    when no non-empty sequence is present.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if not 0 < alpha < math.inf:  # False for NaN and +-inf too
        raise ConfigError(f"alpha must be finite and > 0, got {alpha}")
    seqs = [tuple(int(t) for t in seq) for seq in corpus]
    seqs = [s for s in seqs if s]
    if not seqs:
        raise EmptyCorpus("corpus has no non-empty sequences")
    max_tok = max(max(s) for s in seqs)
    if min(min(s) for s in seqs) < 0:
        raise ConfigError("corpus tokens must be non-negative")
    v = vocab_size if vocab_size is not None else max(max_tok + 1, 2)
    if max_tok >= v:
        raise ConfigError(f"corpus token {max_tok} outside vocab size {v}")

    counts: list[dict[tuple[int, ...], np.ndarray]] = [{} for _ in range(n)]
    for seq in seqs:
        for i, tok in enumerate(seq):
            for k in range(min(i, n - 1) + 1):
                ctx = seq[i - k : i]
                table = counts[k]
                vec = table.get(ctx)
                if vec is None:
                    vec = np.zeros(v)
                    table[ctx] = vec
                vec[tok] += 1.0
    return NGramMaskedModel(Vocab(v), n, alpha, counts)


def load_corpus(path: str | Path) -> list[tuple[int, ...]]:
    """One whitespace-separated integer sequence per line; blanks skipped.

    Raises ConfigError naming the file when it cannot be read or a token is
    not an integer, and EmptyCorpus when it holds no sequence.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from None
    seqs = []
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if parts:
            try:
                seqs.append(tuple(int(p) for p in parts))
            except ValueError:
                raise ConfigError(
                    f"corpus {path} line {lineno}: tokens must be integers"
                ) from None
    if not seqs:
        raise EmptyCorpus(f"no sequences in {path}")
    return seqs


class CountingDenoiser(Denoiser):
    """Transparent wrapper that counts predicted states: one per predict()
    or predict_after() call, len(states) per predict_many() call; each is
    forwarded whole, and so is score_memo()."""

    def __init__(self, inner: Denoiser):
        self.inner = inner
        self.vocab = inner.vocab
        self.calls = 0

    def predict(self, state: SeqState) -> DenoiserOutput:
        self.calls += 1
        return self.inner.predict(state)

    def predict_after(
        self, prev_state: SeqState, prev_output: DenoiserOutput, state: SeqState
    ) -> DenoiserOutput:
        """Counted as one predicted state; forwarded, so the inner model's
        own predict_after runs."""
        self.calls += 1
        return self.inner.predict_after(prev_state, prev_output, state)

    def predict_many(self, states: Sequence[SeqState]) -> list[DenoiserOutput]:
        self.calls += len(states)
        return self.inner.predict_many(states)

    def score_memo(self, key: tuple) -> dict[bytes, tuple[np.ndarray, np.ndarray]]:
        """The inner model's memo, so wrappers of one model share it."""
        return self.inner.score_memo(key)

    def reset(self) -> None:
        self.calls = 0


# ---------------------------------------------------------------------------
# remote protocol: each message is a count line, then that many raw bytes.
# count   = a frame's byte count n in canonical decimal ("[1-9][0-9]*\n"),
#           then exactly n bytes of a little-endian frame
# request = int64 prompt_len | int64 step | T x int64 tokens, so n = 16 + 8T;
#           a masked position carries the vocab's mask id
# reply   = uint32 P | P x int64 positions | P x V float64 logits (row-major),
#           the request's P masked positions, so n = 4 + 8P(1 + V); or the
#           JSON error frame {"error": "..."}, a line starting with "{",
#           which a count never does
# A client may write several requests before it reads; the server answers
# them in order, one reply per request frame. A request frame the server
# reads whole but refuses gets an error frame, and the connection stays; a
# request count line it refuses (not canonical, above REQUEST_MAX, longer
# than LINE_MAX) gets one error frame and the connection closes, since the
# next request's start cannot be found. The client drops its connection
# after any reply that is not the exact answer to its request, error frames
# included. Both ends set TCP_NODELAY, or pipelined small writes stall on
# Nagle's algorithm and delayed ACKs.

_COUNT = re.compile(rb"[1-9][0-9]*\n")
# the longest line either end reads (a count or an error frame), so a line
# without a newline cannot grow a reader's memory without bound
LINE_MAX = 1 << 16
# the largest request frame a server reads (2**21 - 2 tokens); a client
# refuses to send a larger one
REQUEST_MAX = 1 << 24


def encode_request(state: SeqState) -> bytes:
    """The request for `state`: its frame's byte-count line, then the frame.
    ConfigError unless the frame fits in REQUEST_MAX bytes and the prompt
    length, the step and every token fit int64."""
    tokens = state.tokens
    n = 2 + len(tokens)
    if 8 * n > REQUEST_MAX:
        raise ConfigError(
            f"request frame of {8 * n} bytes ({len(tokens)} tokens) exceeds {REQUEST_MAX},"
            " the largest a server reads"
        )
    try:
        frame = struct.pack(f"<{n}q", state.prompt_len, state.step, *tokens)
    except struct.error:
        raise ConfigError(_int64_fault(state)) from None
    return b"%d\n%b" % (8 * n, frame)


def _int64_fault(state: SeqState) -> str:
    """What keeps `state` out of an int64 request frame: the first field,
    in frame order, that struct does not pack as int64."""
    fields = chain(
        (("prompt_len", state.prompt_len), ("step", state.step)),
        ((f"token at {i}", tok) for i, tok in enumerate(state.tokens)),
    )
    for name, value in fields:
        try:
            struct.pack("<q", value)
        except struct.error as exc:
            return f"request {name} is {value!r}, which does not fit int64 ({exc})"
    return "request does not fit int64"


def decode_request(frame: bytes, vocab: Vocab) -> SeqState:
    """The state a request frame (the bytes after its count line) describes
    over `vocab`. ConfigError unless the frame is 16 + 8T bytes and
    SeqState accepts the state."""
    if len(frame) < 16 or len(frame) % 8:
        raise ConfigError(
            f"request frame of {len(frame)} bytes is not 8 * (2 + T) bytes"
            " (prompt_len, step, T tokens)"
        )
    prompt_len, step, *tokens = struct.unpack(f"<{len(frame) // 8}q", frame)
    return SeqState(vocab, prompt_len, tuple(tokens), step)


def _read_line(stream, what: str) -> bytes:
    """The next line of `stream` (a count or an error frame), newline
    included, read with a cap of LINE_MAX bytes; b"" when the stream ends
    before it starts. ValueError for a longer line; EOFError when the stream
    ends inside one."""
    line = stream.readline(LINE_MAX)
    if line and not line.endswith(b"\n"):
        if len(line) == LINE_MAX:
            raise ValueError(f"{what} line longer than {LINE_MAX} bytes")
        raise EOFError(f"connection closed mid-{what}")
    return line


def _read_frame(stream, line: bytes, limit: int, what: str) -> bytes:
    """The frame whose count line is `line`, read from `stream` in one
    read. ValueError unless the line is a canonical decimal count of at
    most `limit` bytes, checked before any frame byte is read; EOFError if
    the stream ends first."""
    if _COUNT.fullmatch(line) is None:
        raise ValueError(f"{what} line {line[:60]!r} is not a byte count")
    if len(line) - 1 > len(str(limit)) or (size := int(line)) > limit:
        raise ValueError(
            f"{what} count {line[:-1][:40].decode()} exceeds {limit}, the largest"
            f" {what} frame allowed"
        )
    frame = stream.read(size)
    if len(frame) < size:
        raise EOFError(f"connection closed mid-{what}")
    return frame


def _error_line(exc: Exception) -> bytes:
    """The error frame that reports `exc` to a client."""
    return (json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n").encode()


def encode_reply(out: DenoiserOutput) -> bytes:
    """The reply to a request: the frame's byte-count line, then the frame."""
    positions, matrix = out._positions, out.matrix()
    return b"".join((
        b"%d\n" % (4 + 8 * positions.size + 8 * matrix.size),
        len(positions).to_bytes(4, "little"),
        positions.astype("<i8", copy=False).tobytes(),
        matrix.astype("<f8", copy=False).tobytes(),
    ))


def decode_reply(frame: bytes, masked: tuple[int, ...], vocab_size: int) -> DenoiserOutput:
    """The prediction a reply's frame (the bytes after its count line)
    holds for a state whose masked_index is `masked`, over `vocab_size`
    content tokens, checked in one pass. ValueError, naming the frame the
    request asks for, unless the frame is exactly 4 + 8P(1 + V) bytes, its
    header is P = len(masked) and its positions are `masked`;
    NonFiniteLogits for a NaN or infinite logit. The output keeps
    `masked`, so check_cover against it is one identity test."""
    p = len(masked)
    head = struct.pack(f"<I{p}q", p, *masked)
    size = len(head) + 8 * p * vocab_size
    if len(frame) != size or not frame.startswith(head):
        raise ValueError(
            f"reply frame of {len(frame)} bytes does not answer its request: expected"
            f" {size} bytes, P = {p}, positions {reprlib.repr(list(masked))} and"
            f" {vocab_size} logits per row"
        )
    matrix = np.frombuffer(frame, "<f8", offset=len(head)).reshape(p, vocab_size)
    _check_finite(matrix, masked)
    positions = np.frombuffer(frame, "<i8", p, 4)
    return DenoiserOutput._of_rows(
        masked, matrix.astype(np.float64, copy=False), positions.astype(np.int64, copy=False)
    )


class RemoteDenoiser(Denoiser):
    """Client for a denoiser served over a byte stream.

    The wire format carries no vocab descriptor, so the caller supplies the
    vocab. predict() sends one request and reads its reply, a count line
    and then that many frame bytes; predict_many() writes a batch of
    requests at once and then reads their replies in order. A lock
    serialises callers, held across a whole batch. The address is
    "host:port" ("[v6 literal]:port" for an IPv6 literal, whose brackets
    are dropped; the port in ASCII digits) or a (host, port) tuple.
    """

    def __init__(self, address: str | tuple[str, int], vocab: Vocab, timeout: float = 30.0):
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            if host.startswith("[") and host.endswith("]"):
                host = host[1:-1]
            if not host or not (port.isascii() and port.isdigit()):
                raise ConfigError(f"remote address {address!r} must be host:port")
            address = (host, int(port))
        host, port = address
        if type(port) is not int or not 1 <= port <= 65535:
            raise ConfigError(f"remote port {port!r} must be an integer in 1..65535")
        if type(timeout) not in (int, float) or not 0 < timeout < math.inf:
            raise ConfigError(f"remote timeout {timeout!r} must be a finite number > 0")
        self.address = address
        self.vocab = vocab
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._fh = None
        self._pending = 0  # requests predict_many wrote whose replies are unread
        self._lock = threading.RLock()

    def _connect(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._fh = self._sock.makefile("rwb")

    def _requests(self, states: Sequence[SeqState]) -> bytes:
        """The requests of `states`, in order, as one buffer. Every state is
        checked (ConfigError, NoMaskedPositions) and encoded (ConfigError)
        first, so a bad one raises before anything is written."""
        for state in states:
            self._check_state(state)
        return b"".join(map(encode_request, states))

    def _send(self, requests: bytes) -> None:
        """Write `requests` in one write and flush (caller holds the lock);
        an OSError drops the connection and raises RemoteError."""
        try:
            self._connect()
            self._fh.write(requests)
            self._fh.flush()
        except OSError as exc:
            raise self._error(exc) from exc

    def _drop(self) -> None:
        """Close the stream and socket (caller holds the lock); the next call reconnects."""
        if self._fh is not None:
            with contextlib.suppress(OSError):  # flushing a dead stream fails again
                self._fh.close()
            self._fh = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._pending = 0

    def _error(self, exc: Exception) -> RemoteError:
        """Drop the connection and wrap `exc` (caller holds the lock)."""
        self._drop()
        host, port = self.address
        return RemoteError(f"remote denoiser {host}:{port}: {type(exc).__name__}: {exc}")

    def predict(self, state: SeqState) -> DenoiserOutput:
        """One request/reply exchange; inside predict_many, the read of the
        next reply, whose request is already checked and written.

        The reply must be the exact answer to the request: a count line of
        exactly 4 + 8P(1 + V) bytes for the state's P masked positions over
        V content tokens (a larger count is refused before any frame byte
        is read), then a frame decode_reply accepts. Every failure after
        the request is written drops the connection, so no stale reply is
        ever read and the next call reconnects. Socket errors, timeouts, a
        closed connection, a line longer than LINE_MAX, a count that is not
        canonical decimal or is above that size, a frame decode_reply
        refuses and a "{" line that is not a JSON object with an "error"
        key raise RemoteError; a server error frame raises ConfigError, and
        a NaN or infinite logit NonFiniteLogits.
        """
        with self._lock:
            if self._pending:
                self._pending -= 1
            else:
                self._send(self._requests([state]))
            masked, v = state.masked_index, self.vocab.size
            try:
                line = _read_line(self._fh, "reply")
                if not line:
                    raise EOFError("connection closed without a reply")
                if line.startswith(b"{"):
                    obj = json.loads(line)
                    if not isinstance(obj, dict) or "error" not in obj:
                        raise ValueError(f"reply {line[:60]!r} is JSON but not an error frame")
                    raise ConfigError(f"remote denoiser error: {obj['error']}")
                frame = _read_frame(self._fh, line, 4 + 8 * len(masked) * (1 + v), "reply")
                return decode_reply(frame, masked, v)
            except (OSError, EOFError, ValueError) as exc:
                raise self._error(exc) from exc
            except BaseException:
                self._drop()
                raise

    def predict_many(self, states: Sequence[SeqState]) -> list[DenoiserOutput]:
        """Pipelined predict(): every state is checked and encoded, then all
        requests go out in one write, then predict() reads each reply in
        order. A bad state raises before anything is written; any failure
        of predict() drops the connection, so no reply of the batch is left
        unread for the next call.
        """
        if not states:
            return []
        requests = self._requests(states)
        with self._lock:
            self._send(requests)
            self._pending = len(states)
            return [self.predict(state) for state in states]

    def close(self) -> None:
        with self._lock:
            self._drop()


class _DenoiserHandler(socketserver.StreamRequestHandler):
    """Answers each request frame with one reply (a count line and its
    frame, or an error line), in order. A request count line it refuses
    (see the protocol above) gets one error line and ends the connection.
    A client that drops the connection (an OSError or an end of stream
    while reading a request, an OSError while writing a reply) ends it
    quietly."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        model: Denoiser = self.server.model  # type: ignore[attr-defined]
        with contextlib.suppress(OSError, EOFError):
            while True:
                try:
                    line = _read_line(self.rfile, "request")
                    if not line:
                        return  # the client closed the connection
                    frame = _read_frame(self.rfile, line, REQUEST_MAX, "request")
                except ValueError as exc:
                    # the next request's start cannot be found: say why, close
                    self.wfile.write(_error_line(exc))
                    self.wfile.flush()
                    return
                try:
                    reply = encode_reply(model.predict(decode_request(frame, model.vocab)))
                except Exception as exc:  # report, keep serving
                    reply = _error_line(exc)
                self.wfile.write(reply)
                # flush each reply as soon as it is made: the server cannot
                # see where a client's batch ends, so a reply held back could
                # wait for a request that never comes; and a pipelining
                # client decodes reply i while this computes reply i + 1. A
                # server that answered all complete requests of each received
                # chunk with one sendall was slower on the perfbench
                # remote_ngram workload: median op_ref_p50 15.05 against
                # 13.13 for this loop (8 alternating 10-s pairs, this loop
                # faster in 7; 2-vCPU guest).
                self.wfile.flush()


class DenoiserServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, model: Denoiser, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _DenoiserHandler)
        self.model = model

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": SERVE_POLL_S}, daemon=True
        )
        thread.start()
        return thread


def serve_denoiser(model: Denoiser, host: str = "127.0.0.1", port: int = 0) -> DenoiserServer:
    """Bind a server for `model`; call .serve_in_thread() or .serve_forever()."""
    return DenoiserServer(model, host, port)
