"""Denoiser interface and desk-scale reference models.

A denoiser takes a partially masked state and returns one logit vector per
masked position, covering content tokens only. Predictions must be pure
functions of the state so that search and replay stay deterministic. A
finish step asks for the prediction after the previous one
(Denoiser.predict_after), which also names the rows that may have changed;
the n-gram model looks up only those rows again.

Three toy families with known structure:

* TabularModel: explicit joint over the generation region; conditionals are
  exact posteriors given all revealed generation tokens.
* FactorizedModel: independent per-position distributions.
* NGramMaskedModel: smoothed n-gram conditioned on the longest contiguous
  revealed suffix preceding each position (prompt included).

A prediction is checked once, where it enters medal. Rows from outside (a
user's model, the remote wire) go through DenoiserOutput.from_matrix and
all of its checks. The three models above check their tables when they
are built, so their predictions are finite by construction and skip the
checks.

RemoteDenoiser lets an external process stand in for the model over a
socket: a request is a line of decimal ints (prompt length, step, tokens)
and a reply a line of base64 holding the positions and float64 logits as
one binary frame; predict_many pipelines a batch of requests in one write.
serve_denoiser exposes any local model over the same wire format.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import json
import math
import re
import socket
import socketserver
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

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
    from_matrix(positions, matrix) is the constructor for rows from
    outside (a user's model, the remote wire), and it validates the whole
    matrix: 2-d with one row per position, and every entry finite. The
    in-repo models build their outputs from rows they checked when they
    were built (a model's tables), through _of_rows, a private builder
    that checks nothing and that from_matrix also ends in. The stored
    arrays are read-only; matrix() without arguments returns them without
    copying. probs() is the row softmax of
    the matrix, computed on its first call and kept, so scoring and
    entropies over one prediction share one softmax; probs(rows) reads
    some rows of it, or softmaxes just those rows while it is not
    computed; stacked_probs() computes it for several outputs in one
    kernel call. check_cover() is the one check that an output covers a
    state's masked positions; an output built for a state's masked_index
    tuple keeps that tuple, so checking it against the same tuple is one
    identity test.

    An output from Denoiser.predict_after also records, as row indices,
    how it relates to the output it was predicted after (its base): for
    each row, the base row at the same position, and which rows may
    differ from that base row. It holds only a weak reference to its base,
    so a chain of such outputs keeps no earlier matrix alive.
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
        finite = np.isfinite(matrix)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            raise NonFiniteLogits(f"non-finite logits at position {index[row]}")
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

    def _record_after(
        self, base: "DenoiserOutput", base_rows: np.ndarray, changed: list[int]
    ) -> "DenoiserOutput":
        """Record that row i equals row base_rows[i] of `base` unless i is in
        `changed` (ascending row indices); returns self."""
        self._base = weakref.ref(base)
        self._base_rows = base_rows
        self._changed = changed
        return self

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
        out = DenoiserOutput.__new__(DenoiserOutput)
        out._positions = self._positions.take(at)
        out._positions.setflags(write=False)
        out._index = index
        matrix = self._matrix.take(at, axis=0)
        for i, row in rows.items():
            matrix[i] = row
        matrix.setflags(write=False)
        out._matrix = matrix
        out._probs = None
        return out._record_after(self, at, sorted(rows))

    def changed_since(self, base: "DenoiserOutput") -> tuple[np.ndarray, list[int]] | None:
        """(base_rows, changed) when this output was predicted after `base`
        (Denoiser.predict_after): row i is bit-equal to row base_rows[i] of
        base unless i is in `changed`, the ascending indices of the rows
        that may differ. None for any other base, or when no base is
        recorded."""
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

    def probs(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Row softmax of the logits, (P, V), computed on the first call and
        stored read-only. With `rows` (row indices), the softmax of those
        rows alone: taken from the stored softmax when it is computed, else
        computed for them and not stored; the kernel does not mix rows, so
        either way it is bit for bit those rows of the full softmax."""
        if rows is not None:
            if self._probs is None:
                return kernels.softmax_rows(self._matrix[rows])
            return self._probs[rows]
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
    output must equal predict(state) bit for bit and records which of its
    rows may differ from prev_output's (DenoiserOutput.changed_since). The
    base method calls predict(state) and compares positions and logit
    bytes; a model that knows what a reveal changes overrides it and does
    the work inside predict, so every prediction is one predict call.

    score_memo() hands out the model's memo of scored logit rows, one per
    set of scoring settings; it lives and dies with the model.

    A model is a context manager whose exit calls close(), which releases
    what the model holds open (a no-op unless a subclass holds something).
    """

    vocab: Vocab

    def predict(self, state: SeqState) -> DenoiserOutput:
        raise NotImplementedError

    def predict_after(
        self, prev_state: SeqState, prev_output: DenoiserOutput, state: SeqState
    ) -> DenoiserOutput:
        """predict(state), recording against prev_output the rows whose
        position or logits differ from prev_output's row at that position
        (no record when prev_output has no rows)."""
        out = self.predict(state)
        base_pos = prev_output._positions
        if not base_pos.shape[0]:
            return out
        rows = out._positions
        at = np.minimum(base_pos.searchsorted(rows), base_pos.shape[0] - 1)
        changed = np.flatnonzero(
            (base_pos[at] != rows) | (prev_output.matrix()[at] != out.matrix()).any(axis=1)
        )
        return out._record_after(prev_output, at, changed.tolist())

    def predict_many(self, states: Sequence[SeqState]) -> list[DenoiserOutput]:
        """predict() of each state, in order. A subclass may answer the
        batch at once, but its outputs must equal predict()'s."""
        return [self.predict(state) for state in states]

    def score_memo(
        self, k1: int, gamma: float, epsilon: float, use_entropy_penalty: bool
    ) -> dict[bytes, tuple[np.ndarray, np.ndarray]]:
        """The model's score memo for one set of scoring settings, which
        scoring.build_candidates fills: a dict from a logit row's bytes to
        that row's top-k1 tokens and scores. It starts empty, and the model
        keeps one per settings tuple for as long as it lives, so the
        finish steps of every decode on the model share it."""
        memos = vars(self).setdefault("_score_memos", {})
        return memos.setdefault((k1, gamma, epsilon, use_entropy_penalty), {})

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
    distinction use subset_conditional(), which raises ZeroMassContext.
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

    def subset_conditional(self, state: SeqState, subset: Sequence[int]) -> np.ndarray:
        """Exact joint posterior over `subset` (distinct masked positions,
        ascending) given the revealed tokens: one axis per position in that
        order; the empty subset gives a 0-d joint of mass 1. Raises
        ZeroMassContext when the revealed context has no mass, and
        SubsetNotMasked for a subset of any other form.
        """
        pos, sub = self._context_slice(state)
        mass = sub.sum()
        if mass <= 0.0:
            raise ZeroMassContext(
                f"revealed context has zero mass at positions {list(pos)}"
            )
        other = tuple(a for a, p in enumerate(pos) if p not in subset)
        if len(pos) - len(other) != len(subset) or list(subset) != sorted(subset):
            raise SubsetNotMasked(f"subset {list(subset)} is not ascending masked positions")
        cond = sub / mass
        return cond.sum(axis=other) if other else cond

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
    tables are checked when the model is built (ConfigError naming the
    order and key otherwise; so is a row whose total is too large for
    alpha to keep every probability above 0), and the model keeps a
    read-only float64 copy of them, so every logit row it predicts is
    finite and V wide without a check per prediction.
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
        if not alpha / (alpha * vocab.size) > 0:  # the unigram fallback's total overflows
            raise ConfigError(f"alpha {alpha} times vocab size {vocab.size} is not finite")
        if len(counts) != n:
            raise ConfigError("need one count table per order 0..n-1")
        self.vocab = vocab
        self.n = n
        self.alpha = alpha
        self.counts = [
            _checked_counts(k, table, vocab.size, alpha) for k, table in enumerate(counts)
        ]
        self._logit_cache: dict[tuple[int, ...], np.ndarray] = {}

    def _logits_for(self, ctx: tuple[int, ...]) -> np.ndarray:
        cached = self._logit_cache.get(ctx)
        if cached is not None:
            return cached
        table = self.counts[len(ctx)]
        vec = table.get(ctx)
        v = self.vocab.size
        if vec is None:
            vec = np.zeros(v)
        probs = (vec + self.alpha) / (vec.sum() + self.alpha * v)
        row = np.log(probs)
        self._logit_cache[ctx] = row
        return row

    def context_for(self, state: SeqState, position: int) -> tuple[int, ...]:
        """Revealed suffix feeding position's conditional (may be empty)."""
        lo = position
        mask_id = state.vocab.mask_id
        while lo > 0 and state.tokens[lo - 1] != mask_id and position - lo < self.n - 1:
            lo -= 1
        return state.tokens[lo:position]

    def predict(
        self,
        state: SeqState,
        *,
        after: tuple[SeqState, DenoiserOutput] | None = None,
    ) -> DenoiserOutput:
        """Row i is _logits_for(context_for(state, pos[i])), found in one
        pass over the masked index: the revealed run before a masked
        position starts right after the previous masked position (or at
        index 0), cut to its last n-1 tokens. Only positions with a
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
        matrix = np.empty((len(pos), self.vocab.size))
        matrix[:] = self._logits_for(())
        if keep:
            start = 0
            for i, p in enumerate(pos):
                if p > start:
                    matrix[i] = self._logits_for(tokens[max(start, p - keep) : p])
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
                    looked_up[i] = self._logits_for(tokens[max(start, p - keep) : p])
        return prev_output._after_reveal(pos, at, looked_up)


def _checked_counts(
    order: int, table: dict, v: int, alpha: float
) -> dict[tuple[int, ...], np.ndarray]:
    """A read-only float64 copy of the count table of `order`, its keys
    checked as one set of tokens and its rows in one pass over the stacked
    table. ConfigError, naming the order and the key, unless every key is a
    tuple of `order` content tokens (0..v-1) and every value a 1-d array of
    v real counts, each finite and >= 0, whose total keeps
    alpha / (total + alpha * v) above 0: then every row's logits are
    finite."""
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
    rows = np.array(values, dtype=np.float64).reshape(len(values), v)
    ok = (np.isfinite(rows) & (rows >= 0)).all(axis=1)
    if not ok.all():
        bad = keys[int(np.argmin(ok))]
        raise ConfigError(f"{where}: key {bad!r} holds a negative, NaN or infinite count")
    # the total _logits_for divides by (a row sum is its vec.sum() bit for
    # bit); one that overflows to inf fails the test
    with np.errstate(over="ignore"):
        ok = alpha / (rows.sum(axis=1) + alpha * v) > 0
    if not ok.all():
        bad = keys[int(np.argmin(ok))]
        raise ConfigError(f"{where}: key {bad!r} has counts too large for alpha {alpha}")
    rows.setflags(write=False)
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

    def score_memo(
        self, k1: int, gamma: float, epsilon: float, use_entropy_penalty: bool
    ) -> dict[bytes, tuple[np.ndarray, np.ndarray]]:
        """The inner model's memo, so wrappers of one model share it."""
        return self.inner.score_memo(k1, gamma, epsilon, use_entropy_penalty)

    def reset(self) -> None:
        self.calls = 0


# ---------------------------------------------------------------------------
# remote protocol: one ASCII line per message in each direction.
# request = "prompt_len step t_0 ... t_{n-1}": decimal ints joined by single
#           spaces; a masked position carries the vocab's mask id
# reply   = strict base64 of the little-endian frame
#           uint32 P | P x int64 positions | P x V float64 logits (row-major),
#           so V = (bytes - 4 - 8P) / (8P); or the JSON error frame
#           {"error": "..."}, a line starting with "{", which base64 never does
# A client may write several requests before it reads; the server answers
# them in order, one reply line per request line. Both ends set TCP_NODELAY,
# or pipelined small writes stall on Nagle's algorithm and delayed ACKs.

_REQUEST = re.compile(rb"-?[0-9]+(?: -?[0-9]+)+")


def encode_request(state: SeqState) -> bytes:
    """The request line of `state`, newline included."""
    return (" ".join(map(str, (state.prompt_len, state.step, *state.tokens))) + "\n").encode()


def decode_request(line: bytes, vocab: Vocab) -> SeqState:
    """The state a request line describes over `vocab` (one trailing newline
    is dropped). ConfigError unless the line is ASCII decimal ints joined by
    single spaces, the step is >= 0 and SeqState accepts the state."""
    line = line[:-1] if line.endswith(b"\n") else line
    if _REQUEST.fullmatch(line) is None:
        raise ConfigError(
            f"request must be 'prompt_len step token ...' in decimal ints joined by"
            f" single spaces, got {line[:80]!r}"
        )
    prompt_len, step, *tokens = map(int, line.split(b" "))
    if step < 0:
        raise ConfigError(f"request step must be >= 0, got {step}")
    return SeqState(vocab, prompt_len, tuple(tokens), step)


def encode_reply(out: DenoiserOutput) -> bytes:
    """The reply line of a prediction, newline included."""
    positions, matrix = out._positions, out.matrix()
    frame = b"".join((
        len(positions).to_bytes(4, "little"),
        positions.astype("<i8", copy=False).tobytes(),
        matrix.astype("<f8", copy=False).tobytes(),
    ))
    return base64.b64encode(frame) + b"\n"


def decode_reply(line: bytes) -> DenoiserOutput:
    """The prediction a (non-error) reply line holds (one trailing newline is
    dropped). ValueError unless the line is strict base64 of a frame with
    P >= 1 strictly ascending positions and 4 + 8P + 8PW bytes for a whole
    W >= 1; NonFiniteLogits for a NaN or infinite logit."""
    line = line[:-1] if line.endswith(b"\n") else line
    try:
        frame = base64.b64decode(line, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"reply is not base64: {exc}") from None
    if len(frame) < 4:
        raise ValueError(f"reply frame of {len(frame)} bytes has no 4-byte header")
    rows = int.from_bytes(frame[:4], "little")
    if not rows:
        raise ValueError("reply frame lists no positions")
    logit_bytes = len(frame) - 4 - 8 * rows
    if logit_bytes <= 0 or logit_bytes % (8 * rows):
        raise ValueError(
            f"reply frame of {len(frame)} bytes is not 4 + 8*{rows} positions"
            f" + {rows} whole float64 rows"
        )
    positions = np.frombuffer(frame, "<i8", rows, 4)
    matrix = np.frombuffer(frame, "<f8", offset=4 + 8 * rows).reshape(rows, -1)
    try:
        return DenoiserOutput.from_matrix(positions, matrix)
    except ConfigError:  # the shapes fit, so the positions are out of order
        raise ValueError(
            f"reply positions must be strictly ascending, got {positions.tolist()}"
        ) from None


class RemoteDenoiser(Denoiser):
    """Client for a denoiser served over a byte stream.

    The wire format carries no vocab descriptor, so the caller supplies the
    vocab. predict() sends one request and reads its reply; predict_many()
    writes a batch of requests at once and then reads their replies in
    order. A lock serialises callers, held across a whole batch.
    """

    def __init__(self, address: str | tuple[str, int], vocab: Vocab, timeout: float = 30.0):
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            if not host or not port.isdecimal():
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

    def _send(self, states: Sequence[SeqState]) -> None:
        """Write one request line per state in one write (caller holds the lock)."""
        lines = b"".join(map(encode_request, states))
        self._connect()
        self._fh.write(lines)
        self._fh.flush()

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
        next reply, whose request is already written.

        Socket errors, timeouts, a closed connection, a reply line cut off
        before its newline, a reply decode_reply refuses and a "{" line that
        is not a JSON object with an "error" key (an older server's JSON
        reply) raise RemoteError and drop the connection; a server error
        frame raises ConfigError and keeps it. A reply must cover exactly
        the state's masked positions with vocab-wide rows (check_cover).
        """
        masked = self._check_state(state)
        with self._lock:
            try:
                if self._pending:
                    self._pending -= 1
                else:
                    self._send([state])
                line = self._fh.readline()
                if not line.endswith(b"\n"):
                    raise EOFError(
                        "connection closed mid-reply" if line else "connection closed without a reply"
                    )
                if line.startswith(b"{"):
                    obj = json.loads(line)
                    if not isinstance(obj, dict) or "error" not in obj:
                        raise ValueError(f"reply {line[:60]!r} is JSON but not an error frame")
                    out = None
                else:
                    out = decode_reply(line)
            except (OSError, EOFError, ValueError) as exc:
                raise self._error(exc) from exc
        if out is None:
            raise ConfigError(f"remote denoiser error: {obj['error']}")
        out.check_cover(masked, self.vocab.size)
        return out

    def predict_many(self, states: Sequence[SeqState]) -> list[DenoiserOutput]:
        """Pipelined predict(): every state is checked, then all requests
        go out in one write, then predict() reads each reply in order.

        Any error in the batch drops the connection, so no reply of it is
        left unread for the next call; a bad state raises before anything
        is written.
        """
        for state in states:
            self._check_state(state)
        if not states:
            return []
        with self._lock:
            try:
                self._send(states)
            except OSError as exc:
                raise self._error(exc) from exc
            self._pending = len(states)
            try:
                return [self.predict(state) for state in states]
            except BaseException:
                self._drop()
                raise

    def close(self) -> None:
        with self._lock:
            self._drop()


class _DenoiserHandler(socketserver.StreamRequestHandler):
    """Answers each request line with one reply line, in order."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        model: Denoiser = self.server.model  # type: ignore[attr-defined]
        for line in self.rfile:
            try:
                reply = encode_reply(model.predict(decode_request(line, model.vocab)))
            except Exception as exc:  # report, keep serving
                reply = (json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n").encode()
            self.wfile.write(reply)
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
