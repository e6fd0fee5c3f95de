"""Denoiser interface and desk-scale reference models.

A denoiser takes a partially masked state and returns one logit vector per
masked position, covering content tokens only. Predictions must be pure
functions of the state so that search and replay stay deterministic.

Three toy families with known structure:

* TabularModel: explicit joint over the generation region; conditionals are
  exact posteriors given all revealed generation tokens.
* FactorizedModel: independent per-position distributions.
* NGramMaskedModel: smoothed n-gram conditioned on the longest contiguous
  revealed suffix preceding each position (prompt included).

RemoteDenoiser speaks line-delimited JSON over a socket so an external
process can stand in for the model; serve_denoiser exposes any local model
over the same wire format.
"""

from __future__ import annotations

import contextlib
import json
import math
import socket
import socketserver
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
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
    ZeroMassContext,
)
from .seqcore import SeqState, Vocab, state_from_json, state_to_json

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

# floor added before log so tabular/factorized logits stay finite at p=0
LOGIT_FLOOR = 1e-12


class DenoiserOutput:
    """Logits of one prediction as a (positions, matrix) pair.

    positions() lists the absolute masked positions in ascending order;
    row i of matrix() is the logit vector of the i-th position over the
    content tokens (the mask token gets no logit), so the matrix has shape
    (P, V). Build it from a {position: vector} mapping or with
    from_matrix(positions, matrix). Either way the whole matrix is
    validated once, here: 2-d with one width, and every entry finite.
    The stored arrays are read-only; matrix() without arguments returns
    them without copying. probs() is the row softmax of the matrix,
    computed on its first call and kept, so scoring, entropies and
    rollouts over one prediction share one softmax.
    """

    __slots__ = ("_positions", "_matrix", "_probs")

    def __init__(self, logits: Mapping[int, ArrayLike]):
        items = sorted(((int(p), v) for p, v in logits.items()), key=lambda kv: kv[0])
        rows = []
        for pos, vec in items:
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise ConfigError(f"logits for position {pos} must be 1-d")
            if rows and arr.shape[0] != rows[0].shape[0]:
                raise ConfigError("logit vectors must share one width")
            rows.append(arr)
        matrix = np.stack(rows) if rows else np.empty((0, 0))
        self._set(np.asarray([p for p, _ in items], dtype=np.int64), matrix)

    @classmethod
    def from_matrix(cls, positions: Sequence[int], matrix: ArrayLike) -> "DenoiserOutput":
        """Output whose row i holds the logits of positions[i]; positions
        must be strictly ascending."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1 or (pos[1:] <= pos[:-1]).any():
            raise ConfigError("positions must be a strictly ascending 1-d sequence")
        out = cls.__new__(cls)
        out._set(pos, matrix)
        return out

    def _set(self, positions: np.ndarray, matrix: ArrayLike) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != positions.shape[0]:
            raise ConfigError(
                f"logit matrix of shape {matrix.shape} does not give one row to each"
                f" of {positions.shape[0]} positions"
            )
        finite = np.isfinite(matrix)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            raise NonFiniteLogits(f"non-finite logits at position {positions[row]}")
        positions = positions.view()
        positions.flags.writeable = False
        matrix = matrix.view()
        matrix.flags.writeable = False
        self._positions = positions
        self._matrix = matrix
        self._probs = None

    @property
    def logits(self) -> Mapping[int, np.ndarray]:
        """Read-only {position: logit vector} view of the rows."""
        return _LogitRows(self)

    def positions(self) -> list[int]:
        return self._positions.tolist()

    def matrix(self, positions: Sequence[int] | None = None) -> np.ndarray:
        """Rows for `positions` (default: all, as stored, without a copy).

        Raises MissingPosition when a requested position has no row.
        """
        return self._rows(self._matrix, positions)

    def probs(self, positions: Sequence[int] | None = None) -> np.ndarray:
        """Row softmax of the logits, rows selected as by matrix(positions).

        The full (P, V) result is computed on the first call and stored
        read-only; a row subset is bit-identical to the softmax of just
        those rows.
        """
        if self._probs is None:
            probs = kernels.softmax_rows(self._matrix)
            probs.flags.writeable = False
            self._probs = probs
        return self._rows(self._probs, positions)

    def check_cover(self, positions: Sequence[int], vocab_size: int) -> None:
        """Raise MissingPosition unless the rows are exactly `positions`
        (ascending), and LogitWidthMismatch unless every row holds one logit
        per content token."""
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

    def _rows(self, array: np.ndarray, positions: Sequence[int] | None) -> np.ndarray:
        if positions is None:
            return array
        want = np.asarray(positions, dtype=np.int64)
        if np.array_equal(want, self._positions):
            return array
        idx = np.searchsorted(self._positions, want)
        found = idx < self._positions.shape[0]
        found[found] = self._positions[idx[found]] == want[found]
        if not found.all():
            raise MissingPosition(f"no logits for positions {want[~found].tolist()}")
        return array[idx]


class _LogitRows(Mapping):
    """The {position: row} mapping behind DenoiserOutput.logits."""

    __slots__ = ("_out",)

    def __init__(self, out: DenoiserOutput):
        self._out = out

    def __getitem__(self, pos: int) -> np.ndarray:
        try:
            return self._out.matrix([pos])[0]
        except MissingPosition:
            raise KeyError(pos) from None

    def __iter__(self):
        return iter(self._out.positions())

    def __len__(self) -> int:
        return len(self._out._positions)


class Denoiser:
    """Base interface. Subclasses set vocab and implement predict."""

    vocab: Vocab

    def predict(self, state: SeqState) -> DenoiserOutput:
        raise NotImplementedError

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
    distinction use masked_conditional(), which raises ZeroMassContext.
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
        self.length = joint.ndim

    def _gen_index(self, state: SeqState) -> tuple:
        if state.gen_length != self.length:
            raise ConfigError(
                f"state generation length {state.gen_length} != model length {self.length}"
            )
        mask_id = state.vocab.mask_id
        return tuple([slice(None) if tok == mask_id else tok for tok in state.gen_tokens()])

    def _context_slice(self, state: SeqState) -> tuple[list[int], np.ndarray]:
        """Positions still masked and the unnormalized joint over them."""
        pos = list(self._check_state(state))
        sub = self.joint[self._gen_index(state)]
        return pos, np.asarray(sub)

    def masked_conditional(self, state: SeqState) -> tuple[list[int], np.ndarray]:
        """Exact joint posterior over masked positions given revealed tokens.

        Returns (positions ascending, array with one axis per position in
        that order). Raises ZeroMassContext when the revealed context has
        no mass.
        """
        pos, sub = self._context_slice(state)
        mass = sub.sum()
        if mass <= 0.0:
            raise ZeroMassContext(
                f"revealed context has zero mass at positions {pos}"
            )
        return pos, sub / mass

    def predict(self, state: SeqState) -> DenoiserOutput:
        pos, sub = self._context_slice(state)
        mass = sub.sum()
        v = self.vocab.size
        probs = np.full((len(pos), v), 1.0 / v)
        if mass > 0.0:
            for axis in range(len(pos)):
                other = tuple(a for a in range(sub.ndim) if a != axis)
                probs[axis] = sub.sum(axis=other) / mass
        return DenoiserOutput.from_matrix(pos, np.log(probs + LOGIT_FLOOR))

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
        self.length = rows.shape[0]

    def predict(self, state: SeqState) -> DenoiserOutput:
        pos = self._check_state(state)
        if state.gen_length != self.length:
            raise ConfigError(
                f"state generation length {state.gen_length} != model length {self.length}"
            )
        rows = self.rows[np.asarray(pos) - state.prompt_len]
        return DenoiserOutput.from_matrix(pos, np.log(rows + LOGIT_FLOOR))

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
        if len(counts) != n:
            raise ConfigError("need one count table per order 0..n-1")
        self.vocab = vocab
        self.n = n
        self.alpha = alpha
        self.counts = counts
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

    def predict(self, state: SeqState) -> DenoiserOutput:
        """Row i is _logits_for(context_for(state, pos[i])), computed with
        n-1 array passes for the context lengths; only positions with a
        non-empty context look their row up one by one."""
        pos = self._check_state(state)
        at = np.asarray(pos)
        # positions before the sequence start count as masked, so a run
        # never reaches past index 0
        revealed = np.ones(len(state.tokens) + self.n - 1, dtype=bool)
        revealed[: self.n - 1] = False
        revealed[at + (self.n - 1)] = False
        ctx_len = np.zeros(len(pos), dtype=np.intp)
        run = np.ones(len(pos), dtype=bool)
        for k in range(1, self.n):
            run &= revealed[at + (self.n - 1 - k)]
            ctx_len += run
        matrix = np.empty((len(pos), self.vocab.size))
        matrix[:] = self._logits_for(())
        for i in np.flatnonzero(ctx_len).tolist():
            p = pos[i]
            matrix[i] = self._logits_for(state.tokens[p - int(ctx_len[i]) : p])
        return DenoiserOutput.from_matrix(at, matrix)


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
    """Transparent wrapper that counts predict() calls."""

    def __init__(self, inner: Denoiser):
        self.inner = inner
        self.vocab = inner.vocab
        self.calls = 0

    def predict(self, state: SeqState) -> DenoiserOutput:
        self.calls += 1
        return self.inner.predict(state)

    def reset(self) -> None:
        self.calls = 0


# ---------------------------------------------------------------------------
# remote protocol: one JSON object per line in each direction.
# request  = serialized state {"prompt_len", "tokens", "masked", "step"}
# response = {"logits": {"<position>": [floats]}} or {"error": "..."}


class RemoteDenoiser(Denoiser):
    """Client for a denoiser served over a byte stream.

    The wire format carries no vocab descriptor, so the caller supplies the
    vocab. One in-flight request at a time.
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
        self.address = address
        self.vocab = vocab
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._fh = None
        self._lock = threading.Lock()

    def _connect(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=self.timeout)
            self._fh = self._sock.makefile("rwb")

    def _drop(self) -> None:
        """Close the stream and socket (caller holds the lock); the next call reconnects."""
        if self._fh is not None:
            with contextlib.suppress(OSError):  # flushing a dead stream fails again
                self._fh.close()
            self._fh = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def predict(self, state: SeqState) -> DenoiserOutput:
        """One request/reply exchange.

        Socket errors, timeouts, a closed connection and replies that are
        not a JSON object with a "logits" mapping from positions (canonical
        ASCII decimal keys) to equal-width lists of JSON numbers raise
        RemoteError and drop the connection; a server error frame raises
        ConfigError and keeps it. A reply must cover exactly the state's
        masked positions with vocab-wide rows (check_cover).
        """
        masked = self._check_state(state)
        payload = (json.dumps(state_to_json(state), separators=(",", ":")) + "\n").encode()
        with self._lock:
            try:
                self._connect()
                self._fh.write(payload)
                self._fh.flush()
                line = self._fh.readline()
                if not line:
                    raise EOFError("connection closed without a reply")
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("reply is not a JSON object")
                if "error" not in obj:
                    out = _read_logits(obj.get("logits"))
            except (OSError, EOFError, ValueError, TypeError) as exc:
                self._drop()
                host, port = self.address
                raise RemoteError(
                    f"remote denoiser {host}:{port}: {type(exc).__name__}: {exc}"
                ) from exc
        if "error" in obj:
            raise ConfigError(f"remote denoiser error: {obj['error']}")
        out.check_cover(masked, self.vocab.size)
        return out

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self) -> "RemoteDenoiser":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _read_logits(logits) -> DenoiserOutput:
    """The output a reply's "logits" mapping holds, in any key order;
    ValueError unless every key is a position in canonical ASCII decimal
    ("7", not "07" or an Arabic-Indic 7), every row is a list of JSON
    numbers (a bool or a numeric string is not one) and the rows share one
    width."""
    if not isinstance(logits, dict):
        raise ValueError("reply has no 'logits' mapping")
    if not all(k.isascii() and k.isdecimal() and str(int(k)) == k for k in logits):
        raise ValueError(
            f"reply logits keys must be positions in canonical decimal digits, got {list(logits)}"
        )
    rows = logits.values()
    if not set(map(type, rows)) <= {list} or not (
        set(map(type, chain.from_iterable(rows))) <= {int, float}
    ):
        pos, row = next(
            (p, r) for p, r in logits.items()
            if type(r) is not list or not set(map(type, r)) <= {int, float}
        )
        raise ValueError(f"logits row of position {pos} is not a list of JSON numbers: {row!r}")
    if len(set(map(len, rows))) > 1:
        raise ValueError("logits rows must share one width")
    pairs = sorted(zip(map(int, logits), rows), key=lambda pair: pair[0])
    matrix = np.array([row for _, row in pairs], dtype=np.float64) if pairs else np.empty((0, 0))
    return DenoiserOutput.from_matrix([pos for pos, _ in pairs], matrix)


class _DenoiserHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        model: Denoiser = self.server.model  # type: ignore[attr-defined]
        for raw in self.rfile:
            raw = raw.strip()
            if not raw:
                continue
            try:
                state = state_from_json(json.loads(raw), model.vocab)
                out = model.predict(state)
                rows = out.matrix().tolist()
                reply = {"logits": dict(zip(map(str, out.positions()), rows))}
            except Exception as exc:  # report, keep serving
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            self.wfile.write((json.dumps(reply, separators=(",", ":")) + "\n").encode())
            self.wfile.flush()


class DenoiserServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, model: Denoiser, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _DenoiserHandler)
        self.model = model

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def serve_denoiser(model: Denoiser, host: str = "127.0.0.1", port: int = 0) -> DenoiserServer:
    """Bind a server for `model`; call .serve_in_thread() or .serve_forever()."""
    return DenoiserServer(model, host, port)
