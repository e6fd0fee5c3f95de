"""Row kernels against arbitrary-precision and hand-written oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medal import kernels
from medal.kernels import draw, entropy_rows, score_rows, softmax_rows

import oracles


def _inverse_cdf(row, u):
    """First column whose running total reaches u; the last column if none does."""
    total = 0.0
    for j, p in enumerate(row):
        total += p
        if total >= u:
            return j
    return len(row) - 1


def test_softmax_rows_matches_mpmath(rng):
    logits = np.vstack([rng.normal(scale=6.0, size=(5, 8)), np.full((1, 8), 700.0)])
    probs = softmax_rows(logits)
    for r in range(logits.shape[0]):
        ref = oracles.mp_softmax(logits[r])
        for v in range(logits.shape[1]):
            assert oracles.mp_close(probs[r, v], ref[v], 1e-12)


def _draw_oracle(scores, temperature, rng):
    """Softmax of the max-shifted scores over T as a (1, k) row, then the
    inverse-CDF pick: the count of cumulative probabilities below one
    rng.random(1) draw, clamped to k-1. Returns (index, probabilities)."""
    w = np.array([scores], dtype=np.float64)
    probs = softmax_rows((w - w.max()) / temperature)
    cum = probs.cumsum(axis=1)
    u = rng.random(1)
    return int(np.minimum((cum < u[:, None]).sum(axis=1), len(scores) - 1)[0]), probs[0]


class _FixedDraw:
    """rng stand-in whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_draw_matches_inverse_cdf(rng):
    for _ in range(40):
        scores = rng.normal(scale=2.0, size=6).tolist()
        seed = int(rng.integers(2**32))
        u = np.random.default_rng(seed).random()
        probs = kernels._draw_probs(scores, 0.7)
        assert draw(scores, 0.7, np.random.default_rng(seed)) == _inverse_cdf(probs, u)
    # seven tied scores: the float running total of their probabilities ends
    # below the largest draw, 1 - 2**-53, so that draw lands past the last
    # column and the k-1 clamp decides
    top = 1 - 2**-53
    assert np.cumsum(kernels._draw_probs([0.0] * 7, 1.0))[-1] < top
    assert draw([0.0] * 7, 1.0, _FixedDraw(top)) == 6
    assert _draw_oracle([0.0] * 7, 1.0, _FixedDraw(top))[0] == 6


@settings(max_examples=400, deadline=None)
@given(
    scores=st.lists(
        st.sampled_from([0.0, 0.25, 1.0])
        | st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    log_t=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_draw_matches_softmax_then_inverse_cdf(scores, log_t, seed):
    # tied scores come from the sampled constants; spreads up to 2e6 over
    # T down to 1e-3 make exp underflow to 0 for all but the top scores
    temperature = 10.0**log_t
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    want, want_probs = _draw_oracle(scores, temperature, theirs)
    assert draw(scores, temperature, mine) == want
    probs = np.array(kernels._draw_probs(scores, temperature))
    assert probs.view(np.uint64).tolist() == want_probs.view(np.uint64).tolist()
    assert mine.random() == theirs.random()


def test_score_rows_fields_match_mpmath(rng):
    logits = rng.normal(scale=3.0, size=(6, 9))
    probs = softmax_rows(logits)
    ent, pen, margin, mf, scores = score_rows(probs, 5.0, 1e-8, True)
    for r in range(logits.shape[0]):
        ref = oracles.mp_score_row(logits[r], 5.0, 1e-8)
        for v in range(logits.shape[1]):
            assert oracles.mp_close(probs[r, v], ref["probs"][v], 1e-12)
            assert oracles.mp_close(scores[r, v], ref["scores"][v], 1e-12)
        assert oracles.mp_close(ent[r], ref["entropy"], 1e-12)
        assert oracles.mp_close(pen[r], ref["penalty"], 1e-12)
        assert oracles.mp_close(margin[r], ref["margin"], 1e-12)
        assert oracles.mp_close(mf[r], ref["margin_factor"], 1e-12)


def test_entropy_rows_is_exact_and_clamped():
    probs = np.array(
        [
            [0.25, 0.25, 0.25, 0.25],
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
        ]
    )
    ent = entropy_rows(probs)
    assert ent[0] == pytest.approx(math.log(4), abs=1e-15)
    assert ent[1] == 0.0  # 0 * log 0 treated as 0
    assert ent[2] == pytest.approx(math.log(2), abs=1e-15)
    assert np.all(ent <= math.log(4) + 1e-15)


def test_penalty_disabled_reports_ones(rng):
    probs = softmax_rows(rng.normal(size=(4, 5)))
    ent, pen, _, mf, scores = score_rows(probs, 5.0, 1e-8, False)
    assert np.all(pen == 1.0)
    assert np.max(np.abs(scores - probs * mf[:, None])) < 1e-15
    # entropy is still reported even though it no longer enters the score
    assert np.all(ent > 0)


# ---------------------------------------------------------------------------
# bit-for-bit equality with the kernels as first written, and across stacks

ROW_KINDS = ("random", "onehot", "uniform", "underflow")


def _rows(kinds, width, seed):
    """(logits, probs), one row of each per entry of `kinds`: random rows;
    one-hot rows (logit 800 over 0, whose exponentials underflow to 0, and
    an exact one-hot probability row); uniform rows; and rows some of whose
    exponentials underflow to subnormals or zero (probabilities: their
    softmax)."""
    rng = np.random.default_rng(seed)
    logits = np.zeros((len(kinds), width))
    probs = np.zeros((len(kinds), width))
    for i, kind in enumerate(kinds):
        if kind == "random":
            logits[i] = rng.normal(scale=10.0 ** rng.uniform(-1.0, 2.0), size=width)
            probs[i] = rng.dirichlet(np.full(width, 0.5))
        elif kind == "onehot":
            hot = rng.integers(width)
            logits[i, hot] = 800.0
            probs[i, hot] = 1.0
        elif kind == "uniform":
            logits[i] = rng.normal()
            probs[i] = 1.0 / width
        else:
            logits[i] = rng.normal(size=width) - rng.choice([0.0, 705.0, 740.0, 1000.0], size=width)
            probs[i] = oracles.ref_softmax_rows(logits[i : i + 1])[0]
    return logits, probs


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=0, max_size=20),
    width=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.5, 5.0, 40.0]),
    epsilon=st.sampled_from([1e-12, 1e-8, 1e-3]),
    penalty=st.booleans(),
)
def test_property_kernels_equal_the_formulas_as_first_written(
    kinds, width, seed, gamma, epsilon, penalty
):
    logits, probs = _rows(kinds, width, seed)
    _same_bits(softmax_rows(logits), oracles.ref_softmax_rows(logits))
    for p in (probs, oracles.ref_softmax_rows(logits)):
        _same_bits(entropy_rows(p), oracles.ref_entropy_rows(p))
        fields = zip(
            score_rows(p, gamma, epsilon, penalty),
            oracles.ref_score_rows(p, gamma, epsilon, penalty),
            strict=True,
        )
        for got, want in fields:
            _same_bits(got, want)


def test_entropy_of_a_one_hot_row_keeps_its_sign():
    # -sum(p * ln p) of a one-hot row is -0.0, and the clamp to [0, ln V]
    # keeps it (np.maximum(-0.0, 0.0) would give +0.0)
    ent = entropy_rows(np.array([[0.0, 1.0, 0.0]]))
    assert ent[0] == 0.0 and math.copysign(1.0, ent[0]) == -1.0


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(
        st.lists(st.sampled_from(ROW_KINDS), min_size=0, max_size=6), min_size=1, max_size=5
    ),
    width=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_stacked_kernels_equal_per_block_kernels(blocks, width, seed):
    # a batch of ragged blocks (rows 0-6 each) stacked row-wise: every
    # kernel's rows of the stack are the bits of the kernel over the block
    parts = [_rows(kinds, width, seed + i) for i, kinds in enumerate(blocks)]
    logits = np.concatenate([lg for lg, _ in parts])
    probs = np.concatenate([p for _, p in parts])
    stacked = (softmax_rows(logits), entropy_rows(probs), *score_rows(probs, 5.0, 1e-8))
    start = 0
    for block_logits, block_probs in parts:
        stop = start + block_logits.shape[0]
        alone = (
            softmax_rows(block_logits),
            entropy_rows(block_probs),
            *score_rows(block_probs, 5.0, 1e-8),
        )
        for whole, part in zip(stacked, alone, strict=True):
            _same_bits(whole[start:stop], part)
        start = stop
