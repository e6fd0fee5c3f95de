"""Row kernels against arbitrary-precision and hand-written oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from medal.errors import ConfigError
from medal.kernels import entropy_rows, pick_tokens, score_rows, softmax_rows

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


def test_pick_tokens_sample_matches_inverse_cdf(rng):
    probs = softmax_rows(rng.normal(scale=2.0, size=(40, 6)))
    # a row whose float cumsum ends below 1, and one that sums to 0.3, so
    # the draw lands past the last column and the V-1 clamp decides
    tenths = np.full((1, 10), 0.1)
    short = np.array([[0.1, 0.1, 0.1]])
    assert tenths.cumsum()[-1] < 1.0
    assert np.random.default_rng(9).random() > 0.3
    for rows in (probs, tenths, short):
        draws = np.random.default_rng(9).random(rows.shape[0])
        got = pick_tokens(rows, "sample", np.random.default_rng(9))
        assert got.tolist() == [_inverse_cdf(r, u) for r, u in zip(rows.tolist(), draws)]
    assert pick_tokens(short, "sample", np.random.default_rng(9)).tolist() == [2]


def test_pick_tokens_argmax_takes_first_maximum():
    probs = np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [1.0, 0.0, 0.0]])
    assert pick_tokens(probs, "argmax").tolist() == [1, 0, 0]


def test_pick_tokens_rejects_bad_modes():
    probs = np.full((2, 3), 1 / 3)
    with pytest.raises(ConfigError, match="unknown"):
        pick_tokens(probs, "beam", np.random.default_rng(0))
    with pytest.raises(ConfigError, match="rng"):
        pick_tokens(probs, "sample")


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
