"""Confidence-adjusted scoring and the two-stage candidate filter."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medal.denoisers import DenoiserOutput, FactorizedModel, fit_ngram
from medal.errors import LogitWidthMismatch, MissingPosition, NonFiniteLogits
from medal.families import random_calibrated_model
from medal.scoring import build_candidates, score_position
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_many


def make_state(vocab_size, length, revealed=()):
    v = Vocab(size=vocab_size)
    s = SeqState.fully_masked(v, (), length)
    return apply_many(s, [UnmaskAction(p, t) for p, t in revealed])


def test_uniform_distribution_breakdown():
    ps = score_position(np.zeros(4))
    assert ps.probs == pytest.approx((0.25,) * 4, abs=1e-15)
    # epsilon inside the log shifts entropy below ln 4 by ~4e-8
    assert ps.entropy == pytest.approx(math.log(4) - 4e-8, abs=1e-12)
    assert ps.top2_margin == 0.0
    assert ps.margin_factor == 0.5
    assert ps.ent_penalty == pytest.approx(0.25 * math.exp(4e-8), abs=1e-15)
    for s in ps.scores:
        assert s == pytest.approx(0.25 * ps.ent_penalty * 0.5, abs=1e-18)


def test_peaked_distribution_margin_factor():
    # near-one-hot: margin ~ 1, factor ~ sigmoid(gamma)
    ps = score_position(np.array([40.0, 0.0, 0.0]), gamma=5.0)
    assert ps.margin_factor == pytest.approx(1 / (1 + math.exp(-5.0)), abs=1e-12)
    assert ps.entropy == pytest.approx(0.0, abs=1e-6)
    assert ps.best_token() == 0


def test_score_position_validates_input():
    with pytest.raises(ValueError):
        score_position(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        score_position(np.zeros(1))
    with pytest.raises(NonFiniteLogits):
        score_position(np.array([0.0, np.nan]))
    with pytest.raises(NonFiniteLogits):
        score_position(np.array([0.0, np.inf]))


def test_score_matches_mpmath_breakdown(rng):
    for _ in range(10):
        logits = rng.normal(scale=5.0, size=rng.integers(2, 12))
        ps = score_position(logits, gamma=5.0, epsilon=1e-8)
        ref = oracles.mp_score_row(logits, 5.0, 1e-8)
        assert oracles.mp_close(ps.entropy, ref["entropy"], 1e-12)
        assert oracles.mp_close(ps.margin_factor, ref["margin_factor"], 1e-12)
        for got, want in zip(ps.scores, ref["scores"]):
            assert oracles.mp_close(got, want, 1e-12)


def test_row_argmax_is_probability_argmax(rng):
    # penalty and margin factor are per-row constants, so the score order
    # inside a row must equal the probability order
    for _ in range(20):
        logits = rng.normal(scale=3.0, size=8)
        ps = score_position(logits)
        assert np.argmax(ps.scores) == np.argmax(ps.probs)


def test_build_candidates_requires_exact_position_cover(rng):
    state = make_state(3, 4, revealed=[(1, 0)])
    good = {p: rng.normal(size=3) for p in (0, 2, 3)}
    cands = build_candidates(state, good, k1=3, k2=9)
    assert cands.positions.tolist() == [0, 2, 3]
    assert cands.tokens.shape == cands.scores.shape == cands.logits.shape == (3, 3)
    with pytest.raises(MissingPosition):
        build_candidates(state, {0: good[0], 2: good[2]}, k1=3, k2=9)
    bad = dict(good)
    bad[1] = good[0]
    with pytest.raises(MissingPosition):
        build_candidates(state, bad, k1=3, k2=9)
    with pytest.raises(MissingPosition):
        build_candidates(state, bad, k1=3, k2=9, prev=cands)
    wide = {p: rng.normal(size=4) for p in (0, 2, 3)}
    with pytest.raises(LogitWidthMismatch):
        build_candidates(state, wide, k1=3, k2=9)


def test_build_candidates_shapes_and_order(rng):
    state = make_state(5, 3)
    out = {p: rng.normal(size=5) for p in range(3)}
    cands = build_candidates(state, out, k1=2, k2=4)
    assert set(cands.per_position) == {0, 1, 2}
    for pos, pairs in cands.per_position.items():
        assert len(pairs) == 2
        assert pairs[0][1] >= pairs[1][1]
        for act, _ in pairs:
            assert act.position == pos
    assert len(cands.pooled) == 4
    pooled_scores = [s for _, s in cands.pooled]
    assert pooled_scores == sorted(pooled_scores, reverse=True)


def test_build_candidates_tie_breaks_position_then_token():
    # identical logits at both positions produce exactly tied scores
    state = make_state(3, 2)
    out = {0: np.zeros(3), 1: np.zeros(3)}
    cands = build_candidates(state, out, k1=3, k2=6)
    keyed = [(a.position, a.token) for a, _ in cands.pooled]
    assert keyed == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_build_candidates_k_clamped_to_available():
    state = make_state(3, 2)
    out = {0: np.array([2.0, 1.0, 0.0]), 1: np.array([0.0, 1.0, 2.0])}
    cands = build_candidates(state, out, k1=10, k2=100)
    assert all(len(v) == 3 for v in cands.per_position.values())
    assert len(cands.pooled) == 6
    with pytest.raises(ValueError):
        build_candidates(state, out, k1=0, k2=3)
    with pytest.raises(ValueError):
        build_candidates(state, out, k1=3, k2=0)


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=5),
    vocab=st.integers(min_value=2, max_value=5),
    k1=st.integers(min_value=1, max_value=6),
    k2=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_filter_matches_brute_force(length, vocab, k1, k2, seed):
    gen = np.random.default_rng(seed)
    state = make_state(vocab, length)
    out = {p: gen.normal(scale=2.0, size=vocab) for p in range(length)}
    cands = build_candidates(state, out, k1=k1, k2=k2)

    table = {}
    for p in range(length):
        ps = score_position(out[p], position=p)
        table[p] = list(ps.scores)
    expected = oracles.brute_candidates(table, k1, k2)

    got = [(a.position, a.token, s) for a, s in cands.pooled]
    assert len(got) == len(expected)
    for (gp, gt, gs), (ep, et, es) in zip(got, expected):
        assert (gp, gt) == (ep, et)
        assert gs == pytest.approx(es, abs=1e-12)


def _random_model(kind, gen, vocab):
    if kind == "tabular":
        return random_calibrated_model(gen, int(gen.integers(1, 6)), vocab)
    if kind == "factorized":
        length = int(gen.integers(1, 10))
        return FactorizedModel(Vocab(vocab), gen.dirichlet(np.ones(vocab), size=length))
    corpus = [gen.integers(0, vocab, size=int(gen.integers(1, 15))).tolist() for _ in range(6)]
    return fit_ngram(corpus, n=int(gen.integers(1, 5)), alpha=0.5, vocab_size=vocab)


def _same_candidates(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.tokens, b.tokens)
    assert a.scores.tobytes() == b.scores.tobytes()
    assert a.pooled == b.pooled


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["tabular", "factorized", "ngram"]),
    vocab=st.integers(min_value=2, max_value=4),
    k1=st.integers(min_value=1, max_value=5),
    k2=st.integers(min_value=1, max_value=8),
    max_step=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_reuse_equals_fresh_build(kind, vocab, k1, k2, max_step, seed):
    # along a random walk of reveals, building from the previous step's
    # candidates gives bit-for-bit the candidates of a build from scratch
    gen = np.random.default_rng(seed)
    model = _random_model(kind, gen, vocab)
    length = getattr(model, "length", int(gen.integers(1, 12)))
    prompt = tuple(gen.integers(0, vocab, size=int(gen.integers(0, 3))).tolist())
    state = SeqState.fully_masked(model.vocab, prompt, length)
    prev = None
    while not state.is_complete:
        out = model.predict(state)
        fresh = build_candidates(state, out, k1, k2)
        reused = build_candidates(state, out, k1, k2, prev=prev)
        _same_candidates(reused, fresh)
        # a prev from unrelated logits over the same positions shares no row
        noise = DenoiserOutput.from_matrix(
            out.positions(), gen.normal(size=out.matrix().shape)
        )
        unrelated = build_candidates(state, noise, k1, k2)
        _same_candidates(build_candidates(state, out, k1, k2, prev=unrelated), fresh)
        prev = reused
        masked = state.masked_index
        count = min(len(masked), int(gen.integers(1, max_step + 1)))
        picks = gen.choice(masked, size=count, replace=False).tolist()
        state = apply_many(
            state, [UnmaskAction(p, int(gen.integers(0, vocab))) for p in picks]
        )
