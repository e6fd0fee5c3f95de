"""Confidence-adjusted scoring and the two-stage candidate filter."""

from __future__ import annotations

import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medal import kernels, scoring
from medal.denoisers import CountingDenoiser, DenoiserOutput, FactorizedModel, fit_ngram
from medal.errors import ConfigError, LogitWidthMismatch, MissingPosition, NonFiniteLogits
from medal.families import random_calibrated_model
from medal.mcts import SearchConfig
from medal.scoring import build_candidates, settings_key
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_many


def make_state(vocab_size, length, revealed=()):
    v = Vocab(size=vocab_size)
    s = SeqState.fully_masked(v, (), length)
    return apply_many(s, [UnmaskAction(p, t) for p, t in revealed])


def score_row(logits, gamma=5.0, epsilon=1e-8, use_entropy_penalty=True):
    """(probs, entropy, penalty, margin, margin_factor, scores) of one
    logit vector, through the kernels build_candidates scores with."""
    probs = kernels.softmax_rows(np.asarray(logits, dtype=np.float64)[None])
    fields = kernels.score_rows(probs, gamma, epsilon, use_entropy_penalty)
    return (probs[0],) + tuple(f[0] for f in fields)


def cfg(k1, k2, **settings):
    """The SearchConfig build_candidates reads its settings from."""
    return SearchConfig(k1=k1, k2=k2, **settings)


def output(rows):
    """DenoiserOutput of a {position: logits} dict."""
    positions = sorted(rows)
    return DenoiserOutput.from_matrix(positions, np.stack([rows[p] for p in positions]))


def test_uniform_distribution_breakdown():
    probs, entropy, penalty, margin, factor, scores = score_row(np.zeros(4))
    assert tuple(probs) == pytest.approx((0.25,) * 4, abs=1e-15)
    # epsilon inside the log shifts entropy below ln 4 by ~4e-8
    assert entropy == pytest.approx(math.log(4) - 4e-8, abs=1e-12)
    assert margin == 0.0
    assert factor == 0.5
    assert penalty == pytest.approx(0.25 * math.exp(4e-8), abs=1e-15)
    for s in scores:
        assert s == pytest.approx(0.25 * penalty * 0.5, abs=1e-18)


def test_peaked_distribution_margin_factor():
    # near-one-hot: margin ~ 1, factor ~ sigmoid(gamma)
    _, entropy, _, _, factor, scores = score_row(np.array([40.0, 0.0, 0.0]), gamma=5.0)
    assert factor == pytest.approx(1 / (1 + math.exp(-5.0)), abs=1e-12)
    assert entropy == pytest.approx(0.0, abs=1e-6)
    assert np.argmax(scores) == 0


def test_score_inputs_are_validated():
    # the kernels take a (P, V) matrix only; finiteness is checked once,
    # when the prediction is built
    for bad in (np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ConfigError):
            kernels.score_rows(bad, 5.0, 1e-8)
        with pytest.raises(ConfigError):
            kernels.entropy_rows(bad)
    with pytest.raises(NonFiniteLogits):
        DenoiserOutput.from_matrix([0], np.array([[0.0, np.nan]]))
    with pytest.raises(NonFiniteLogits):
        DenoiserOutput.from_matrix([0], np.array([[0.0, np.inf]]))


def test_score_matches_mpmath_breakdown(rng):
    for _ in range(10):
        logits = rng.normal(scale=5.0, size=rng.integers(2, 12))
        _, entropy, _, _, factor, scores = score_row(logits, gamma=5.0, epsilon=1e-8)
        ref = oracles.mp_score_row(logits, 5.0, 1e-8)
        assert oracles.mp_close(entropy, ref["entropy"], 1e-12)
        assert oracles.mp_close(factor, ref["margin_factor"], 1e-12)
        for got, want in zip(scores, ref["scores"]):
            assert oracles.mp_close(got, want, 1e-12)


def test_row_argmax_is_probability_argmax(rng):
    # penalty and margin factor are per-row constants, so the score order
    # inside a row must equal the probability order
    for _ in range(20):
        logits = rng.normal(scale=3.0, size=8)
        probs, *_, scores = score_row(logits)
        assert np.argmax(scores) == np.argmax(probs)


def test_build_candidates_requires_exact_position_cover(rng):
    state = make_state(3, 4, revealed=[(1, 0)])
    good = {p: rng.normal(size=3) for p in (0, 2, 3)}
    cands = build_candidates(state, output(good), cfg(3, 9))
    assert cands.positions.tolist() == [0, 2, 3]
    assert cands.tokens.shape == cands.scores.shape == cands.output.matrix().shape == (3, 3)
    with pytest.raises(MissingPosition):
        build_candidates(state, output({0: good[0], 2: good[2]}), cfg(3, 9))
    bad = dict(good)
    bad[1] = good[0]
    with pytest.raises(MissingPosition):
        build_candidates(state, output(bad), cfg(3, 9))
    with pytest.raises(MissingPosition):
        build_candidates(state, output(bad), cfg(3, 9), prev=cands)
    wide = {p: rng.normal(size=4) for p in (0, 2, 3)}
    with pytest.raises(LogitWidthMismatch):
        build_candidates(state, output(wide), cfg(3, 9))


def test_build_candidates_shapes_and_order(rng):
    state = make_state(5, 3)
    out = output({p: rng.normal(size=5) for p in range(3)})
    cands = build_candidates(state, out, cfg(2, 4))
    assert cands.positions.tolist() == [0, 1, 2]
    assert cands.tokens.shape == cands.scores.shape == (3, 2)
    assert (cands.scores[:, 0] >= cands.scores[:, 1]).all()
    assert len(cands.pooled) == 4
    pooled_scores = [s for _, s in cands.pooled]
    assert pooled_scores == sorted(pooled_scores, reverse=True)


def test_build_candidates_tie_breaks_position_then_token():
    # identical logits at both positions produce exactly tied scores
    state = make_state(3, 2)
    out = output({0: np.zeros(3), 1: np.zeros(3)})
    cands = build_candidates(state, out, cfg(3, 6))
    keyed = [(a.position, a.token) for a, _ in cands.pooled]
    assert keyed == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_build_candidates_k_clamped_to_available():
    state = make_state(3, 2)
    out = output({0: np.array([2.0, 1.0, 0.0]), 1: np.array([0.0, 1.0, 2.0])})
    cands = build_candidates(state, out, cfg(10, 100))
    assert cands.tokens.shape == (2, 3)
    assert len(cands.pooled) == 6
    with pytest.raises(ConfigError):
        build_candidates(state, out, cfg(0, 3))
    with pytest.raises(ConfigError):
        build_candidates(state, out, cfg(3, 0))
    # a prev built with another k1 or vocab width cannot be reused
    with pytest.raises(ConfigError):
        build_candidates(state, out, cfg(2, 3), prev=cands)
    wide = make_state(4, 2)
    with pytest.raises(ConfigError):
        build_candidates(wide, output({0: np.zeros(4), 1: np.zeros(4)}), cfg(3, 3), prev=cands)


def _counting(monkeypatch, name):
    """Record the row count of each call of kernels.<name>."""
    calls = []
    kernel = getattr(kernels, name)

    def counted(rows, *args, **kwargs):
        calls.append(np.shape(rows)[0])
        return kernel(rows, *args, **kwargs)

    monkeypatch.setattr(kernels, name, counted)
    return calls


def test_build_candidates_scores_each_distinct_row_once_per_memo(monkeypatch, rng):
    scored = _counting(monkeypatch, "score_rows")
    state = make_state(4, 5)
    a, b, c = rng.normal(size=(3, 4))
    out = output({0: a, 1: b, 2: a, 3: a, 4: c})
    memo = {}
    cands = build_candidates(state, out, cfg(2, 4), memo=memo)
    assert scored == [3]  # one batch of the three distinct contents
    assert sorted(memo) == sorted({row.tobytes() for row in (a, b, c)})
    _same_candidates(cands, build_candidates(state, out, cfg(2, 4)))
    assert scored == [3, 5]  # without a memo, the call scores every row
    # another output over other positions scores only its unseen content
    d = rng.normal(size=4)
    other = build_candidates(make_state(4, 3), output({0: c, 1: d, 2: b}), cfg(2, 4), memo=memo)
    assert scored == [3, 5, 1] and len(memo) == 4
    _same_candidates(other, build_candidates(make_state(4, 3), output({0: c, 1: d, 2: b}), cfg(2, 4)))


def test_build_candidates_reads_computed_probs_instead_of_softmaxing(monkeypatch, rng):
    softmaxed = _counting(monkeypatch, "softmax_rows")
    state = make_state(4, 3)
    out = output({p: rng.normal(size=4) for p in range(3)})
    want = build_candidates(state, out, cfg(2, 3), memo={})
    assert softmaxed == [3]  # the output's softmax, computed once and kept
    probs = out.probs()
    _same_candidates(build_candidates(state, out, cfg(2, 3), memo={}), want)
    _same_candidates(build_candidates(state, out, cfg(2, 3)), want)
    assert softmaxed == [3]  # later builds read the kept softmax
    assert out.probs() is probs
    # a build whose rows all hit the memo softmaxes nothing
    memo = {}
    copies = [output(dict(enumerate(out.matrix()))) for _ in range(2)]
    _same_candidates(build_candidates(state, copies[0], cfg(2, 3), memo=memo), want)
    assert softmaxed == [3, 3]
    _same_candidates(build_candidates(state, copies[1], cfg(2, 3), memo=memo), want)
    assert softmaxed == [3, 3] and copies[1]._probs is None


# the SearchConfig fields that decide a row's top-k1, each with another value
SCORING_CHANGES = [{"gamma": 4.0}, {"epsilon": 1e-6}, {"use_entropy_penalty": False}, {"k1": 2}]
# the fields that do not: k2 only pools, the rest steer the search
OTHER_FIELDS = {
    "k2": 7,
    "seed": 9,
    "init_length": 2,
    "c_explore": 0.5,
    "candidate_count": 2,
    "max_simulations": 40,
}


def test_score_memo_is_the_models_and_bounded(monkeypatch, rng):
    model = FactorizedModel(Vocab(4), rng.dirichlet(np.ones(4), size=6))
    base = SearchConfig()
    assert settings_key(base) == (3, 5.0, 1e-8, True)
    memo = model.score_memo(settings_key(base))
    assert memo == {}
    assert model.score_memo(settings_key(base)) is memo
    assert CountingDenoiser(model).score_memo(settings_key(base)) is memo
    for name, value in OTHER_FIELDS.items():
        assert model.score_memo(settings_key(replace(base, **{name: value}))) is memo, name
    others = [model.score_memo(settings_key(replace(base, **c))) for c in SCORING_CHANGES]
    assert all(o is not memo for o in others) and len({id(o) for o in others}) == 4
    # a memo holds at most MEMO_BYTES, counting each entry's row, its
    # top-k1 tokens and scores and MEMO_ENTRY_BYTES: an entry that would
    # pass the cap clears it first, and a batch larger than the cap enters
    # only what fits
    entry = 4 * 8 + 3 * (8 + 8) + scoring.MEMO_ENTRY_BYTES
    monkeypatch.setattr(scoring, "MEMO_BYTES", 3 * entry + entry // 2)
    rows = rng.normal(size=(6, 4))
    state = make_state(4, 2)
    build_candidates(state, output({0: rows[0], 1: rows[1]}), cfg(3, 5), memo=memo)
    assert sorted(memo) == sorted(r.tobytes() for r in rows[:2])
    build_candidates(state, output({0: rows[0], 1: rows[2]}), cfg(3, 5), memo=memo)
    assert len(memo) == 3
    build_candidates(state, output({0: rows[3], 1: rows[4]}), cfg(3, 5), memo=memo)
    assert sorted(memo) == sorted(r.tobytes() for r in rows[3:5])
    wide = make_state(4, 5)
    batch = output(dict(enumerate(rng.normal(size=(5, 4)))))
    cands = build_candidates(wide, batch, cfg(3, 5), memo=memo)
    assert len(memo) == 3 and set(memo) < {r.tobytes() for r in batch.matrix()}
    _same_candidates(cands, build_candidates(wide, batch, cfg(3, 5)))


@pytest.mark.parametrize("vocab", [2, 3, 512])
def test_score_memo_retains_at_most_its_cap(monkeypatch, vocab):
    # what a full memo keeps alive, keys, values and the arrays under them
    # included, stays within MEMO_BYTES; the cap is set to hold a few
    # hundred entries, and many more distinct rows pass through it
    cap = 300 * (vocab * 8 + 3 * 16 + scoring.MEMO_ENTRY_BYTES)
    monkeypatch.setattr(scoring, "MEMO_BYTES", cap)
    gen = np.random.default_rng(vocab)
    state = make_state(vocab, 64)
    batches = [output(dict(enumerate(gen.normal(size=(64, vocab))))) for _ in range(12)]
    for batch in batches:
        batch.probs()  # each output keeps its own softmax; only the memo is measured
    memo = {}
    peak = 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            build_candidates(state, batch, cfg(3, 5), memo=memo)
            gc.collect()
            peak = max(peak, tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert 200 <= len(memo) <= 300
    assert peak <= cap


@pytest.mark.parametrize("setting", SCORING_CHANGES)
def test_build_candidates_rejects_prev_with_other_scoring_settings(rng, setting):
    # a row's top-k1 depends on k1, gamma, epsilon and the penalty switch,
    # so a prev built under another value of any of them cannot be reused
    state = make_state(4, 3)
    out = output({p: rng.normal(size=4) for p in range(3)})
    base = cfg(3, 3)
    changed = replace(base, **setting)
    cands = build_candidates(state, out, base)
    assert cands.settings == settings_key(base) == (3, 5.0, 1e-8, True)
    with pytest.raises(ConfigError, match="other scoring settings"):
        build_candidates(state, out, changed, prev=cands)
    other = build_candidates(state, out, changed)
    _same_candidates(build_candidates(state, out, changed, prev=other), other)


def test_build_candidates_reuses_prev_with_other_k2(rng):
    # k2 only pools the kept rows, so a prev built under another k2 (or
    # any other search setting) is reused, and the build equals a fresh one
    state = make_state(4, 3)
    out = output({p: rng.normal(size=4) for p in range(3)})
    base = cfg(2, 3)
    cands = build_candidates(state, out, base)
    for name, value in OTHER_FIELDS.items():
        changed = replace(base, **{name: value})
        fresh = build_candidates(state, out, changed)
        _same_candidates(build_candidates(state, out, changed, prev=cands), fresh)


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
    out = DenoiserOutput.from_matrix(range(length), gen.normal(scale=2.0, size=(length, vocab)))
    cands = build_candidates(state, out, cfg(k1, k2))

    scores = kernels.score_rows(kernels.softmax_rows(out.matrix()), 5.0, 1e-8)[-1]
    table = {p: list(scores[p]) for p in range(length)}
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
    # candidates gives bit-for-bit the candidates of a build from scratch,
    # each step's prediction made after the previous one as in finishing
    gen = np.random.default_rng(seed)
    model = _random_model(kind, gen, vocab)
    length = getattr(model, "length", int(gen.integers(1, 12)))
    prompt = tuple(gen.integers(0, vocab, size=int(gen.integers(0, 3))).tolist())
    state = SeqState.fully_masked(model.vocab, prompt, length)
    prev = None
    while not state.is_complete:
        out = model.predict(state) if prev is None else model.predict_after(
            prev_state, prev.output, state
        )
        fresh = build_candidates(state, out, cfg(k1, k2))
        reused = build_candidates(state, out, cfg(k1, k2), prev=prev)
        _same_candidates(reused, fresh)
        # a prev from unrelated logits over the same positions shares no row
        noise = DenoiserOutput.from_matrix(
            out.positions(), gen.normal(size=out.matrix().shape)
        )
        unrelated = build_candidates(state, noise, cfg(k1, k2))
        _same_candidates(build_candidates(state, out, cfg(k1, k2), prev=unrelated), fresh)
        prev, prev_state = reused, state
        masked = state.masked_index
        count = min(len(masked), int(gen.integers(1, max_step + 1)))
        picks = gen.choice(masked, size=count, replace=False).tolist()
        state = apply_many(
            state, [UnmaskAction(p, int(gen.integers(0, vocab))) for p in picks]
        )
