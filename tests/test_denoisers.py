"""Toy models: exact conditionals, smoothing, files, and the wire protocol."""

from __future__ import annotations

import base64
import contextlib
import json
import math
import socket
import socketserver
import sys
import threading
import time
from dataclasses import replace
from importlib import resources
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medal.cli import default_config, load_model
from medal.decoder import DecodeConfig, decode
from medal.denoisers import (
    SERVE_POLL_S,
    CountingDenoiser,
    Denoiser,
    DenoiserOutput,
    FactorizedFile,
    FactorizedModel,
    NGramMaskedModel,
    RemoteDenoiser,
    TabularModel,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
    fit_ngram,
    load_corpus,
    serve_denoiser,
)
from medal.errors import (
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
from medal.families import random_calibrated_model, trap_family
from medal.harness import load_model_file
from medal.jsonspec import from_json, to_json
from medal.kernels import softmax_rows
from medal.mcts import SearchConfig
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_many, state_to_json
from medal.theory import verify_lemma1, verify_theorem1


def softmax(vec):
    vec = np.asarray(vec, dtype=np.float64)
    e = np.exp(vec - vec.max())
    return e / e.sum()


def random_joint(rng, length, vocab):
    joint = rng.dirichlet(np.full(vocab**length, 0.3)).reshape((vocab,) * length)
    return joint


def test_output_validation():
    with pytest.raises(ConfigError):
        DenoiserOutput.from_matrix([0], np.zeros((1, 2, 2)))
    with pytest.raises(ConfigError):
        DenoiserOutput.from_matrix([0, 1], [np.zeros(3), np.zeros(4)])  # ragged rows
    with pytest.raises(NonFiniteLogits):
        DenoiserOutput.from_matrix([0], [[0.0, np.nan]])
    out = DenoiserOutput.from_matrix([0, 2], [[1.0, 0.0], [0.0, 1.0]])
    assert out.positions() == [0, 2]
    assert out.matrix().shape == (2, 2)
    assert type(out.logits) is dict and list(out.logits) == [0, 2]
    assert out.logits[2].tolist() == [0.0, 1.0] and 1 not in out.logits
    assert out.matrix([2]).tolist() == [[0.0, 1.0]]
    with pytest.raises(MissingPosition):
        out.matrix([0, 1])
    with pytest.raises(ValueError):
        out.matrix()[0, 0] = 5.0  # stored once, read-only
    with pytest.raises(ValueError):
        out.logits[2][0] = 5.0  # the dict's rows are views of it
    with pytest.raises(ConfigError):
        DenoiserOutput.from_matrix([2, 0], np.zeros((2, 2)))  # not ascending
    with pytest.raises(ConfigError):
        DenoiserOutput.from_matrix([0, 1], np.zeros((3, 2)))  # one row each
    with pytest.raises(ConfigError):
        DenoiserOutput.from_matrix([0, 1], np.zeros(2))
    with pytest.raises(NonFiniteLogits, match="position 4"):
        DenoiserOutput.from_matrix([1, 4], [[0.0, 0.0], [np.inf, 0.0]])
    # positions are integers: no float, string, bool or out-of-range value
    # is coerced into one, so a wrong cover cannot pass check_cover
    for bad in ([0.5, 1.7], [1.0, 2.0], ["1", "2"], [True, 2], [0, True], [-3, False, 2],
                (True,), [2**70, 2**71], [2**63], np.array([1, 2], dtype=np.uint64)):
        with pytest.raises(ConfigError, match="integers"):
            DenoiserOutput.from_matrix(bad, np.zeros((len(bad), 2)))
    for bad in ([[True, False]], [["1", "2"]], np.array([[b"1", b"2"]])):
        with pytest.raises(ConfigError, match="real numbers"):
            DenoiserOutput.from_matrix([3], bad)
    for good in (range(2, 5), (2, 3, 4), [2, 3, 4], np.array([2, 3, 4], dtype=np.int32)):
        assert DenoiserOutput.from_matrix(good, np.zeros((3, 2))).positions() == [2, 3, 4]
    assert DenoiserOutput.from_matrix([0, 1], np.zeros((2, 2), dtype=np.int8)).positions() == [0, 1]
    assert DenoiserOutput.from_matrix([], np.zeros((0, 2))).positions() == []


@pytest.mark.parametrize(
    "bad",
    [[0.7], [False], ["2"], [2.9], [True, 2], [-1, True], np.array([0.0]), np.array([True]),
     [[0, 2]], [2, 0]],
    ids=["float_0.7", "false", "str_2", "float_2.9", "true_first", "true_second",
         "float_array", "bool_array", "2d", "descending"],
)
def test_matrix_rejects_positions_that_are_not_integers(bad):
    # matrix(positions) gets from_matrix's check: numpy would read 0.7 and
    # False as position 0, and '2' and 2.9 as position 2
    out = DenoiserOutput.from_matrix([0, 2], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigError):
        out.matrix(bad)


def test_matrix_selects_rows_for_integer_positions():
    out = DenoiserOutput.from_matrix([0, 2, 5], np.arange(6.0).reshape(3, 2))
    for good in ([0, 2, 5], (2,), [0, 5], np.array([2, 5], dtype=np.int32), range(0, 3, 2), []):
        want = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        got = out.matrix(good).tolist()
        assert got == [want[[0, 2, 5].index(p)] for p in good]
    assert out.matrix(out.positions()) is out.matrix()  # the tracer's read: no copy


def test_check_cover_takes_the_tuple_an_output_was_built_for_at_its_word(monkeypatch):
    state = SeqState.fully_masked(Vocab(3), (0,), 3)
    index = state.masked_index
    out = DenoiserOutput.from_matrix(index, np.zeros((3, 3)))
    compared = []
    positions = DenoiserOutput.positions
    monkeypatch.setattr(
        DenoiserOutput, "positions", lambda self: compared.append(1) or positions(self)
    )
    assert out.check_cover(index, 3).tolist() == [1, 2, 3]
    assert not compared  # the identical tuple: one identity test
    equal = tuple(list(index))
    assert equal == index and equal is not index
    out.check_cover(equal, 3)  # an equal tuple: compared in full
    assert len(compared) == 1
    with pytest.raises(MissingPosition):
        out.check_cover((1, 2, 4), 3)  # a wrong tuple: compared in full
    with pytest.raises(LogitWidthMismatch):
        out.check_cover(index, 4)  # the width is checked either way
    # an output built from a list keeps no tuple
    listed = DenoiserOutput.from_matrix(list(index), np.zeros((3, 3)))
    listed.check_cover(index, 3)
    assert len(compared) == 3


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    cached=st.lists(st.booleans(), min_size=5, max_size=5),
    width=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_stacked_probs_equal_each_outputs_own_softmax(rows, cached, width, seed):
    # ragged outputs, some with probs() computed already: the stack is each
    # output's probs() in order, and each probs() is the bits of a softmax
    # of its own matrix, stored read-only
    rng = np.random.default_rng(seed)
    outputs = [
        DenoiserOutput.from_matrix(range(n), rng.normal(scale=8.0, size=(n, width))) for n in rows
    ]
    for out, warm in zip(outputs, cached):
        if warm:
            out.probs()
    stacked = DenoiserOutput.stacked_probs(outputs)
    alone = [softmax_rows(out.matrix()) for out in outputs]
    want = np.concatenate(alone)
    assert stacked.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for out, mine in zip(outputs, alone):
        assert out.probs().view(np.uint64).tolist() == mine.view(np.uint64).tolist()
        assert not out.probs().flags.writeable


def test_output_probs_are_one_cached_softmax(rng):
    positions = [1, 3, 4, 8]
    out = DenoiserOutput.from_matrix(positions, rng.normal(scale=4.0, size=(4, 6)))
    probs = out.probs()
    assert out.probs() is probs  # computed once
    with pytest.raises(ValueError):
        probs[0, 0] = 0.5  # stored read-only
    for i in range(4):
        assert np.max(np.abs(probs[i] - softmax(out.matrix()[i]))) < 1e-15
    # a row's softmax does not depend on the other rows: the softmax of a
    # row subset is bit-identical to those rows of the stored one
    for subset in ([3], [1, 8], [3, 4, 8], positions):
        rows = [positions.index(p) for p in subset]
        assert np.array_equal(softmax_rows(out.matrix(subset)), probs[rows])
    with pytest.raises(MissingPosition):
        out.matrix([1, 2])


def test_tabular_validation():
    v = Vocab(2)
    with pytest.raises(ConfigError):
        TabularModel(v, np.array([[0.5, 0.1], [0.1, 0.1]]))  # mass != 1
    with pytest.raises(ConfigError):
        TabularModel(v, np.array([[0.8, 0.3], [0.0, -0.1]]))  # negative
    with pytest.raises(ConfigError):
        TabularModel(v, np.ones((2, 3)) / 6)  # ragged axis
    with pytest.raises(ConfigError, match="non-negative"):
        TabularModel(v, np.array([[np.nan, 0.5], [0.25, 0.25]]))  # NaN mass
    with pytest.raises(ConfigError, match="non-negative"):
        FactorizedModel(v, np.array([[np.nan, 1.0]]))


def test_tabular_predict_matches_enumeration(rng):
    # exhaustive: every joint shape, every revealed subset, every assignment
    for length, vocab in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        model = TabularModel(Vocab(vocab), random_joint(rng, length, vocab))
        cells = oracles.cells_from_joint(model.joint)
        base = SeqState.fully_masked(model.vocab, (7 % vocab,), length)
        for r in range(length):  # how many positions to reveal
            for revealed_pos in product(range(length), repeat=r):
                if len(set(revealed_pos)) != r:
                    continue
                for toks in product(range(vocab), repeat=r):
                    acts = [
                        UnmaskAction(1 + p, t) for p, t in zip(revealed_pos, toks)
                    ]
                    state = apply_many(base, acts)
                    if state.is_complete:
                        continue
                    revealed = dict(zip(revealed_pos, toks))
                    out = model.predict(state)
                    for p in out.positions():
                        got = softmax(out.logits[p])
                        want = oracles.oracle_conditional(
                            cells, length, vocab, revealed, p - 1
                        )
                        assert np.max(np.abs(got - np.array(want))) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 5),
    vocab=st.integers(2, 4),
    zeros=st.floats(0.0, 0.9),
    reveal=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_property_tabular_predict_equals_the_axis_loop(seed, length, vocab, zeros, reveal):
    # calibrated joints with a share of empty cells, so some revealed
    # contexts carry no mass and predict falls back to uniform rows
    rng = np.random.default_rng(seed)
    joint = rng.dirichlet(np.full(vocab**length, 0.5))
    joint[rng.random(joint.size) < zeros] = 0.0
    if joint.sum() == 0.0:
        joint[0] = 1.0
    model = TabularModel(Vocab(vocab), (joint / joint.sum()).reshape((vocab,) * length))
    actions = [
        UnmaskAction(1 + p, int(rng.integers(vocab))) for p in range(length) if reveal[p]
    ]
    state = apply_many(SeqState.fully_masked(model.vocab, (0,), length), actions)
    if state.is_complete:
        return
    out = model.predict(state)
    want = oracles.ref_tabular_logits(model.joint[model._gen_index(state)], vocab)
    assert out.matrix().view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert out.positions() == list(state.masked_index)


def test_tabular_zero_mass_context():
    # mass only on (0,0) and (1,1); revealing token 1 at pos 0 then asking
    # for the conditional of a context (0 at pos0, anything at pos1 = fine),
    # but revealing (0, then 1) has zero mass... use XOR-style pairs
    joint = np.zeros((2, 2))
    joint[0, 0] = 0.5
    joint[1, 1] = 0.5
    model = TabularModel(Vocab(2), joint)
    base = SeqState.fully_masked(model.vocab, (), 2)
    # context x0=0 has mass; conditional for x1 is a point mass on 0
    s = apply_many(base, [UnmaskAction(0, 0)])
    assert model.subset_conditional(s, [1]).tolist() == [1.0, 0.0]
    # build a zero-mass context by modeling 3 cells out of 4
    joint3 = np.array([[0.5, 0.25], [0.0, 0.25]])
    model3 = TabularModel(Vocab(2), joint3)
    s_bad = apply_many(SeqState.fully_masked(model3.vocab, (), 2), [])
    s_bad = apply_many(s_bad, [UnmaskAction(0, 1), UnmaskAction(1, 0)])
    with pytest.raises(NoMaskedPositions):
        model3.predict(s_bad)
    # now a genuinely zero-mass partial context: impossible with these cells
    joint0 = np.array([[0.5, 0.5], [0.0, 0.0]])
    model0 = TabularModel(Vocab(2), joint0)
    s0 = apply_many(SeqState.fully_masked(model0.vocab, (), 2), [UnmaskAction(0, 1)])
    with pytest.raises(ZeroMassContext):
        model0.subset_conditional(s0, [1])
    out = model0.predict(s0)  # uniform fallback instead of raising
    assert softmax(out.logits[1]) == pytest.approx([0.5, 0.5])


@settings(max_examples=80, deadline=None)
@given(
    length=st.integers(2, 4),
    vocab=st.integers(2, 3),
    prompt_len=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_subset_conditional_matches_brute_force(length, vocab, prompt_len, seed, data):
    # the exact joint over up to 3 masked positions, at any revealed
    # context, is the direct sum over the joint's cells; a subset names
    # absolute positions, so a prompt shifts them
    model = random_calibrated_model(np.random.default_rng(seed), length, vocab)
    cells = oracles.cells_from_joint(model.joint)
    gen = list(range(length))
    revealed_at = data.draw(
        st.lists(st.sampled_from(gen), unique=True, max_size=length - 1), "revealed"
    )
    revealed = {p: data.draw(st.integers(0, vocab - 1), f"token {p}") for p in revealed_at}
    masked = [p for p in gen if p not in revealed]
    subset = sorted(data.draw(
        st.lists(st.sampled_from(masked), unique=True, min_size=1, max_size=3), "subset"
    ))
    root = SeqState.fully_masked(model.vocab, (0,) * prompt_len, length)
    state = apply_many(root, [UnmaskAction(prompt_len + p, t) for p, t in revealed.items()])
    got = model.subset_conditional(state, [prompt_len + p for p in subset])
    want = oracles.oracle_subset_conditional(cells, length, vocab, revealed, subset)
    assert got.shape == (vocab,) * len(subset)
    for tokens, p in want.items():
        assert abs(got[tokens] - p) <= 1e-12


def test_subset_conditional_rejects_other_subsets(rng):
    model = TabularModel(Vocab(3), random_joint(rng, 3, 3))
    state = apply_many(SeqState.fully_masked(model.vocab, (), 3), [UnmaskAction(1, 2)])
    assert model.subset_conditional(state, [0, 2]).shape == (3, 3)
    for subset in ([2, 0], [0, 1], [0, 0], [5]):
        with pytest.raises(SubsetNotMasked):
            model.subset_conditional(state, subset)


def test_tabular_prompt_is_ignored(rng):
    joint = random_joint(rng, 2, 3)
    model = TabularModel(Vocab(3), joint)
    a = SeqState.fully_masked(model.vocab, (0, 1), 2)
    b = SeqState.fully_masked(model.vocab, (2,), 2)
    out_a, out_b = model.predict(a), model.predict(b)
    assert np.allclose(out_a.matrix(), out_b.matrix())


def test_tabular_joint_logprob():
    joint = np.array([[0.5, 0.25], [0.0, 0.25]])
    model = TabularModel(Vocab(2), joint)
    assert model.joint_logprob((0, 0)) == pytest.approx(math.log(0.5))
    assert model.joint_logprob((1, 0)) == float("-inf")
    with pytest.raises(ConfigError):
        model.joint_logprob((0, 0, 0))


def test_tabular_file_round_trip(tmp_path, rng):
    model = TabularModel(Vocab(3), random_joint(rng, 2, 3))
    path = tmp_path / "joint.json"
    model.to_file(path)
    back = load_model_file(path)
    assert back.vocab.size == 3 and back.length == 2
    assert np.max(np.abs(back.joint - model.joint)) < 1e-15
    obj = json.loads(path.read_text())
    assert set(obj) == {"vocab_size", "length", "probs"}


def test_factorized_matches_tabular(rng):
    rows = rng.dirichlet(np.ones(3), size=2)
    fact = FactorizedModel(Vocab(3), rows)
    tab = fact.as_tabular()
    state = SeqState.fully_masked(Vocab(3), (), 2)
    f_out, t_out = fact.predict(state), tab.predict(state)
    for p in (0, 1):
        assert np.max(np.abs(softmax(f_out.logits[p]) - softmax(t_out.logits[p]))) < 1e-12
    # conditioning on one side leaves the other side unchanged
    s1 = apply_many(state, [UnmaskAction(0, 2)])
    assert np.allclose(
        softmax(fact.predict(s1).logits[1]), softmax(tab.predict(s1).logits[1])
    )
    round_trip = from_json(FactorizedFile, to_json(FactorizedFile.of(fact))).build()
    assert np.allclose(round_trip.rows, fact.rows)


def test_ngram_hand_counts():
    # corpus: 0 1, 0 2  ->  after context (0,): counts [0,1,1]
    model = fit_ngram([(0, 1), (0, 2)], n=2, alpha=1.0, vocab_size=3)
    state = SeqState.fully_masked(model.vocab, (0,), 2)
    out = model.predict(state)
    probs = np.exp(out.logits[1])
    # (count + alpha) / (total + alpha * V) = (1+1)/(2+3) for tokens 1 and 2
    assert probs == pytest.approx([1 / 5, 2 / 5, 2 / 5], abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # position 2 has a masked neighbor, so it gets the smoothed unigram:
    # counts [2, 1, 1], (c+1)/(4+3)
    probs2 = np.exp(out.logits[2])
    assert probs2 == pytest.approx([3 / 7, 2 / 7, 2 / 7], abs=1e-12)


def test_ngram_context_windowing():
    model = fit_ngram([(0, 1, 2, 0)], n=3, alpha=0.5)
    v = model.vocab
    s = SeqState.fully_masked(v, (0, 1, 2), 3)
    # context capped at n-1 = 2 revealed tokens
    assert model.context_for(s, 3) == (1, 2)
    s2 = apply_many(s, [UnmaskAction(4, 0)])
    assert model.context_for(s2, 5) == (0,)
    assert model.context_for(s2, 3) == (1, 2)
    # a masked gap cuts the run
    assert model.context_for(s, 4) == ()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    prompt_len=st.integers(min_value=0, max_value=4),
    length=st.integers(min_value=1, max_value=12),
    masked_share=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_ngram_predict_matches_context_loop(n, prompt_len, length, masked_share, seed):
    # row i of predict is the cached row of position i's context_for
    gen = np.random.default_rng(seed)
    vocab = int(gen.integers(2, 5))
    corpus = [gen.integers(0, vocab, size=int(gen.integers(1, 10))).tolist() for _ in range(5)]
    model = fit_ngram(corpus, n=n, alpha=0.5, vocab_size=vocab)
    masked = gen.random(length) < masked_share
    masked[gen.integers(length)] = True
    tokens = gen.integers(0, vocab, size=prompt_len + length)
    flags = (False,) * prompt_len + tuple(masked.tolist())
    tokens = tuple(model.vocab.mask_id if m else int(t) for t, m in zip(tokens, flags))
    state = SeqState(model.vocab, prompt_len, tokens)
    out = model.predict(state)
    assert out.positions() == list(state.masked_index)
    for pos, row in zip(out.positions(), out.matrix()):
        want = model._logits_for(model.context_for(state, pos))
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ngram_predict_matches_context_loop_at_long_length(n):
    # L = 300 with an empty prompt: runs of 0..7 revealed tokens between
    # runs of 1..4 masked ones, so the pattern has revealed runs longer
    # than n-1, runs that start at index 0, and adjacent masked positions
    gen = np.random.default_rng(7)
    vocab = 5
    corpus = [gen.integers(0, vocab, size=40).tolist() for _ in range(8)]
    model = fit_ngram(corpus, n=n, alpha=0.5, vocab_size=vocab)
    mask_id = model.vocab.mask_id
    for lead in (6, 0):
        flags = [False] * lead
        while len(flags) < 300:
            flags += [True] * int(gen.integers(1, 5)) + [False] * int(gen.integers(0, 8))
        flags = flags[:300]
        tokens = tuple(
            mask_id if m else int(t) for t, m in zip(gen.integers(0, vocab, 300), flags)
        )
        state = SeqState(model.vocab, 0, tokens)
        masked = state.masked_index
        assert any(b - a == 1 for a, b in zip(masked, masked[1:]))
        assert max(b - a - 1 for a, b in zip(masked, masked[1:])) > n - 1
        out = model.predict(state)
        assert out.positions() == list(masked)
        for pos, row in zip(masked, out.matrix()):
            want = model._logits_for(model.context_for(state, pos))
            assert row.tobytes() == want.tobytes(), pos


def _reveal_picks(gen, state, max_step):
    """1..max_step masked positions to reveal: the first masked one (right
    after the prompt at the root), a masked position between two revealed
    ones (so its reveal joins two runs) when there is one, and random ones."""
    masked = list(state.masked_index)
    tokens = state.tokens
    mask_id = state.vocab.mask_id
    joins = [
        p for p in masked
        if p > 0 and p + 1 < len(tokens) and mask_id not in (tokens[p - 1], tokens[p + 1])
    ]
    lead = [masked[0]] if gen.random() < 0.4 or state.reveal_count() == 0 else []
    if joins and gen.random() < 0.5:
        lead.append(joins[int(gen.integers(len(joins)))])
    rest = gen.permutation([p for p in masked if p not in lead]).tolist()
    count = min(len(masked), int(gen.integers(1, max_step + 1)))
    return list(dict.fromkeys(lead + rest))[:count]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    prompt_len=st.integers(min_value=0, max_value=3),
    length=st.integers(min_value=1, max_value=12),
    max_step=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_predict_after_equals_predict(n, prompt_len, length, max_step, seed):
    # along a walk of reveals, the n-gram model's incremental prediction is
    # predict(state) bit for bit, and the rows it does not name as changed
    # are the previous prediction's rows at their positions
    gen = np.random.default_rng(seed)
    vocab = int(gen.integers(2, 5))
    corpus = [gen.integers(0, vocab, size=int(gen.integers(1, 10))).tolist() for _ in range(5)]
    model = fit_ngram(corpus, n=n, alpha=0.5, vocab_size=vocab)
    prompt = tuple(gen.integers(0, vocab, size=prompt_len).tolist())
    prev_state = SeqState.fully_masked(model.vocab, prompt, length)
    prev_out = model.predict(prev_state)
    while True:
        picks = _reveal_picks(gen, prev_state, max_step)
        state = apply_many(
            prev_state, [UnmaskAction(p, int(gen.integers(0, vocab))) for p in picks]
        )
        if state.is_complete:
            break
        out = model.predict_after(prev_state, prev_out, state)
        want = model.predict(state)
        assert out.positions() == want.positions()
        assert out.matrix().view(np.uint64).tolist() == want.matrix().view(np.uint64).tolist()
        base_rows, changed = out.changed_since(prev_out)
        before = dict(zip(prev_out.positions(), prev_out.matrix()))
        for i, (pos, row) in enumerate(zip(out.positions(), out.matrix())):
            if i not in changed:
                assert prev_out.positions()[base_rows[i]] == pos
                assert row.tobytes() == before[pos].tobytes()
        # the base path names exactly the rows whose position is new or
        # whose logit bytes differ from the previous row there
        base = Denoiser.predict_after(model, prev_state, prev_out, state)
        brute = [
            i for i, (pos, row) in enumerate(zip(base.positions(), base.matrix()))
            if pos not in before or row.tobytes() != before[pos].tobytes()
        ]
        assert base.changed_since(prev_out)[1] == brute
        assert out.changed_since(base) is None and base.changed_since(out) is None
        # an `after` from a state that `state` does not extend is refused:
        # one with fewer masks, or one whose revealed token differs
        with pytest.raises(ConfigError, match="does not extend"):
            model.predict(prev_state, after=(state, out))
        revealed = [p for p, tok in enumerate(prev_state.tokens) if tok != model.vocab.mask_id]
        if revealed:
            p = revealed[int(gen.integers(len(revealed)))]
            tokens = list(state.tokens)
            tokens[p] = (tokens[p] + 1) % vocab
            other = SeqState(model.vocab, state.prompt_len, tuple(tokens))
            with pytest.raises(ConfigError, match="does not extend"):
                model.predict(other, after=(prev_state, prev_out))
        prev_state, prev_out = state, out


def test_ngram_predict_after_checks_the_previous_prediction():
    model = fit_ngram([(0, 1, 2, 0, 1, 2)], n=3, alpha=0.5)
    root = SeqState.fully_masked(model.vocab, (0,), 4)
    state = apply_many(root, [UnmaskAction(1, 1)])
    # a previous prediction over other positions than prev_state's masked
    # ones: fewer of them, or as many at other places
    shifted = SeqState.fully_masked(model.vocab, (0, 1), 3)
    with pytest.raises(MissingPosition):
        model.predict_after(root, model.predict(shifted), state)
    m = model.vocab.mask_id
    holes = SeqState(model.vocab, 1, (0, m, m, 2, m))
    moved = SeqState(model.vocab, 1, (0, m, 2, m, m))
    with pytest.raises(MissingPosition):
        model.predict_after(
            holes, model.predict(moved), apply_many(holes, [UnmaskAction(1, 1)])
        )
    # a previous prediction with rows of the wrong width, whether the
    # reveal makes a row be looked up again (position 1, before masked
    # position 2) or not (the last position)
    wide = DenoiserOutput.from_matrix([1, 2, 3, 4], np.zeros((4, model.vocab.size + 2)))
    for revealed in (1, 4):
        with pytest.raises(LogitWidthMismatch):
            model.predict_after(root, wide, apply_many(root, [UnmaskAction(revealed, 1)]))
    with pytest.raises(ConfigError, match="does not extend"):
        model.predict_after(SeqState.fully_masked(model.vocab, (1,), 4), model.predict(root), state)
    # revealing position 1 changes the context of position 2 only
    out = model.predict_after(root, model.predict(root), state)
    assert out.positions() == [2, 3, 4]
    assert out.changed_since(model.predict(root)) is None  # another base object


def test_ngram_unseen_context_uniform():
    model = fit_ngram([(0, 1)], n=2, alpha=2.0, vocab_size=4)
    s = SeqState.fully_masked(model.vocab, (3,), 1)
    probs = np.exp(model.predict(s).logits[1])
    # context (3,) never observed: all-alpha smoothing is uniform
    assert probs == pytest.approx([0.25] * 4, abs=1e-12)


def test_fit_ngram_errors():
    with pytest.raises(EmptyCorpus):
        fit_ngram([], n=2, alpha=1.0)
    with pytest.raises(EmptyCorpus):
        fit_ngram([()], n=2, alpha=1.0)
    with pytest.raises(ConfigError):
        fit_ngram([(0, 5)], n=2, alpha=1.0, vocab_size=3)
    with pytest.raises(ConfigError):
        fit_ngram([(0, 1)], n=0, alpha=1.0)
    with pytest.raises(ConfigError):
        fit_ngram([(0, 1)], n=2, alpha=0.0)
    with pytest.raises(ConfigError):
        fit_ngram([(-1, 1)], n=1, alpha=1.0)


@pytest.mark.parametrize(
    "order, table, message",
    [
        (0, {(): np.ones(4)}, r"order 0: key \(\) must map to a 1-d array of 3"),  # too wide
        (1, {(0,): np.ones((1, 3))}, r"order 1: key \(0,\) must map to a 1-d array"),
        (1, {(2,): [1.0, 1.0, 1.0]}, r"order 1: key \(2,\) must map to a 1-d array"),
        (1, {(1,): np.array(["1", "2", "3"])}, r"order 1: key \(1,\) must map to .* real"),
        (0, {(): np.array([1.0, -1.0, 0.0])}, r"order 0: key \(\) holds a negative"),
        (1, {(0,): np.ones(3), (1,): np.array([0.0, np.nan, 1.0])}, r"order 1: key \(1,\) holds"),
        (1, {(2,): np.array([np.inf, 0.0, 0.0])}, r"order 1: key \(2,\) holds a .*infinite"),
        (1, {(0,): np.array([1e308, 1e308, 0.0])}, r"order 1: key \(0,\) has counts too large"),
        (1, {(0, 1): np.ones(3)}, r"order 1: key \(0, 1\) is not a length-1 tuple"),
        (2, {(0,): np.ones(3)}, r"order 2: key \(0,\) is not a length-2 tuple"),
        (1, {(3,): np.ones(3)}, r"order 1: key \(3,\) is not .* tokens in 0..2"),
        (1, {(-1,): np.ones(3)}, r"order 1: key \(-1,\) is not"),
        (1, {(0.5,): np.ones(3)}, r"order 1: key \(0.5,\) is not"),
        (1, {((0,),): np.ones(3)}, r"order 1: key \(\(0,\),\) is not"),
        (1, {0: np.ones(3)}, r"order 1: key 0 is not"),
        (1, [np.ones(3)], r"count table of order 1 must be a dict, got list"),
    ],
)
def test_ngram_count_tables_are_checked_when_built(order, table, message):
    # each of these once reached predict: a bare numpy broadcast error, a
    # RuntimeWarning then NonFiniteLogits, or a key that is never looked up
    counts = [{(): np.ones(3)}, {(0,): np.ones(3)}, {(0, 1): np.ones(3)}]
    counts[order] = table
    with pytest.raises(ConfigError, match=message):
        NGramMaskedModel(Vocab(3), 3, 0.5, counts)


def test_models_keep_read_only_copies_of_their_checked_tables(rng):
    # predict trusts the tables checked when the model was built, so no
    # caller may change them afterwards
    joint = random_joint(rng, 2, 3)
    tabular = TabularModel(Vocab(3), joint)
    factorized = FactorizedModel(Vocab(3), np.full((2, 3), 1 / 3))
    for table in (tabular.joint, factorized.rows):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = np.nan
    joint[0] = np.nan  # the caller's array is not the model's
    assert np.isfinite(tabular.joint).all()
    row = np.array([1, 0, 2])
    model = NGramMaskedModel(Vocab(3), 2, 0.5, [{(): row}, {(1,): row}])
    state = SeqState.fully_masked(model.vocab, (1,), 2)
    before = model.predict(state).matrix().copy()
    row[1] = -5  # the caller's table changes; the model's copy does not
    assert model.counts[1][(1,)].tolist() == [1.0, 0.0, 2.0]
    assert not model.counts[1][(1,)].flags.writeable
    model._logit_cache.clear()
    assert model.predict(state).matrix().tobytes() == before.tobytes()
    # the unigram fallback's total alpha * V must be finite too
    with pytest.raises(ConfigError, match="alpha 1e\\+308 times vocab size 3"):
        NGramMaskedModel(Vocab(3), 1, 1e308, [{}])


def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("0 1 2\n\n3 4\n")
    assert load_corpus(path) == [(0, 1, 2), (3, 4)]
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(EmptyCorpus):
        load_corpus(empty)


def test_counting_wrapper(rng):
    model = TabularModel(Vocab(2), random_joint(rng, 2, 2))
    counted = CountingDenoiser(model)
    s = SeqState.fully_masked(model.vocab, (), 2)
    counted.predict(s)
    counted.predict(s)
    assert counted.calls == 2
    counted.reset()
    assert counted.calls == 0
    assert counted.vocab == model.vocab


def test_counting_wrapper_forwards_predict_after(monkeypatch):
    # one counted call, answered by the inner model's own predict_after
    model = fit_ngram([(0, 1, 2, 0, 1, 2)], n=3, alpha=0.5)
    inner_calls = []
    inner = model.predict_after

    def spy(*args):
        inner_calls.append(args)
        return inner(*args)

    monkeypatch.setattr(model, "predict_after", spy)
    counted = CountingDenoiser(model)
    root = SeqState.fully_masked(model.vocab, (0,), 4)
    first = counted.predict(root)
    state = apply_many(root, [UnmaskAction(1, 1)])
    out = counted.predict_after(root, first, state)
    assert counted.calls == 2 and len(inner_calls) == 1
    assert out.changed_since(first)[1] == [0]  # position 2 follows the reveal


def _assert_checked_output(out, state, vocab_size):
    """`out` is what from_matrix builds from its own rows, bit for bit, and
    covers `state` by the identity test."""
    checked = DenoiserOutput.from_matrix(out.positions(), out.matrix())
    assert out.positions() == checked.positions() == list(state.masked_index)
    assert out.matrix().dtype == np.float64
    assert out.matrix().shape == (len(state.masked_index), vocab_size)
    assert out.matrix().view(np.uint64).tolist() == checked.matrix().view(np.uint64).tolist()
    assert not out.matrix().flags.writeable and not out._positions.flags.writeable
    assert out._positions.dtype == np.int64
    assert out._index is state.masked_index  # check_cover is one identity test
    assert out.check_cover(state.masked_index, vocab_size) is out._positions


def _sparse_model(kind, gen, vocab, length, zeros):
    """A tabular joint or factorized rows with a share of zero cells (so
    some revealed contexts carry no mass), or an n-gram fit to a corpus
    short enough that many contexts fall back to the unigram."""
    if kind == "ngram":
        corpus = [gen.integers(0, vocab, size=int(gen.integers(1, 6))).tolist() for _ in range(3)]
        return fit_ngram(corpus, n=int(gen.integers(1, 4)), alpha=0.5, vocab_size=vocab)
    size = vocab**length if kind == "tabular" else length * vocab
    cells = gen.dirichlet(np.full(size, 0.5))
    cells[gen.random(size) < zeros] = 0.0
    if kind == "tabular":
        if cells.sum() == 0.0:
            cells[int(gen.integers(size))] = 1.0
        return TabularModel(Vocab(vocab), (cells / cells.sum()).reshape((vocab,) * length))
    rows = cells.reshape(length, vocab)
    rows[rows.sum(axis=1) == 0.0, int(gen.integers(vocab))] = 1.0
    return FactorizedModel(Vocab(vocab), rows / rows.sum(axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["tabular", "factorized", "ngram"]),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 5),
    vocab=st.integers(2, 4),
    prompt_len=st.integers(0, 2),
    zeros=st.floats(0.0, 0.9),
)
def test_property_model_outputs_equal_checked_ones(kind, seed, length, vocab, prompt_len, zeros):
    # an in-repo model builds its outputs without from_matrix's checks, from
    # rows checked when the model was built; every output it gives, along a
    # walk of reveals, must still be what from_matrix builds from those rows
    gen = np.random.default_rng(seed)
    model = _sparse_model(kind, gen, vocab, length, zeros)
    prompt = tuple(gen.integers(0, vocab, size=prompt_len).tolist())
    state = SeqState.fully_masked(model.vocab, prompt, length)
    out = model.predict(state)
    while True:
        _assert_checked_output(out, state, vocab)
        nxt = apply_many(
            state,
            [UnmaskAction(p, int(gen.integers(vocab))) for p in _reveal_picks(gen, state, 2)],
        )
        if nxt.is_complete:
            break
        after = model.predict_after(state, out, nxt)
        _assert_checked_output(after, nxt, vocab)
        many = model.predict_many([state, nxt])
        for one, st_ in zip(many, [state, nxt]):
            _assert_checked_output(one, st_, vocab)
        assert many[1].matrix().tobytes() == after.matrix().tobytes()
        state, out = nxt, after


def test_in_repo_models_never_call_from_matrix(monkeypatch, rng):
    # the checked constructor is the wire's and user models' alone: a decode
    # with search on each in-repo model and the theory verifiers make no
    # call to it, and a remote decode makes one per reply
    calls = []
    checked = DenoiserOutput.from_matrix
    counting = classmethod(lambda cls, *args: calls.append(1) or checked(*args))
    monkeypatch.setattr(DenoiserOutput, "from_matrix", counting)
    search = DecodeConfig(
        length=4,
        remaining_mode="argmax",
        search=SearchConfig(init_length=2, candidate_count=3, max_simulations=60),
    )
    toy = load_model(f"ngram:{resources.files('medal.data') / 'toy_corpus.txt'}")
    factorized = FactorizedModel(Vocab(3), rng.dirichlet(np.ones(3), size=4))
    for model, prompt, cfg in (
        (trap_family(1, seed=0)[0], (), search),
        (factorized, (), search),
        (toy, (0, 1), replace(default_config(), length=32, total_steps=None)),
    ):
        counted = CountingDenoiser(model)
        decode(counted, prompt, cfg)
        assert counted.calls > 0 and calls == [], type(model).__name__
    joint = random_calibrated_model(np.random.default_rng(7), 4, 3)
    root = SeqState.fully_masked(joint.vocab, (), joint.length)
    verify_lemma1(joint, root)
    verify_theorem1(joint, root, 2, [1, 4, 16])
    assert calls == []
    cfg = replace(default_config(), length=32, total_steps=None)
    server = serve_denoiser(toy, port=0)
    server.serve_in_thread()
    try:
        with RemoteDenoiser(server.server_address, vocab=toy.vocab) as remote:
            counted = CountingDenoiser(remote)
            decode(counted, (0, 1), cfg)
    finally:
        server.shutdown()
        server.server_close()
    assert len(calls) == counted.calls == 110


def test_state_vocab_mismatch_rejected(rng):
    model = TabularModel(Vocab(2), random_joint(rng, 2, 2))
    s = SeqState.fully_masked(Vocab(3), (), 2)
    with pytest.raises(ConfigError):
        model.predict(s)


def _read_frame(line):
    """(positions, matrix) of a reply line, decoded by hand from the
    documented layout: base64 of uint32 P | P int64 | P x V float64."""
    assert line.endswith(b"\n")
    frame = base64.b64decode(line[:-1], validate=True)
    rows = int.from_bytes(frame[:4], "little")
    positions = np.frombuffer(frame, "<i8", rows, 4).tolist()
    return positions, np.frombuffer(frame, "<f8", offset=4 + 8 * rows).reshape(rows, -1)


@st.composite
def wire_states(draw):
    size = draw(st.integers(min_value=2, max_value=20))
    mask_id = draw(st.one_of(
        st.just(-1), st.integers(min_value=size, max_value=10**6), st.integers(-10**6, -2)
    ))
    vocab = Vocab(size, mask_id)
    prompt = draw(st.lists(st.integers(0, size - 1), max_size=4))
    gen = draw(st.lists(
        st.one_of(st.just(vocab.mask_id), st.integers(0, size - 1)), min_size=1, max_size=12
    ))
    step = draw(st.integers(min_value=0, max_value=2**70))
    return SeqState(vocab, len(prompt), tuple(prompt + gen), step)


@settings(max_examples=200, deadline=None)
@given(wire_states())
def test_property_request_round_trip(state):
    line = encode_request(state)
    assert line.endswith(b"\n") and line.count(b"\n") == 1 and line.isascii()
    back = decode_request(line, state.vocab)
    assert back == state and back.step == state.step
    assert back.masked_index == state.masked_index


@pytest.mark.parametrize(
    "line, match",
    [
        (b"1 0 +1 3\n", "decimal ints"),
        (b"1 0 1_0 3\n", "decimal ints"),
        (b"1 0 1.0 3\n", "decimal ints"),
        (b"1 0 1e0 3\n", "decimal ints"),
        (b"1 0 True 3\n", "decimal ints"),
        ("1 0 \u0661 3\n".encode(), "decimal ints"),  # ARABIC-INDIC DIGIT ONE
        (b"1  0 1 3\n", "decimal ints"),
        (b" 1 0 1 3\n", "decimal ints"),
        (b"1 0 1 3 \n", "decimal ints"),
        (b"1\t0 1 3\n", "decimal ints"),
        (b"1 0 1 3\r\n", "decimal ints"),
        (b"1 0 1 3\n\n", "decimal ints"),
        (b"1\n", "decimal ints"),
        (b"\n", "decimal ints"),
        (b"1 - 1 3\n", "decimal ints"),
        (b"1 -1 1 3 3\n", "step must be >= 0, got -1"),
        (b"1 0 3 3 3\n", "prompt position 0 cannot be masked"),
        (b"1 0 1 7 3\n", "revealed token 7 at 1 outside vocab"),
        (b"1 0 1 -1 3\n", "revealed token -1 at 1 outside vocab"),
        (b"3 0 1 3 3\n", "generation region must be non-empty"),
        (b"-1 0 1 3 3\n", "prompt_len -1 out of range"),
    ],
)
def test_decode_request_is_strict(line, match):
    with pytest.raises(ConfigError, match=match):
        decode_request(line, Vocab(3))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_reply_round_trip_is_bit_exact(rows, width, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(rows, width), dtype=np.uint64, endpoint=False)
    matrix = bits.view(np.float64)
    matrix[~np.isfinite(matrix)] = -0.0  # the output keeps finite logits only
    positions = np.sort(rng.choice(2**62, size=rows, replace=False)) - 2**61
    out = DenoiserOutput.from_matrix(positions, matrix)
    line = encode_reply(out)
    assert line == _frame(positions, matrix)  # the documented layout
    back = decode_reply(line)
    assert back.positions() == positions.tolist()
    assert np.array_equal(back.matrix().view(np.uint64), matrix.view(np.uint64))


def test_remote_round_trip_and_error_frames(rng):
    model = TabularModel(Vocab(3), random_joint(rng, 2, 3))
    server = serve_denoiser(model, port=0)
    server.serve_in_thread()
    host, port = server.server_address
    try:
        with RemoteDenoiser(f"{host}:{port}", vocab=model.vocab) as remote:
            state = SeqState.fully_masked(model.vocab, (1,), 2)
            local = model.predict(state)
            wire = remote.predict(state)
            assert wire.positions() == local.positions()
            assert np.array_equal(wire.matrix(), local.matrix())
            # wrong generation length makes the server answer with an error
            # frame on the same connection, which surfaces as ConfigError
            bad = SeqState.fully_masked(model.vocab, (), 5)
            with pytest.raises(ConfigError, match="remote denoiser error"):
                remote.predict(bad)
            # connection still usable afterwards
            again = remote.predict(state)
            assert np.array_equal(again.matrix(), local.matrix())
        # an ill-typed request, a masked prompt slot and an old JSON request
        # are each answered with an error frame, not read as another state,
        # and the same connection then serves a valid one
        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            ill_typed = b"0.9 4 1.7 2 true\n"
            masked_prompt = b"1 0 3 3 3\n"
            old_json = (json.dumps(state_to_json(state)) + "\n").encode()
            assert encode_request(state) == b"1 0 1 3 3\n"
            for request in (ill_typed, masked_prompt, old_json, encode_request(state)):
                stream.write(request)
                stream.flush()
            error = json.loads(stream.readline())
            assert error == {
                "error": "ConfigError: request must be 'prompt_len step token ...' in decimal"
                " ints joined by single spaces, got b'0.9 4 1.7 2 true'"
            }
            error = json.loads(stream.readline())
            assert error == {"error": "ConfigError: prompt position 0 cannot be masked"}
            error = json.loads(stream.readline())
            assert error["error"].startswith("ConfigError: request must be")
            positions, matrix = _read_frame(stream.readline())
            assert positions == [1, 2]
            assert np.array_equal(matrix, local.matrix())
    finally:
        server.shutdown()
        server.server_close()


class _WideModel(Denoiser):
    """Faulty model: one logit more than its vocab has content tokens."""

    def __init__(self, vocab):
        self.vocab = vocab

    def predict(self, state):
        pos = self._check_state(state)
        return DenoiserOutput.from_matrix(pos, np.zeros((len(pos), self.vocab.size + 1)))


def test_remote_rejects_wrong_logit_width():
    vocab = Vocab(3)
    server = serve_denoiser(_WideModel(vocab), port=0)
    server.serve_in_thread()
    host, port = server.server_address
    try:
        with RemoteDenoiser(f"{host}:{port}", vocab=vocab) as remote:
            state = SeqState.fully_masked(vocab, (1,), 2)
            with pytest.raises(LogitWidthMismatch, match="width 4"):
                remote.predict(state)
    finally:
        server.shutdown()
        server.server_close()


class _ScriptedHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            n = self.server.requests
            self.server.requests += 1
            reply = self.server.reply(n, raw)
            if reply is None:
                return  # close without answering
            with contextlib.suppress(OSError):  # the client may have given up
                self.wfile.write(reply)
                self.wfile.flush()
            if not reply.endswith(b"\n"):
                return  # close mid-reply


class _ScriptedServer(socketserver.ThreadingTCPServer):
    """Loopback server whose n-th request (over all connections) gets reply(n, line)."""

    daemon_threads = True

    def __init__(self, reply):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.reply = reply
        self.requests = 0


@contextlib.contextmanager
def _scripted(reply):
    server = _ScriptedServer(reply)
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": SERVE_POLL_S}, daemon=True
    ).start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()


def _raw_frame(body):
    """A reply line holding the frame bytes `body`, base64-encoded."""
    return base64.b64encode(body) + b"\n"


def _frame(positions, matrix):
    """A reply line built by hand from the documented layout; unlike
    encode_reply, it takes positions out of order and non-finite logits."""
    header = len(positions).to_bytes(4, "little")
    return _raw_frame(
        header
        + np.asarray(positions, dtype="<i8").tobytes()
        + np.asarray(matrix, dtype="<f8").tobytes()
    )


def _json_frame(positions, matrix):
    """A reply of the older JSON wire: positions and a base64 logit string."""
    logits = base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode()
    return (json.dumps({"positions": list(positions), "logits": logits}) + "\n").encode()


def _logits_line(model, raw):
    return encode_reply(model.predict(decode_request(raw, model.vocab)))


def test_remote_timeout_drops_the_connection_and_recovers(rng):
    model = TabularModel(Vocab(3), random_joint(rng, 2, 3))
    state = SeqState.fully_masked(model.vocab, (1,), 2)

    def reply(n, raw):
        if n == 0:
            time.sleep(2.0)  # past the client's timeout
        return _logits_line(model, raw)

    with _scripted(reply) as address:
        with RemoteDenoiser(address, vocab=model.vocab, timeout=1.0) as remote:
            with pytest.raises(RemoteError, match="timed out"):
                remote.predict(state)
            again = remote.predict(state)  # reconnects
            assert np.array_equal(again.matrix(), model.predict(state).matrix())


_ROWS = _frame([1, 2], np.zeros((2, 3)))  # a well-formed reply to the state below
_JSON_ROWS = _json_frame([1, 2], np.zeros((2, 3)))  # the same reply on the JSON wire
_HEADER = (2).to_bytes(4, "little") + np.array([1, 2], dtype="<i8").tobytes()


@pytest.mark.parametrize(
    "line, match",
    [
        (b"not json\n", "not base64"),
        (b'{"positions": [1, 2]}\n', "not an error frame"),
        (b'{"positions": [1, 2], "logits": [[0.0, 1.0, 2.0]]}\n', "not an error frame"),
        (b'{"positions": [1, 2], "logits": true}\n', "not an error frame"),
        (b"0.5\n", "not base64"),
        ("\u0661AAA\n".encode(), "not base64"),
        (_frame([1, 2], np.zeros(5)), r"60 bytes is not 4 \+ 8\*2 positions \+ 2 whole"),
        (_raw_frame(_HEADER + bytes(20)), r"40 bytes is not 4 \+ 8\*2 positions"),
        (_raw_frame(_HEADER), r"20 bytes is not 4 \+ 8\*2 positions"),
        (_JSON_ROWS.replace(b"[1, 2]", b"[true, 2]"), "not an error frame"),
        (_JSON_ROWS.replace(b"[1, 2]", b"[1.0, 2]"), "not an error frame"),
        (_JSON_ROWS.replace(b"[1, 2]", b'["1", "2"]'), "not an error frame"),
        (_JSON_ROWS.replace(b"[1, 2]", b"1"), "not an error frame"),
        (_frame([], np.zeros((0, 3))), "lists no positions"),
        (_JSON_ROWS.replace(b"[1, 2]", b"[1, 36893488147419103232]"), "not an error frame"),
        (b'{"logits": {"1": [0.0, 1.0, 2.0], "2": [2.0, 1.0, 0.0]}}\n', "not an error frame"),
        (None, "closed without a reply"),
        (_JSON_ROWS, "not an error frame"),
        (b'["error"]\n', "not base64"),
        (b"{error}\n", "JSONDecodeError"),
        (b'{"error": "x"} trailing\n', "JSONDecodeError"),
        (_raw_frame(bytes(3)), "3 bytes has no 4-byte header"),
        (_raw_frame((2**32 - 1).to_bytes(4, "little") + _HEADER[4:] + bytes(48)),
         r"is not 4 \+ 8\*4294967295 positions"),
        (_raw_frame(_HEADER[:12]), r"12 bytes is not 4 \+ 8\*2 positions"),
        (_ROWS.replace(b"=", b""), "not base64"),
        (_ROWS[:8] + b" " + _ROWS[8:], "not base64"),
        (_ROWS.replace(b"A", b"-", 1), "not base64"),
        (_ROWS[:-1] + b"\r\n", "not base64"),
        (_ROWS[:-1], "closed mid-reply"),
        (b"\n", "0 bytes has no 4-byte header"),
    ],
    ids=[
        "non_json", "no_logits", "logits_not_string", "logits_bool", "logits_numeric_string",
        "logits_not_ascii", "logits_ragged_rows", "logits_partial_float", "logits_empty",
        "positions_bool", "positions_float", "positions_string", "positions_not_list",
        "positions_empty", "position_past_int64", "old_mapping_reply", "closed",
        "json_reply", "json_list", "brace_not_json", "error_frame_trailing_text",
        "header_short", "header_past_frame", "positions_truncated", "padding_missing",
        "base64_space", "base64_urlsafe", "base64_crlf", "cut_mid_reply", "empty_line",
    ],
)
def test_remote_bad_replies_raise_remote_error(line, match):
    # JSON replies of an older server, well-formed or not, are "{" lines
    # without an "error" key; every other line must be a whole base64 frame
    vocab = Vocab(3)
    state = SeqState.fully_masked(vocab, (1,), 2)
    with _scripted(lambda n, raw: line) as address:
        with RemoteDenoiser(address, vocab=vocab, timeout=5.0) as remote:
            with pytest.raises(RemoteError, match=match):
                remote.predict(state)
            assert remote._sock is None  # dropped; the next call reconnects


@pytest.mark.parametrize(
    "order", [[3, 2, 1], [1, 3, 2], [1, 1, 2], [1, 2, 2]],
    ids=["descending", "unsorted", "duplicate_first", "duplicate_last"],
)
def test_remote_reply_positions_must_be_strictly_ascending(rng, order):
    model = TabularModel(Vocab(3), random_joint(rng, 3, 3))
    state = SeqState.fully_masked(model.vocab, (1,), 3)
    rows = model.predict(state).matrix()
    with _scripted(lambda n, raw: _frame(order, rows)) as address:
        with RemoteDenoiser(address, vocab=model.vocab, timeout=5.0) as remote:
            with pytest.raises(RemoteError, match="strictly ascending"):
                remote.predict(state)
            assert remote._sock is None


class _FixedModel(Denoiser):
    """Every masked position gets the same row of hard-to-print floats."""

    ROW = [-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1 / 3, 2 / 3,
           np.nextafter(1.0, 2.0), -123456.78901234567, 2.2250738585072014e-308]

    def __init__(self):
        self.vocab = Vocab(len(self.ROW))

    def predict(self, state):
        pos = self._check_state(state)
        return DenoiserOutput.from_matrix(pos, np.tile(self.ROW, (len(pos), 1)))


def test_remote_logits_are_bit_identical_to_local():
    model = _FixedModel()
    server = serve_denoiser(model, port=0)
    server.serve_in_thread()
    host, port = server.server_address
    try:
        with RemoteDenoiser(f"{host}:{port}", vocab=model.vocab) as remote:
            state = SeqState.fully_masked(model.vocab, (1,), 3)
            wire, local = remote.predict(state), model.predict(state)
    finally:
        server.shutdown()
        server.server_close()
    assert wire.positions() == local.positions() == [1, 2, 3]
    assert np.array_equal(wire.matrix().view(np.uint64), local.matrix().view(np.uint64))
    assert np.signbit(wire.matrix()[:, 0]).all()  # -0.0 keeps its sign


def test_remote_non_finite_logits_raise_and_keep_the_connection():
    vocab = Vocab(3)
    state = SeqState.fully_masked(vocab, (1,), 2)
    rows = np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]])
    with _scripted(lambda n, raw: _frame([1, 2], rows if n == 0 else np.zeros((2, 3)))) as address:
        with RemoteDenoiser(address, vocab=vocab, timeout=5.0) as remote:
            with pytest.raises(NonFiniteLogits, match="position 2"):
                remote.predict(state)
            assert remote._sock is not None  # the reply was read whole
            assert remote.predict(state).positions() == [1, 2]


@pytest.mark.parametrize(
    "edit, match",
    [
        (
            lambda pos, rows: ([0, *pos], np.vstack([np.zeros((1, rows.shape[1])), rows])),
            r"missing positions \[\], extra \[0\]",
        ),
        (lambda pos, rows: (pos[:-1], rows[:-1]), r"missing positions \[3\], extra \[\]"),
    ],
    ids=["extra_revealed_row", "missing_row"],
)
def test_remote_reply_must_cover_exactly_the_masked_positions(edit, match):
    model = trap_family(1, seed=0)[0]
    state = apply_many(SeqState.fully_masked(model.vocab, (), 4), [UnmaskAction(0, 1)])

    def reply(n, raw):
        if n != 1:
            return _logits_line(model, raw)
        # the second request gets a well-formed reply over the wrong rows
        out = model.predict(state)
        return _frame(*edit(out.positions(), out.matrix()))

    with _scripted(reply) as address:
        with RemoteDenoiser(address, vocab=model.vocab, timeout=5.0) as remote:
            assert remote.predict(state).positions() == [1, 2, 3]
            with pytest.raises(MissingPosition, match=match):
                remote.predict(state)
            # the reply was read whole, so the connection stays usable
            assert remote.predict(state).positions() == [1, 2, 3]


def _three_states(model):
    """Three states of a length-3 region after prompt (1,), masked alike at
    [2, 3] but with different logits, so a stale reply would pass the
    position check and only its values would give it away."""
    root = SeqState.fully_masked(model.vocab, (1,), 3)
    return root, [apply_many(root, [UnmaskAction(1, t)]) for t in range(3)]


@pytest.mark.parametrize(
    "at, line, error, match",
    [
        (1, b'{"error": "scripted"}\n', ConfigError, "scripted"),
        (2, b"not json\n", RemoteError, "not base64"),
        (1, None, RemoteError, "closed"),
    ],
    ids=["error_frame_2nd", "malformed_3rd", "closed_at_2nd"],
)
def test_remote_fault_mid_batch_drops_the_connection(rng, at, line, error, match):
    # the request for states[at] gets `line` (None closes the connection)
    model = TabularModel(Vocab(3), random_joint(rng, 3, 3))
    root, states = _three_states(model)

    def reply(n, raw):
        if decode_request(raw, model.vocab) == states[at]:
            return line
        return _logits_line(model, raw)

    with _scripted(reply) as address:
        with RemoteDenoiser(address, vocab=model.vocab, timeout=5.0) as remote:
            # a clean batch is answered in order, like predict
            outs = remote.predict_many([states[0], root])
            assert [o.positions() for o in outs] == [[2, 3], [1, 2, 3]]
            assert np.array_equal(outs[1].matrix(), model.predict(root).matrix())
            with pytest.raises(error, match=match):
                remote.predict_many(states)
            assert remote._sock is None  # no reply of the batch is left unread
            again = remote.predict(states[0])  # reconnects and reads its own reply
            assert np.array_equal(again.matrix(), model.predict(states[0]).matrix())


@pytest.mark.parametrize(
    "bad, error",
    [
        (SeqState.fully_masked(Vocab(4), (1,), 3), ConfigError),
        (SeqState(Vocab(3), 1, (1, 0, 0, 0)), NoMaskedPositions),
    ],
    ids=["wrong_vocab", "fully_revealed"],
)
def test_remote_predict_many_checks_every_state_before_writing(rng, bad, error):
    model = TabularModel(Vocab(3), random_joint(rng, 3, 3))
    _, states = _three_states(model)
    seen = []

    def reply(n, raw):
        seen.append(decode_request(raw, model.vocab).tokens)
        return _logits_line(model, raw)

    with _scripted(reply) as address:
        with RemoteDenoiser(address, vocab=model.vocab, timeout=5.0) as remote:
            with pytest.raises(error):
                remote.predict_many([states[0], bad, states[1]])
            assert remote._sock is None  # never connected: nothing was sent
            again = remote.predict(states[0])
            assert np.array_equal(again.matrix(), model.predict(states[0]).matrix())
    assert seen == [states[0].tokens]


def test_remote_batches_and_single_calls_from_many_threads(rng):
    # the lock covers a whole batch, so no thread reads another's reply
    model = TabularModel(Vocab(3), random_joint(rng, 3, 3))
    root, states = _three_states(model)
    want = {s.tokens: model.predict(s).matrix() for s in [root, *states]}
    server = serve_denoiser(model, port=0)
    server.serve_in_thread()
    errors = []

    def work(remote, k):
        try:
            for i in range(25):
                batch = states[k % 3:] + [root] if i % 2 else [states[(k + i) % 3]]
                outs = remote.predict_many(batch) if i % 4 != 2 else [remote.predict(batch[0])]
                for state, out in zip(batch, outs):
                    if not np.array_equal(out.matrix(), want[state.tokens]):
                        errors.append((k, i, state.tokens))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with RemoteDenoiser(server.server_address, vocab=model.vocab, timeout=5.0) as remote:
            threads = [threading.Thread(target=work, args=(remote, k)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
    assert errors == []


class _FlushCounter:
    """Stream proxy that counts flush() calls."""

    def __init__(self, inner):
        self._inner = inner
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        self._inner.flush()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_remote_decode_writes_one_batch_per_expansion():
    # the default config at length 32 predicts 110 states: the root, 19
    # expansions of 5 children, a last expansion of 3 that fills the pool,
    # and 11 finish steps. Pipelining sends them in 1 + 20 + 11 = 32 flushes.
    model = load_model(f"ngram:{resources.files('medal.data') / 'toy_corpus.txt'}")
    cfg = replace(default_config(), length=32, total_steps=None)
    server = serve_denoiser(model, port=0)
    server.serve_in_thread()
    try:
        with RemoteDenoiser(server.server_address, vocab=model.vocab) as remote:
            remote._connect()
            remote._fh = stream = _FlushCounter(remote._fh)
            counted = CountingDenoiser(remote)
            wire = decode(counted, (0, 1), cfg)
    finally:
        server.shutdown()
        server.server_close()
    assert (stream.flushes, counted.calls) == (32, 110)
    assert wire.to_json() == decode(model, (0, 1), cfg).to_json()


def test_remote_refused_connection_raises_remote_error():
    with socket.socket() as probe:  # a port that was free a moment ago
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with RemoteDenoiser(("127.0.0.1", port), vocab=Vocab(2), timeout=5.0) as remote:
        with pytest.raises(RemoteError, match="ConnectionRefusedError"):
            remote.predict(SeqState.fully_masked(Vocab(2), (), 2))


def test_remote_address_parsing():
    with pytest.raises(ConfigError):
        RemoteDenoiser("9999", vocab=Vocab(2))
    with pytest.raises(ConfigError):
        RemoteDenoiser("localhost:http", vocab=Vocab(2))
    # a port outside 1..65535 is refused, not wrapped onto another port
    for address in ("127.0.0.1:0", "127.0.0.1:65536", ("127.0.0.1", 0), ("127.0.0.1", 70000),
                    ("127.0.0.1", "80"), ("127.0.0.1", True)):
        with pytest.raises(ConfigError, match="1..65535"):
            RemoteDenoiser(address, vocab=Vocab(2))
    assert RemoteDenoiser("127.0.0.1:65535", vocab=Vocab(2)).address == ("127.0.0.1", 65535)
    # a timeout must be a finite number > 0: 0 would make the socket
    # non-blocking, and socket.create_connection refuses NaN and negatives
    # only when the first call connects
    for timeout in (math.nan, -1, 0.0, 0, math.inf, -math.inf, "5", None, True):
        with pytest.raises(ConfigError, match="timeout"):
            RemoteDenoiser("127.0.0.1:1", vocab=Vocab(2), timeout=timeout)
    assert RemoteDenoiser("127.0.0.1:1", vocab=Vocab(2), timeout=2).timeout == 2
