"""Sequence state construction, action application, and serialization."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medal.denoisers import decode_request, encode_request
from medal.errors import ConfigError, PositionNotMasked, TokenIsMask
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_action, apply_many, state_to_json


def test_vocab_default_mask_id_sits_after_content():
    v = Vocab(size=7)
    assert v.mask_id == 7
    assert v.is_content(0) and v.is_content(6)
    assert not v.is_content(7) and not v.is_content(-1)


def test_vocab_rejects_tiny_size_and_colliding_mask():
    with pytest.raises(ConfigError):
        Vocab(size=1)
    with pytest.raises(ConfigError):
        Vocab(size=4, mask_id=2)


def test_fully_masked_layout():
    v = Vocab(size=5)
    s = SeqState.fully_masked(v, prompt=(1, 2), length=3)
    assert s.prompt_len == 2
    assert s.tokens == (1, 2, 5, 5, 5)
    assert s.masked == (False, False, True, True, True)
    assert s.gen_length == 3
    assert s.reveal_count() == 0
    assert not s.is_complete
    assert s.masked_index == (2, 3, 4)


def test_state_validation_errors():
    v = Vocab(size=3)
    with pytest.raises(ConfigError):
        SeqState(v, 3, (0, 1, 2))  # empty gen region
    with pytest.raises(ConfigError):
        SeqState(v, 1, (3, 0))  # masked prompt slot
    with pytest.raises(ConfigError):
        SeqState(v, 0, (9, 3))  # revealed token outside vocab
    # the tokens are the only record of the mask, on the wire too: a request
    # frame carries no flags, and a state's flags are read off its tokens
    s = decode_request(struct.pack("<4q", 0, 0, 3, 0), v)
    assert s.masked == (True, False) and state_to_json(s)["masked"] == [True, False]
    with pytest.raises(ConfigError, match="revealed token 4 at 0 outside vocab"):
        decode_request(struct.pack("<4q", 0, 0, 4, 0), v)  # neither content nor the mask id
    with pytest.raises(ConfigError, match="prompt position 0 cannot be masked"):
        decode_request(struct.pack("<4q", 1, 0, 3, 0), v)
    # the first fault in token order is the one named
    with pytest.raises(ConfigError, match="prompt position 0 cannot be masked"):
        SeqState(v, 1, (3, 9))
    with pytest.raises(ConfigError, match="revealed token -2 at 0 outside vocab"):
        SeqState(v, 2, (-2, 3, 3))
    for tokens in ((0, math.nan, 3), (math.nan, 0, 3), (1, 0, math.nan, 2, 3)):
        with pytest.raises(ConfigError, match=f"revealed token nan at {tokens.index(math.nan)}"):
            SeqState(v, 0, tokens)


def test_states_and_vocabs_hold_integers_only():
    # a token, prompt_len or step that is not a Python or numpy integer (a
    # bool is not one), and a negative step, are refused where the state is
    # built, not later by the wire or a model's tables
    v = Vocab(3)
    for tokens, i, shown in (
        ((0, 1.5, 3), 1, "1.5"),
        ((0, 1, 3.0), 2, "3.0"),  # equal to the mask id, still not an integer
        ((True, 1, 3), 0, "True"),
        ((0, np.float64(1.0), 3), 1, r"np.float64\(1.0\)|1.0"),
        ((0, "1", 3), 1, "'1'"),
        ((0, np.bool_(True), 3), 1, r"np.True_|True"),
    ):
        with pytest.raises(ConfigError, match=f"revealed token ({shown}) at {i} is not an integer"):
            SeqState(v, 0, tokens)
    for prompt_len in (0.0, True, np.float32(0)):
        with pytest.raises(ConfigError, match="prompt_len must be an integer"):
            SeqState(v, prompt_len, (0, 3))
    for step in (1.5, False, "0"):
        with pytest.raises(ConfigError, match="step must be an integer"):
            SeqState(v, 0, (0, 3), step)
    with pytest.raises(ConfigError, match="step must be >= 0, got -2"):
        SeqState(v, 0, (0, 1, 3), -2)  # which encode_request would send
    with pytest.raises(ConfigError, match="step must be >= 0, got -1"):
        SeqState.fully_masked(v, (0,), 2, step=-1)
    for size, mask_id in ((2.5, -1), (3.0, -1), (True, -1), (3, 3.5), (3, True), ("3", -1)):
        with pytest.raises(ConfigError, match="vocab size and mask_id must be integers"):
            Vocab(size, mask_id)
    # numpy integers are integers: the state equals the one of Python ints
    wide = Vocab(np.int64(3), np.int32(7))
    state = SeqState(wide, np.int64(1), tuple(np.array([0, 7, 2, 7])), np.uint8(2))
    assert state == SeqState(Vocab(3, 7), 1, (0, 7, 2, 7), 2)
    assert state.masked_index == (1, 3)
    assert encode_request(state) == encode_request(SeqState(Vocab(3, 7), 1, (0, 7, 2, 7), 2))


def test_apply_action_reveals_and_advances_step():
    v = Vocab(size=4)
    s = SeqState.fully_masked(v, (2,), length=2)
    s2 = apply_action(s, UnmaskAction(1, 3))
    assert s2.tokens == (2, 3, 4)
    assert s2.masked == (False, False, True)
    assert s2.step == 1
    # original untouched
    assert s.tokens[1] == 4 and s.step == 0
    s3 = apply_action(s2, UnmaskAction(2, 0))
    assert s3.is_complete and s3.step == 2
    assert s3.gen_tokens() == (3, 0)


def test_apply_action_rejects_bad_position_and_token():
    v = Vocab(size=4)
    s = SeqState.fully_masked(v, (0,), length=2)
    with pytest.raises(PositionNotMasked):
        apply_action(s, UnmaskAction(0, 1))  # prompt slot
    with pytest.raises(PositionNotMasked):
        apply_action(s, UnmaskAction(5, 1))  # out of range
    with pytest.raises(TokenIsMask):
        apply_action(s, UnmaskAction(1, v.mask_id))
    with pytest.raises(TokenIsMask):
        apply_action(s, UnmaskAction(1, 11))
    s2 = apply_action(s, UnmaskAction(1, 1))
    with pytest.raises(PositionNotMasked):
        apply_action(s2, UnmaskAction(1, 2))  # already revealed


def test_apply_many_counts_every_reveal():
    v = Vocab(size=4)
    s = SeqState.fully_masked(v, (), length=4)
    s2 = apply_many(s, [UnmaskAction(0, 1), UnmaskAction(3, 2)])
    assert s2.step == 2
    assert s2.tokens == (1, 4, 4, 2)
    assert s2.masked_index == (1, 2)


def test_serialization_round_trip():
    v = Vocab(size=6, mask_id=9)
    s = SeqState.fully_masked(v, (0, 5), length=3, step=0)
    s = apply_many(s, [UnmaskAction(2, 4), UnmaskAction(4, 1)])
    assert state_to_json(s) == {
        "prompt_len": 2,
        "tokens": [0, 5, 4, 9, 1],
        "masked": [False, False, False, True, False],
        "step": 2,
    }
    request = encode_request(s)
    assert request == b"56\n" + struct.pack("<7q", 2, 2, 0, 5, 4, 9, 1)
    back = decode_request(request[3:], v)
    assert back == s and back.masked_index == (3,)
    assert encode_request(back) == request


@st.composite
def state_and_actions(draw):
    size = draw(st.integers(min_value=2, max_value=6))
    vocab = Vocab(size=size)
    prompt_len = draw(st.integers(min_value=0, max_value=3))
    prompt = tuple(
        draw(st.integers(min_value=0, max_value=size - 1)) for _ in range(prompt_len)
    )
    length = draw(st.integers(min_value=1, max_value=6))
    state = SeqState.fully_masked(vocab, prompt, length)
    positions = draw(st.permutations(range(prompt_len, prompt_len + length)))
    n_actions = draw(st.integers(min_value=0, max_value=length))
    actions = [
        UnmaskAction(pos, draw(st.integers(min_value=0, max_value=size - 1)))
        for pos in positions[:n_actions]
    ]
    return state, actions


@settings(max_examples=80, deadline=None)
@given(state_and_actions())
def test_property_apply_many_matches_sequential_apply(case):
    state, actions = case
    bulk = apply_many(state, actions)
    seq = state
    for act in actions:
        seq = apply_action(seq, act)
    assert bulk == seq
    assert bulk.step == state.step + len(actions)
    assert bulk.reveal_count() == len(actions)
    assert len(bulk.masked_index) == state.gen_length - len(actions)
    for act in actions:
        assert bulk.tokens[act.position] == act.token
        assert not bulk.masked[act.position]


@settings(max_examples=80, deadline=None)
@given(state_and_actions())
def test_property_masked_index_matches_mask_flags(case):
    # the index is derived once when a state is built, by validation or by
    # apply_many; both must agree with a scan of the flags, and the flags
    # with the tokens
    state, actions = case
    for s in (state, apply_many(state, actions)):
        assert s.masked == tuple(tok == s.vocab.mask_id for tok in s.tokens)
        want = [i for i, m in enumerate(s.masked) if m]
        assert s.masked_index == tuple(want)
        assert s.is_complete == (not want)


@settings(max_examples=80, deadline=None)
@given(state_and_actions(), st.data())
def test_property_checked_reveals_give_valid_states(case, data):
    # apply_many skips the whole-sequence validation; what it builds must
    # equal the fully validated state with the same fields
    state, actions = case
    cur, done = state, 0
    while done < len(actions):
        n = data.draw(st.integers(min_value=1, max_value=len(actions) - done))
        cur = apply_many(cur, actions[done : done + n])
        done += n
        full = SeqState(cur.vocab, cur.prompt_len, cur.tokens, cur.step)
        assert cur == full and hash(cur) == hash(full)
        mask_id = cur.vocab.mask_id
        assert cur.masked_index == tuple(i for i, t in enumerate(cur.tokens) if t == mask_id)
        back = decode_request(encode_request(cur).split(b"\n", 1)[1], cur.vocab)
        assert back == cur and back.masked_index == cur.masked_index
        bad = cur.vocab.size + 1  # neither content nor the default mask id
        for i in range(len(cur.tokens)):
            tokens = list(cur.tokens)
            tokens[i] = bad
            wire = struct.pack(f"<{2 + len(tokens)}q", cur.prompt_len, cur.step, *tokens)
            with pytest.raises(ConfigError, match=f"revealed token {bad} at {i} outside vocab$"):
                decode_request(wire, cur.vocab)
    vocab = cur.vocab
    for act in actions:
        with pytest.raises(PositionNotMasked):
            apply_many(cur, [act])  # already revealed
    for pos in (-1, len(cur.tokens)) + tuple(range(cur.prompt_len)):
        with pytest.raises(PositionNotMasked):
            apply_many(cur, [UnmaskAction(pos, 0)])
    left = cur.masked_index
    if left:
        with pytest.raises(PositionNotMasked):
            apply_many(cur, [UnmaskAction(left[0], 0), UnmaskAction(left[0], 1)])
        for tok in (vocab.mask_id, -1, vocab.size + 1):
            with pytest.raises(TokenIsMask):
                apply_many(cur, [UnmaskAction(left[0], tok)])
