"""Masked entropies and normalized information-gain rewards."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from medal.denoisers import Denoiser, DenoiserOutput, FactorizedModel, TabularModel
from medal.errors import LogitWidthMismatch, MissingPosition, ZeroBaselineEntropy
from medal.families import negative_gain_model, random_calibrated_model, xor_pair_model
from medal.mcts import SearchConfig, run_cgmcts, simulate
from medal.reward import entropy_gain, masked_entropies
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_action, apply_many
from medal.theory import oracle_min_schedule, schedule_cost, schedule_costs


def total(model, state):
    """A search table row's total: the sum of masked_entropies at `state`;
    a complete state needs no prediction."""
    output = None if state.is_complete else model.predict(state)
    return float(masked_entropies(state, output).sum())


def reward(model, state, action):
    """(reward, before, after) of `action` at `state`, as the search's
    simulate rewards a child from its parent's total and its own."""
    before, after = total(model, state), total(model, apply_action(state, action))
    return simulate(before, after), before, after


def test_profile_of_complete_state_is_empty(rng):
    joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
    model = TabularModel(Vocab(2), joint)
    s = SeqState.fully_masked(model.vocab, (), 2)
    s = apply_many(s, [UnmaskAction(0, 0), UnmaskAction(1, 1)])
    ent = masked_entropies(s, None)  # reads no output
    assert ent.shape == (0,)
    assert total(model, s) == 0.0


def test_profile_matches_joint_enumeration(rng):
    joint = rng.dirichlet(np.full(27, 0.4)).reshape(3, 3, 3)
    model = TabularModel(Vocab(3), joint)
    cells = oracles.cells_from_joint(model.joint)
    s = apply_action(SeqState.fully_masked(model.vocab, (), 3), UnmaskAction(1, 2))
    ent = masked_entropies(s, model.predict(s))
    for value, pos in zip(ent, (0, 2), strict=True):
        want = oracles.oracle_entropy_exact(oracles.oracle_conditional(cells, 3, 3, {1: 2}, pos))
        assert value == pytest.approx(want, abs=1e-11)
    want_total = oracles.oracle_profile_total(cells, 3, 3, {1: 2})
    assert total(model, s) == pytest.approx(want_total, abs=1e-11)


def test_xor_gain_is_one():
    model = xor_pair_model()
    s = SeqState.fully_masked(model.vocab, (), 2)
    r_ig, before, after = reward(model, s, UnmaskAction(0, 1))
    # revealing either token of a perfectly coupled pair removes all entropy
    assert r_ig == pytest.approx(1.0, abs=1e-9)
    assert before == pytest.approx(2 * math.log(2), abs=1e-9)
    assert after == pytest.approx(0.0, abs=1e-9)


def test_negative_gain_exists():
    model = negative_gain_model()
    s = SeqState.fully_masked(model.vocab, (), 2)
    # revealing the rare token at position 0 leaves the partner nearly
    # uniform, which raises the remaining entropy above the baseline
    r_ig, before, after = reward(model, s, UnmaskAction(0, 1))
    assert r_ig < 0.0
    assert after > before


def test_gain_matches_brute_force_exhaustively(rng):
    for length, vocab in [(2, 3), (3, 2), (3, 3)]:
        joint = rng.dirichlet(np.full(vocab**length, 0.5)).reshape((vocab,) * length)
        model = TabularModel(Vocab(vocab), joint)
        cells = oracles.cells_from_joint(model.joint)
        root = SeqState.fully_masked(model.vocab, (), length)
        for pos in range(length):
            for tok in range(vocab):
                r_ig = reward(model, root, UnmaskAction(pos, tok))[0]
                want = oracles.oracle_info_gain(cells, length, vocab, {}, pos, tok)
                assert r_ig == pytest.approx(want, abs=1e-9)


def test_zero_baseline_convention():
    # deterministic factorized model: every position is a point mass; the
    # logit floor leaves a vanishing but non-zero entropy
    rows = np.zeros((2, 3))
    rows[:, 1] = 1.0
    model = FactorizedModel(Vocab(3), rows)
    s = SeqState.fully_masked(model.vocab, (), 2)
    t = total(model, s)
    assert t < 1e-9
    # a baseline at or below the resolution threshold short-circuits to 1
    assert entropy_gain(0.0, t) == 1.0


def test_invalid_baseline_raises():
    with pytest.raises(ZeroBaselineEntropy):
        entropy_gain(float("nan"), 0.0)
    with pytest.raises(ZeroBaselineEntropy):
        entropy_gain(-0.5, 0.0)
    assert entropy_gain(0.0, 5.0) == 1.0  # at-zero baseline short-circuits


def test_cumulative_gain_vs_single_steps(rng):
    joint = rng.dirichlet(np.full(27, 0.6)).reshape(3, 3, 3)
    model = TabularModel(Vocab(3), joint)
    root = SeqState.fully_masked(model.vocab, (), 3)
    s1 = apply_action(root, UnmaskAction(2, 0))
    s2 = apply_action(s1, UnmaskAction(0, 1))
    # a pooled node's score: the gain rule against the root's total
    t0 = total(model, root)
    g1 = entropy_gain(t0, total(model, s1))
    t2 = total(model, s2)
    g2 = entropy_gain(t0, t2)
    assert g1 == pytest.approx(reward(model, root, UnmaskAction(2, 0))[0], abs=1e-12)
    assert g2 == pytest.approx((t0 - t2) / t0, abs=1e-12)
    # complete descendant always reaches gain 1 exactly
    s3 = apply_action(s2, UnmaskAction(1, 2))
    assert entropy_gain(t0, total(model, s3)) == pytest.approx(1.0, abs=1e-12)


class MalformedModel(Denoiser):
    """Wraps a model; once a state has `from_reveals` revealed tokens, each
    prediction is one logit column too wide ("wide") or carries a row for a
    position past the sequence ("extra_row")."""

    def __init__(self, inner, fault, from_reveals=0):
        self.inner = inner
        self.vocab = inner.vocab
        self.fault = fault
        self.from_reveals = from_reveals

    def predict(self, state):
        out = self.inner.predict(state)
        if state.reveal_count() < self.from_reveals:
            return out
        positions, matrix = out.positions(), out.matrix()
        if self.fault == "wide":
            return DenoiserOutput.from_matrix(
                positions, np.hstack([matrix, np.zeros((len(positions), 1))])
            )
        return DenoiserOutput.from_matrix(
            positions + [len(state.tokens)], np.vstack([matrix, matrix[:1]])
        )


def _search_child_rewards(inner, fault, root):
    # the root prediction is well formed; children pool at depth 1, so
    # the reward reads their predictions and no expansion ever does
    model = MalformedModel(inner, fault, from_reveals=1)
    cfg = SearchConfig(init_length=1, candidate_count=2, max_simulations=8)
    return run_cgmcts(model, root, cfg)


READERS = {
    "entropy_profile": lambda inner, fault, root: total(MalformedModel(inner, fault), root),
    "search_child_rewards": _search_child_rewards,
    "entropy_gap": lambda inner, fault, root: schedule_cost(
        MalformedModel(inner, fault), root, [[0, 1]], with_dependence=False
    ),
    "schedule_costs": lambda inner, fault, root: list(
        schedule_costs(MalformedModel(inner, fault), root, 2, with_dependence=False)
    ),
    "oracle_min_schedule": lambda inner, fault, root: oracle_min_schedule(
        MalformedModel(inner, fault), root, 2
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize(
    "fault, error", [("wide", LogitWidthMismatch), ("extra_row", MissingPosition)]
)
def test_malformed_predictions_raise_where_first_read(rng, reader, fault, error):
    inner = random_calibrated_model(rng, 3, 3)
    root = SeqState.fully_masked(inner.vocab, (), 3)
    with pytest.raises(error):
        READERS[reader](inner, fault, root)
