"""Structural checks on the seeded toy instance families."""

from __future__ import annotations

import numpy as np
import pytest

from medal.denoisers import TabularModel
from medal.errors import ConfigError
from medal.families import (
    anti_pair_model,
    negative_gain_model,
    random_calibrated_model,
    trap_family,
    trap_instance,
    xor_pair_model,
)
from medal.mcts import simulate
from medal.reward import masked_entropies
from medal.seqcore import SeqState, UnmaskAction, apply_action


def test_xor_pair_structure():
    model = xor_pair_model(3)
    assert model.joint.shape == (3, 3)
    assert np.allclose(np.diag(model.joint), 1 / 3)
    assert model.joint.sum() == pytest.approx(1.0)
    # off-diagonal is empty
    assert model.joint.sum() == pytest.approx(np.trace(model.joint))


def test_anti_pair_blocks_the_marginal_argmax():
    model = anti_pair_model()
    assert model.joint[0, 0] == 0.0 and model.joint[1, 1] == 0.0
    root = SeqState.fully_masked(model.vocab, (), 2)
    out = model.predict(root)
    probs = np.exp(out.logits[0])
    probs /= probs.sum()
    # marginals are uniform, so independent argmax picks a zero-mass pair
    assert probs == pytest.approx([0.5, 0.5], abs=1e-9)


def test_random_calibrated_is_strictly_positive():
    model = random_calibrated_model(np.random.default_rng(0), 3, 2)
    assert (model.joint > 0).all()
    assert model.joint.sum() == pytest.approx(1.0)
    again = random_calibrated_model(np.random.default_rng(0), 3, 2)
    assert np.array_equal(model.joint, again.joint)


def test_negative_gain_model_has_negative_action():
    model = negative_gain_model()
    root = SeqState.fully_masked(model.vocab, (), 2)
    child = apply_action(root, UnmaskAction(0, 1))
    before = float(masked_entropies([root], [model.predict(root)])[0].sum())
    assert simulate(before, float(masked_entropies([child], [model.predict(child)])[0].sum())) < 0


def test_trap_instance_mass_layout():
    rng = np.random.default_rng(7)
    model = trap_instance(rng)
    joint = model.joint
    assert joint.shape == (3, 3, 3, 3)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    assert (joint > 0).all()  # background keeps every cell positive
    # exactly one cell carries the dominant good-tuple mass
    top = np.sort(joint.ravel())[::-1]
    assert 0.32 <= top[0] <= 0.41
    # the trap branch spreads its mass over 3**2 = 9 equal cells
    trap_level = top[1]
    assert np.isclose(top[1:10], trap_level, rtol=1e-6).all()
    assert top[10] < trap_level / 2
    with pytest.raises(ConfigError):
        trap_instance(rng, length=2)
    with pytest.raises(ConfigError):
        trap_instance(rng, vocab_size=2)


def test_trap_family_is_seeded():
    fam1 = trap_family(4, seed=3)
    fam2 = trap_family(4, seed=3)
    fam3 = trap_family(4, seed=4)
    assert len(fam1) == 4
    assert all(isinstance(m, TabularModel) for m in fam1)
    for a, b in zip(fam1, fam2):
        assert np.array_equal(a.joint, b.joint)
    assert not all(
        np.array_equal(a.joint, b.joint) for a, b in zip(fam1, fam3)
    )
