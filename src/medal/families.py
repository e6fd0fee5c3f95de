"""Seeded toy instance families with known structure.

These tabular joints make the search-vs-greedy tradeoff measurable at desk
scale:

* xor_pair_model: two positions forced equal; any single reveal resolves
  everything, so the first reveal's information gain is exactly 1 and the
  one-step parallel commit pays the full entropy gap.
* random_calibrated_model: strictly positive Dirichlet joints, the generic
  calibrated case (no zero-mass contexts anywhere).
* negative_gain_model: a near-deterministic joint hiding a rare branch
  whose reveal raises the remaining entropy (information gain < 0).
* trap_instance: a marginally-confident token leads into a high-entropy
  branch while a lower-scoring token cascades deterministically; greedy
  confidence decoding commits the trap, gain-guided search avoids it.
"""

from __future__ import annotations

import numpy as np

from .denoisers import TabularModel
from .errors import ConfigError
from .seqcore import Vocab


def xor_pair_model(vocab_size: int = 2) -> TabularModel:
    """Uniform over {(v, v)}: marginals are uniform, the pair is determined."""
    joint = np.zeros((vocab_size, vocab_size))
    for v in range(vocab_size):
        joint[v, v] = 1.0 / vocab_size
    return TabularModel(Vocab(vocab_size), joint)


def anti_pair_model() -> TabularModel:
    """Uniform over {(0,1), (1,0)}; its argmax pair (0,0) has zero mass."""
    joint = np.array([[0.0, 0.5], [0.5, 0.0]])
    return TabularModel(Vocab(2), joint)


def random_calibrated_model(
    rng: np.random.Generator,
    length: int,
    vocab_size: int,
    concentration: float = 0.5,
) -> TabularModel:
    """Dirichlet joint over vocab_size**length cells; strictly positive."""
    cells = vocab_size**length
    joint = rng.dirichlet(np.full(cells, concentration))
    joint = np.maximum(joint, 1e-12)
    joint /= joint.sum()
    return TabularModel(Vocab(vocab_size), joint.reshape((vocab_size,) * length))


def negative_gain_model(p_rare: float = 0.01, vocab_size: int = 3) -> TabularModel:
    """Two positions; token 1 at position 0 is rare but explosive.

    With probability 1-p_rare, x0=0 and x1=0 (both near-deterministic, tiny
    total entropy). Revealing the rare x0=1 leaves x1 uniform, so the
    remaining entropy after that action exceeds the whole baseline.
    """
    v = vocab_size
    joint = np.zeros((v, v))
    joint[0, 0] = 1.0 - p_rare
    joint[1, :] = p_rare / v
    return TabularModel(Vocab(v), joint)


def trap_instance(
    rng: np.random.Generator,
    length: int = 4,
    vocab_size: int = 3,
    background: float = 0.01,
) -> TabularModel:
    """One adversarial joint; see the module docstring.

    Mass p_good in [0.32, 0.40] sits on a single good tuple g. The trap
    branch fixes x_pi0 = b != g_pi0 and spreads its mass uniformly over all
    completions satisfying a modular parity constraint, making every
    conditional inside the branch uniform. A small uniform background keeps
    all log-probs finite. Position order and token labels are randomly
    relabeled per instance.
    """
    if vocab_size < 3 or length < 3:
        raise ConfigError("trap construction needs vocab_size >= 3 and length >= 3")
    v, L = vocab_size, length
    g = rng.integers(0, v, size=L)
    b0 = int((g[0] + 1 + rng.integers(0, v - 1)) % v)
    p_good = float(rng.uniform(0.32, 0.40))
    offset = int(rng.integers(0, v))
    p_trap = 1.0 - p_good - background

    joint = np.full((v,) * L, background / v**L)
    joint[tuple(g)] += p_good
    free = L - 2  # x0 pinned to b0, last position determined by the parity
    n_cells = v**free
    for combo in np.ndindex(*(v,) * free):
        last = (sum(combo) + offset) % v
        idx = (b0, *combo, last)
        joint[idx] += p_trap / n_cells

    # relabel tokens per position and shuffle position order
    for axis in range(L):
        joint = np.take(joint, rng.permutation(v), axis=axis)
    joint = np.transpose(joint, rng.permutation(L))
    return TabularModel(Vocab(v), joint)


def trap_family(count: int, seed: int, length: int = 4, vocab_size: int = 3) -> list[TabularModel]:
    rng = np.random.default_rng(seed)
    return [trap_instance(rng, length, vocab_size) for _ in range(count)]
