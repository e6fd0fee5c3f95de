"""Independent reference implementations used to check the package.

Everything in this module is deliberately written from first principles:
pure-Python loops over explicit probability tables, and arbitrary-precision
arithmetic through mpmath where rounding could hide a real defect.  Nothing
here imports from the package under test, so agreement between the two is
meaningful evidence rather than a tautology.

The numpy section at the end is different in kind: it keeps the row
kernels, the tabular marginals, the n-gram rows and a theory row's step
in the form they were first written (one allocation per step, the .sum /
.max / np.clip wrappers, one axis tuple built per marginal, one smoothed
row per context, a numpy gap for every step). The package must equal
them bit for bit, since it applies the same ufuncs to the same operands
in the same order, or gives the value they are known to give (+0.0 for
a one-position step's gap).
"""

from __future__ import annotations

import math
from itertools import combinations, product

import mpmath as mp
import numpy as np

mp.mp.dps = 50

LOGIT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# arbitrary-precision scoring oracle
# ---------------------------------------------------------------------------

def mp_softmax(logits):
    vals = [mp.mpf(float(x)) for x in logits]
    mx = max(vals)
    exps = [mp.e ** (v - mx) for v in vals]
    total = sum(exps)
    return [e / total for e in exps]


def mp_entropy(probs, epsilon):
    eps = mp.mpf(epsilon)
    h = -sum(p * mp.log(p + eps) for p in probs)
    cap = mp.log(len(probs))
    if h < 0:
        return mp.mpf(0)
    if h > cap:
        return cap
    return h


def mp_sigmoid(x):
    return 1 / (1 + mp.e ** (-x))


def mp_score_row(logits, gamma, epsilon, use_entropy_penalty=True):
    """Reference for one position: probs, entropy, penalty, margin, scores."""
    probs = mp_softmax(logits)
    h = mp_entropy(probs, epsilon)
    pen = mp.e ** (-h) if use_entropy_penalty else mp.mpf(1)
    ordered = sorted(probs, reverse=True)
    margin = ordered[0] - ordered[1]
    mf = mp_sigmoid(mp.mpf(float(gamma)) * margin)
    scores = [p * pen * mf for p in probs]
    return {
        "probs": probs,
        "entropy": h,
        "penalty": pen,
        "margin": margin,
        "margin_factor": mf,
        "scores": scores,
    }


def mp_close(a, b, tol):
    return abs(mp.mpf(float(a)) - mp.mpf(b)) <= mp.mpf(tol)


# ---------------------------------------------------------------------------
# brute-force candidate filter
# ---------------------------------------------------------------------------

def brute_candidates(score_table, k1, k2):
    """Reference top-K1-per-position / top-K2-overall filter.

    ``score_table`` maps position -> list of per-token scores.  Returns the
    pooled list of (position, token, score), ordered by score descending with
    position-then-token ascending tie breaks, exactly K2 long unless the
    union is smaller.
    """
    union = []
    for pos in sorted(score_table):
        row = score_table[pos]
        ranked = sorted(range(len(row)), key=lambda t: (-row[t], t))
        for tok in ranked[: min(k1, len(row))]:
            union.append((pos, tok, row[tok]))
    union.sort(key=lambda item: (-item[2], item[0], item[1]))
    return union[:k2]


# ---------------------------------------------------------------------------
# explicit joint-table machinery
# ---------------------------------------------------------------------------

def cells_from_joint(joint):
    """Flatten an ndarray-like joint into {assignment tuple: probability}."""
    length = joint.ndim
    vocab = joint.shape[0]
    out = {}
    for assign in product(range(vocab), repeat=length):
        p = float(joint[assign])
        if p > 0.0:
            out[assign] = p
    return out


def _consistent(assign, revealed):
    return all(assign[pos] == tok for pos, tok in revealed.items())


def oracle_conditional(cells, length, vocab, revealed, pos, floor=LOGIT_FLOOR):
    """P(x_pos | revealed) by direct summation, then the model's logit-floor
    renormalization so comparisons against model softmax outputs are exact."""
    weights = [0.0] * vocab
    for assign, p in cells.items():
        if _consistent(assign, revealed):
            weights[assign[pos]] += p
    mass = sum(weights)
    if mass <= 0.0:
        probs = [1.0 / vocab] * vocab
    else:
        probs = [w / mass for w in weights]
    if floor:
        denom = 1.0 + vocab * floor
        probs = [(p + floor) / denom for p in probs]
    return probs


def oracle_entropy_exact(probs):
    h = 0.0
    for p in probs:
        if p > 0.0:
            h -= p * math.log(p)
    cap = math.log(len(probs))
    return min(max(h, 0.0), cap)


def oracle_profile_total(cells, length, vocab, revealed, floor=LOGIT_FLOOR):
    """Sum of exact conditional entropies over every unrevealed position."""
    total = 0.0
    for pos in range(length):
        if pos in revealed:
            continue
        probs = oracle_conditional(cells, length, vocab, revealed, pos, floor)
        total += oracle_entropy_exact(probs)
    return total


def oracle_info_gain(cells, length, vocab, revealed, action_pos, action_tok,
                     floor=LOGIT_FLOOR):
    """Normalized entropy reduction for revealing one token, from scratch."""
    before = oracle_profile_total(cells, length, vocab, revealed, floor)
    after_rev = dict(revealed)
    after_rev[action_pos] = action_tok
    after = oracle_profile_total(cells, length, vocab, after_rev, floor)
    if before <= 1e-12:
        return 1.0
    return (before - after) / before


def oracle_entropy_gap(cells, length, vocab, revealed, subset, floor=LOGIT_FLOOR):
    """Sum-minus-max of exact conditional entropies over ``subset``."""
    ents = [
        oracle_entropy_exact(
            oracle_conditional(cells, length, vocab, revealed, pos, floor)
        )
        for pos in subset
    ]
    return sum(ents) - max(ents)


def oracle_subset_conditional(cells, length, vocab, revealed, subset):
    """P(x_subset | revealed) by direct summation: {subset tokens: prob},
    every token tuple of the subset included."""
    subset = tuple(subset)
    joint = dict.fromkeys(product(range(vocab), repeat=len(subset)), 0.0)
    mass = 0.0
    for assign, p in cells.items():
        if _consistent(assign, revealed):
            joint[tuple(assign[pos] for pos in subset)] += p
            mass += p
    if mass <= 0.0:
        raise ZeroDivisionError("no mass consistent with context")
    return {k: v / mass for k, v in joint.items()}


def oracle_dependence_error(cells, length, vocab, revealed, subset):
    """KL(joint posterior over subset || product of its marginals)."""
    joint = oracle_subset_conditional(cells, length, vocab, revealed, subset)
    marginals = [[0.0] * vocab for _ in subset]
    for key, p in joint.items():
        for axis, tok in enumerate(key):
            marginals[axis][tok] += p
    kl = 0.0
    for key, p in joint.items():
        if p <= 0.0:
            continue
        q = 1.0
        for axis, tok in enumerate(key):
            q *= marginals[axis][tok]
        kl += p * math.log(p / q)
    return max(kl, 0.0)


# ---------------------------------------------------------------------------
# schedule enumeration
# ---------------------------------------------------------------------------

def enumerate_partitions(positions, k):
    """All ordered set partitions of ``positions`` into exactly k non-empty
    steps, each step emitted in sorted order, whole stream lexicographic."""
    positions = tuple(sorted(positions))

    def rec(remaining, steps_left):
        if steps_left == 1:
            yield (tuple(sorted(remaining)),)
            return
        remaining = tuple(sorted(remaining))
        max_take = len(remaining) - (steps_left - 1)
        for size in range(1, max_take + 1):
            for combo in combinations(remaining, size):
                rest = tuple(p for p in remaining if p not in combo)
                for tail in rec(rest, steps_left - 1):
                    yield (combo,) + tail

    yield from rec(positions, k)


def count_partitions(n, k):
    """Number of ordered set partitions of n items into k non-empty blocks."""
    return sum(1 for _ in enumerate_partitions(range(n), k))


# ---------------------------------------------------------------------------
# the row kernels and tabular marginals as first written (numpy)
# ---------------------------------------------------------------------------

def ref_softmax_rows(matrix):
    shifted = matrix - matrix.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def ref_score_rows(probs, gamma, epsilon, use_entropy_penalty=True):
    n_rows, width = probs.shape
    entropy = -(probs * np.log(probs + epsilon)).sum(axis=1)
    np.clip(entropy, 0.0, math.log(width), out=entropy)
    if use_entropy_penalty:
        ent_penalty = np.exp(-entropy)
    else:
        ent_penalty = np.ones(n_rows)
    if width >= 2:
        part = np.partition(probs, width - 2, axis=1)
        margin = part[:, -1] - part[:, -2]
    else:
        margin = probs[:, 0].copy()
    margin_factor = 1.0 / (1.0 + np.exp(-gamma * margin))
    scores = probs * (ent_penalty * margin_factor)[:, None]
    return entropy, ent_penalty, margin, margin_factor, scores


def ref_entropy_rows(probs):
    safe = np.where(probs > 0.0, probs, 1.0)
    ent = -(probs * np.log(safe)).sum(axis=1)
    np.clip(ent, 0.0, math.log(probs.shape[1]), out=ent)
    return ent


def ref_tabular_logits(sub, vocab):
    """Logits of a tabular prediction from `sub`, the joint over the masked
    positions given the revealed ones (one axis per masked position):
    log(marginal + floor) per position, uniform when `sub` has no mass."""
    mass = sub.sum()
    probs = np.full((sub.ndim, vocab), 1.0 / vocab)
    if mass > 0.0:
        for axis in range(sub.ndim):
            other = tuple(a for a in range(sub.ndim) if a != axis)
            probs[axis] = sub.sum(axis=other) / mass
    return np.log(probs + LOGIT_FLOOR)


def ref_ngram_counts(corpus, n, vocab):
    """Count tables of orders 0..n-1 from a corpus: counts[k][ctx][tok] is
    how often tok follows the k tokens ctx."""
    counts = [{} for _ in range(n)]
    for seq in corpus:
        for i, tok in enumerate(seq):
            for k in range(min(i, n - 1) + 1):
                counts[k].setdefault(tuple(seq[i - k : i]), np.zeros(vocab))[tok] += 1.0
    return counts


def ref_ngram_context(tokens, mask_id, position, n):
    """The revealed run right before `position` (prompt tokens count), cut
    to its last n-1 tokens; empty when the token before it is masked."""
    lo = position
    while lo > 0 and tokens[lo - 1] != mask_id and position - lo < n - 1:
        lo -= 1
    return tuple(tokens[lo:position])


def ref_ngram_row(counts, ctx, alpha, vocab):
    """log((c + alpha) / (T + alpha * V)) from the caller's count table of
    ctx's order, with zero counts for a context the table lacks."""
    c = np.asarray(counts[len(ctx)].get(ctx, np.zeros(vocab)), dtype=np.float64)
    return np.log((c + alpha) / (c.sum() + alpha * vocab))


def ref_dependence(joint):
    """KL(joint || product of its marginals) as first written: each
    marginal by .sum over an axis tuple built per axis, joint[mask]
    gathered twice and the terms summed by .sum, clipped at 0."""
    log_prod = np.zeros_like(joint)
    shape = [1] * joint.ndim
    with np.errstate(divide="ignore"):
        for axis in range(joint.ndim):
            other = tuple(a for a in range(joint.ndim) if a != axis)
            shape[axis] = -1
            log_prod += np.log(joint.sum(axis=other)).reshape(shape)
            shape[axis] = 1
        mask = joint > 0.0
        kl = float((joint[mask] * (np.log(joint[mask]) - log_prod[mask])).sum())
    return max(kl, 0.0)


def ref_theory_step(tokens, masked, ent, argmax, step, joint):
    """One step of a theory row as first written, at a context with
    `tokens` and ascending masked positions `masked`, whose entropies and
    argmax tokens per masked position are `ent` and `argmax`: the gap as
    .sum - .max over the step's entropies (one position included), the
    dependence error (None when `joint`, the step's exact joint, is None;
    0.0 for one position, else ref_dependence) and the child's tokens,
    the context's with each step position set to its argmax token."""
    idx = [masked.index(p) for p in step]
    e = np.asarray(ent)[idx]
    gap = float(e.sum() - e.max())
    dep = None if joint is None else (ref_dependence(joint) if len(step) > 1 else 0.0)
    child = list(tokens)
    for p, i in zip(step, idx):
        child[p] = int(argmax[i])
    return gap, dep, tuple(child)
