"""Schedule costs, the dependence/gap inequality, and schedule search."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medal import kernels, theory
from medal.denoisers import CountingDenoiser, FactorizedModel, TabularModel
from medal.errors import (
    ConfigError,
    InstanceTooLarge,
    NoMaskedPositions,
    SubsetNotMasked,
    ZeroMassContext,
)
from medal.families import random_calibrated_model, xor_pair_model
from medal.reward import masked_entropies
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_many
from medal.theory import (
    ENUMERATION_CAP,
    count_schedules,
    greedy_schedule,
    oracle_min_schedule,
    random_schedule,
    schedule_cost,
    schedule_costs,
    search_schedules,
    verify_lemma1,
    verify_theorem1,
)

LN2 = math.log(2)


def rand_model(rng, length=3, vocab=3, conc=0.5):
    joint = rng.dirichlet(np.full(vocab**length, conc)).reshape((vocab,) * length)
    return TabularModel(Vocab(vocab), joint)


def root_of(model, length=None):
    return SeqState.fully_masked(model.vocab, (), length or model.length)


# ---------------------------------------------------------------------------
# schedules and step costs


def test_schedule_cost_sorts_and_validates_steps(rng):
    # a step is walked as its sorted positions; an empty step, a repeated
    # position and a position reused across steps (revealed by then) are
    # rejected at the step's context
    model = rand_model(rng)
    root = root_of(model)
    cost = schedule_cost(model, root, [[2, 0], [1]], with_dependence=False)
    assert cost.steps == ((0, 2), (1,))
    for steps, match in (
        ([[0], []], "non-empty"),
        ([[0, 0]], "repeats"),
        ([[0, 1], [1]], "not masked"),
    ):
        with pytest.raises(SubsetNotMasked, match=match):
            schedule_cost(model, root, steps, with_dependence=False)


def step_cost(model, state, subset):
    """(gap, dependence error) of revealing `subset` together at `state`:
    the one-step walk the verifiers take there."""
    cost = schedule_cost(model, state, [subset], with_dependence=True)
    return cost.per_step_gap[0], cost.per_step_dep[0]


def test_entropies_and_gap_on_xor():
    model = xor_pair_model()
    root = root_of(model)
    ent = masked_entropies(root, model.predict(root)).tolist()
    assert ent == pytest.approx([LN2, LN2], abs=1e-9)
    assert step_cost(model, root, [0, 1])[0] == pytest.approx(LN2, abs=1e-9)
    # a single position has zero gap by construction
    assert step_cost(model, root, [1])[0] == 0.0
    with pytest.raises(SubsetNotMasked):
        schedule_cost(model, root, [()], with_dependence=True)
    s = apply_many(root, [UnmaskAction(0, 1)])
    with pytest.raises(SubsetNotMasked):
        step_cost(model, s, [0, 1])


def test_gap_matches_enumeration(rng):
    model = rand_model(rng)
    cells = oracles.cells_from_joint(model.joint)
    root = root_of(model)
    s = apply_many(root, [UnmaskAction(1, 2)])
    got, _ = step_cost(model, s, [0, 2])
    want = oracles.oracle_entropy_gap(cells, 3, 3, {1: 2}, (0, 2))
    assert got == pytest.approx(want, abs=1e-10)


def test_dependence_error_xor_equals_gap():
    model = xor_pair_model()
    gap, dep = step_cost(model, root_of(model), [0, 1])
    # perfectly coupled pair: KL(joint || product) = ln 2 = the gap exactly
    assert dep == pytest.approx(LN2, abs=1e-12)
    assert dep == pytest.approx(gap, abs=1e-7)


def test_dependence_error_zero_for_factorized(rng):
    rows = rng.dirichlet(np.ones(3), size=3)
    tab = FactorizedModel(Vocab(3), rows).as_tabular()
    root = root_of(tab, 3)
    for subset in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
        assert step_cost(tab, root, subset)[1] == pytest.approx(0.0, abs=1e-12)


def test_dependence_error_matches_enumeration(rng):
    model = rand_model(rng)
    cells = oracles.cells_from_joint(model.joint)
    root = root_of(model)
    s = apply_many(root, [UnmaskAction(0, 1)])
    _, got = step_cost(model, s, [1, 2])
    want = oracles.oracle_dependence_error(cells, 3, 3, {0: 1}, (1, 2))
    assert got == pytest.approx(want, abs=1e-10)
    # singleton subsets carry no dependence
    assert step_cost(model, s, [2])[1] == pytest.approx(0.0, abs=1e-12)


def test_dependence_error_requires_exact_conditionals(rng):
    fact = FactorizedModel(Vocab(3), rng.dirichlet(np.ones(3), size=2))
    with pytest.raises(ConfigError, match="exact conditionals"):
        step_cost(fact, root_of(fact, 2), [0, 1])


def test_dependence_error_zero_mass_context():
    joint = np.array([[0.5, 0.5], [0.0, 0.0]])
    model = TabularModel(Vocab(2), joint)
    s = apply_many(root_of(model), [UnmaskAction(0, 1)])
    with pytest.raises(ZeroMassContext):
        step_cost(model, s, [1])


def _reference_step(model, state, step):
    """A step's (gap, dependence error, committed tokens, child tokens),
    worked out from the step's own rows: entropies and argmax tokens of
    just those rows, and the KL of the step's exact joint."""
    probs = kernels.softmax_rows(model.predict(state).matrix(step))
    ent = kernels.entropy_rows(probs)
    tokens = probs.argmax(axis=1).tolist()
    dep = theory._dependence(model.subset_conditional(state, step))
    child = apply_many(state, [UnmaskAction(p, t) for p, t in zip(step, tokens)])
    return float(ent.sum() - ent.max()), dep, tuple(zip(step, tokens)), child.tokens


def _random_context(model, data):
    """A state of `model` with a random set of positions revealed to random
    tokens, and a random step (sorted masked positions) there."""
    length, vocab = model.length, model.vocab.size
    positions = list(range(length))
    revealed_at = data.draw(
        st.lists(st.sampled_from(positions), unique=True, max_size=length - 1), "revealed"
    )
    acts = [UnmaskAction(p, data.draw(st.integers(0, vocab - 1), f"token {p}"))
            for p in revealed_at]
    state = apply_many(root_of(model), acts)
    step = data.draw(
        st.lists(st.sampled_from(state.masked_index), unique=True, min_size=1), "step"
    )
    return state, tuple(sorted(step))


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(2, 4),
    vocab=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_step_costs_match_brute_force_at_any_context(length, vocab, seed, data):
    # at contexts no argmax walk need reach (any revealed tokens), a step's
    # gap and dependence error equal the brute-force values, and the
    # dependence error never exceeds the gap
    model = random_calibrated_model(np.random.default_rng(seed), length, vocab)
    cells = oracles.cells_from_joint(model.joint)
    state, step = _random_context(model, data)
    revealed = {p: t for p, t in enumerate(state.tokens) if p not in state.masked_index}
    gap, dep = step_cost(model, state, step)
    want_gap = oracles.oracle_entropy_gap(cells, length, vocab, revealed, step)
    want_dep = oracles.oracle_dependence_error(cells, length, vocab, revealed, step)
    assert gap == pytest.approx(want_gap, abs=1e-10)
    assert dep == pytest.approx(want_dep, abs=1e-10)
    assert dep <= gap + 1e-9


@settings(max_examples=80, deadline=None)
@given(
    length=st.integers(2, 5),
    vocab=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_context_rows_match_the_step_own_rows(length, vocab, seed, data):
    # a table row's entropies and argmax tokens, read once for the whole
    # context, give each step the bits its own rows give; a one-position
    # step's dependence error is exactly zero
    model = random_calibrated_model(np.random.default_rng(seed), length, vocab)
    state, step = _random_context(model, data)
    got = theory._contexts(model, with_dependence=True)(state).step(step)
    gap, dep, committed, child = _reference_step(model, state, step)
    assert got.gap == gap
    assert got.dep == dep
    assert got.committed == committed
    assert got.child.tokens == child
    if len(step) == 1:
        assert got.dep == 0.0 and math.copysign(1.0, got.dep) == 1.0
    without = theory._contexts(model)(state).step(step)
    assert without.dep is None
    assert (without.gap, without.committed) == (gap, committed)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(2, 4),
    vocab=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_one_position_step_at_a_zero_mass_context_raises(length, vocab, seed, data):
    # a row that measures dependence checks its context's mass when it is
    # made, so a one-position step, which asks for no joint, still raises
    # at a context with no mass, as a longer step does
    joint = np.random.default_rng(seed).dirichlet(np.ones(vocab**length))
    joint = joint.reshape((vocab,) * length)
    dead = data.draw(st.integers(0, vocab - 1), "dead token")
    joint[dead] = 0.0  # position 0 never takes the dead token
    model = TabularModel(Vocab(vocab), joint / joint.sum())
    state = apply_many(root_of(model), [UnmaskAction(0, dead)])
    position = data.draw(st.sampled_from(state.masked_index), "position")
    with pytest.raises(ZeroMassContext):
        theory._contexts(model, with_dependence=True)(state)  # the row, before any step
    with pytest.raises(ZeroMassContext):
        schedule_cost(model, state, [[position]], with_dependence=True)


def test_schedule_cost_walk(rng):
    model = rand_model(rng)
    root = root_of(model)
    cost = schedule_cost(model, root, [[0, 2], [1]], with_dependence=True)
    assert len(cost.per_step_gap) == 2
    assert len(cost.per_step_dep) == 2
    assert cost.j == pytest.approx(sum(cost.per_step_gap))
    assert cost.dep_total == pytest.approx(sum(cost.per_step_dep))
    assert len(cost.committed) == 3
    assert [p for p, _ in cost.committed] == [0, 2, 1]
    # second step's gap is computed at the context realized by the first:
    # replay the first commits and recompute
    realized = apply_many(
        root, [UnmaskAction(p, t) for p, t in cost.committed[:2]]
    )
    assert cost.per_step_gap[1] == pytest.approx(
        step_cost(model, realized, [1])[0], abs=1e-12
    )


def test_schedule_cost_options(rng):
    model = rand_model(rng)
    root = root_of(model)
    sched = [[0], [1], [2]]
    plain = schedule_cost(model, root, sched, with_dependence=False)
    assert plain.per_step_dep is None
    measured = schedule_cost(model, root, sched, with_dependence=True)
    assert plain.per_step_gap == measured.per_step_gap
    with pytest.raises(TypeError):
        schedule_cost(model, root, sched)  # with_dependence is required


def test_cost_json_keeps_measured_empty_terms(rng):
    # an empty schedule with measured terms keeps () for them, in step with
    # dep_total = 0.0, which a JSON report writes as [] and 0.0; unmeasured
    # terms stay None (null)
    model = rand_model(rng)
    root = root_of(model)
    measured = schedule_cost(model, root, [], with_dependence=True)
    assert measured.steps == ()
    assert (measured.per_step_gap, measured.per_step_dep) == ((), ())
    assert (measured.j, measured.dep_total) == (0.0, 0.0)
    plain = schedule_cost(model, root, [], with_dependence=False)
    assert plain.per_step_dep is None and plain.dep_total is None


# ---------------------------------------------------------------------------
# enumeration: one walk over the schedule prefix tree


def test_count_schedules_known_values():
    assert count_schedules(2, 1) == 1
    assert count_schedules(2, 2) == 2
    assert count_schedules(3, 2) == 6
    assert count_schedules(4, 3) == 36
    # the size applies to every step: choose(4,2) * choose(2,2) = 6
    assert count_schedules(4, 2, 2) == 6
    # choose(5,2) * choose(3,2) = 30, cover not required
    assert count_schedules(5, 2, 2) == 30
    assert count_schedules(4, 3, 1) == 24


def test_enumeration_matches_reference_partitions(rng):
    for m, k in [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]:
        model = rand_model(rng, length=m, vocab=2)
        costs = schedule_costs(model, root_of(model), k, with_dependence=False)
        got = [c.steps for c in costs]
        want = list(oracles.enumerate_partitions(range(m), k))
        assert got == want
        assert len(got) == count_schedules(m, k)
        assert len(set(got)) == len(got)


def test_enumeration_fixed_sizes(rng):
    model = rand_model(rng, length=5, vocab=2)
    scheds = [c.steps for c in schedule_costs(model, root_of(model), 2, 2, with_dependence=False)]
    assert len(scheds) == 30
    for steps in scheds:
        assert [len(step) for step in steps] == [2, 2]  # cover not required
    # lexicographic: first schedule takes the two smallest then the two smallest left
    assert scheds[0] == ((0, 1), (2, 3))
    assert scheds == sorted(scheds)


def test_step_size_is_none_or_an_int(rng):
    # any step_size but None or an int is a ConfigError before any model call
    model = CountingDenoiser(rand_model(rng, length=4, vocab=2))
    root = root_of(model, 4)
    for bad in ([2, 1], (1,), 1.0, "1"):
        for call in (
            lambda: count_schedules(4, 2, bad),
            lambda: schedule_costs(model, root, 2, bad, with_dependence=False),
            lambda: greedy_schedule(model, root, 2, bad),
            lambda: search_schedules(model, root, 2, 4, step_size=bad),
            lambda: verify_theorem1(model, root, 2, [1, 2], step_size=bad),
        ):
            with pytest.raises(ConfigError, match="step_size must be None or an int"):
                call()
    assert model.calls == 0


def test_verifiers_refuse_an_instance_past_the_cap_before_any_model_call():
    # 9 positions: lemma 1 over every step count and the k=6 oracle both
    # pass ENUMERATION_CAP; the raise comes first, with no model call
    model = random_calibrated_model(np.random.default_rng(0), 9, 2)
    root = root_of(model)
    assert count_schedules(9, 6) > ENUMERATION_CAP
    for verify in (
        lambda m: verify_lemma1(m, root),
        lambda m: verify_theorem1(m, root, k=6, budgets=[64, 256]),
    ):
        counted = RecordingConditionals(model)
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match=f"exceeds cap {ENUMERATION_CAP}"):
            verify(counted)
        assert counted.calls == 0 and counted.conditionals == []
        assert time.perf_counter() - start < 5.0


def test_enumeration_guards(rng):
    model = rand_model(rng, length=3, vocab=2)
    wide = SeqState.fully_masked(model.vocab, (), 12)  # the guards fire before any model call
    with pytest.raises(InstanceTooLarge):
        list(schedule_costs(model, wide, 6, with_dependence=False))
    two = root_of(model, 2)
    with pytest.raises(ConfigError):
        list(schedule_costs(model, two, 3, with_dependence=False))  # k > m full cover
    with pytest.raises(ConfigError):
        list(schedule_costs(model, root_of(model), 0, with_dependence=False))
    # k < 1 is refused by every entry point, not read as an empty schedule
    for k_zero in (
        lambda: count_schedules(3, 0),
        lambda: greedy_schedule(model, root_of(model), 0),
        lambda: random_schedule(model, root_of(model), 0, np.random.default_rng(0)),
        lambda: search_schedules(model, root_of(model), 0, 4),
        lambda: verify_theorem1(model, root_of(model), 0, [1, 2]),
    ):
        with pytest.raises(ConfigError, match="k must be >= 1"):
            k_zero()
    with pytest.raises(ConfigError):
        list(schedule_costs(model, two, 2, 2, with_dependence=False))  # consumes too many
    fact = FactorizedModel(Vocab(2), rng.dirichlet(np.ones(2), size=3))
    with pytest.raises(ConfigError):
        list(schedule_costs(fact, root_of(fact, 3), 2, with_dependence=True))
    assert len(list(schedule_costs(fact, root_of(fact, 3), 2, with_dependence=False))) == 6


def _walk_cases():
    """(model, root) pairs: fully masked and with one position revealed."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        model = random_calibrated_model(rng, length=4, vocab_size=2 + seed % 2)
        root = root_of(model, 4)
        yield model, root
        yield model, apply_many(root, [UnmaskAction(1, seed % 2)])


SIZE_CASES = [(1, None), (2, None), (3, None), (2, 1), (3, 1), (1, 2), (1, 3)]


def test_schedule_costs_equal_the_reference_walk():
    # every yielded cost is what schedule_cost's argmax walk of its
    # schedule gives, in the reference partition order for full cover
    for model, root in _walk_cases():
        positions = root.masked_index
        for k, step_size in SIZE_CASES + [(len(positions), None)]:
            for with_dependence in (True, False):
                costs = list(schedule_costs(
                    model, root, k, step_size, with_dependence=with_dependence
                ))
                assert len(costs) == count_schedules(len(positions), k, step_size)
                for cost in costs:
                    assert cost == schedule_cost(
                        model, root, cost.steps, with_dependence=with_dependence
                    )
                if step_size is None:
                    got = [c.steps for c in costs]
                    assert got == list(oracles.enumerate_partitions(positions, k))


class RecordingConditionals(CountingDenoiser):
    """CountingDenoiser that also records the tokens of every state it
    predicts, and (state tokens, subset) of every exact step joint it is
    asked for."""

    def __init__(self, inner):
        super().__init__(inner)
        self.states = []
        self.conditionals = []

    def predict(self, state):
        self.states.append(state.tokens)
        return super().predict(state)

    def subset_conditional(self, state, subset):
        self.conditionals.append((state.tokens, tuple(subset)))
        return self.inner.subset_conditional(state, subset)


def _steps_reached(root, costs):
    """(context tokens, step) of every step a walk of the costs' schedules
    takes: the root with each cost's commits replayed up to each step."""
    reached = set()
    for cost in costs:
        seq, done = root, 0
        for step in cost.steps:
            reached.add((seq.tokens, step))
            acts = [UnmaskAction(p, t) for p, t in cost.committed[done : done + len(step)]]
            seq, done = apply_many(seq, acts), done + len(step)
    return reached


def _contexts_reached(root, costs):
    """Tokens of every context a walk of the costs' schedules steps from."""
    return {tokens for tokens, _ in _steps_reached(root, costs)}


def test_schedule_costs_predict_each_context_once():
    # one prediction per distinct context the walks reach, and, with
    # dependence, one mass check (the joint over no positions) per context
    # and one step joint per distinct multi-position (context, step),
    # however many schedules pass through it
    for model, root in _walk_cases():
        for k, step_size in SIZE_CASES:
            for with_dependence in (True, False):
                rec = RecordingConditionals(model)
                costs = list(schedule_costs(
                    rec, root, k, step_size, with_dependence=with_dependence
                ))
                reached = _contexts_reached(root, costs)
                assert rec.calls == len(set(rec.states)) == len(reached)
                assert set(rec.states) == reached
                steps = set()
                if with_dependence:
                    steps = {(tokens, ()) for tokens in reached}
                    steps |= {(t, s) for t, s in _steps_reached(root, costs) if len(s) > 1}
                assert len(rec.conditionals) == len(steps)
                assert set(rec.conditionals) == steps


def test_schedule_costs_match_brute_force_per_step():
    # each step's gap and dependence error equal the brute-force values at
    # the context reached by replaying the cost's commits
    for model, root in _walk_cases():
        cells = oracles.cells_from_joint(model.joint)
        length, vocab = model.length, model.vocab.size
        for k, step_size in SIZE_CASES:
            for cost in schedule_costs(model, root, k, step_size, with_dependence=True):
                revealed = {p: t for p, t in enumerate(root.tokens) if p not in root.masked_index}
                done = 0
                for step, gap, dep in zip(cost.steps, cost.per_step_gap,
                                          cost.per_step_dep):
                    want_gap = oracles.oracle_entropy_gap(cells, length, vocab, revealed, step)
                    want_dep = oracles.oracle_dependence_error(cells, length, vocab, revealed, step)
                    assert gap == pytest.approx(want_gap, abs=1e-10)
                    assert dep == pytest.approx(want_dep, abs=1e-10)
                    revealed.update(cost.committed[done : done + len(step)])
                    done += len(step)


def test_verifiers_predict_each_state_once():
    # verify_lemma1 shares one table across every step count, and
    # verify_theorem1 one across its search, oracle and baselines
    for vocab in (2, 3):
        model = random_calibrated_model(np.random.default_rng(5), 4, vocab)
        root = root_of(model, 4)
        rec = RecordingConditionals(model)
        verify_lemma1(rec, root)
        assert rec.calls == len(set(rec.states))
        assert len(rec.conditionals) == len(set(rec.conditionals))
        assert {tokens for tokens, _ in rec.conditionals} == set(rec.states)
        rec = RecordingConditionals(model)
        verify_theorem1(rec, root, k=3, budgets=[16, 64, 256])
        assert rec.calls == len(set(rec.states))
        assert rec.conditionals == []


def _reference_lemma1_costs(model, root):
    """Every full-cover schedule's cost, each walked through a fresh table."""
    positions = root.masked_index
    return [
        schedule_cost(model, root, steps, with_dependence=True)
        for k in range(1, len(positions) + 1)
        for steps in oracles.enumerate_partitions(positions, k)
    ]


def _record_step_work(monkeypatch):
    """Record the axis count of every dependence error theory computes, the
    row count of every entropy row block, and every (context tokens, step)
    outcome a walk asks its table for."""
    work = {"dep": [], "entropy": [], "asked": []}
    dependence, entropy_rows, step = theory._dependence, kernels.entropy_rows, theory._Context.step

    def counted_dependence(joint):
        work["dep"].append(joint.ndim)
        return dependence(joint)

    def counted_entropy_rows(probs):
        work["entropy"].append(len(probs))
        return entropy_rows(probs)

    def asked_step(row, positions):
        work["asked"].append((row.seq.tokens, positions))
        return step(row, positions)

    monkeypatch.setattr(theory, "_dependence", counted_dependence)
    monkeypatch.setattr(kernels, "entropy_rows", counted_entropy_rows)
    monkeypatch.setattr(theory._Context, "step", asked_step)
    return work


def _masked_counts(pairs, mask_id):
    """Sorted masked-position counts of the distinct contexts of
    (context tokens, step) pairs."""
    return sorted(tokens.count(mask_id) for tokens in {tokens for tokens, _ in pairs})


def test_verifiers_cost_each_context_step_once():
    # a verifier's table reads one entropy row block per context it
    # predicts, covering that context's masked positions, and computes one
    # dependence error per multi-position (context, step) pair, however
    # many schedules, rollouts, expansions and greedy choices reach it; a
    # one-position step's dependence error is zero without a KL
    for vocab in (2, 3):
        model = random_calibrated_model(np.random.default_rng(5), 4, vocab)
        root = root_of(model, 4)
        reached = _steps_reached(root, _reference_lemma1_costs(model, root))
        with pytest.MonkeyPatch.context() as mp:
            work = _record_step_work(mp)
            verify_lemma1(model, root)
        assert set(work["asked"]) == reached
        assert len(work["asked"]) > len(reached)
        assert sorted(work["entropy"]) == _masked_counts(reached, model.vocab.mask_id)
        assert sorted(work["dep"]) == sorted(len(s) for _, s in reached if len(s) > 1)
        with pytest.MonkeyPatch.context() as mp:
            work = _record_step_work(mp)
            verify_theorem1(model, root, k=3, budgets=[16, 64, 256])
        assert work["dep"] == []
        assert sorted(work["entropy"]) == _masked_counts(work["asked"], model.vocab.mask_id)
        assert len(work["asked"]) > len(set(work["asked"]))


def _reference_lemma1(model, root, tol=1e-9):
    costs = _reference_lemma1_costs(model, root)
    slack = [c.j - c.dep_total for c in costs]
    tightest = min(range(len(costs)), key=slack.__getitem__)  # first of tied minima
    return {
        "schedules_checked": len(costs),
        "max_excess": max(c.dep_total - c.j for c in costs),
        "min_slack": slack[tightest],
        "tightest_schedule": [list(step) for step in costs[tightest].steps],
        "tol": tol,
    }


def test_verify_lemma1_report_matches_reference(rng):
    cases = list(_walk_cases()) + [(xor_pair_model(), root_of(xor_pair_model()))]
    cases += [(m, root_of(m)) for m in (rand_model(rng), rand_model(rng, length=4, vocab=2))]
    for model, root in cases:
        assert verify_lemma1(model, root) == _reference_lemma1(model, root)


# ---------------------------------------------------------------------------
# minimization: oracle, baselines, search


def test_oracle_min_on_xor():
    model = xor_pair_model()
    root = root_of(model)
    # sequential schedules have zero gap; the oracle must find one and
    # return the lexicographically first among the J=0 ties
    best = oracle_min_schedule(model, root, k=2)
    assert best.j == pytest.approx(0.0, abs=1e-12)
    assert best.steps == ((0,), (1,))
    # the only 1-step schedule pays the full coupled gap
    single = oracle_min_schedule(model, root, k=1)
    assert single.j == pytest.approx(LN2, abs=1e-9)


def test_oracle_matches_manual_minimum(rng):
    model = rand_model(rng)
    root = root_of(model)
    best = oracle_min_schedule(model, root, k=2)
    js = [
        schedule_cost(model, root, steps, with_dependence=False).j
        for steps in oracles.enumerate_partitions([0, 1, 2], 2)
    ]
    assert best.j == pytest.approx(min(js), abs=1e-12)


def test_greedy_and_random_are_valid_schedules(rng):
    model = rand_model(rng)
    root = root_of(model)
    greedy = greedy_schedule(model, root, k=3)
    assert len(greedy.steps) == 3
    assert sorted(p for step in greedy.steps for p in step) == [0, 1, 2]
    oracle = oracle_min_schedule(model, root, k=3)
    assert greedy.j >= oracle.j - 1e-12
    rnd = random_schedule(model, root, 2, np.random.default_rng(0))
    again = random_schedule(model, root, 2, np.random.default_rng(0))
    assert rnd.steps == again.steps
    assert rnd.j >= oracle_min_schedule(model, root, 2).j - 1e-12


def test_baselines_walk_once_and_cost_their_own_schedule(rng):
    # each baseline makes one model call per step and returns the cost
    # schedule_cost gives its schedule, without walking it a second time;
    # the search returns the cost it walked for its best schedule
    for k, step_size in ((3, None), (2, 1), (2, 2)):
        model = CountingDenoiser(rand_model(rng, length=4))
        root = root_of(model, 4)
        greedy = greedy_schedule(model, root, k, step_size)
        assert model.calls == k
        model.reset()
        rnd = random_schedule(model, root, k, np.random.default_rng(k), step_size)
        assert model.calls == k
        searched, _ = search_schedules(model, root, k, 16, step_size=step_size, seed=k)
        for cost in (greedy, rnd, searched):
            assert cost == schedule_cost(model, root, cost.steps, with_dependence=False)


def test_search_predicts_each_node_once(rng):
    # k=2 over 4 positions: the root and its 14 one-step children are
    # predicted once each, when created; every two-step child is terminal,
    # so later iterations expand from kept predictions and predict nothing
    model = rand_model(rng, length=4, vocab=2)
    root = root_of(model, 4)
    for budget in (1, 8, 64):
        counted = CountingDenoiser(model)
        search_schedules(counted, root, k=2, budget=budget)
        assert counted.calls == 15


def test_search_rejects_a_budget_below_one(rng):
    # a search with no iteration finds no schedule; the error names the
    # budget, before any model call
    model = CountingDenoiser(rand_model(rng))
    for budget in (0, -4):
        with pytest.raises(ConfigError, match=f"budget must be >= 1, got {budget}"):
            search_schedules(model, root_of(model, 3), 2, budget)
    assert model.calls == 0


def _tree_complete(node) -> bool:
    """Every non-terminal node under `node` has children."""
    if node.terminal:
        return True
    return bool(node.children) and all(_tree_complete(ch) for ch in node.children)


def test_search_stops_once_the_tree_is_complete(rng, monkeypatch):
    # L=4, k=3: the tree of every 3-step schedule is complete long before
    # the budget runs out; later iterations could only re-select complete
    # schedules, so the search stops and a 10x budget reports the same
    model = rand_model(rng, length=4, vocab=3)
    root = root_of(model, 4)
    select_leaf = theory.select_leaf
    calls = []

    def checked_select_leaf(node, c_explore):
        assert not _tree_complete(node), "select_leaf called on a complete tree"
        calls.append(node)
        return select_leaf(node, c_explore)

    monkeypatch.setattr(theory, "select_leaf", checked_select_leaf)
    search_schedules(model, root, k=3, budget=10_000, seed=2)
    b = len(calls)
    assert 1 < b < 256
    assert _tree_complete(calls[0])
    reports = {}
    for budget in (b, 10 * b):
        calls.clear()
        reports[budget] = verify_theorem1(model, root, k=3, budgets=[1, budget], seed=2)
        assert len(calls) == b
        best, snaps = search_schedules(
            model, root, k=3, budget=budget, seed=2, snapshots=[b - 1, b, budget, 20 * b]
        )
        assert set(snaps) == {b - 1, b, budget}
        assert snaps[b] == snaps[budget] == best.j
    small, large = reports[b], reports[10 * b]
    assert small.pop("budgets") == [1, b] and large.pop("budgets") == [1, 10 * b]
    assert small == large


def test_search_reaches_oracle_on_small_instance(rng):
    model = rand_model(rng)
    root = root_of(model)
    oracle = oracle_min_schedule(model, root, k=2)
    best, snaps = search_schedules(
        model, root, k=2, budget=8, seed=3, snapshots=[1, 2, 4, 8]
    )
    vals = [snaps[b] for b in (1, 2, 4, 8)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert best.j <= oracle.j + 1e-9
    assert vals[-1] == pytest.approx(best.j, abs=1e-12)


def test_verify_lemma1_xor_equality():
    model = xor_pair_model()
    report = verify_lemma1(model, root_of(model))
    # k=1 has one schedule, k=2 has two
    assert report["schedules_checked"] == 3
    assert report["max_excess"] <= 1e-9
    # the joint step is exactly tight: dep == gap
    assert abs(report["min_slack"]) <= 1e-6
    assert report["tightest_schedule"] == [[0, 1]]


def test_verify_lemma1_needs_masked_positions():
    # a fully revealed root has no schedule to check; the report must not
    # pass vacuously with non-JSON infinities
    model = xor_pair_model()
    with pytest.raises(NoMaskedPositions, match="masked positions"):
        verify_lemma1(model, SeqState(model.vocab, 0, (0, 1)))


def test_verify_lemma1_random_instances():
    for seed in range(3):
        model = random_calibrated_model(
            np.random.default_rng(seed), length=3, vocab_size=2
        )
        report = verify_lemma1(model, root_of(model, 3))
        assert report["schedules_checked"] == 13  # 1 + 6 + 6
        assert report["max_excess"] <= 1e-9


def test_verify_theorem1_report(rng):
    model = rand_model(rng)
    report = verify_theorem1(
        model, root_of(model), k=2, budgets=[1, 2, 4], seed=0
    )
    assert report["budgets"] == [1, 2, 4]
    assert report["j_final"] <= report["j_greedy"] + 1e-9
    assert report["j_final"] >= report["j_oracle"] - 1e-9
    assert all(
        later <= earlier + 1e-9
        for earlier, later in zip(report["j_by_budget"], report["j_by_budget"][1:])
    )
    assert len(report["j_random"]) == 5
    with pytest.raises(ConfigError):
        verify_theorem1(model, root_of(model), k=2, budgets=[])
