"""Schedule costs, the dependence/gap inequality, and schedule search."""

from __future__ import annotations

import math
import time
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medal import kernels, mcts, theory
from medal.denoisers import CountingDenoiser, Denoiser, FactorizedModel, TabularModel
from medal.errors import (
    BoundViolated,
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
    the totals of the one-step walk the verifiers take there."""
    cost = schedule_cost(model, state, [subset], with_dependence=True)
    return cost.j, cost.dep_total


def test_entropies_and_gap_on_xor():
    model = xor_pair_model()
    root = root_of(model)
    ent = masked_entropies([root], [model.predict(root)])[0].tolist()
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
    """A step's (gap, dependence error, child tokens), worked out from the
    step's own rows: entropies and argmax tokens of just those rows, and
    the KL of the step's exact joint."""
    probs = kernels.softmax_rows(model.predict(state).matrix(step))
    ent = kernels.entropy_rows(probs)
    tokens = probs.argmax(axis=1).tolist()
    dep = theory._dependence(model.step_joints(state)(step))
    child = apply_many(state, [UnmaskAction(p, t) for p, t in zip(step, tokens)])
    return float(ent.sum() - ent.max()), dep, child.tokens


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
    gap, dep, child = _reference_step(model, state, step)
    assert got.gap == gap
    assert got.dep == dep
    assert got.child.tokens == child
    if len(step) == 1:
        assert got.dep == 0.0 and math.copysign(1.0, got.dep) == 1.0
    without = theory._contexts(model)(state).step(step)
    assert without.dep is None
    assert (without.gap, without.child.tokens) == (gap, child)


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
    assert cost.steps == ((0, 2), (1,))
    # each step's values are the table row's at the context the walk
    # reached, and the walk keeps their sums
    rows = theory._contexts(model, with_dependence=True)
    first = rows(root).step((0, 2))
    second = rows(first.child).step((1,))
    assert cost.seq.tokens == second.child.tokens
    assert cost.seq.masked_index == ()
    assert (cost.j, cost.dep_total) == (first.gap + second.gap, first.dep + second.dep)
    # second step's gap is computed at the context realized by the first:
    # replay the first commits, read off the walk's final context, and
    # recompute
    realized = apply_many(root, [UnmaskAction(p, cost.seq.tokens[p]) for p in (0, 2)])
    assert realized.tokens == first.child.tokens
    assert second.gap == pytest.approx(step_cost(model, realized, [1])[0], abs=1e-12)


def test_schedule_cost_options(rng):
    model = rand_model(rng)
    root = root_of(model)
    sched = [[0], [1], [2]]
    plain = schedule_cost(model, root, sched, with_dependence=False)
    assert plain.dep_total is None
    measured = schedule_cost(model, root, sched, with_dependence=True)
    assert (plain.seq, plain.steps, plain.j) == (measured.seq, measured.steps, measured.j)
    with pytest.raises(TypeError):
        schedule_cost(model, root, sched)  # with_dependence is required


def test_cost_json_keeps_measured_empty_terms(rng):
    # an empty schedule with measured terms has dep_total = 0.0, which a
    # JSON report writes as 0.0; unmeasured terms stay None (null)
    model = rand_model(rng)
    root = root_of(model)
    measured = schedule_cost(model, root, [], with_dependence=True)
    assert measured == (root, (), 0.0, 0.0)
    plain = schedule_cost(model, root, [], with_dependence=False)
    assert plain == (root, (), 0.0, None)


def test_a_table_serves_only_calls_of_its_dependence_mode(rng):
    # a table passed as the model must have been built in the call's
    # dependence mode; a mismatch is a ConfigError before any model call,
    # not a failed sum halfway through a walk
    model = RecordingConditionals(random_calibrated_model(rng, 3, 2))
    root = root_of(model, 3)
    plain, measured = theory._contexts(model), theory._contexts(model, with_dependence=True)
    for call in (
        lambda: verify_lemma1(plain, root),
        lambda: schedule_cost(plain, root, [[0, 1], [2]], with_dependence=True),
        lambda: list(schedule_costs(plain, root, 2, with_dependence=True)),
        lambda: schedule_cost(measured, root, [[0, 1], [2]], with_dependence=False),
        lambda: oracle_min_schedule(measured, root, 2),
        lambda: greedy_schedule(measured, root, 2),
        lambda: random_schedule(measured, root, 2, np.random.default_rng(0)),
        lambda: search_schedules(measured, root, 2, 4),
        lambda: verify_theorem1(measured, root, 2, [1, 2]),
    ):
        with pytest.raises(ConfigError, match="with_dependence="):
            call()
    assert model.calls == len(model.handles) == 0
    assert schedule_cost(measured, root, [[0, 1], [2]], with_dependence=True) == schedule_cost(
        model, root, [[0, 1], [2]], with_dependence=True
    )


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
    # any step_size but None or an int is a ConfigError before any model
    # call; a bool is not read as 1
    model = CountingDenoiser(rand_model(rng, length=4, vocab=2))
    root = root_of(model, 4)
    for bad in ([2, 1], (1,), 1.0, "1", True):
        for call in (
            lambda: count_schedules(4, 2, bad),
            lambda: schedule_costs(model, root, 2, bad, with_dependence=False),
            lambda: greedy_schedule(model, root, 2, bad),
            lambda: random_schedule(model, root, 2, np.random.default_rng(0), bad),
            lambda: search_schedules(model, root, 2, 4, step_size=bad),
            lambda: verify_theorem1(model, root, 2, [1, 2], step_size=bad),
        ):
            with pytest.raises(ConfigError, match="step_size must be None or an int"):
                call()
    assert model.calls == 0


def _refusals(model, root):
    """(argument, call) pairs: theory entry points given an argument that is
    not an integer, or is a bool, where a non-bool integer is due."""
    return {
        "theorem1 budgets=[2.5]": ("budgets", lambda: verify_theorem1(model, root, 2, [2.5])),
        "theorem1 budgets=['3']": ("budgets", lambda: verify_theorem1(model, root, 2, ["3"])),
        "theorem1 budgets=[True]": ("budgets", lambda: verify_theorem1(model, root, 2, [True])),
        "search budget=3.5": ("budget", lambda: search_schedules(model, root, 2, 3.5)),
        "search budget=True": ("budget", lambda: search_schedules(model, root, 2, True)),
        "search seed=1.5": ("seed", lambda: search_schedules(model, root, 2, 4, seed=1.5)),
        "search seed=True": ("seed", lambda: search_schedules(model, root, 2, 4, seed=True)),
        "theorem1 seed=1.5": ("seed", lambda: verify_theorem1(model, root, 2, [4], seed=1.5)),
        "theorem1 seed=True": ("seed", lambda: verify_theorem1(model, root, 2, [4], seed=True)),
        "count k=True": ("k", lambda: count_schedules(4, True)),
        "count k=2.0": ("k", lambda: count_schedules(4, 2.0)),
        "search k=True": ("k", lambda: search_schedules(model, root, True, 4)),
        "greedy k=True": ("k", lambda: greedy_schedule(model, root, True)),
        "costs k=True": ("k", lambda: schedule_costs(model, root, True, with_dependence=False)),
        "theorem1 k=True": ("k", lambda: verify_theorem1(model, root, True, [4])),
    }


@pytest.mark.parametrize("case", sorted(_refusals(None, None)))
def test_theory_arguments_must_be_integers(case):
    # a float, a string or a bool is refused with a ConfigError naming the
    # argument, before any model call, instead of being read as an integer
    model = CountingDenoiser(random_calibrated_model(np.random.default_rng(0), 4, 2))
    name, call = _refusals(model, root_of(model, 4))[case]
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        call()
    assert model.calls == 0


def test_theory_arguments_may_be_numpy_integers():
    # numpy integers are integers: they give what Python integers give
    model = random_calibrated_model(np.random.default_rng(0), 4, 2)
    root = root_of(model, 4)
    two, four = np.int64(2), np.int32(4)
    assert count_schedules(four, two) == count_schedules(4, 2)
    assert count_schedules(four, two, np.int8(1)) == count_schedules(4, 2, 1)
    assert search_schedules(model, root, two, four, seed=np.int64(3)) == search_schedules(
        model, root, 2, 4, seed=3
    )
    assert verify_theorem1(model, root, two, [np.int16(1), four], seed=np.uint8(1)) == (
        verify_theorem1(model, root, 2, [1, 4], seed=1)
    )


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
        assert counted.calls == 0 and counted.handles == counted.conditionals == []
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
    predicts, whether through predict or predict_many, the tokens of every
    state it hands a step-joint handle for (step_joints), and (state
    tokens, subset) of every step joint asked of those handles."""

    def __init__(self, inner):
        super().__init__(inner)
        self.states = []
        self.handles = []
        self.conditionals = []

    def predict(self, state):
        self.states.append(state.tokens)
        return super().predict(state)

    def predict_many(self, states):
        self.states.extend(state.tokens for state in states)
        return super().predict_many(states)

    def step_joints(self, state):
        self.handles.append(state.tokens)
        joints = self.inner.step_joints(state)

        def recorded(subset):
            self.conditionals.append((state.tokens, tuple(subset)))
            return joints(subset)

        return recorded


def _steps_reached(root, costs):
    """(context tokens, step) of every step a walk of the costs' schedules
    takes: the root with each cost's commits (its final context's tokens at
    the step's positions) replayed up to each step."""
    reached = set()
    for cost in costs:
        seq = root
        for step in cost.steps:
            reached.add((seq.tokens, step))
            seq = apply_many(seq, [UnmaskAction(p, cost.seq.tokens[p]) for p in step])
    return reached


def _contexts_reached(root, costs):
    """Tokens of every context a walk of the costs' schedules steps from."""
    return {tokens for tokens, _ in _steps_reached(root, costs)}


def test_schedule_costs_predict_each_context_once():
    # one prediction per distinct context the walks reach, and, with
    # dependence, one step-joint handle (its mass check) per context and
    # one step joint per distinct multi-position (context, step), however
    # many schedules pass through it
    for model, root in _walk_cases():
        for k, step_size in SIZE_CASES:
            for with_dependence in (True, False):
                rec = RecordingConditionals(model)
                costs = list(schedule_costs(
                    rec, root, k, step_size, with_dependence=with_dependence
                ))
                reached = _contexts_reached(root, costs)
                assert rec.calls == len(rec.states) == len(set(rec.states)) == len(reached)
                assert set(rec.states) == reached
                handles, steps = set(), set()
                if with_dependence:
                    handles = reached
                    steps = {(t, s) for t, s in _steps_reached(root, costs) if len(s) > 1}
                assert len(rec.handles) == len(handles) and set(rec.handles) == handles
                assert len(rec.conditionals) == len(steps)
                assert set(rec.conditionals) == steps


def _model_with_zero_cells(data, length, vocab, seed):
    """A random joint with some of its cells set to zero, so that some
    contexts have no mass; or, drawn too, the xor pair model."""
    if data.draw(st.booleans(), "xor pair"):
        return xor_pair_model(vocab)
    joint = np.random.default_rng(seed).dirichlet(np.ones(vocab**length))
    cells = st.integers(0, vocab**length - 1)
    zeros = data.draw(st.lists(cells, unique=True, max_size=vocab**length - 1), "zero cells")
    joint[zeros] = 0.0
    return TabularModel(Vocab(vocab), (joint / joint.sum()).reshape((vocab,) * length))


def _bits(x):
    """The bytes of a float, None kept as None."""
    return None if x is None else np.float64(x).tobytes()


def _all_steps(state):
    """Every step (non-empty sorted subset of masked positions) at state."""
    masked = state.masked_index
    return [step for n in range(1, len(masked) + 1) for step in combinations(masked, n)]


@settings(max_examples=80, deadline=None)
@given(
    length=st.integers(2, 4),
    vocab=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_rows_equal_rows_built_one_at_a_time(length, vocab, seed, data):
    # rows read ahead as one batch (one predict_many call, one entropy pass,
    # one stacked argmax) are bit for bit the rows built one context at a
    # time, with each step's gap, dependence error and child; a context
    # whose mass check fails is left out of the batch and raises the same
    # error when it is read
    model = _model_with_zero_cells(data, length, vocab, seed)
    drawn = [_random_context(model, data)[0] for _ in range(data.draw(st.integers(1, 6), "n"))]
    states = list({state.tokens: state for state in drawn}.values())  # distinct, as read_ahead's
    for with_dependence in (True, False):
        rec = RecordingConditionals(model)
        batched = theory._contexts(rec, with_dependence)
        batched.read_ahead(states)
        assert rec.calls == len(rec.states) == len(set(rec.states)) == len(batched)
        for state in states:
            alone = theory._contexts(model, with_dependence)
            try:
                want = alone(state)
            except ZeroMassContext as exc:
                assert with_dependence and state.tokens not in batched
                with pytest.raises(ZeroMassContext) as raised:
                    batched(state)
                assert str(raised.value) == str(exc)
                continue
            got = batched[state.tokens]
            assert got.ent.tobytes() == want.ent.tobytes()
            assert got.tokens.tolist() == want.tokens.tolist()
            assert got.rows == want.rows
            for step in _all_steps(state):
                a, b = got.step(step), want.step(step)
                assert (_bits(a.gap), _bits(a.dep)) == (_bits(b.gap), _bits(b.dep))
                assert a.child.tokens == b.child.tokens


def _drain(costs):
    """The schedules of a schedule_costs iterator up to its end or its
    ZeroMassContext, and that error's message (None at the end)."""
    got = []
    try:
        for cost in costs:
            got.append(cost)
    except ZeroMassContext as exc:
        return got, str(exc)
    return got, None


def _zero_mass_cases():
    """(model, root) pairs whose argmax walks reach contexts with no mass:
    an anti-correlated pair beside a free position, whose argmax pair (0, 0)
    has no mass, and random joints with zero cells."""
    joint = np.zeros((2, 2, 2))
    joint[0, 1], joint[1, 0] = [0.3, 0.2], [0.1, 0.4]
    yield TabularModel(Vocab(2), joint)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        joint = rng.dirichlet(np.ones(16)) * (rng.random(16) < 0.6)
        yield TabularModel(Vocab(2), (joint / joint.sum()).reshape((2,) * 4))


def test_a_lazy_consumer_sees_what_one_row_at_a_time_gives(monkeypatch):
    # read-ahead changes neither the schedules an islice consumer of
    # schedule_costs gets nor the ZeroMassContext it meets after them: a
    # context with no mass is left out of its batch, so the error comes
    # where the walk first reads it, as when each row is built on its read
    raised = 0
    for model in _zero_mass_cases():
        root = root_of(model)
        for k in range(1, model.length + 1):
            def costs():
                return schedule_costs(model, root, k, with_dependence=True)

            with monkeypatch.context() as mp:
                mp.setattr(mcts.StateTable, "read_ahead", lambda table, states: None)
                want, error = _drain(costs())
            assert _drain(costs()) == (want, error)
            raised += error is not None
            for n in range(len(want) + 2):
                if n > len(want) and error is not None:
                    with pytest.raises(ZeroMassContext) as exc:
                        list(islice(costs(), n))
                    assert str(exc.value) == error
                else:
                    assert list(islice(costs(), n)) == want[:n]
    assert raised  # the cases reach contexts with no mass


def test_schedule_costs_match_brute_force_per_step():
    # each step's gap and dependence error, read from the table row at the
    # context reached by replaying the cost's commits, equal the
    # brute-force values there
    for model, root in _walk_cases():
        cells = oracles.cells_from_joint(model.joint)
        length, vocab = model.length, model.vocab.size
        rows = theory._contexts(model, with_dependence=True)
        for k, step_size in SIZE_CASES:
            for cost in schedule_costs(model, root, k, step_size, with_dependence=True):
                revealed = {p: t for p, t in enumerate(root.tokens) if p not in root.masked_index}
                seq = root
                for step in cost.steps:
                    out = rows(seq).step(step)
                    want_gap = oracles.oracle_entropy_gap(cells, length, vocab, revealed, step)
                    want_dep = oracles.oracle_dependence_error(cells, length, vocab, revealed, step)
                    assert out.gap == pytest.approx(want_gap, abs=1e-10)
                    assert out.dep == pytest.approx(want_dep, abs=1e-10)
                    revealed.update((p, cost.seq.tokens[p]) for p in step)
                    seq = out.child
                assert seq.tokens == cost.seq.tokens


def _row_totals(model, root, steps):
    """The context a walk of `steps` reaches and its J and summed
    dependence errors, by a left-to-right loop over the values of the
    table rows along the walk."""
    rows = theory._contexts(model, with_dependence=True)
    seq, j, dep = root, 0.0, 0.0
    for step in steps:
        out = rows(seq).step(step)
        j += out.gap
        dep += out.dep
        seq = out.child
    return seq.tokens, _bits(j), _bits(dep)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(2, 5),
    vocab=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_walk_totals_are_the_row_values_summed_in_step_order(length, vocab, seed, data):
    # every walk's J and dep_total are, bit for bit, its rows' gaps and
    # dependence errors added up one step at a time in step order: the
    # enumeration's walks, the baselines' and the search's best
    model = random_calibrated_model(np.random.default_rng(seed), length, vocab)
    root = root_of(model, length)
    step_size = data.draw(st.none() | st.integers(1, length), "step_size")
    k = data.draw(st.integers(1, length if step_size is None else length // step_size), "k")
    for cost in schedule_costs(model, root, k, step_size, with_dependence=True):
        assert (cost.seq.tokens, _bits(cost.j), _bits(cost.dep_total)) == _row_totals(
            model, root, cost.steps
        )
    search_seed = data.draw(st.integers(0, 100), "search_seed")
    walks = [
        greedy_schedule(model, root, k, step_size),
        random_schedule(model, root, k, np.random.default_rng(search_seed), step_size),
        search_schedules(model, root, k, 16, step_size=step_size, seed=search_seed)[0],
    ]
    for cost in walks:
        tokens, j, _ = _row_totals(model, root, cost.steps)
        assert (cost.seq.tokens, _bits(cost.j), cost.dep_total) == (tokens, j, None)


def test_verifiers_predict_each_state_once():
    # verify_lemma1 shares one table across every step count, and
    # verify_theorem1 one across its search, oracle and baselines
    for vocab in (2, 3):
        model = random_calibrated_model(np.random.default_rng(5), 4, vocab)
        root = root_of(model, 4)
        rec = RecordingConditionals(model)
        verify_lemma1(rec, root)
        assert rec.calls == len(rec.states) == len(set(rec.states))
        assert sorted(rec.handles) == sorted(rec.states)
        assert len(rec.conditionals) == len(set(rec.conditionals))
        rec = RecordingConditionals(model)
        verify_theorem1(rec, root, k=3, budgets=[16, 64, 256])
        assert rec.calls == len(rec.states) == len(set(rec.states))
        assert rec.handles == rec.conditionals == []


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
    # a verifier's table reads entropy rows once per masked position of
    # each context it predicts, a batch of contexts per row block, and
    # computes one dependence error per multi-position (context, step)
    # pair, however many schedules, rollouts, expansions and greedy choices
    # reach it; a one-position step's dependence error is zero without a KL
    for vocab in (2, 3):
        model = random_calibrated_model(np.random.default_rng(5), 4, vocab)
        root = root_of(model, 4)
        reached = _steps_reached(root, _reference_lemma1_costs(model, root))
        with pytest.MonkeyPatch.context() as mp:
            work = _record_step_work(mp)
            verify_lemma1(model, root)
        assert set(work["asked"]) == reached
        assert len(work["asked"]) > len(reached)
        assert sum(work["entropy"]) == sum(_masked_counts(reached, model.vocab.mask_id))
        assert len(work["entropy"]) < len(_masked_counts(reached, model.vocab.mask_id))
        assert sorted(work["dep"]) == sorted(len(s) for _, s in reached if len(s) > 1)
        with pytest.MonkeyPatch.context() as mp:
            work = _record_step_work(mp)
            verify_theorem1(model, root, k=3, budgets=[16, 64, 256])
        assert work["dep"] == []
        assert sum(work["entropy"]) == sum(_masked_counts(work["asked"], model.vocab.mask_id))
        assert len(work["entropy"]) < len(_masked_counts(work["asked"], model.vocab.mask_id))
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
        searched = search_schedules(model, root, k, 16, step_size=step_size, seed=k)[0]
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
    select_leaf = mcts.select_leaf
    calls = []

    def checked_select_leaf(node, c_explore):
        assert not _tree_complete(node), "select_leaf called on a complete tree"
        calls.append(node)
        return select_leaf(node, c_explore)

    monkeypatch.setattr(mcts, "select_leaf", checked_select_leaf)
    search_schedules(model, root, k=3, budget=10_000, seed=2)
    b = len(calls)
    assert 1 < b < 256
    assert _tree_complete(calls[0])
    reports = {}
    for budget in (b, 10 * b):
        calls.clear()
        reports[budget] = verify_theorem1(model, root, k=3, budgets=[1, budget], seed=2)
        assert len(calls) == b
        best, snaps, complete = search_schedules(
            model, root, k=3, budget=budget, seed=2, snapshots=[b - 1, b, budget, 20 * b]
        )
        assert set(snaps) == {b - 1, b, budget}
        assert snaps[b] == snaps[budget] == best.j
        assert complete
    # one iteration short of it the search knows its tree is not complete
    assert not search_schedules(model, root, k=3, budget=b - 1, seed=2)[2]
    small, large = reports[b], reports[10 * b]
    assert small.pop("budgets") == [1, b] and large.pop("budgets") == [1, 10 * b]
    assert small == large


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(2, 4),
    vocab=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_property_snapshots_equal_separate_runs_at_each_budget(length, vocab, seed, data):
    # the search is anytime: one run's snapshot at budget b is the best J
    # of a separate run with budget b, on a complete tree too
    model = random_calibrated_model(np.random.default_rng(seed), length, vocab)
    root = root_of(model, length)
    step_size = data.draw(st.none() | st.integers(1, length), label="step_size")
    k = data.draw(st.integers(1, length if step_size is None else length // step_size), label="k")
    budgets = data.draw(st.lists(st.integers(1, 150), min_size=1, max_size=4, unique=True),
                        label="budgets")
    search_seed = data.draw(st.integers(0, 100), label="search_seed")
    table = theory._contexts(model)  # rows are pure, so every run may share them
    _, snaps, _ = search_schedules(table, root, k, max(budgets), step_size=step_size,
                                   seed=search_seed, snapshots=budgets)
    assert set(snaps) == set(budgets)
    for budget in budgets:
        best = search_schedules(table, root, k, budget, step_size=step_size, seed=search_seed)[0]
        assert best.j == snaps[budget]


def test_search_reaches_oracle_on_small_instance(rng):
    model = rand_model(rng)
    root = root_of(model)
    oracle = oracle_min_schedule(model, root, k=2)
    best, snaps, _ = search_schedules(
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


class OverconfidentPair(Denoiser):
    """A pair whose predictions are confident and nearly independent (both
    marginals (0.98, 0.02)) while its exact conditionals are the xor
    pair's, so a joint step's dependence error, ln 2, exceeds its gap: a
    miscalibrated model, for which Lemma 1 need not hold."""

    def __init__(self):
        self.shown = TabularModel(Vocab(2), np.array([[0.97, 0.01], [0.01, 0.01]]))
        self.exact = xor_pair_model()
        self.vocab = self.shown.vocab

    def predict(self, state):
        return self.shown.predict(state)

    def step_joints(self, state):
        return self.exact.step_joints(state)


def test_verify_lemma1_names_the_schedule_that_breaks_the_bound():
    # the first schedule enumerated is the one joint step, whose dependence
    # error ln 2 exceeds its gap H(0.98, 0.02) = 0.098...
    model = OverconfidentPair()
    message = r"^dependence 0\.6931\d* exceeds gap 0\.0980\d* on schedule \[\[0, 1\]\]$"
    with pytest.raises(BoundViolated, match=message) as exc:
        verify_lemma1(model, root_of(model, 2))
    assert exc.type is BoundViolated


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


def test_verify_theorem1_judges_dominance_only_at_a_complete_tree():
    # two-position steps over L=5: the tree of 30 schedules completes in 11
    # iterations, so a search of at most 8 may still trail a random
    # baseline (J 1.2519 against 1.2281) without anything being wrong; it
    # reports the Js, and from budget 16 on it reaches the oracle
    model = random_calibrated_model(np.random.default_rng(5), 5, 2)
    root = root_of(model)
    short = verify_theorem1(model, root, 2, [1, 2, 4, 8], step_size=2, seed=0)
    assert not search_schedules(model, root, 2, 8, step_size=2)[2]
    assert short["j_final"] > min(short["j_random"]) + 0.02
    assert short["j_final"] > short["j_oracle"] + 0.02
    # the report says the dominance and convergence checks were skipped
    assert list(short)[-1] == "tree_complete" and short["tree_complete"] is False
    full = verify_theorem1(model, root, 2, [1, 2, 4, 8, 16], step_size=2, seed=0)
    assert search_schedules(model, root, 2, 16, step_size=2)[2]
    assert full["tree_complete"] is True
    assert full["j_final"] == full["j_oracle"]
    assert full["j_by_budget"][:4] == short["j_by_budget"]
    # an L=4 joint with k=3 and budget 256 completes its tree, and the
    # report says so
    for vocab in (2, 3):
        model = random_calibrated_model(np.random.default_rng(vocab), 4, vocab)
        report = verify_theorem1(model, root_of(model), 3, [16, 64, 256])
        assert report["tree_complete"] is True


def test_verify_theorem1_raises_when_a_complete_tree_misses_the_oracle(rng, monkeypatch):
    # at a complete tree the search has walked every schedule, so its best
    # J must be the oracle's minimum; an oracle below it is a violation
    model = rand_model(rng)
    root = root_of(model)
    assert search_schedules(model, root, 2, 64)[2]
    oracle = theory.oracle_min_schedule

    def lower(*args, **kwargs):
        cost = oracle(*args, **kwargs)
        return cost._replace(j=cost.j - 0.01)

    monkeypatch.setattr(theory, "oracle_min_schedule", lower)
    with pytest.raises(BoundViolated, match="above the oracle minimum"):
        verify_theorem1(model, root, 2, [1, 64])
    # short of a complete tree the same oracle is only reported
    report = verify_theorem1(model, root, 2, [1])
    assert report["j_oracle"] < report["j_final"]
