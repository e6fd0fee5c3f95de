"""Schedule costs, the dependence/gap inequality, and schedule search."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from medal.denoisers import CountingDenoiser, FactorizedModel, TabularModel
from medal.errors import (
    ConfigError,
    InstanceTooLarge,
    SubsetNotMasked,
    ZeroMassContext,
)
from medal.families import random_calibrated_model, xor_pair_model
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_many
from medal.theory import (
    Schedule,
    count_schedules,
    dependence_error,
    entropy_gap,
    greedy_schedule,
    j_lambda,
    oracle_min_schedule,
    position_entropies,
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


def test_schedule_normalization_and_validation():
    s = Schedule.of([[2, 0], [1]])
    assert s.steps == ((0, 2), (1,))
    assert s.positions() == {0, 1, 2}
    assert s.to_json() == [[0, 2], [1]]
    with pytest.raises(ConfigError):
        Schedule.of([[0], []])
    with pytest.raises(ConfigError):
        Schedule.of([[0, 1], [1]])
    with pytest.raises(ConfigError):
        Schedule.of([[0, 0]])


def test_entropies_and_gap_on_xor():
    model = xor_pair_model()
    root = root_of(model)
    ent = position_entropies(model, root, [0, 1])
    assert ent == pytest.approx([LN2, LN2], abs=1e-9)
    assert entropy_gap(model, root, [0, 1]) == pytest.approx(LN2, abs=1e-9)
    # a single position has zero gap by construction
    assert entropy_gap(model, root, [1]) == 0.0
    with pytest.raises(SubsetNotMasked):
        entropy_gap(model, root, [])
    s = apply_many(root, [UnmaskAction(0, 1)])
    with pytest.raises(SubsetNotMasked):
        entropy_gap(model, s, [0, 1])


def test_gap_matches_enumeration(rng):
    model = rand_model(rng)
    cells = oracles.cells_from_joint(model.joint)
    root = root_of(model)
    s = apply_many(root, [UnmaskAction(1, 2)])
    got = entropy_gap(model, s, [0, 2])
    want = oracles.oracle_entropy_gap(cells, 3, 3, {1: 2}, (0, 2))
    assert got == pytest.approx(want, abs=1e-10)


def test_dependence_error_xor_equals_gap():
    model = xor_pair_model()
    root = root_of(model)
    dep = dependence_error(model, root, [0, 1])
    # perfectly coupled pair: KL(joint || product) = ln 2 = the gap exactly
    assert dep == pytest.approx(LN2, abs=1e-12)
    assert dep == pytest.approx(entropy_gap(model, root, [0, 1]), abs=1e-7)


def test_dependence_error_zero_for_factorized(rng):
    rows = rng.dirichlet(np.ones(3), size=3)
    tab = FactorizedModel(Vocab(3), rows).as_tabular()
    root = root_of(tab, 3)
    for subset in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
        assert dependence_error(tab, root, subset) == pytest.approx(0.0, abs=1e-12)


def test_dependence_error_matches_enumeration(rng):
    model = rand_model(rng)
    cells = oracles.cells_from_joint(model.joint)
    root = root_of(model)
    s = apply_many(root, [UnmaskAction(0, 1)])
    got = dependence_error(model, s, [1, 2])
    want = oracles.oracle_dependence_error(cells, 3, 3, {0: 1}, (1, 2))
    assert got == pytest.approx(want, abs=1e-10)
    # singleton subsets carry no dependence
    assert dependence_error(model, s, [2]) == pytest.approx(0.0, abs=1e-12)


def test_dependence_error_requires_exact_conditionals(rng):
    fact = FactorizedModel(Vocab(3), rng.dirichlet(np.ones(3), size=2))
    with pytest.raises(ConfigError):
        dependence_error(fact, root_of(fact, 2), [0, 1])


def test_dependence_error_zero_mass_context():
    joint = np.array([[0.5, 0.5], [0.0, 0.0]])
    model = TabularModel(Vocab(2), joint)
    s = apply_many(root_of(model), [UnmaskAction(0, 1)])
    with pytest.raises(ZeroMassContext):
        dependence_error(model, s, [1])


def test_schedule_cost_walk(rng):
    model = rand_model(rng)
    root = root_of(model)
    sched = Schedule.of([[0, 2], [1]])
    cost = schedule_cost(model, root, sched, proxy="entropy")
    assert len(cost.per_step_gap) == 2
    assert len(cost.per_step_dep) == 2
    assert len(cost.per_step_proxy) == 2
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
        entropy_gap(model, realized, [1]), abs=1e-12
    )
    # proxy "entropy" sums per-position entropies at each context
    assert cost.per_step_proxy[0] == pytest.approx(
        float(position_entropies(model, root, [0, 2]).sum()), abs=1e-12
    )
    json_keys = set(cost.to_json())
    assert json_keys == {"schedule", "per_step_gap", "per_step_dep",
                         "per_step_proxy", "j", "dep_total"}


def test_schedule_cost_options(rng):
    model = rand_model(rng)
    root = root_of(model)
    sched = Schedule.of([[0], [1], [2]])
    plain = schedule_cost(model, root, sched, with_dependence=False)
    assert plain.per_step_dep is None and plain.per_step_proxy is None
    with pytest.raises(ConfigError):
        schedule_cost(model, root, sched, proxy="variance")
    with pytest.raises(ConfigError):
        schedule_cost(model, root, sched, rollout_policy="sample")  # no rng
    with pytest.raises(ConfigError):
        schedule_cost(model, root, sched, rollout_policy="beam", rng=rng)
    seeded = schedule_cost(
        model, root, sched, rollout_policy="sample", rng=np.random.default_rng(4)
    )
    again = schedule_cost(
        model, root, sched, rollout_policy="sample", rng=np.random.default_rng(4)
    )
    assert seeded.committed == again.committed


def test_proxies_have_expected_form(rng):
    model = rand_model(rng, length=2)
    root = root_of(model)
    sched = Schedule.of([[0, 1]])
    out = model.predict(root)
    probs = np.exp(out.matrix([0, 1]))
    probs /= probs.sum(axis=1, keepdims=True)
    one_minus = schedule_cost(model, root, sched, proxy="one_minus_maxprob")
    assert one_minus.per_step_proxy[0] == pytest.approx(
        float((1 - probs.max(axis=1)).sum()), abs=1e-9
    )
    margin = schedule_cost(model, root, sched, proxy="top2_margin")
    srt = np.sort(probs, axis=1)
    assert margin.per_step_proxy[0] == pytest.approx(
        float((srt[:, -1] - srt[:, -2]).sum()), abs=1e-9
    )


def test_j_lambda_weighting(rng):
    model = rand_model(rng)
    root = root_of(model)
    cost = schedule_cost(model, root, Schedule.of([[0, 1], [2]]), proxy="entropy")
    assert j_lambda(cost) == pytest.approx(cost.j)
    assert j_lambda(cost, 2.0, 0.5) == pytest.approx(
        2.0 * cost.j + 0.5 * sum(cost.per_step_proxy)
    )
    bare = schedule_cost(model, root, Schedule.of([[0, 1], [2]]))
    with pytest.raises(ConfigError):
        j_lambda(bare, 1.0, 0.1)


# ---------------------------------------------------------------------------
# enumeration: one walk over the schedule prefix tree


def test_count_schedules_known_values():
    assert count_schedules(2, 1) == 1
    assert count_schedules(2, 2) == 2
    assert count_schedules(3, 2) == 6
    assert count_schedules(4, 3) == 36
    # fixed sizes: choose(4,2) * choose(2,1) = 12
    assert count_schedules(4, 2, [2, 1]) == 12
    # scalar size applies to every step: choose(4,2) * choose(2,2) = 6
    assert count_schedules(4, 2, 2) == 6


def test_enumeration_matches_reference_partitions(rng):
    for m, k in [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]:
        model = rand_model(rng, length=m, vocab=2)
        costs = schedule_costs(model, root_of(model), k, with_dependence=False)
        got = [c.schedule.steps for c in costs]
        want = list(oracles.enumerate_partitions(range(m), k))
        assert got == want
        assert len(got) == count_schedules(m, k)
        assert len(set(got)) == len(got)


def test_enumeration_fixed_sizes(rng):
    model = rand_model(rng, length=4, vocab=2)
    costs = schedule_costs(model, root_of(model), 2, [2, 1], with_dependence=False)
    scheds = [c.schedule for c in costs]
    assert len(scheds) == 12
    for s in scheds:
        assert len(s.steps[0]) == 2 and len(s.steps[1]) == 1
        assert len(s.positions()) == 3  # cover not required
    # lexicographic: first schedule takes the two smallest then the smallest left
    assert scheds[0].steps == ((0, 1), (2,))


def test_enumeration_guards(rng):
    model = rand_model(rng, length=3, vocab=2)
    wide = SeqState.fully_masked(model.vocab, (), 12)  # the guards fire before any model call
    with pytest.raises(InstanceTooLarge):
        list(schedule_costs(model, wide, 6, with_dependence=False, cap=1000))
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
        list(schedule_costs(model, two, 2, [2, 2], with_dependence=False))  # consumes too many
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


SIZE_CASES = [(1, None), (2, None), (3, None), (2, 1), (3, 1), (2, [2, 1]), (2, [1, 2])]


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
                        model, root, cost.schedule, with_dependence=with_dependence
                    )
                if step_size is None:
                    got = [c.schedule.steps for c in costs]
                    assert got == list(oracles.enumerate_partitions(positions, k))


class RecordingConditionals(CountingDenoiser):
    """CountingDenoiser that also records the tokens of every state it
    predicts and of every state whose exact conditional it is asked for."""

    def __init__(self, inner):
        super().__init__(inner)
        self.states = []
        self.conditionals = []

    def predict(self, state):
        self.states.append(state.tokens)
        return super().predict(state)

    def masked_conditional(self, state):
        self.conditionals.append(state.tokens)
        return self.inner.masked_conditional(state)


def _contexts_reached(root, costs):
    """Tokens of every context a walk of the costs' schedules steps from:
    the root with each cost's commits replayed up to each of its steps."""
    reached = set()
    for cost in costs:
        seq, done = root, 0
        for step in cost.schedule.steps:
            reached.add(seq.tokens)
            acts = [UnmaskAction(p, t) for p, t in cost.committed[done : done + len(step)]]
            seq, done = apply_many(seq, acts), done + len(step)
    return reached


def test_schedule_costs_predict_each_context_once():
    # one prediction (and, with dependence, one conditional) per distinct
    # context the walks reach, however many schedules pass through it
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
                assert rec.conditionals == (rec.states if with_dependence else [])


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
                for step, gap, dep in zip(cost.schedule.steps, cost.per_step_gap,
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
        assert rec.conditionals == rec.states
        rec = RecordingConditionals(model)
        verify_theorem1(rec, root, k=3, budgets=[16, 64, 256])
        assert rec.calls == len(set(rec.states))
        assert rec.conditionals == []


def _reference_lemma1(model, root, tol=1e-9):
    positions = root.masked_index
    costs = [
        schedule_cost(model, root, Schedule(steps), with_dependence=True)
        for k in range(1, len(positions) + 1)
        for steps in oracles.enumerate_partitions(positions, k)
    ]
    slack = [c.j - c.dep_total for c in costs]
    tightest = min(range(len(costs)), key=slack.__getitem__)  # first of tied minima
    return {
        "schedules_checked": len(costs),
        "max_excess": max(c.dep_total - c.j for c in costs),
        "min_slack": slack[tightest],
        "tightest_schedule": costs[tightest].schedule.to_json(),
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
    assert best.schedule.steps == ((0,), (1,))
    # the only 1-step schedule pays the full coupled gap
    single = oracle_min_schedule(model, root, k=1)
    assert single.j == pytest.approx(LN2, abs=1e-9)


def test_oracle_matches_manual_minimum(rng):
    model = rand_model(rng)
    root = root_of(model)
    best = oracle_min_schedule(model, root, k=2)
    js = [
        schedule_cost(model, root, Schedule(steps), with_dependence=False).j
        for steps in oracles.enumerate_partitions([0, 1, 2], 2)
    ]
    assert best.j == pytest.approx(min(js), abs=1e-12)


def test_greedy_and_random_are_valid_schedules(rng):
    model = rand_model(rng)
    root = root_of(model)
    greedy = greedy_schedule(model, root, k=3)
    assert len(greedy.schedule.steps) == 3
    assert greedy.schedule.positions() == {0, 1, 2}
    oracle = oracle_min_schedule(model, root, k=3)
    assert greedy.j >= oracle.j - 1e-12
    rnd = random_schedule(model, root, 2, np.random.default_rng(0))
    again = random_schedule(model, root, 2, np.random.default_rng(0))
    assert rnd.schedule == again.schedule
    assert rnd.j >= oracle_min_schedule(model, root, 2).j - 1e-12


def test_baselines_walk_once_and_cost_their_own_schedule(rng):
    # each baseline makes one model call per step and returns the cost
    # schedule_cost gives its schedule, without walking it a second time;
    # the search returns the cost it walked for its best schedule
    for k, step_size in ((3, None), (2, 1), (2, [2, 1])):
        model = CountingDenoiser(rand_model(rng, length=4))
        root = root_of(model, 4)
        greedy = greedy_schedule(model, root, k, step_size)
        assert model.calls == k
        model.reset()
        rnd = random_schedule(model, root, k, np.random.default_rng(k), step_size)
        assert model.calls == k
        searched, _ = search_schedules(model, root, k, 16, step_size=step_size, seed=k)
        for cost in (greedy, rnd, searched):
            assert cost == schedule_cost(model, root, cost.schedule, with_dependence=False)


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
