"""Search tree mechanics and the confidence-guided initialization search."""

from __future__ import annotations

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from medal.denoisers import CountingDenoiser, Denoiser, TabularModel
from medal.errors import AlreadyExpanded, ConfigError, NoChildren
from medal.mcts import (
    CandidatePool,
    CandidateEntry,
    SearchConfig,
    SearchNode,
    backpropagate,
    check_node_invariant,
    expand,
    run_cgmcts,
    simulate,
    ucb_select,
)
from medal import mcts
from medal.reward import entropy_gain, masked_entropies
from medal.families import random_calibrated_model, xor_pair_model
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_action, apply_many


def small_model(rng, length=3, vocab=3, conc=0.5):
    joint = rng.dirichlet(np.full(vocab**length, conc)).reshape((vocab,) * length)
    return TabularModel(Vocab(vocab), joint)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_and_budget():
    cfg = SearchConfig()
    assert (cfg.k1, cfg.k2, cfg.candidate_count) == (3, 5, 3)
    assert cfg.init_length == 20
    assert cfg.c_explore == pytest.approx(math.sqrt(2))
    assert cfg.budget == 192  # 64 * candidate_count
    assert replace(cfg, max_simulations=10).budget == 10


def test_config_validation():
    for bad in [
        {"k1": 0},
        {"k2": 0},
        {"gamma": 0.0},
        {"epsilon": 0.0},
        {"c_explore": -0.1},
        {"candidate_count": 0},
        {"init_length": -1},
        {"max_simulations": 2, "candidate_count": 3},
        {"seed": -1},
    ]:
        with pytest.raises(ConfigError):
            replace(SearchConfig(), **bad).validate()


def test_config_json_round_trip():
    cfg = replace(SearchConfig(), k2=7, seed=4, max_simulations=50)
    back = SearchConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ConfigError):
        SearchConfig.from_json({"k1": 2, "beam_width": 3})


# ---------------------------------------------------------------------------
# node mechanics


def build_parent(stats):
    """Parent with children given as (prior, edge_visits, edge_value)."""
    parent = SearchNode(state="root")
    for i, (prior, visits, value) in enumerate(stats):
        child = SearchNode(state=f"s{i}", action=f"a{i}", prior=prior, index=i)
        child.edge_visits = visits
        child.edge_value = value
        parent.children.append(child)
        parent.visit_count += visits
    return parent


def test_ucb_frozen_hand_example():
    # N(x) = 10, c = sqrt(2):
    #   child A: Q = 0.6, n = 5 -> 0.6 + sqrt(2 * ln 10 / 5)  = 1.559702...
    #   child B: Q = 0.8, n = 8 -> 0.8 + sqrt(2 * ln 10 / 8)  = 1.558716...
    # the lower-Q child wins on the exploration bonus
    parent = SearchNode(state="root")
    a = SearchNode(state="A", action="A", prior=0.0, index=0)
    a.edge_visits, a.edge_value = 5, 3.0
    b = SearchNode(state="B", action="B", prior=0.0, index=1)
    b.edge_visits, b.edge_value = 8, 6.4
    parent.children.extend([a, b])
    parent.visit_count = 10
    ucb_a = a.q + math.sqrt(2) * math.sqrt(math.log(10) / 5)
    ucb_b = b.q + math.sqrt(2) * math.sqrt(math.log(10) / 8)
    assert ucb_a == pytest.approx(1.5597052, abs=1e-6)
    assert ucb_b == pytest.approx(1.5587136, abs=1e-6)
    assert ucb_select(parent, math.sqrt(2)) is a
    # with exploration off the high-Q child wins instead
    assert ucb_select(parent, 0.0) is b


def test_ucb_prefers_unvisited_by_prior_then_creation_order():
    parent = build_parent([(0.3, 2, 1.0), (0.5, 0, 0.0), (0.5, 0, 0.0), (0.9, 1, 0.9)])
    # two unvisited children tie on prior 0.5; earlier creation index wins
    assert ucb_select(parent, 1.0) is parent.children[1]
    with pytest.raises(NoChildren):
        ucb_select(SearchNode(state="leaf"), 1.0)


def _reference_ucb_select(node, c_explore):
    """The UCB pick as one max over (Q + bonus, prior, -index) keys."""
    unvisited = [ch for ch in node.children if ch.edge_visits == 0]
    if unvisited:
        return max(unvisited, key=lambda ch: (ch.prior, -ch.index))
    log_n = math.log(node.visit_count)
    return max(
        node.children,
        key=lambda ch: (ch.q + c_explore * math.sqrt(log_n / ch.edge_visits), ch.prior, -ch.index),
    )


@settings(max_examples=300, deadline=None)
@given(
    stats=st.lists(
        st.tuples(
            st.sampled_from([-0.25, 0.0, 0.5, 1.0]),  # few priors, so priors tie
            st.integers(0, 3),
            st.sampled_from([-1.0, 0.0, 0.3, 1.5]),  # few values, so UCB values tie
        ),
        min_size=1,
        max_size=8,
    ),
    all_visited=st.booleans(),
    c_explore=st.sampled_from([0.0, 1.0, math.sqrt(2.0)]),
    data=st.data(),
)
def test_ucb_select_matches_the_keyed_max(stats, all_visited, c_explore, data):
    # the one-pass pick returns the child a max over (UCB, prior, -index)
    # keys returns, unvisited children first, whatever order the children
    # were created in
    if all_visited:
        stats = [(prior, max(visits, 1), value) for prior, visits, value in stats]
    parent = build_parent(stats)
    order = data.draw(st.permutations(range(len(stats))), "creation order")
    for child, index in zip(parent.children, order):
        child.index = index
    assert ucb_select(parent, c_explore) is _reference_ucb_select(parent, c_explore)


def test_backpropagate_and_invariant():
    root = SearchNode(state="r")
    mid = SearchNode(state="m", action="m")
    leaf = SearchNode(state="l", action="l")
    root.children.append(mid)
    mid.children.append(leaf)
    path = [(root, mid), (mid, leaf)]
    backpropagate(path, 0.5)
    backpropagate(path, 0.1)
    assert root.visit_count == 3 and mid.visit_count == 3
    assert mid.edge_visits == 2 and leaf.edge_visits == 2
    assert mid.q == pytest.approx(0.3)
    assert check_node_invariant(root) and check_node_invariant(mid)
    leaf.edge_visits += 1  # break it on purpose
    assert not check_node_invariant(mid)


def test_expand_orders_children_by_pooled_rank(rng):
    model = small_model(rng)
    state = SeqState.fully_masked(model.vocab, (), 3)
    node = SearchNode(state)
    cfg = replace(SearchConfig(), k1=2, k2=4, init_length=2)
    output = model.predict(state)
    kids = expand(node, output, cfg)
    assert len(kids) == 4
    priors = [k.prior for k in kids]
    assert priors == sorted(priors, reverse=True)
    assert [k.index for k in kids] == [0, 1, 2, 3]
    for k in kids:
        assert k.state.reveal_count() == 1
        assert k.state.tokens[k.action.position] == k.action.token
    with pytest.raises(AlreadyExpanded):
        expand(node, output, cfg)
    frozen = SearchNode(state)
    frozen.terminal = True
    with pytest.raises(AlreadyExpanded):
        expand(frozen, output, cfg)


# ---------------------------------------------------------------------------
# simulation


def total(model, state):
    """A search table row's total: the sum of masked_entropies at `state`;
    a complete state needs no prediction."""
    output = None if state.is_complete else model.predict(state)
    return float(masked_entropies(state, output).sum())


def simulate_action(model, state, action):
    """Simulate `action` at `state` from the parent's and the child's totals."""
    after = total(model, apply_action(state, action))
    return simulate(total(model, state), after)


def test_simulate_makes_no_model_call(rng):
    model = CountingDenoiser(small_model(rng))
    state = SeqState.fully_masked(model.vocab, (), 3)
    before = total(model, state)
    after = total(model, apply_action(state, UnmaskAction(1, 0)))
    calls = model.calls
    reward = simulate(before, after)
    # the search's table rows carry both totals; the reward reads only them
    assert model.calls == calls == 2
    assert reward == entropy_gain(before, after)


def test_simulate_completing_action_needs_no_second_call(rng):
    model = CountingDenoiser(xor_pair_model())
    state = apply_many(
        SeqState.fully_masked(model.vocab, (), 2), [UnmaskAction(0, 1)]
    )
    reward = simulate_action(model, state, UnmaskAction(1, 1))
    assert model.calls == 1  # only the before-total
    assert reward == pytest.approx(1.0, abs=1e-9)


def test_simulate_reward_matches_info_gain(rng):
    model = small_model(rng, length=3, vocab=3)
    state = SeqState.fully_masked(model.vocab, (), 3)
    reward = simulate_action(model, state, UnmaskAction(0, 1))
    # reward equals the information gain recomputed from the joint
    cells = oracles.cells_from_joint(model.joint)
    assert reward == pytest.approx(oracles.oracle_info_gain(cells, 3, 3, {}, 0, 1), abs=1e-12)


# ---------------------------------------------------------------------------
# pool and full search


def test_pool_rejects_duplicate_states():
    model = xor_pair_model()
    s = SeqState.fully_masked(model.vocab, (), 2)
    pool = CandidatePool(capacity=3)
    entry = CandidateEntry(0, s, (), 0.0, 0.0)
    assert pool.add(entry)
    assert not pool.add(replace(entry, order=1))
    assert len(pool.entries) == 1
    assert not pool.full


def test_search_rejects_bad_roots(rng):
    model = small_model(rng)
    cfg = replace(SearchConfig(), init_length=2)
    partly = apply_many(
        SeqState.fully_masked(model.vocab, (), 3), [UnmaskAction(0, 0)]
    )
    with pytest.raises(ConfigError):
        run_cgmcts(model, partly, cfg)
    with pytest.raises(ConfigError):
        run_cgmcts(model, SeqState.fully_masked(model.vocab, (), 3),
                   replace(cfg, init_length=9))


def test_search_depth_zero_pools_root_without_calls(rng):
    model = CountingDenoiser(small_model(rng))
    root = SeqState.fully_masked(model.vocab, (), 3)
    pool = run_cgmcts(model, root, replace(SearchConfig(), init_length=0))
    assert model.calls == 0
    assert len(pool.entries) == 1 and not pool.exhausted
    entry = pool.entries[0]
    assert entry.state == root and entry.path == () and entry.score == 0.0


def test_search_pools_consistent_entries(rng):
    model = small_model(rng, length=4, vocab=3)
    root = SeqState.fully_masked(model.vocab, (1,), 4)
    cfg = replace(SearchConfig(), init_length=3, candidate_count=3,
                  max_simulations=100, seed=5)
    pool = run_cgmcts(model, root, cfg)
    assert pool.full and not pool.exhausted
    cells = oracles.cells_from_joint(model.joint)
    root_total = oracles.oracle_profile_total(cells, 4, 3, {})
    seen = set()
    for i, entry in enumerate(pool.entries):
        assert entry.order == i
        assert entry.state.reveal_count() == 3
        assert len(entry.path) == 3
        # replaying the recorded path reproduces the pooled state
        assert apply_many(root, entry.path) == entry.state
        # score is the cumulative gain from the root and reward the gain of
        # the last action at its parent, both recomputed from the joint
        # (oracle positions count from the end of the one-token prompt)
        revealed = {a.position - 1: a.token for a in entry.path}
        want = (root_total - oracles.oracle_profile_total(cells, 4, 3, revealed)) / root_total
        assert entry.score == pytest.approx(want, abs=1e-12)
        *parent, last = entry.path
        want = oracles.oracle_info_gain(
            cells, 4, 3, {a.position - 1: a.token for a in parent}, last.position - 1, last.token
        )
        assert entry.reward == pytest.approx(want, abs=1e-12)
        assert entry.state.tokens not in seen
        seen.add(entry.state.tokens)
        obj = entry.to_json()
        assert set(obj) == {"order", "path", "reward", "score", "tokens"}


def test_search_is_deterministic(rng):
    model = small_model(rng, length=4, vocab=3)
    root = SeqState.fully_masked(model.vocab, (), 4)
    cfg = replace(SearchConfig(), init_length=2, candidate_count=3, seed=11)
    a = run_cgmcts(model, root, cfg)
    b = run_cgmcts(model, root, cfg)
    assert [e.path for e in a.entries] == [e.path for e in b.entries]
    assert [e.score for e in a.entries] == [e.score for e in b.entries]


def test_search_draws_no_random_numbers(rng):
    model = small_model(rng, length=5, vocab=3)
    root = SeqState.fully_masked(model.vocab, (), 5)
    cfg = replace(SearchConfig(), init_length=3, candidate_count=3, max_simulations=80)
    runs = []
    for seed in (1, 2):
        events = []
        pool = run_cgmcts(model, root, replace(cfg, seed=seed), trace=events.append)
        runs.append((pool.entries, pool.exhausted, events))
    assert runs[0] == runs[1]


def test_search_exhausts_small_budget(rng):
    model = small_model(rng, length=5, vocab=3)
    root = SeqState.fully_masked(model.vocab, (), 5)
    # budget == candidate_count is legal but far too small for depth 4
    cfg = replace(SearchConfig(), init_length=4, candidate_count=3,
                  max_simulations=3)
    pool = run_cgmcts(model, root, cfg)
    assert pool.exhausted
    assert len(pool.entries) < 3


def test_search_dedups_across_orderings():
    # two positions, two tokens: only 4 distinct depth-2 states exist, yet
    # 8 ordered paths reach them; the pool must never hold duplicates
    model = xor_pair_model()
    root = SeqState.fully_masked(model.vocab, (), 2)
    cfg = replace(SearchConfig(), k1=2, k2=4, init_length=2,
                  candidate_count=6, max_simulations=60)
    pool = run_cgmcts(model, root, cfg)
    assert pool.exhausted  # capacity 6 is unreachable
    states = [e.state.tokens for e in pool.entries]
    assert len(states) == len(set(states))
    assert len(states) <= 4


def test_search_trace_schema_and_budget_accounting(rng):
    model = small_model(rng, length=4, vocab=3)
    root = SeqState.fully_masked(model.vocab, (), 4)
    cfg = replace(SearchConfig(), init_length=3, candidate_count=3,
                  max_simulations=40, seed=2)
    events = []
    run_cgmcts(model, root, cfg, trace=events.append)
    assert events
    total_sims = 0
    for i, ev in enumerate(events):
        assert set(ev) == {"iter", "selected_path", "expanded_actions",
                           "reward", "pool_size"}
        assert ev["iter"] == i
        total_sims += len(ev["reward"])
    # the final expansion sweep may overshoot by at most k2 - 1
    assert total_sims <= cfg.budget + cfg.k2 - 1
    assert events[-1]["pool_size"] == 3


class RecordingDenoiser(CountingDenoiser):
    """CountingDenoiser that also records the tokens of every state it
    predicts, in call order, whether through predict or predict_many, and
    the size of each predict_many batch."""

    def __init__(self, inner):
        super().__init__(inner)
        self.states = []
        self.batches = []

    def predict(self, state):
        self.states.append(state.tokens)
        return super().predict(state)

    def predict_many(self, states):
        self.states.extend(state.tokens for state in states)
        self.batches.append(len(states))
        return super().predict_many(states)


class LoopingRecorder(RecordingDenoiser):
    """RecordingDenoiser whose predict_many is the base loop over predict,
    so each state is one predict call, as without read-ahead."""

    def predict_many(self, states):
        return Denoiser.predict_many(self, states)


def test_search_predicts_each_node_once(monkeypatch):
    # every state among the root and the children the search creates is
    # predicted exactly once, however many reveal orders reach it; on this
    # instance 70 nodes hold 49 distinct states
    model = RecordingDenoiser(random_calibrated_model(np.random.default_rng(0), 6, 3))
    root = SeqState.fully_masked(model.vocab, (), 6)
    cfg = SearchConfig(init_length=4, candidate_count=20, max_simulations=512, k2=3)
    created = [root.tokens]

    def recording_expand(node, output, cfg):
        children = expand(node, output, cfg)
        created.extend(ch.state.tokens for ch in children)
        return children

    monkeypatch.setattr(mcts, "expand", recording_expand)
    run_cgmcts(model, root, cfg)
    assert len(created) > len(set(created))  # the instance has transpositions
    assert model.calls == len(set(model.states)) == len(set(created))
    assert model.calls == len(model.states)
    assert max(model.batches) > 1  # expansions read their children ahead


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    length=st.integers(2, 5),
    vocab=st.integers(2, 3),
    prompt_len=st.integers(0, 1),
    init_length=st.integers(1, 5),
    k1=st.integers(1, 3),
    k2=st.integers(1, 6),
    candidate_count=st.integers(1, 6),
    budget=st.integers(1, 120),
)
# candidate_count < k2, so the final expansion fills the pool part-way
@example(seed=3, length=4, vocab=3, prompt_len=0, init_length=2, k1=3, k2=5,
         candidate_count=2, budget=40)
# the transposition instance of test_search_predicts_each_node_once
@example(seed=0, length=6, vocab=3, prompt_len=0, init_length=4, k1=3, k2=3,
         candidate_count=20, budget=512)
def test_property_read_ahead_predicts_what_one_call_per_state_would(
    seed, length, vocab, prompt_len, init_length, k1, k2, candidate_count, budget
):
    # batching an expansion's children into one predict_many call changes
    # neither which states are predicted, nor their order, nor the search:
    # the same as a predict_many that loops over predict, and as a search
    # without read-ahead, which predicts each state when its loop reads it
    assume(init_length <= length and budget >= candidate_count)
    inner = random_calibrated_model(np.random.default_rng(seed), length, vocab)
    root = SeqState.fully_masked(inner.vocab, (1,) * prompt_len, length)
    cfg = SearchConfig(k1=k1, k2=k2, candidate_count=candidate_count,
                       init_length=init_length, max_simulations=budget)
    models, runs = [], []
    for wrapper, read_ahead in ((RecordingDenoiser, mcts._read_ahead),
                                (LoopingRecorder, mcts._read_ahead),
                                (RecordingDenoiser, lambda *args: None)):
        model = wrapper(inner)
        events = []
        with patch.object(mcts, "_read_ahead", read_ahead):
            pool = run_cgmcts(model, root, cfg, trace=events.append)
        assert model.calls == len(model.states) == len(set(model.states))
        models.append(model)
        runs.append((model.states, pool.entries, pool.exhausted, events))
    assert runs[0] == runs[1] == runs[2]
    # with read-ahead, only the root is predicted on its own
    assert sum(models[0].batches) == models[0].calls - 1
