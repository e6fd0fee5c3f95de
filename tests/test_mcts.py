"""Search tree mechanics and the confidence-guided initialization search."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from medal.denoisers import CountingDenoiser, TabularModel
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
from medal.reward import EntropyProfile, cumulative_gain, entropy_profile, info_gain
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
        {"rollout_mode": "beam"},
    ]:
        with pytest.raises(ConfigError):
            replace(SearchConfig(), **bad).validate()


def test_config_json_round_trip():
    cfg = replace(SearchConfig(), k2=7, rollout_mode="argmax", max_simulations=50)
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


def simulate_action(model, state, action, rng, **kw):
    """Simulate `action` at `state` the way the search does: the parent's
    profile, the child built once, one prediction at the child and the
    profile read from it."""
    child = SearchNode(apply_action(state, action), action)
    output = None if child.state.is_complete else model.predict(child.state)
    after = EntropyProfile.of(child.state, output)
    return simulate(entropy_profile(model, state), child, output, after, rng, **kw)


def test_simulate_costs_one_call_and_completes(rng):
    model = CountingDenoiser(small_model(rng))
    state = SeqState.fully_masked(model.vocab, (), 3)
    action = UnmaskAction(1, 0)
    before = entropy_profile(model, state)
    child = SearchNode(apply_action(state, action), action)
    output = model.predict(child.state)
    after = EntropyProfile.of(child.state, output)
    calls = model.calls
    record, completion = simulate(
        before, child, output, after, np.random.default_rng(0), mode="sample"
    )
    # the one prediction at the child serves both the reward and the rollout
    assert model.calls == calls == 2
    assert completion.is_complete
    assert completion.tokens[1] == 0
    assert record.action == action


def test_simulate_completing_action_needs_no_second_call(rng):
    model = CountingDenoiser(xor_pair_model())
    state = apply_many(
        SeqState.fully_masked(model.vocab, (), 2), [UnmaskAction(0, 1)]
    )
    gen = np.random.default_rng(0)
    record, completion = simulate_action(model, state, UnmaskAction(1, 1), gen)
    assert model.calls == 1  # only the before-profile
    assert completion.is_complete
    assert record.r_ig == pytest.approx(1.0, abs=1e-9)


def test_simulate_argmax_matches_marginal_argmax(rng):
    model = small_model(rng, length=3, vocab=3)
    state = SeqState.fully_masked(model.vocab, (), 3)
    gen = np.random.default_rng(3)
    record, completion = simulate_action(model, state, UnmaskAction(0, 1), gen, mode="argmax")
    nxt = apply_action(state, UnmaskAction(0, 1))
    out = model.predict(nxt)
    for p in (1, 2):
        probs = np.exp(out.logits[p])
        assert completion.tokens[p] == int(np.argmax(probs / probs.sum()))
    # reward identical to the standalone computation
    ref = info_gain(model, state, UnmaskAction(0, 1))
    assert record.r_ig == pytest.approx(ref.r_ig, abs=1e-12)


def test_simulate_sample_mode_is_seed_deterministic(rng):
    model = small_model(rng, length=4, vocab=3)
    state = SeqState.fully_masked(model.vocab, (), 4)
    one = simulate_action(model, state, UnmaskAction(2, 1), np.random.default_rng(7))[1]
    two = simulate_action(model, state, UnmaskAction(2, 1), np.random.default_rng(7))[1]
    assert one == two


# ---------------------------------------------------------------------------
# pool and full search


def test_pool_rejects_duplicate_states():
    model = xor_pair_model()
    s = SeqState.fully_masked(model.vocab, (), 2)
    pool = CandidatePool(capacity=3)
    entry = CandidateEntry(0, s, (), 0.0, 0.0, s)
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
    seen = set()
    for i, entry in enumerate(pool.entries):
        assert entry.order == i
        assert entry.state.reveal_count() == 3
        assert len(entry.path) == 3
        # replaying the recorded path reproduces the pooled state
        assert apply_many(root, entry.path) == entry.state
        assert entry.completion.is_complete
        # pooled score is the cumulative gain from the root, recomputable
        want = cumulative_gain(model, root, entry.state)
        assert entry.score == pytest.approx(want, abs=1e-12)
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
    assert [e.completion.tokens for e in a.entries] == [
        e.completion.tokens for e in b.entries
    ]


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
    predicts, in call order."""

    def __init__(self, inner):
        super().__init__(inner)
        self.states = []

    def predict(self, state):
        self.states.append(state.tokens)
        return super().predict(state)


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
