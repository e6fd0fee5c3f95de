"""Confidence-guided MCTS over unmasking prefixes.

One search iteration walks the tree from the root by UCB through already
expanded nodes, then drives a descent: expand the frontier node into its
pooled top-k2 scored actions, simulate every new child once, backpropagate
each child's information-gain reward along the shared path, and step to
the best child, repeating until the descent reaches init_length revealed
tokens. Expansion builds each child state once. A search predicts each
state once: its StateTable keeps the prediction and the entropy profile
read from it, which the state's rewards, rollout, pool entry and
expansion read, whichever reveal order reached it. Nodes at init_length
revealed tokens enter the candidate pool;
they stay selectable but are never expanded, and re-selecting one
backpropagates its stored creation reward. The per-iteration descent is
what lets a budget of 64 * candidate_count simulations reach pool depth:
one descent costs about init_length * k2 simulations and its final
expansion delivers up to k2 candidates at once. The search stops when the
pool holds candidate_count entries or the simulation budget runs out (the
pool is then returned short, flagged exhausted).

SearchNode, ucb_select, select_leaf, backpropagate and StateTable are
generic over the state/action payload: the schedule-space search in the
theory module reuses them with set-valued actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import jsonspec, kernels
from .errors import AlreadyExpanded, ConfigError, NoChildren
from .reward import EntropyProfile, RewardRecord, entropy_gain
from .scoring import DEFAULT_EPSILON, DEFAULT_GAMMA, build_candidates
from .seqcore import SeqState, UnmaskAction, apply_action, apply_many


@dataclass(frozen=True)
class SearchConfig:
    k1: int = 3
    k2: int = 5
    gamma: float = DEFAULT_GAMMA
    epsilon: float = DEFAULT_EPSILON
    c_explore: float = math.sqrt(2.0)
    candidate_count: int = 3
    init_length: int = 20
    max_simulations: int | None = None  # None -> 64 * candidate_count
    seed: int = 1
    rollout_mode: str = "sample"
    use_entropy_penalty: bool = True

    @property
    def budget(self) -> int:
        if self.max_simulations is None:
            return 64 * self.candidate_count
        return self.max_simulations

    def validate(self) -> None:
        if self.k1 < 1 or self.k2 < 1:
            raise ConfigError("k1 and k2 must be >= 1")
        if not 0 < self.gamma < math.inf:  # False for NaN and +-inf too
            raise ConfigError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 <= self.c_explore < math.inf:
            raise ConfigError(f"c_explore must be finite and >= 0, got {self.c_explore}")
        if self.candidate_count < 1:
            raise ConfigError("candidate_count must be >= 1")
        if self.init_length < 0:
            raise ConfigError("init_length must be >= 0")
        if self.budget < self.candidate_count:
            raise ConfigError("simulation budget below candidate_count")
        if self.rollout_mode not in kernels.PICK_MODES:
            raise ConfigError(f"unknown rollout_mode {self.rollout_mode!r}")

    to_json = jsonspec.to_json
    from_json = classmethod(jsonspec.from_json)


class SearchNode:
    """Tree node; edge statistics live on the child of the edge.

    visit_count follows N(x) = sum_a N(x, a) + 1: a node is born visited
    once, and grows by one each time a reward passes through it as a parent.
    Predictions at the node's state live in the search's StateTable.
    """

    __slots__ = (
        "state",
        "action",
        "prior",
        "index",
        "children",
        "terminal",
        "terminal_reward",
        "visit_count",
        "edge_visits",
        "edge_value",
    )

    def __init__(self, state: Any, action: Any = None, prior: float = 0.0, index: int = 0):
        self.state = state
        self.action = action
        self.prior = prior
        self.index = index
        self.children: list[SearchNode] = []
        self.terminal = False
        self.terminal_reward = 0.0
        self.visit_count = 1
        self.edge_visits = 0
        self.edge_value = 0.0

    @property
    def q(self) -> float:
        return self.edge_value / self.edge_visits if self.edge_visits else 0.0


def ucb_select(node: SearchNode, c_explore: float) -> SearchNode:
    """The child maximizing Q + c * sqrt(ln N(x) / N(x, a)).

    Unvisited children are taken first, highest prior score leading. All
    ties resolve by creation order, which expansion builds as (score desc,
    position asc, token asc).
    """
    if not node.children:
        raise NoChildren("cannot select from a node with no children")
    unvisited = [ch for ch in node.children if ch.edge_visits == 0]
    if unvisited:
        return max(unvisited, key=lambda ch: (ch.prior, -ch.index))
    log_n = math.log(node.visit_count)

    def key(ch: SearchNode):
        bonus = c_explore * math.sqrt(log_n / ch.edge_visits)
        return (ch.q + bonus, ch.prior, -ch.index)

    return max(node.children, key=key)


def select_leaf(root: SearchNode, c_explore: float) -> tuple[SearchNode, list]:
    """Descend by ucb_select through expanded, non-terminal nodes; returns
    the node reached and the (parent, child) edges taken, root first."""
    node, path = root, []
    while node.children and not node.terminal:
        child = ucb_select(node, c_explore)
        path.append((node, child))
        node = child
    return node, path


def backpropagate(path: list[tuple[SearchNode, SearchNode]], reward: float) -> None:
    """Add one visit and `reward` along (parent, child) edges, root first."""
    for parent, child in path:
        parent.visit_count += 1
        child.edge_visits += 1
        child.edge_value += reward


def check_node_invariant(node: SearchNode) -> bool:
    return node.visit_count == sum(ch.edge_visits for ch in node.children) + 1


class StateTable(dict):
    """One search or verifier call's rows, keyed by state.tokens: make(state)
    builds a state's row when the state is first reached. Predictions are
    pure functions of the state, so every path to a state shares its row."""

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self.make = make

    def __call__(self, state):
        row = self.get(state.tokens)
        if row is None:
            row = self[state.tokens] = self.make(state)
        return row


def expand(node: SearchNode, output, cfg: SearchConfig) -> list[SearchNode]:
    """Create children for the pooled top-k2 actions of node.state, scored
    from `output`, the model's prediction there."""
    if node.children:
        raise AlreadyExpanded("node already expanded")
    if node.terminal:
        raise AlreadyExpanded("pool nodes are frozen; they cannot expand")
    cands = build_candidates(
        node.state,
        output,
        cfg.k1,
        cfg.k2,
        cfg.gamma,
        cfg.epsilon,
        use_entropy_penalty=cfg.use_entropy_penalty,
    )
    node.children = [
        SearchNode(apply_action(node.state, action), action, prior=score, index=i)
        for i, (action, score) in enumerate(cands.pooled)
    ]
    return list(node.children)


def simulate(
    before: EntropyProfile,
    child: SearchNode,
    output,
    after: EntropyProfile,
    rng: np.random.Generator,
    *,
    mode: str = "sample",
) -> tuple[RewardRecord, SeqState]:
    """Reward child.action and roll child.state out to completion.

    `before` is the parent's entropy profile; `output` and `after` are the
    search table's row at child.state (output None when the action completed
    the sequence). The reward and the rollout both read that one prediction,
    so a simulation makes no model call.
    """
    record = RewardRecord.of(child.action, before, after)
    positions = after.positions
    if not positions:
        return record, child.state
    tokens = kernels.pick_tokens(output.probs(positions), mode, rng)
    acts = [UnmaskAction(p, int(t)) for p, t in zip(positions, tokens)]
    return record, apply_many(child.state, acts)


def _profiled(model, state: SeqState) -> tuple[Any, EntropyProfile]:
    """A search's table row: the prediction at `state` (None when complete)
    and the entropy profile read from it, which checks it."""
    output = None if state.is_complete else model.predict(state)
    return output, EntropyProfile.of(state, output)


@dataclass(frozen=True)
class CandidateEntry:
    """A pooled initialization: a state with init_length revealed tokens."""

    order: int
    state: SeqState
    path: tuple[UnmaskAction, ...]
    reward: float  # r_ig at creation
    score: float  # cumulative gain from the root
    completion: SeqState
    # the model's prediction at `state`, made for the simulation that
    # created the entry (None when none was made); finishing starts from it
    output: Any = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "path": [[a.position, a.token] for a in self.path],
            "reward": self.reward,
            "score": self.score,
            "tokens": list(self.state.tokens),
        }


@dataclass
class CandidatePool:
    capacity: int
    entries: list[CandidateEntry] = field(default_factory=list)
    exhausted: bool = False  # budget ran out before the pool filled
    _seen: set[tuple[int, ...]] = field(default_factory=set)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def add(self, entry: CandidateEntry) -> bool:
        """Insert unless an identical state is pooled already."""
        key = entry.state.tokens
        if key in self._seen:
            return False
        self._seen.add(key)
        self.entries.append(entry)
        return True


def run_cgmcts(
    model,
    root_state: SeqState,
    cfg: SearchConfig,
    *,
    rng: np.random.Generator | None = None,
    trace: Callable[[dict], None] | None = None,
) -> CandidatePool:
    """Search for candidate_count high-value prefixes of depth init_length.

    The root's generation region must be fully masked. max_simulations
    budgets child simulations (a re-selected pool node costs one); the
    final expansion of a descent may overshoot by at most k2 - 1 so that
    sibling candidates are never half-created. init_length == 0
    short-circuits to a pool holding only the root (no search, no model
    calls); decode skips the search itself at that depth, so only callers
    of the search stage alone (mcts-init) reach it.
    """
    cfg.validate()
    if root_state.reveal_count() != 0:
        raise ConfigError("search root must have a fully masked generation region")
    if cfg.init_length > root_state.gen_length:
        raise ConfigError("init_length exceeds the generation region")
    pool = CandidatePool(capacity=cfg.candidate_count)
    if cfg.init_length == 0:
        pool.add(
            CandidateEntry(
                order=0,
                state=root_state,
                path=(),
                reward=0.0,
                score=0.0,
                completion=root_state,
            )
        )
        return pool
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    table = StateTable(lambda state: _profiled(model, state))
    root = SearchNode(root_state)

    sims = 0
    it = 0
    while sims < cfg.budget and not pool.full:
        node, path = select_leaf(root, cfg.c_explore)
        selected = [[c.action.position, c.action.token] for _, c in path]
        expanded_actions: list[list[int]] = []
        rewards: list[float] = []

        if node.terminal:
            backpropagate(path, node.terminal_reward)
            rewards.append(node.terminal_reward)
            sims += 1
        else:
            # descend: expand level by level toward the pool depth
            while not node.terminal and not pool.full and sims < cfg.budget:
                prefix = tuple(c.action for _, c in path)
                output, before = table(node.state)
                for child in expand(node, output, cfg):
                    child_output, after = table(child.state)
                    record, completion = simulate(
                        before, child, child_output, after, rng, mode=cfg.rollout_mode
                    )
                    sims += 1
                    backpropagate(path + [(node, child)], record.r_ig)
                    expanded_actions.append(
                        [child.action.position, child.action.token]
                    )
                    rewards.append(record.r_ig)
                    if child.state.reveal_count() >= cfg.init_length:
                        child.terminal = True
                        child.terminal_reward = record.r_ig
                        pool.add(
                            CandidateEntry(
                                order=len(pool.entries),
                                state=child.state,
                                path=prefix + (child.action,),
                                reward=record.r_ig,
                                score=entropy_gain(table(root_state)[1].total, after.total),
                                completion=completion,
                                output=child_output,
                            )
                        )
                        if pool.full:
                            break
                if pool.full or not node.children:
                    break
                child = ucb_select(node, cfg.c_explore)
                path.append((node, child))
                node = child

        if trace is not None:
            trace(
                {
                    "iter": it,
                    "selected_path": selected,
                    "expanded_actions": expanded_actions,
                    "reward": rewards,
                    "pool_size": len(pool.entries),
                }
            )
        it += 1

    if not pool.full:
        pool.exhausted = True
    return pool
