"""Confidence-guided MCTS over unmasking prefixes.

One search iteration walks the tree from the root by UCB through already
expanded nodes, then drives a descent: expand the frontier node into its
pooled top-k2 scored actions, simulate every new child once (its
information-gain reward, read right after the action), backpropagate
each reward along the shared path, and step to the best child, repeating
until the descent reaches init_length revealed tokens. Expansion builds
each child state once. A search predicts each state once: its StateTable
keeps the prediction and its total masked entropy, which the state's
rewards, pool entry and expansion read, whichever reveal order reached it.
Before simulating, an expansion reads ahead: the children its loop will
read and the table lacks go to the model in one predict_many
call (all children, or at pool depth the prefix that fills the pool), so
a served model gets one batch of requests per expansion. The search
draws no random numbers. Nodes at init_length revealed tokens enter the
candidate pool; they stay selectable but are never expanded, and
re-selecting one backpropagates its stored creation reward. The
per-iteration descent is what lets a budget of 64 * candidate_count
simulations reach pool depth: one descent costs about init_length * k2
simulations and its final expansion delivers up to k2 candidates at
once. The search stops when the pool holds candidate_count entries or
the simulation budget runs out (the pool is then returned short, flagged
exhausted).

SearchNode, ucb_select, select_leaf, backpropagate and StateTable are
generic over the state/action payload: the schedule-space search in the
theory module reuses them with set-valued actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from . import jsonspec
from .errors import AlreadyExpanded, ConfigError, NoChildren
from .reward import entropy_gain, masked_entropies
from .scoring import DEFAULT_EPSILON, DEFAULT_GAMMA, build_candidates
from .seqcore import SeqState, UnmaskAction, apply_action


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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
    ties resolve by the higher prior, then by creation order, which
    expansion builds as (score desc, position asc, token asc).
    """
    children = node.children
    if not children:
        raise NoChildren("cannot select from a node with no children")
    unvisited = [ch for ch in children if ch.edge_visits == 0]
    if unvisited:
        return max(unvisited, key=lambda ch: (ch.prior, -ch.index))
    log_n = math.log(node.visit_count)
    best, best_u = None, -math.inf
    for ch in children:
        u = ch.edge_value / ch.edge_visits + c_explore * math.sqrt(log_n / ch.edge_visits)
        if (
            u > best_u
            or best is None
            or (
                u == best_u
                and (ch.prior > best.prior or (ch.prior == best.prior and ch.index < best.index))
            )
        ):
            best, best_u = ch, u
    return best


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


def simulate(before: float, after: float) -> float:
    """The simulation step: the reward of an action, from the parent's total
    masked entropy `before` and the child's `after` (both read from rows of
    the search's table, so a simulation makes no model call)."""
    return entropy_gain(before, after)


def _row(state: SeqState, output) -> tuple[Any, float]:
    """A search's table row: the prediction at `state` (None when complete)
    and the total of its masked entropies, whose read checks it."""
    return output, float(masked_entropies(state, output).sum())


def _read_ahead(
    model, table: StateTable, children: list[SearchNode], pool: CandidatePool, cfg: SearchConfig
) -> None:
    """Predict, in one predict_many call, the children an expansion's loop
    will read that the table lacks: every child, or at pool depth only the
    prefix that fills the pool (states pooled already add no entry)."""
    if children and children[0].state.reveal_count() >= cfg.init_length:
        room = pool.capacity - len(pool.entries)
        for i, child in enumerate(children):
            if child.state.tokens not in pool:
                room -= 1
                if room == 0:
                    children = children[: i + 1]
                    break
    states = [c.state for c in children if c.state.tokens not in table and not c.state.is_complete]
    for state, output in zip(states, model.predict_many(states)):
        table[state.tokens] = _row(state, output)


@dataclass(frozen=True)
class CandidateEntry:
    """A pooled initialization: a state with init_length revealed tokens."""

    order: int
    state: SeqState
    path: tuple[UnmaskAction, ...]
    reward: float  # r_ig at creation
    score: float  # cumulative gain from the root
    # the search table's prediction at `state` (None when the state is
    # complete); finishing starts from it
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

    def __contains__(self, tokens: tuple[int, ...]) -> bool:
        return tokens in self._seen

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
            )
        )
        return pool

    table = StateTable(
        lambda state: _row(state, None if state.is_complete else model.predict(state))
    )
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
                children = expand(node, output, cfg)
                _read_ahead(model, table, children, pool, cfg)
                for child in children:
                    child_output, after = table(child.state)
                    reward = simulate(before, after)
                    sims += 1
                    backpropagate(path + [(node, child)], reward)
                    expanded_actions.append(
                        [child.action.position, child.action.token]
                    )
                    rewards.append(reward)
                    if child.state.reveal_count() >= cfg.init_length:
                        child.terminal = True
                        child.terminal_reward = reward
                        pool.add(
                            CandidateEntry(
                                order=len(pool.entries),
                                state=child.state,
                                path=prefix + (child.action,),
                                reward=reward,
                                score=entropy_gain(table(root_state)[1], after),
                                output=child_output,
                            )
                        )
                        if pool.full:
                            break
                if pool.full:
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
