"""Unmasking-schedule analysis: entropy-gap costs and exact dependence errors.

A schedule is an ordered list of disjoint position sets revealed together.
Each step pays two quantities at its realized context:

* entropy gap B = sum of per-position predictive entropies minus their max,
  a model-only upper bound on how much joint structure a parallel commit
  can miss;
* dependence error, the KL divergence between the exact joint posterior
  over the step and the product of its per-position marginals (models with
  exact conditionals, subset_conditional, only).

For any calibrated model the dependence error never exceeds the gap
(pointwise per step), so summed gaps J upper-bound the total dependence
error of the whole schedule. verify_lemma1 checks that inequality
exhaustively; verify_theorem1 runs a UCT search over schedule space and
checks it converges on minimal-J schedules, beating greedy and random
baselines.

Every walk is a ScheduleCost, grown a step at a time by ScheduleCost.extend
with argmax commits, reading contexts from one per-call table
(mcts.StateTable) that each verifier shares across all its walks. A table
row holds its context's per-position entropies and argmax tokens, computed
once from the checked prediction, and, per step taken there, the step's
gap, dependence error and argmax child. A one-position step's dependence
error is zero by definition, so it asks for no joint. So no call predicts a
context twice or costs a (context, step) pair twice, however many
schedules, rollouts and expansions pass through it; schedule_costs walks
the schedule tree depth-first, extending each shared prefix once. A single
step's gap and dependence error are its one-step schedule_cost.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, combinations
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    BoundViolated,
    ConfigError,
    InstanceTooLarge,
    NoMaskedPositions,
    SubsetNotMasked,
)
from .mcts import SearchNode, StateTable, backpropagate, select_leaf
from .reward import masked_entropies
from .seqcore import SeqState, UnmaskAction, apply_many

ENUMERATION_CAP = 1_000_000  # most schedules an exhaustive call enumerates
TOL = 1e-9  # slack the verifiers allow their inequalities
C_EXPLORE = math.sqrt(2.0)  # UCB exploration constant of the schedule search
RANDOM_BASELINES = 5  # random schedules verify_theorem1 compares against


def _subset_check(state: SeqState, positions: Sequence[int]) -> tuple[int, ...]:
    """A step as sorted positions. Raises SubsetNotMasked for an empty step,
    a repeated position or a position not masked at `state`."""
    subset = tuple(sorted(int(p) for p in positions))
    if not subset:
        raise SubsetNotMasked("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise SubsetNotMasked(f"subset {list(subset)} repeats a position")
    masked = set(state.masked_index)
    bad = [p for p in subset if p not in masked]
    if bad:
        raise SubsetNotMasked(f"positions {bad} are not masked")
    return subset


def _dependence(joint: np.ndarray) -> float:
    """A step's dependence error, KL(joint posterior over the step || product
    of its marginals), from the exact joint with one axis per position."""
    log_prod = np.zeros_like(joint)
    for axis in range(joint.ndim):
        marg = joint.sum(axis=tuple(a for a in range(joint.ndim) if a != axis))
        shape = [1] * joint.ndim
        shape[axis] = -1
        with np.errstate(divide="ignore"):
            log_prod = log_prod + np.log(marg).reshape(shape)
    mask = joint > 0.0
    with np.errstate(divide="ignore"):
        kl = float((joint[mask] * (np.log(joint[mask]) - log_prod[mask])).sum())
    return max(kl, 0.0)


class _Step(NamedTuple):
    """One step's outcome at one context: its gap, its dependence error
    (None when not measured), and the argmax child with the tokens it
    committed."""

    gap: float
    dep: float | None
    child: SeqState
    committed: tuple[tuple[int, int], ...]


class _Context(NamedTuple):
    """A theory table row: a context, what its checked prediction gives
    per masked position, computed once (exact entropies, argmax tokens and
    a map from position to row), the exact joint over a step there (None
    when dependence is not measured) and, keyed by step, the outcome of
    each step taken there."""

    seq: SeqState
    ent: np.ndarray
    tokens: np.ndarray
    rows: dict[int, int]
    step_joint: Callable[[tuple[int, ...]], np.ndarray] | None
    steps: dict[tuple[int, ...], _Step]

    def step(self, positions: tuple[int, ...]) -> _Step:
        """The outcome of a step (sorted masked positions), worked out the
        first time the step is taken at this context by indexing the row's
        entropies and tokens. A one-position step's dependence error is 0.0
        by definition, so only a longer step asks for its joint."""
        memo = self.steps.get(positions)
        if memo is None:
            idx = [self.rows[p] for p in positions]
            ent = self.ent[idx]
            dep = None
            if self.step_joint is not None:
                dep = _dependence(self.step_joint(positions)) if len(positions) > 1 else 0.0
            committed = tuple(zip(positions, self.tokens[idx].tolist()))
            child = apply_many(self.seq, [UnmaskAction(p, t) for p, t in committed])
            gap = float(ent.sum() - ent.max())
            memo = self.steps[positions] = _Step(gap, dep, child, committed)
        return memo


def _contexts(model, with_dependence: bool = False) -> StateTable:
    """The table a theory call reads contexts through, one _Context per
    context: the masked entropies and argmax tokens of the model's
    prediction and, with dependence, the model's subset_conditional there,
    asked once for the joint over no positions so that a context with no
    mass raises ZeroMassContext. A verifier passes its own table as
    `model` to share it; it is returned as it is."""
    if isinstance(model, StateTable):
        return model
    if with_dependence and not hasattr(model, "subset_conditional"):
        raise ConfigError(
            "measuring dependence errors needs a model with exact conditionals"
            " (subset_conditional)"
        )

    def row(state: SeqState) -> _Context:
        output = model.predict(state)
        step_joint = partial(model.subset_conditional, state) if with_dependence else None
        if step_joint is not None:
            step_joint(())
        return _Context(
            state,
            masked_entropies(state, output),
            output.probs().argmax(axis=1),
            {p: i for i, p in enumerate(state.masked_index)},
            step_joint,
            {},
        )

    return StateTable(row)


class ScheduleCost(NamedTuple):
    """A schedule walked from a root: the context it reached, its steps
    (sorted positions), their gaps, their dependence errors (None when not
    measured) and the tokens it committed."""

    seq: SeqState
    steps: tuple[tuple[int, ...], ...] = ()
    per_step_gap: tuple[float, ...] = ()
    per_step_dep: tuple[float, ...] | None = None
    committed: tuple[tuple[int, int], ...] = ()

    @property
    def j(self) -> float:
        return float(sum(self.per_step_gap))

    @property
    def dep_total(self) -> float | None:
        return None if self.per_step_dep is None else float(sum(self.per_step_dep))

    def extend(self, table: StateTable, step: tuple[int, ...]) -> "ScheduleCost":
        """The walk one step longer: the step's gap, dependence error and
        argmax child, read from the table's row at seq."""
        out = table(self.seq).step(step)
        deps = None if self.per_step_dep is None else self.per_step_dep + (out.dep,)
        return ScheduleCost(
            out.child,
            self.steps + (step,),
            self.per_step_gap + (out.gap,),
            deps,
            self.committed + out.committed,
        )


def schedule_cost(
    model, root: SeqState, steps: Sequence[Sequence[int]], *, with_dependence: bool
) -> ScheduleCost:
    """Walk a schedule, a list of position sets, from `root`, committing
    each step's argmax tokens.

    Per step, at the context reached so far: the entropy gap and, with
    dependence, the exact dependence error (the model needs exact
    conditionals). Committed tokens are recorded so the walk is
    reproducible. Raises SubsetNotMasked for a step that _subset_check
    rejects at its context.
    """
    table = _contexts(model, with_dependence)
    cost = ScheduleCost(root, per_step_dep=() if with_dependence else None)
    for step in steps:
        cost = cost.extend(table, _subset_check(cost.seq, step))
    return cost


# ---------------------------------------------------------------------------
# schedule enumeration


def _check_sizes(m: int, k: int, step_size) -> None:
    """Check k steps over m positions: step_size None (free sizes, full
    cover) or an int (the size of every step). Every theory entry point
    calls it, so it holds the k >= 1 check."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if step_size is None:
        if k > m:
            raise ConfigError(f"cannot split {m} positions into {k} non-empty steps")
    elif not isinstance(step_size, int):
        raise ConfigError(f"step_size must be None or an int, got {step_size!r}")
    elif step_size < 1:
        raise ConfigError("step sizes must be >= 1")
    elif step_size * k > m:
        raise ConfigError(f"step sizes consume {step_size * k} of {m} positions")


def count_schedules(m: int, k: int, step_size=None) -> int:
    """Number of k-step schedules of m positions (see schedule_costs)."""
    _check_sizes(m, k, step_size)
    if step_size is not None:
        return math.prod(math.comb(m - i * step_size, step_size) for i in range(k))

    def free(m_left: int, k_left: int) -> int:
        if k_left == 1:
            return 1
        return sum(
            math.comb(m_left, s) * free(m_left - s, k_left - 1)
            for s in range(1, m_left - k_left + 2)
        )

    return free(m, k)


def _check_cap(root: SeqState, k: int, step_size) -> None:
    """Raise InstanceTooLarge past ENUMERATION_CAP k-step schedules of root's
    masked positions (and ConfigError for bad sizes)."""
    total = count_schedules(len(root.masked_index), k, step_size)
    if total > ENUMERATION_CAP:
        raise InstanceTooLarge(f"{total} schedules exceeds cap {ENUMERATION_CAP}")


def _next_step_choices(remaining: tuple[int, ...], k_left: int, step_size) -> list[tuple]:
    """Feasible next steps in lexicographic order."""
    if step_size is not None:
        return list(combinations(remaining, step_size))
    if k_left == 1:
        return [remaining]
    return [c for s in range(1, len(remaining) - k_left + 2) for c in combinations(remaining, s)]


def schedule_costs(
    model, root: SeqState, k: int, step_size=None, *, with_dependence: bool
) -> Iterator[ScheduleCost]:
    """Cost of every k-step schedule of root's masked positions, in
    lexicographic order, each as schedule_cost's argmax walk gives it.

    step_size None: every ordered partition of the masked positions into k
    non-empty steps (full cover). An int: that many positions per step,
    cover not required. Raises InstanceTooLarge past ENUMERATION_CAP
    schedules, and ConfigError for bad sizes, when called, before any model
    call.
    """
    _check_cap(root, k, step_size)
    start = ScheduleCost(root, per_step_dep=() if with_dependence else None)
    return _extensions(_contexts(model, with_dependence), start, k, step_size)


def _extensions(table: StateTable, prefix: ScheduleCost, k: int, step_size) -> Iterator:
    """Every k-step extension of a walk, depth-first in lexicographic order."""
    if len(prefix.steps) == k:
        yield prefix
        return
    for step in _next_step_choices(prefix.seq.masked_index, k - len(prefix.steps), step_size):
        yield from _extensions(table, prefix.extend(table, step), k, step_size)


def oracle_min_schedule(model, root: SeqState, k: int, step_size=None) -> ScheduleCost:
    """Exhaustive minimum-J schedule (ties: first in lexicographic order)."""
    costs = schedule_costs(model, root, k, step_size, with_dependence=False)
    return min(costs, key=lambda c: c.j)


def _walk(table: StateTable, cost: ScheduleCost, k: int, step_size, choose: Callable):
    """Extend a walk to k steps with argmax commits. At each context,
    choose(row, choices) picks the next step among the feasible ones, given
    the table's row there. The cost has no dependence terms."""
    while len(cost.steps) < k:
        choices = _next_step_choices(cost.seq.masked_index, k - len(cost.steps), step_size)
        cost = cost.extend(table, choose(table(cost.seq), choices))
    return cost


def greedy_schedule(model, root: SeqState, k: int, step_size=None) -> ScheduleCost:
    """Baseline: pick the feasible next step of minimal gap at each context."""

    def least_gap(row: _Context, choices):
        best_step, best_gap = None, None
        for step in choices:
            gap = row.step(step).gap
            if best_gap is None or gap < best_gap - 1e-15:
                best_step, best_gap = step, gap
        return best_step

    _check_sizes(len(root.masked_index), k, step_size)
    return _walk(_contexts(model), ScheduleCost(root), k, step_size, least_gap)


def _uniform_choice(rng: np.random.Generator) -> Callable:
    return lambda row, choices: choices[int(rng.integers(len(choices)))]


def random_schedule(
    model, root: SeqState, k: int, rng: np.random.Generator, step_size=None
) -> ScheduleCost:
    """Baseline: uniform feasible step at each context, argmax commits."""
    _check_sizes(len(root.masked_index), k, step_size)
    return _walk(_contexts(model), ScheduleCost(root), k, step_size, _uniform_choice(rng))


# ---------------------------------------------------------------------------
# UCT over schedule space (reuses the generic tree pieces from mcts)


def search_schedules(
    model,
    root: SeqState,
    k: int,
    budget: int,
    *,
    step_size=None,
    seed: int = 0,
    snapshots: Sequence[int] | None = None,
) -> tuple[ScheduleCost, dict[int, float]]:
    """UCT over schedule prefixes minimizing J (reward is -J of completions).

    Returns the cost of the best complete schedule found, as walked by the
    search (it equals schedule_cost's argmax walk without dependence), and,
    when `snapshots` is given, the best J after each listed iteration count
    (best-so-far, so snapshot values are non-increasing).

    The search stops early once the tree is complete (every non-terminal
    node expanded; the MCTS-Solver stop of Winands, Bjornsson & Saito,
    2008): from then on an iteration only re-selects a complete schedule,
    so the best schedule and every later snapshot are what the full budget
    would give. Raises ConfigError for a budget below 1.
    """
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    _check_sizes(len(root.masked_index), k, step_size)
    table = _contexts(model)
    rng = np.random.default_rng(seed)
    marks = sorted(set(snapshots)) if snapshots else []
    snap: dict[int, float] = {}

    best: ScheduleCost | None = None  # set by the first iteration's expansion

    def consider(cost: ScheduleCost) -> float:
        nonlocal best
        if best is None or cost.j < best.j - 1e-15:
            best = cost
        return cost.j

    uniform = _uniform_choice(rng)
    root_node = SearchNode(ScheduleCost(root))
    unexpanded = 1  # non-terminal nodes without children

    for it in range(budget):
        if not unexpanded:  # a complete tree: the rest of the budget changes nothing
            snap.update((mark, best.j) for mark in marks if it < mark <= budget)
            break
        node, path = select_leaf(root_node, C_EXPLORE)
        if node.terminal:
            backpropagate(path, node.terminal_reward)
        else:
            here: ScheduleCost = node.state
            unexpanded -= 1
            for step in _next_step_choices(here.seq.masked_index, k - len(here.steps), step_size):
                prefix = here.extend(table, step)
                child = SearchNode(
                    prefix, action=step, prior=-prefix.per_step_gap[-1], index=len(node.children)
                )
                node.children.append(child)
                if len(prefix.steps) == k:
                    child.terminal = True
                    child.terminal_reward = reward = -consider(prefix)
                else:
                    unexpanded += 1
                    # rollout: finish the prefix with uniform random steps
                    reward = -consider(_walk(table, prefix, k, step_size, uniform))
                backpropagate(path + [(node, child)], reward)

        if it + 1 in marks:
            snap[it + 1] = best.j

    return best, snap


# ---------------------------------------------------------------------------
# verifiers


def verify_lemma1(model, root: SeqState) -> dict:
    """Check sum(DepErr) <= sum(B) + TOL on every full-cover schedule of
    every step count.

    Returns a report with the tightest approach to equality; raises
    BoundViolated with the offending schedule otherwise,
    NoMaskedPositions for a root with nothing to schedule, and
    InstanceTooLarge, before any model call, when a step count has more
    than ENUMERATION_CAP schedules.
    """
    if not root.masked_index:
        raise NoMaskedPositions("verify_lemma1 needs a root with masked positions")
    checked = 0
    max_excess = float("-inf")
    min_slack = float("inf")
    tightest: ScheduleCost | None = None
    table = _contexts(model, with_dependence=True)  # shared by every step count
    ks = range(1, len(root.masked_index) + 1)
    # each step count's enumeration checks its size when created, before any model call
    walks = [schedule_costs(table, root, k, with_dependence=True) for k in ks]
    for cost in chain.from_iterable(walks):
        dep, gap = cost.dep_total, cost.j
        excess = dep - gap
        if excess > TOL:
            raise BoundViolated(
                f"dependence {dep} exceeds gap {gap} on schedule {[list(s) for s in cost.steps]}"
            )
        if excess > max_excess:
            max_excess = excess
        if gap - dep < min_slack:
            min_slack = gap - dep
            tightest = cost
        checked += 1
    return {
        "schedules_checked": checked,
        "max_excess": max_excess,
        "min_slack": min_slack,
        "tightest_schedule": None if tightest is None else [list(s) for s in tightest.steps],
        "tol": TOL,
    }


def verify_theorem1(
    model,
    root: SeqState,
    k: int,
    budgets: Sequence[int],
    *,
    step_size=None,
    seed: int = 0,
) -> dict:
    """Convergence and dominance report for the schedule search.

    Runs one seeded search to the largest budget, snapshotting best J at
    each requested budget; asserts the snapshots are non-increasing and
    that the final J is <= greedy's and each of RANDOM_BASELINES random
    schedules' J + TOL.
    The exhaustive oracle minimum is included for ratio checks; past
    ENUMERATION_CAP schedules it raises InstanceTooLarge before the search,
    so before any model call. The search stops once its tree is complete
    (search_schedules), so a budget past that point costs nothing and
    reports the same J as the full run would.
    """
    budgets = sorted(set(int(b) for b in budgets))
    if not budgets or budgets[0] < 1:
        raise ConfigError("budgets must be positive")
    table = _contexts(model)  # shared by the search, the oracle and the baselines
    _check_cap(root, k, step_size)  # the oracle's, before the search's model calls
    best, snaps = search_schedules(
        table,
        root,
        k,
        budgets[-1],
        step_size=step_size,
        seed=seed,
        snapshots=budgets,
    )
    j_by_budget = [snaps[b] for b in budgets]
    for earlier, later in zip(j_by_budget, j_by_budget[1:]):
        if later > earlier + TOL:
            raise BoundViolated(
                f"best J regressed with budget: {j_by_budget} at budgets {budgets}"
            )
    oracle = oracle_min_schedule(table, root, k, step_size)
    greedy = greedy_schedule(table, root, k, step_size)
    rng = np.random.default_rng(seed + 1)
    randoms = [
        random_schedule(table, root, k, rng, step_size).j
        for _ in range(RANDOM_BASELINES)
    ]
    final_j = j_by_budget[-1]
    if final_j > greedy.j + TOL:
        raise BoundViolated(f"search J {final_j} worse than greedy {greedy.j}")
    for rj in randoms:
        if final_j > rj + TOL:
            raise BoundViolated(f"search J {final_j} worse than a random baseline {rj}")
    return {
        "budgets": budgets,
        "j_by_budget": j_by_budget,
        "j_final": final_j,
        "j_oracle": oracle.j,
        "j_greedy": greedy.j,
        "j_random": randoms,
        "best_schedule": [list(s) for s in best.steps],
        "oracle_schedule": [list(s) for s in oracle.steps],
    }
