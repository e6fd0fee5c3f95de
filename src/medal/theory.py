"""Unmasking-schedule analysis: entropy-gap costs and exact dependence errors.

A schedule is an ordered list of disjoint position sets revealed together.
Each step pays two quantities at its realized context:

* entropy gap B = sum of per-position predictive entropies minus their max,
  a model-only upper bound on how much joint structure a parallel commit
  can miss;
* dependence error, the KL divergence between the exact joint posterior
  over the step and the product of its per-position marginals (models with
  exact conditionals, step_joints, only).

For any calibrated model the dependence error never exceeds the gap
(pointwise per step), so summed gaps J upper-bound the total dependence
error of the whole schedule. verify_lemma1 checks that inequality
exhaustively; verify_theorem1 runs a UCT search over schedule space (the
loop of mcts.iterate, with uniform rollouts) and checks it converges on
minimal-J schedules, beating greedy and random baselines.

Every walk is a ScheduleCost, grown a step at a time by ScheduleCost.extend
with argmax commits, reading contexts from one per-call table
(mcts.StateTable) that each verifier shares across all its walks. A table
row holds its context's per-position entropies and argmax tokens, computed
once from the checked prediction, the model's exact-conditional handle
there (step_joints, asked once per context when dependence is measured;
it checks the context's mass) and, per step taken there, the step's gap,
dependence error and argmax child. A one-position step's dependence error
is zero by definition, so it asks for no joint. So no call predicts a
context twice or costs a (context, step) pair twice, however many
schedules, rollouts and expansions pass through it; schedule_costs walks
the schedule tree depth-first, extending each shared prefix once. A
ScheduleCost holds only the context reached, the steps and two running
totals, J and the summed dependence errors; each step's own values live
in its row. The totals are added to in step order, so each is the same
left-to-right float sum on every Python version. A table measures
dependence errors or does not, as it was built; a call that passes one
built the other way raises ConfigError.

An expansion (of a prefix in schedule_costs' walk, or of a node in the
schedule search) extends every feasible next step first, then reads
ahead: the rows of the children it will extend further that the table
lacks are built as one batch, with one predict_many call, one
masked_entropies pass and one argmax over the stacked softmax. A context
whose mass check fails is left out of its batch, so ZeroMassContext is
raised where a walk first reads it, after the same schedules as when
rows are built one at a time. greedy_schedule, random_schedule and
schedule_cost read one context at a time. A single step's gap and
dependence error are its one-step schedule_cost.

The counts these functions take (k, step_size, budget, budgets, seed)
must be integers, Python's or numpy's; anything else, a bool included,
raises ConfigError naming the argument.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .denoisers import DenoiserOutput, marginal_axes
from .errors import (
    BoundViolated,
    ConfigError,
    InstanceTooLarge,
    NoMaskedPositions,
    SubsetNotMasked,
    ZeroMassContext,
)
from .mcts import SearchNode, StateTable, backpropagate, iterate
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
    shape = [1] * joint.ndim
    with np.errstate(divide="ignore"):
        for axis, other in enumerate(marginal_axes(joint.ndim)):
            shape[axis] = -1
            log_prod += np.log(joint.sum(axis=other)).reshape(shape)
            shape[axis] = 1
        mask = joint > 0.0
        kl = float((joint[mask] * (np.log(joint[mask]) - log_prod[mask])).sum())
    return max(kl, 0.0)


class _Step(NamedTuple):
    """One step's outcome at one context: its gap, its dependence error
    (None when not measured), and the argmax child, whose tokens at the
    step's positions are the step's argmax commits."""

    gap: float
    dep: float | None
    child: SeqState


class _Context(NamedTuple):
    """A theory table row: a context, what its checked prediction gives
    per masked position, computed once (exact entropies, argmax tokens and
    a map from position to row), the model's step_joints handle there
    (None when dependence is not measured) and, keyed by step, the outcome
    of each step taken there."""

    seq: SeqState
    ent: np.ndarray
    tokens: np.ndarray
    rows: dict[int, int]
    step_joints: Callable[[tuple[int, ...]], np.ndarray] | None
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
            if self.step_joints is not None:
                dep = _dependence(self.step_joints(positions)) if len(positions) > 1 else 0.0
            tokens = self.tokens[idx].tolist()
            child = apply_many(self.seq, [UnmaskAction(p, t) for p, t in zip(positions, tokens)])
            memo = self.steps[positions] = _Step(float(ent.sum() - ent.max()), dep, child)
        return memo


def _contexts(model, with_dependence: bool = False) -> StateTable:
    """The table a theory call reads contexts through, one _Context per
    context: the masked entropies and argmax tokens of the model's
    prediction and, with dependence, the model's step_joints handle there,
    whose mass check raises ZeroMassContext at a context with no mass. A
    batch of contexts is built with one predict_many call, one
    masked_entropies pass and one argmax over the stacked softmax; a
    context whose mass check fails is left out of its batch, so the error
    is raised where a walk first reads it (StateTable). A verifier passes
    its own table as `model` to share it; it is returned as it is if it was
    built in the same dependence mode, and raises ConfigError if not."""
    if isinstance(model, StateTable):
        if model.with_dependence != with_dependence:
            raise ConfigError(
                f"a theory table built with with_dependence={model.with_dependence}"
                f" cannot serve a call with with_dependence={with_dependence}"
            )
        return model
    if with_dependence and not hasattr(model, "step_joints"):
        raise ConfigError(
            "measuring dependence errors needs a model with exact conditionals"
            " (step_joints)"
        )

    def handle(state: SeqState):
        """The step_joints handle at state, or its ZeroMassContext."""
        try:
            return model.step_joints(state)
        except ZeroMassContext as exc:
            return exc

    def make(states: list[SeqState]) -> list:
        handles = [handle(s) if with_dependence else None for s in states]
        live = [s for s, h in zip(states, handles) if not isinstance(h, ZeroMassContext)]
        outputs = model.predict_many(live)
        ents = iter(masked_entropies(live, outputs))
        tokens = DenoiserOutput.stacked_probs(outputs).argmax(axis=1) if live else None
        rows, start = [], 0
        for state, joints in zip(states, handles):
            if isinstance(joints, ZeroMassContext):
                rows.append(joints)
                continue
            masked = state.masked_index
            stop = start + len(masked)
            rows.append(_Context(
                state,
                next(ents),
                tokens[start:stop],
                {p: i for i, p in enumerate(masked)},
                joints,
                {},
            ))
            start = stop
        return rows

    table = StateTable(make)
    table.with_dependence = with_dependence
    return table


class ScheduleCost(NamedTuple):
    """A schedule walked from a root: the context it reached, its steps
    (sorted positions) and two running totals, J (the summed gaps) and the
    summed dependence errors (None when not measured; 0.0 for a measured
    walk of no steps). Both are summed in step order. Each step's own gap,
    dependence error and argmax tokens live in the table row of the
    context it was taken at (_Context.step)."""

    seq: SeqState
    steps: tuple[tuple[int, ...], ...] = ()
    j: float = 0.0
    dep_total: float | None = None

    def extend(self, table: StateTable, step: tuple[int, ...]) -> "ScheduleCost":
        """The walk one step longer: the argmax child, with the step's gap
        and dependence error, read from the table's row at seq, added to
        the totals."""
        out = table(self.seq).step(step)
        dep = None if self.dep_total is None else self.dep_total + out.dep
        return ScheduleCost(out.child, self.steps + (step,), self.j + out.gap, dep)


def schedule_cost(
    model, root: SeqState, steps: Sequence[Sequence[int]], *, with_dependence: bool
) -> ScheduleCost:
    """Walk a schedule, a list of position sets, from `root`, committing
    each step's argmax tokens.

    Per step, at the context reached so far: the entropy gap and, with
    dependence, the exact dependence error (the model needs exact
    conditionals), added to the walk's totals. The tokens a step commits
    are the reached context's tokens at the step's positions. Raises
    SubsetNotMasked for a step that _subset_check rejects at its context.
    """
    table = _contexts(model, with_dependence)
    cost = ScheduleCost(root, dep_total=0.0 if with_dependence else None)
    for step in steps:
        cost = cost.extend(table, _subset_check(cost.seq, step))
    return cost


# ---------------------------------------------------------------------------
# schedule enumeration


def _is_int(value) -> bool:
    """True for an integer, Python's or numpy's, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value) -> None:
    """Raise ConfigError naming `name` unless value is an integer (_is_int),
    so that a float, a string or a bool is never read as one."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_sizes(m: int, k: int, step_size) -> None:
    """Check k steps over m positions: step_size None (free sizes, full
    cover) or an int (the size of every step). Every theory entry point
    calls it, so it holds the k >= 1 check."""
    _check_int("m", m)
    _check_int("k", k)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if step_size is None:
        if k > m:
            raise ConfigError(f"cannot split {m} positions into {k} non-empty steps")
    elif not _is_int(step_size):
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
    start = ScheduleCost(root, dep_total=0.0 if with_dependence else None)
    return _extensions(_contexts(model, with_dependence), start, k, step_size)


def _children(table: StateTable, prefix: ScheduleCost, k: int, step_size) -> list[ScheduleCost]:
    """The walk extended by each feasible next step, in lexicographic order.
    Every choice is extended first; then the rows of the children a walk
    extends further (those short of k steps) that the table lacks are read
    ahead as one batch."""
    steps = _next_step_choices(prefix.seq.masked_index, k - len(prefix.steps), step_size)
    children = [prefix.extend(table, step) for step in steps]
    if len(prefix.steps) + 1 < k:
        table.read_ahead([child.seq for child in children])
    return children


def _extensions(table: StateTable, prefix: ScheduleCost, k: int, step_size) -> Iterator:
    """Every k-step extension of a walk, depth-first in lexicographic order."""
    if len(prefix.steps) == k:
        yield prefix
        return
    for child in _children(table, prefix, k, step_size):
        yield from _extensions(table, child, k, step_size)


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
) -> tuple[ScheduleCost, dict[int, float], bool]:
    """UCT over schedule prefixes minimizing J (reward is -J of completions).

    Returns the cost of the best complete schedule found, as walked by the
    search (it equals schedule_cost's argmax walk without dependence);
    when `snapshots` is given, the best J after each listed iteration count
    (best-so-far, so snapshot values are non-increasing); and whether the
    tree is complete, every feasible schedule walked. The search stops
    early at a complete tree (mcts.iterate), so the best schedule and every
    later snapshot are what the full budget would give. Raises ConfigError,
    before any model call, for a budget or seed that is not an integer, a
    budget below 1 and a negative seed.
    """
    _check_int("budget", budget)
    _check_int("seed", seed)
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    _check_sizes(len(root.masked_index), k, step_size)
    table = _contexts(model)
    uniform = _uniform_choice(np.random.default_rng(seed))
    best: ScheduleCost | None = None  # set by the first iteration's expansion

    def consider(cost: ScheduleCost) -> float:
        nonlocal best
        if best is None or cost.j < best.j - 1e-15:
            best = cost
        return cost.j

    def grow(node: SearchNode, path: list) -> tuple[list[SearchNode], list[float]]:
        """Expand a prefix into every feasible next step; a child that
        completes the schedule is terminal, any other is rolled out."""
        rewards = []
        for prefix in _children(table, node.state, k, step_size):
            child = SearchNode(
                prefix,
                action=prefix.steps[-1],
                prior=-table(node.state.seq).step(prefix.steps[-1]).gap,
            )
            node.children.append(child)
            if len(prefix.steps) == k:
                child.terminal = True
                child.terminal_reward = reward = -consider(prefix)
            else:
                # rollout: finish the prefix with uniform random steps
                reward = -consider(_walk(table, prefix, k, step_size, uniform))
            backpropagate(path + [(node, child)], reward)
            rewards.append(reward)
        return node.children, rewards

    records = islice(iterate(SearchNode(ScheduleCost(root)), C_EXPLORE, grow), budget)
    js = []  # best J after each iteration, up to a complete tree
    for *_, complete in records:  # budget >= 1, so at least one record
        js.append(best.j)
    snap = {b: js[min(b, len(js)) - 1] for b in sorted(snapshots or ()) if 0 < b <= budget}
    return best, snap, complete


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
    each requested budget, and asserts the snapshots are non-increasing.
    The search stops once its tree is complete (search_schedules), so a
    budget past that point costs nothing and reports the same J as the
    full run would. When the tree is complete by the largest budget, it
    also asserts convergence, the final J <= the exhaustive oracle's
    minimum + TOL, and dominance, the final J <= greedy's and each of
    RANDOM_BASELINES random schedules' J + TOL; a search stopped short of a
    complete tree only reports those Js, since too small a budget need not
    beat them; the report's last key, tree_complete, says which of the two
    it was. The oracle is computed either way; past ENUMERATION_CAP
    schedules it raises InstanceTooLarge before the search, so before any
    model call. Raises ConfigError, before any model call, unless every
    budget is a positive integer.
    """
    budgets = list(budgets)
    if not all(map(_is_int, budgets)):
        raise ConfigError(f"budgets must be integers, got {budgets!r}")
    budgets = sorted(set(int(b) for b in budgets))
    if not budgets or budgets[0] < 1:
        raise ConfigError("budgets must be positive")
    table = _contexts(model)  # shared by the search, the oracle and the baselines
    _check_cap(root, k, step_size)  # the oracle's, before the search's model calls
    best, snaps, complete = search_schedules(
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
    rng = np.random.default_rng(int(seed) + 1)
    randoms = [
        random_schedule(table, root, k, rng, step_size).j
        for _ in range(RANDOM_BASELINES)
    ]
    final_j = j_by_budget[-1]
    if complete:
        if final_j > greedy.j + TOL:
            raise BoundViolated(f"search J {final_j} worse than greedy {greedy.j}")
        for rj in randoms:
            if final_j > rj + TOL:
                raise BoundViolated(f"search J {final_j} worse than a random baseline {rj}")
        if final_j > oracle.j + TOL:
            raise BoundViolated(
                f"search J {final_j} above the oracle minimum {oracle.j} at a complete tree"
            )
    return {
        "budgets": budgets,
        "j_by_budget": j_by_budget,
        "j_final": final_j,
        "j_oracle": oracle.j,
        "j_greedy": greedy.j,
        "j_random": randoms,
        "best_schedule": [list(s) for s in best.steps],
        "oracle_schedule": [list(s) for s in oracle.steps],
        "tree_complete": complete,
    }
