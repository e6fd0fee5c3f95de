"""Unmasking-schedule analysis: entropy-gap costs and exact dependence errors.

A schedule is an ordered list of disjoint position sets revealed together.
Each step pays two quantities at its realized context:

* entropy gap B = sum of per-position predictive entropies minus their max,
  a model-only upper bound on how much joint structure a parallel commit
  can miss;
* dependence error, the KL divergence between the exact joint posterior
  over the step and the product of its per-position marginals (tabular
  models only).

For any calibrated model the dependence error never exceeds the gap
(pointwise per step), so summed gaps J upper-bound the total dependence
error of the whole schedule. verify_lemma1 checks that inequality
exhaustively; verify_theorem1 runs a UCT search over schedule space and
checks it converges on minimal-J schedules, beating greedy and random
baselines. The weighted objective j_lambda(cost) = lam_dep * B +
lam_mod * sum(prox) generalizes J with a per-position uncertainty proxy.

Every walk steps through _WalkState.extend and reads contexts from one
per-call table (mcts.StateTable), which each verifier shares across all its
walks, so no call predicts a context twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import (
    BoundViolated,
    ConfigError,
    InstanceTooLarge,
    SubsetNotMasked,
)
from .mcts import SearchNode, StateTable, backpropagate, select_leaf
from .seqcore import SeqState, UnmaskAction, apply_many

PROXIES = ("entropy", "one_minus_maxprob", "top2_margin")
ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class Schedule:
    """Ordered disjoint position sets; steps sorted internally for identity."""

    steps: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, steps: Sequence[Sequence[int]]) -> "Schedule":
        norm = tuple(tuple(sorted(int(p) for p in step)) for step in steps)
        seen: set[int] = set()
        for step in norm:
            if not step:
                raise ConfigError("schedule steps must be non-empty")
            if len(set(step)) != len(step) or seen & set(step):
                raise ConfigError("schedule steps must be disjoint")
            seen.update(step)
        return cls(norm)

    def positions(self) -> set[int]:
        return {p for step in self.steps for p in step}

    def to_json(self) -> list[list[int]]:
        return [list(step) for step in self.steps]


@dataclass(frozen=True)
class ScheduleCost:
    schedule: Schedule
    per_step_gap: tuple[float, ...]
    per_step_dep: tuple[float, ...] | None
    per_step_proxy: tuple[float, ...] | None
    committed: tuple[tuple[int, int], ...]

    @property
    def j(self) -> float:
        return float(sum(self.per_step_gap))

    @property
    def dep_total(self) -> float | None:
        return None if self.per_step_dep is None else float(sum(self.per_step_dep))

    def to_json(self) -> dict:
        return {
            "schedule": self.schedule.to_json(),
            "per_step_gap": list(self.per_step_gap),
            "per_step_dep": list(self.per_step_dep) if self.per_step_dep else None,
            "per_step_proxy": list(self.per_step_proxy) if self.per_step_proxy else None,
            "j": self.j,
            "dep_total": self.dep_total,
        }


def j_lambda(cost: ScheduleCost, lam_dep: float = 1.0, lam_mod: float = 0.0) -> float:
    """Weighted objective; (1, 0) recovers plain J."""
    total = lam_dep * cost.j
    if lam_mod != 0.0:
        if cost.per_step_proxy is None:
            raise ConfigError("cost has no proxy terms; rerun schedule_cost with proxy=")
        total += lam_mod * float(sum(cost.per_step_proxy))
    return float(total)


def _subset_check(state: SeqState, positions: Sequence[int]) -> list[int]:
    subset = sorted(int(p) for p in positions)
    if not subset:
        raise SubsetNotMasked("subset must be non-empty")
    masked = set(state.masked_index)
    bad = [p for p in subset if p not in masked]
    if bad:
        raise SubsetNotMasked(f"positions {bad} are not masked")
    return subset


def position_entropies(model, state: SeqState, positions: Sequence[int]) -> np.ndarray:
    """Exact predictive entropies (nats) at the given masked positions."""
    subset = _subset_check(state, positions)
    return kernels.entropy_rows(_contexts(model)(state)[0].probs(subset))


def entropy_gap(model, state: SeqState, positions: Sequence[int]) -> float:
    """B(positions | state) = sum of entropies minus their max; >= 0."""
    return _gap(position_entropies(model, state, positions))


def _gap(ent: np.ndarray) -> float:
    return float(ent.sum() - ent.max())


def dependence_error(model, state: SeqState, positions: Sequence[int]) -> float:
    """KL(joint posterior over positions || product of its marginals).

    Needs exact conditionals, i.e. a tabular model. Raises ZeroMassContext
    when the revealed context has no mass, SubsetNotMasked for positions
    outside the masked set.
    """
    subset = _subset_check(state, positions)
    _require_conditionals(model)
    return _dependence(model.masked_conditional(state), subset)


def _require_conditionals(model) -> None:
    if not hasattr(model, "masked_conditional"):
        raise ConfigError("dependence_error requires a model with exact conditionals")


def _dependence(conditional: tuple[list[int], np.ndarray], subset: Sequence[int]) -> float:
    """dependence_error's KL from the context's (masked positions, exact
    conditional) pair, for a sorted subset of those positions."""
    mpos, cond = conditional
    axes = tuple(mpos.index(p) for p in subset)
    other = tuple(a for a in range(cond.ndim) if a not in axes)
    joint = cond.sum(axis=other) if other else cond
    # put subset axes in subset order
    joint = np.transpose(joint, np.argsort(np.argsort(axes)))
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


def _contexts(model, with_dependence: bool = False) -> StateTable:
    """The table a theory call reads contexts through: per context, the model's
    prediction, checked to cover exactly the masked positions with vocab-wide
    rows, and the exact conditional (None without dependence). A verifier
    passes its own table as `model` to share it; it is returned as it is."""
    if isinstance(model, StateTable):
        return model
    if with_dependence:
        _require_conditionals(model)

    def row(state: SeqState):
        output = model.predict(state)
        output.check_cover(state.masked_index, state.vocab.size)
        return output, model.masked_conditional(state) if with_dependence else None

    return StateTable(row)


class _WalkState(NamedTuple):
    """A schedule prefix walked from a root: the context it reached, its
    steps, their gaps, their dependence errors (None when not measured) and
    the tokens it committed."""

    seq: SeqState
    steps: tuple[tuple[int, ...], ...] = ()
    gaps: tuple[float, ...] = ()
    deps: tuple[float, ...] | None = None
    committed: tuple[tuple[int, int], ...] = ()

    def extend(self, table: StateTable, step, policy="argmax", rng=None) -> "_WalkState":
        """The prefix one step longer: at seq, read from the table's row, the
        step's gap and dependence error, and its tokens committed by the
        policy (argmax or sampled)."""
        output, conditional = table(self.seq)
        probs = output.probs(step)
        tokens = kernels.pick_tokens(probs, policy, rng)
        acts = [UnmaskAction(p, int(t)) for p, t in zip(step, tokens)]
        deps = None if self.deps is None else self.deps + (_dependence(conditional, step),)
        gaps = self.gaps + (_gap(kernels.entropy_rows(probs)),)
        committed = self.committed + tuple((a.position, a.token) for a in acts)
        seq = apply_many(self.seq, acts)
        return _WalkState(seq, self.steps + (tuple(step),), gaps, deps, committed)

    def cost(self) -> ScheduleCost:
        return ScheduleCost(Schedule(self.steps), self.gaps, self.deps, None, self.committed)


def schedule_cost(
    model,
    root: SeqState,
    schedule: Schedule,
    *,
    rollout_policy: str = "argmax",
    rng: np.random.Generator | None = None,
    proxy: str | None = None,
    with_dependence: bool | None = None,
) -> ScheduleCost:
    """Walk a schedule from `root`, realizing contexts with the rollout policy.

    Per step, at the context reached so far: the entropy gap, the exact
    dependence error when the model supports it (with_dependence=None
    auto-detects; False skips), and optionally a summed per-position
    uncertainty proxy. Committed tokens are recorded so the walk is
    reproducible.
    """
    if proxy is not None and proxy not in PROXIES:
        raise ConfigError(f"unknown proxy {proxy!r}; choose from {PROXIES}")
    if with_dependence is None:
        with_dependence = hasattr(model, "masked_conditional")
    table = _contexts(model, with_dependence)
    ws = _WalkState(root, deps=() if with_dependence else None)
    proxies: list[float] = []
    for step in schedule.steps:
        subset = _subset_check(ws.seq, step)
        probs = table(ws.seq)[0].probs(subset) if proxy else None
        if proxy == "entropy":
            proxies.append(float(kernels.entropy_rows(probs).sum()))
        elif proxy == "one_minus_maxprob":
            proxies.append(float((1.0 - probs.max(axis=1)).sum()))
        elif proxy == "top2_margin":
            part = np.partition(probs, probs.shape[1] - 2, axis=1)
            proxies.append(float((part[:, -1] - part[:, -2]).sum()))
        ws = ws.extend(table, subset, rollout_policy, rng)
    per_step_proxy = tuple(proxies) if proxy is not None else None
    return ScheduleCost(schedule, ws.gaps, ws.deps, per_step_proxy, ws.committed)


# ---------------------------------------------------------------------------
# schedule enumeration


def _resolve_sizes(m: int, k: int, step_size) -> list[int] | None:
    """None stays None (free sizes, full cover); int/list become per-step sizes.
    Every theory entry point calls it, so it holds the k >= 1 check."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if step_size is None:
        if k > m:
            raise ConfigError(f"cannot split {m} positions into {k} non-empty steps")
        return None
    if isinstance(step_size, int):
        sizes = [step_size] * k
    else:
        sizes = [int(s) for s in step_size]
        if len(sizes) != k:
            raise ConfigError(f"need {k} step sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ConfigError("step sizes must be >= 1")
    if sum(sizes) > m:
        raise ConfigError(f"step sizes consume {sum(sizes)} of {m} positions")
    return sizes


def count_schedules(m: int, k: int, step_size=None) -> int:
    """Number of k-step schedules of m positions (see schedule_costs)."""
    sizes = _resolve_sizes(m, k, step_size)
    if sizes is not None:
        total = 1
        left = m
        for s in sizes:
            total *= math.comb(left, s)
            left -= s
        return total

    def free(m_left: int, k_left: int) -> int:
        if k_left == 1:
            return 1
        return sum(
            math.comb(m_left, s) * free(m_left - s, k_left - 1)
            for s in range(1, m_left - k_left + 2)
        )

    return free(m, k)


def _next_step_choices(remaining: tuple[int, ...], k_left: int, sizes) -> list[tuple[int, ...]]:
    """Feasible next steps in lexicographic order (with fixed sizes, the
    last k_left sizes are the steps still to take)."""
    if sizes is not None:
        return list(combinations(remaining, sizes[-k_left]))
    if k_left == 1:
        return [remaining]
    return [c for s in range(1, len(remaining) - k_left + 2) for c in combinations(remaining, s)]


def _schedules(remaining: tuple[int, ...], k_left: int, sizes) -> Iterator[tuple]:
    """Every schedule of k_left steps over `remaining`, in lexicographic order."""
    if k_left == 0:
        yield ()
        return
    for step in _next_step_choices(remaining, k_left, sizes):
        rest = tuple(p for p in remaining if p not in step)
        for tail in _schedules(rest, k_left - 1, sizes):
            yield (step,) + tail


def schedule_costs(
    model, root: SeqState, k: int, step_size=None, *, with_dependence: bool,
    cap: int = ENUMERATION_CAP,
) -> Iterator[ScheduleCost]:
    """Cost of every k-step schedule of root's masked positions, in
    lexicographic order, each as schedule_cost's argmax walk gives it.

    step_size None: every ordered partition of the masked positions into k
    non-empty steps (full cover). int or list: fixed per-step sizes, cover
    not required. Raises InstanceTooLarge past `cap`, and ConfigError for
    bad sizes, before any model call.
    """
    m = len(root.masked_index)
    total = count_schedules(m, k, step_size)
    if total > cap:
        raise InstanceTooLarge(f"{total} schedules exceeds cap {cap}")
    sizes = _resolve_sizes(m, k, step_size)
    table = _contexts(model, with_dependence)
    return (
        schedule_cost(table, root, Schedule(steps), with_dependence=with_dependence)
        for steps in _schedules(root.masked_index, k, sizes)
    )


def oracle_min_schedule(
    model, root: SeqState, k: int, step_size=None, *, cap: int = ENUMERATION_CAP
) -> ScheduleCost:
    """Exhaustive minimum-J schedule (ties: first in lexicographic order)."""
    costs = schedule_costs(model, root, k, step_size, with_dependence=False, cap=cap)
    return min(costs, key=lambda c: c.j)


def _walk(table: StateTable, ws: _WalkState, k: int, sizes, choose: Callable) -> ScheduleCost:
    """Extend a schedule prefix to k steps with argmax commits. At each
    context, choose(output, choices) picks the next step among the feasible
    ones, given the model's prediction there. The cost has no dependence or
    proxy terms."""
    while len(ws.steps) < k:
        choices = _next_step_choices(ws.seq.masked_index, k - len(ws.steps), sizes)
        ws = ws.extend(table, choose(table(ws.seq)[0], choices))
    return ws.cost()


def greedy_schedule(model, root: SeqState, k: int, step_size=None) -> ScheduleCost:
    """Baseline: pick the feasible next step of minimal gap at each context."""

    def least_gap(output, choices):
        best_step, best_gap = None, None
        for step in choices:
            gap = _gap(kernels.entropy_rows(output.probs(step)))
            if best_gap is None or gap < best_gap - 1e-15:
                best_step, best_gap = step, gap
        return best_step

    sizes = _resolve_sizes(len(root.masked_index), k, step_size)
    return _walk(_contexts(model), _WalkState(root), k, sizes, least_gap)


def _uniform_choice(rng: np.random.Generator) -> Callable:
    return lambda output, choices: choices[int(rng.integers(len(choices)))]


def random_schedule(
    model, root: SeqState, k: int, rng: np.random.Generator, step_size=None
) -> ScheduleCost:
    """Baseline: uniform feasible step at each context, argmax commits."""
    sizes = _resolve_sizes(len(root.masked_index), k, step_size)
    return _walk(_contexts(model), _WalkState(root), k, sizes, _uniform_choice(rng))


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
    c_explore: float = math.sqrt(2.0),
    snapshots: Sequence[int] | None = None,
) -> tuple[ScheduleCost, dict[int, float]]:
    """UCT over schedule prefixes minimizing J (reward is -J of completions).

    Returns the cost of the best complete schedule found, as walked by the
    search (it equals schedule_cost's argmax walk without dependence), and,
    when `snapshots` is given, the best J after each listed iteration count
    (best-so-far, so snapshot values are non-increasing).
    """
    sizes = _resolve_sizes(len(root.masked_index), k, step_size)
    table = _contexts(model)
    rng = np.random.default_rng(seed)
    marks = sorted(set(snapshots)) if snapshots else []
    snap: dict[int, float] = {}

    best: ScheduleCost | None = None

    def consider(cost: ScheduleCost) -> float:
        nonlocal best
        if best is None or cost.j < best.j - 1e-15:
            best = cost
        return cost.j

    uniform = _uniform_choice(rng)
    root_node = SearchNode(_WalkState(root))

    for it in range(budget):
        node, path = select_leaf(root_node, c_explore)
        if node.terminal:
            backpropagate(path, node.terminal_reward)
        else:
            ws: _WalkState = node.state
            for step in _next_step_choices(ws.seq.masked_index, k - len(ws.steps), sizes):
                prefix = ws.extend(table, step)
                child = SearchNode(
                    prefix, action=step, prior=-prefix.gaps[-1], index=len(node.children)
                )
                node.children.append(child)
                if len(prefix.steps) == k:
                    child.terminal = True
                    child.terminal_reward = reward = -consider(prefix.cost())
                else:
                    # rollout: finish the prefix with uniform random steps
                    reward = -consider(_walk(table, prefix, k, sizes, uniform))
                backpropagate(path + [(node, child)], reward)

        if it + 1 in marks:
            snap[it + 1] = best.j if best is not None else float("inf")

    if best is None:
        raise ConfigError("schedule search found no complete schedule")
    return best, snap


# ---------------------------------------------------------------------------
# verifiers


def verify_lemma1(model, root: SeqState, *, tol: float = 1e-9, cap: int = ENUMERATION_CAP) -> dict:
    """Check sum(DepErr) <= sum(B) + tol on every full-cover schedule of
    every step count.

    Returns a report with the tightest approach to equality; raises
    BoundViolated with the offending schedule otherwise.
    """
    checked = 0
    max_excess = float("-inf")
    min_slack = float("inf")
    tightest: Schedule | None = None
    table = _contexts(model, with_dependence=True)  # shared by every step count
    for k in range(1, len(root.masked_index) + 1):
        for cost in schedule_costs(table, root, k, with_dependence=True, cap=cap):
            dep, gap = cost.dep_total, cost.j
            excess = dep - gap
            if excess > tol:
                raise BoundViolated(
                    f"dependence {dep} exceeds gap {gap} on schedule {cost.schedule.to_json()}"
                )
            if excess > max_excess:
                max_excess = excess
            if gap - dep < min_slack:
                min_slack = gap - dep
                tightest = cost.schedule
            checked += 1
    return {
        "schedules_checked": checked,
        "max_excess": max_excess,
        "min_slack": min_slack,
        "tightest_schedule": tightest.to_json() if tightest else None,
        "tol": tol,
    }


def verify_theorem1(
    model,
    root: SeqState,
    k: int,
    budgets: Sequence[int],
    *,
    step_size=None,
    seed: int = 0,
    c_explore: float = math.sqrt(2.0),
    random_baselines: int = 5,
    tol: float = 1e-9,
    cap: int = ENUMERATION_CAP,
) -> dict:
    """Convergence and dominance report for the schedule search.

    Runs one seeded search to the largest budget, snapshotting best J at
    each requested budget; asserts the snapshots are non-increasing and
    that the final J is <= greedy's and every random baseline's J + tol.
    The exhaustive oracle minimum is included for ratio checks.
    """
    budgets = sorted(set(int(b) for b in budgets))
    if not budgets or budgets[0] < 1:
        raise ConfigError("budgets must be positive")
    table = _contexts(model)  # shared by the search, the oracle and the baselines
    best, snaps = search_schedules(
        table,
        root,
        k,
        budgets[-1],
        step_size=step_size,
        seed=seed,
        c_explore=c_explore,
        snapshots=budgets,
    )
    j_by_budget = [snaps[b] for b in budgets]
    for earlier, later in zip(j_by_budget, j_by_budget[1:]):
        if later > earlier + tol:
            raise BoundViolated(
                f"best J regressed with budget: {j_by_budget} at budgets {budgets}"
            )
    oracle = oracle_min_schedule(table, root, k, step_size, cap=cap)
    greedy = greedy_schedule(table, root, k, step_size)
    rng = np.random.default_rng(seed + 1)
    randoms = [
        random_schedule(table, root, k, rng, step_size).j
        for _ in range(random_baselines)
    ]
    final_j = j_by_budget[-1]
    if final_j > greedy.j + tol:
        raise BoundViolated(f"search J {final_j} worse than greedy {greedy.j}")
    for rj in randoms:
        if final_j > rj + tol:
            raise BoundViolated(f"search J {final_j} worse than a random baseline {rj}")
    return {
        "budgets": budgets,
        "j_by_budget": j_by_budget,
        "j_final": final_j,
        "j_oracle": oracle.j,
        "j_greedy": greedy.j,
        "j_random": randoms,
        "best_schedule": best.schedule.to_json(),
        "oracle_schedule": oracle.schedule.to_json(),
    }
