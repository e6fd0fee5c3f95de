"""End-to-end decoding: augment, search-initialize, finish.

decode() glues the three stages together: the prompt is optionally extended
with a decomposition scaffold, the search proposes candidate_count
initializations of depth init_length, the best one by cumulative gain is
kept, and the remaining masks are committed step by step under the same
confidence scoring (argmax, or a temperature softmax over the pooled
actions). init_length == 0 is finish_decode from the fully masked root; with
the identity augmenter and argmax finishing that is exactly greedy
confidence decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import jsonspec, kernels
from .denoisers import Denoiser
from .errors import ConfigError, EmptyPool
from .mcts import CandidateEntry, CandidatePool, SearchConfig, run_cgmcts
from .scoring import build_candidates
from .seqcore import SeqState, UnmaskAction, Vocab, apply_many, state_to_json

AUGMENTERS = ("identity", "template", "self_generate")


@dataclass(frozen=True)
class DecodeConfig:
    length: int = 256
    total_steps: int | None = None  # None -> length
    sample_temperature: float = 1.0
    remaining_mode: str = "sample"
    tokens_per_step: int = 1
    augmenter: str = "identity"
    subtasks: int = 3
    aux_length: int = 16
    template_tokens: tuple[int, ...] | None = None
    search: SearchConfig = field(default_factory=SearchConfig)

    @property
    def steps(self) -> int:
        return self.length if self.total_steps is None else self.total_steps

    def validate(self) -> None:
        self.search.validate()
        if self.length < 1:
            raise ConfigError("length must be >= 1")
        if self.search.init_length >= self.length:
            raise ConfigError("init_length must be < length")
        if not 0 < self.sample_temperature < math.inf:  # False for NaN and +-inf too
            raise ConfigError(
                f"sample_temperature must be finite and > 0, got {self.sample_temperature}"
            )
        if self.tokens_per_step < 1:
            raise ConfigError("tokens_per_step must be >= 1")
        if self.remaining_mode not in kernels.PICK_MODES:
            raise ConfigError(f"unknown remaining_mode {self.remaining_mode!r}")
        if self.augmenter not in AUGMENTERS:
            raise ConfigError(f"unknown augmenter {self.augmenter!r}")
        if self.subtasks < 1:
            raise ConfigError("subtasks must be >= 1")
        if self.aux_length < 1:
            raise ConfigError("aux_length must be >= 1")
        # the first descent spends at most k2 simulations on each level above
        # the pool depth, so a budget above `reach` always pools a candidate
        reach = (self.search.init_length - 1) * self.search.k2
        if self.search.init_length > 0 and self.search.budget <= reach:
            raise ConfigError(
                f"simulation budget {self.search.budget} may not reach init_length"
                f" {self.search.init_length} at up to k2 per level (need > {reach})"
            )
        # a finish step commits one token per distinct position it picks from
        # the pooled top-k2, and at most k1 pooled actions share a position
        per_step = min(self.tokens_per_step, math.ceil(self.search.k2 / self.search.k1))
        need = math.ceil((self.length - self.search.init_length) / per_step)
        if self.steps < need:
            raise ConfigError(
                f"total_steps {self.steps} cannot finish {self.length - self.search.init_length}"
                f" masks at {per_step} per step, min(tokens_per_step, ceil(k2/k1))"
                f" (need {need})"
            )

    to_json = jsonspec.to_json
    from_json = classmethod(jsonspec.from_json)


@dataclass(frozen=True)
class DecodeResult:
    final: SeqState
    chosen_candidate: int  # pool order, -1 when no search ran
    reveal_order: tuple[UnmaskAction, ...]
    per_step_scores: tuple[dict, ...]
    pool: CandidatePool | None = None

    def to_json(self) -> dict:
        return {
            "final": state_to_json(self.final),
            "chosen_candidate": self.chosen_candidate,
            "reveal_order": [[a.position, a.token] for a in self.reveal_order],
            "per_step_scores": list(self.per_step_scores),
            "pool": [e.to_json() for e in self.pool.entries] if self.pool else None,
        }


def build_template(vocab: Vocab, subtasks: int, shots: int = 2) -> tuple[int, ...]:
    """Deterministic decomposition scaffold: `shots` runs of subtask slot
    markers, each terminated by token 0. Toy stand-in for a worked example."""
    toks: list[int] = []
    for _ in range(shots):
        toks.extend((k + 1) % vocab.size for k in range(subtasks))
        toks.append(0)
    return tuple(toks)


def augment_prompt(
    model: Denoiser,
    prompt: Sequence[int],
    cfg: DecodeConfig,
    rng: np.random.Generator | None = None,
) -> tuple[int, ...]:
    """Extend the prompt per cfg.augmenter.

    identity: unchanged. template: prompt + scaffold. self_generate:
    prompt + scaffold + one auxiliary decode of aux_length tokens (replayed
    exactly by reusing the same rng stream).
    """
    prompt = tuple(int(t) for t in prompt)
    if cfg.augmenter == "identity":
        return prompt
    template = (
        cfg.template_tokens
        if cfg.template_tokens is not None
        else build_template(model.vocab, cfg.subtasks)
    )
    for tok in template:
        if not model.vocab.is_content(tok):
            raise ConfigError(f"template token {tok} outside vocab")
    base = prompt + tuple(template)
    if cfg.augmenter == "template":
        return base
    if rng is None:
        rng = np.random.default_rng(cfg.search.seed)
    aux_root = SeqState.fully_masked(model.vocab, base, cfg.aux_length)
    aux_cfg = replace(cfg, length=cfg.aux_length, total_steps=None, augmenter="identity")
    aux = finish_decode(model, aux_root, aux_cfg, rng)
    return base + aux.final.gen_tokens()


def select_candidate(pool: CandidatePool) -> CandidateEntry:
    """Highest cumulative gain wins; ties go to the earliest pooled."""
    if not pool.entries:
        raise EmptyPool("candidate pool is empty")
    return max(pool.entries, key=lambda e: (e.score, -e.order))


def finish_decode(
    model: Denoiser,
    state: SeqState,
    cfg: DecodeConfig,
    rng: np.random.Generator | None = None,
    *,
    output=None,
) -> DecodeResult:
    """Commit remaining masks step by step under confidence scoring.

    Each step rebuilds the pooled top-k2 actions, re-scoring only the rows
    whose logits differ from the previous step's, and commits
    tokens_per_step of them: the top of the pool under argmax, or draws
    from softmax(score / temperature) without position repeats. Runs at
    most cfg.steps steps and stops when nothing is masked. `output`, when
    given, is the model's prediction at `state` and replaces the first
    step's model call.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.search.seed)
    s = cfg.search
    cur = state
    order: list[UnmaskAction] = []
    steps_trace: list[dict] = []
    cands = None
    for t in range(cfg.steps):
        if cur.is_complete:
            break
        if t > 0 or output is None:
            output = model.predict(cur)
        cands = build_candidates(
            cur,
            output,
            s.k1,
            s.k2,
            s.gamma,
            s.epsilon,
            use_entropy_penalty=s.use_entropy_penalty,
            prev=cands,
        )
        available = list(cands.pooled)
        chosen: list[tuple[UnmaskAction, float]] = []
        for _ in range(min(cfg.tokens_per_step, len(cands.pooled))):
            if not available:
                break
            if cfg.remaining_mode == "argmax":
                pick = 0
            else:
                weights = np.array([[sc for _, sc in available]])
                probs = kernels.softmax_rows((weights - weights.max()) / cfg.sample_temperature)
                pick = int(kernels.pick_tokens(probs, "sample", rng)[0])
            action, score = available[pick]
            chosen.append((action, score))
            available = [
                (a, sc) for a, sc in available if a.position != action.position
            ]
        cur = apply_many(cur, [a for a, _ in chosen])
        order.extend(a for a, _ in chosen)
        steps_trace.append(
            {
                "step": t,
                "actions": [[a.position, a.token] for a, _ in chosen],
                "scores": [sc for _, sc in chosen],
                "mode": cfg.remaining_mode,
            }
        )
    if not cur.is_complete:
        raise ConfigError("total_steps exhausted with masks remaining")
    return DecodeResult(
        final=cur,
        chosen_candidate=-1,
        reveal_order=tuple(order),
        per_step_scores=tuple(steps_trace),
    )


def decode(
    model: Denoiser,
    prompt: Sequence[int],
    cfg: DecodeConfig,
    *,
    rng: np.random.Generator | None = None,
) -> DecodeResult:
    """Full pipeline: augment -> search-initialize -> finish."""
    cfg.validate()
    if rng is None:
        rng = np.random.default_rng(cfg.search.seed)
    augmented = augment_prompt(model, prompt, cfg, rng)
    root = SeqState.fully_masked(model.vocab, augmented, cfg.length)
    if cfg.search.init_length == 0:
        return finish_decode(model, root, cfg, rng)
    pool = run_cgmcts(model, root, cfg.search, rng=rng)
    entry = select_candidate(pool)
    fin = finish_decode(model, entry.state, cfg, rng, output=entry.output)
    return DecodeResult(
        final=fin.final,
        chosen_candidate=entry.order,
        reveal_order=entry.path + fin.reveal_order,
        per_step_scores=fin.per_step_scores,
        pool=pool,
    )


def decode_greedy_baseline(
    model: Denoiser,
    prompt: Sequence[int],
    cfg: DecodeConfig,
    *,
    rng: np.random.Generator | None = None,
) -> DecodeResult:
    """decode() with no search, no augmentation and argmax commits, under
    identical scoring."""
    greedy = replace(
        cfg,
        augmenter="identity",
        remaining_mode="argmax",
        total_steps=None,
        search=replace(cfg.search, init_length=0),
    )
    return decode(model, prompt, greedy, rng=rng)


def replay_reveals(root: SeqState, reveal_order: Sequence[UnmaskAction]) -> SeqState:
    """Reconstruct the final state of a decode from its action log."""
    return apply_many(root, reveal_order)
