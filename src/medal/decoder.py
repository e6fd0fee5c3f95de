"""End-to-end decoding: augment, search-initialize, finish.

decode() glues the three stages together: the prompt is optionally extended
with a decomposition scaffold, the search proposes candidate_count
initializations of depth init_length, the best one by cumulative gain is
kept, and the remaining masks are committed step by step under the same
confidence scoring (argmax, or a temperature softmax over the pooled
actions). init_length == 0 is finish_decode from the fully masked root; with
the identity augmenter and argmax finishing that is exactly greedy
confidence decoding. From its second step on, a finish step asks the model
for the prediction after the previous one (Denoiser.predict_after), so a
model that knows which rows a reveal changed recomputes only those, and
build_candidates looks up only those. Every finish step scores under
cfg.search, passed whole to build_candidates, through the model's score
memo for its key (Denoiser.score_memo(scoring.settings_key(cfg.search))),
so a row content that a finish step of any earlier decode on the model
scored under the same key is not scored again; search expansions score
their rows directly. Outputs do not depend on what the model decoded
before. Only a sampled decode builds an rng.
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
from .scoring import build_candidates, settings_key
from .seqcore import SeqState, UnmaskAction, Vocab, apply_many, state_to_json

AUGMENTERS = ("identity", "template", "self_generate")
REMAINING_MODES = ("argmax", "sample")


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
        if self.remaining_mode not in REMAINING_MODES:
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


def _seeded_rng(cfg: DecodeConfig) -> np.random.Generator | None:
    """The rng a decode draws from when the caller passes none, seeded by
    cfg.search.seed, or None when cfg commits by argmax and draws nothing;
    ConfigError for a negative seed either way, as validate() gives."""
    if cfg.search.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.search.seed}")
    if cfg.remaining_mode != "sample":
        return None
    return np.random.default_rng(cfg.search.seed)


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
        rng = _seeded_rng(cfg)
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

    The first step predicts at `state`; each later step asks
    model.predict_after(previous state, previous output, state), which is
    predict(state) unless the model knows what a reveal changed and names
    the rows that may differ from the previous output. Each step
    rebuilds the pooled top-k2 actions from the previous step's
    candidates and the model's score memo, scoring only rows whose
    content no earlier finish step on the model scored, and commits
    tokens_per_step of them: the top of the pool under argmax, or one
    kernels.draw per commit from softmax(score / temperature) without
    position repeats. Runs at most cfg.steps steps and stops when nothing
    is masked. `output`, when given, is the model's prediction at `state`
    and replaces the first step's model call. `rng` is needed only under
    remaining_mode "sample"; without one, a sampled decode seeds its own
    from cfg.search.seed.
    """
    if rng is None:
        rng = _seeded_rng(cfg)
    cur = state
    memo = model.score_memo(settings_key(cfg.search))
    order: list[UnmaskAction] = []
    steps_trace: list[dict] = []
    cands = None
    for t in range(cfg.steps):
        if cur.is_complete:
            break
        if t > 0:
            output = model.predict_after(prev_state, output, cur)
        elif output is None:
            output = model.predict(cur)
        cands = build_candidates(cur, output, cfg.search, prev=cands, memo=memo)
        available = cands.pooled
        chosen: list[tuple[UnmaskAction, float]] = []
        for _ in range(min(cfg.tokens_per_step, len(available))):
            if not available:
                break
            if cfg.remaining_mode == "argmax":
                pick = 0
            else:
                pick = kernels.draw([sc for _, sc in available], cfg.sample_temperature, rng)
            action, score = available[pick]
            chosen.append((action, score))
            if len(chosen) < cfg.tokens_per_step:
                available = [
                    (a, sc) for a, sc in available if a.position != action.position
                ]
        prev_state = cur
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
        rng = _seeded_rng(cfg)
    augmented = augment_prompt(model, prompt, cfg, rng)
    root = SeqState.fully_masked(model.vocab, augmented, cfg.length)
    if cfg.search.init_length == 0:
        return finish_decode(model, root, cfg, rng)
    pool = run_cgmcts(model, root, cfg.search)
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
