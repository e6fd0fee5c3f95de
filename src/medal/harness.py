"""Experiment harness: seeded method-vs-baseline runs with JSONL metrics.

A run is the cross product of instances, methods and seeds;
`run_experiment` is the one runner. `ablation_methods` and `sweep_methods`
build the method lists of the ablation and the init-depth sweep. Every row
carries deterministic fields only (method, instance, seed, exact joint
log-prob when the instance is tabular, chosen-candidate cumulative gain,
model-call count, final tokens); a summary row with per-method aggregates
closes the file. Wall-clock timings are real but non-reproducible, so they
go to a separate .timing.json sidecar instead of the metrics stream.

Per-row failures are captured as error rows; one bad cell never aborts a
sweep.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .decoder import DecodeConfig, DecodeResult, decode, decode_greedy_baseline
from .denoisers import (
    CountingDenoiser,
    Denoiser,
    FactorizedFile,
    TabularFile,
    TabularModel,
    fit_ngram,
    load_corpus,
)
from .errors import ConfigError, MedalError
from .families import trap_family
from .jsonspec import from_json, jsonl, read_json, write_text

METHOD_KINDS = ("medal", "greedy", "best_of_n")


@dataclass(frozen=True)
class MethodSpec:
    id: str
    kind: str = "medal"
    config: DecodeConfig = field(default_factory=DecodeConfig)
    n: int = 5  # best_of_n only

    def validate(self) -> None:
        if self.kind not in METHOD_KINDS:
            raise ConfigError(f"unknown method kind {self.kind!r}")
        if self.kind == "best_of_n" and self.n < 1:
            raise ConfigError("best_of_n needs n >= 1")
        self.config.validate()


@dataclass(frozen=True)
class ExperimentSpec:
    instances: tuple[tuple[str, Denoiser], ...]
    methods: tuple[MethodSpec, ...]
    seeds: tuple[int, ...]
    prompt: tuple[int, ...] = ()

    def validate(self) -> None:
        if not self.instances or not self.methods or not self.seeds:
            raise ConfigError("instances, methods and seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        ids = [m.id for m in self.methods]
        if len(set(ids)) != len(ids):
            raise ConfigError("method ids must be unique")
        for m in self.methods:
            m.validate()


def load_model_file(path, what: str = "model file") -> Denoiser:
    """A tabular ("probs", a TabularFile) or factorized ("rows", a
    FactorizedFile) model from a JSON file. Raises ConfigError naming the
    file when it cannot be read, is not JSON, is of neither kind, or does
    not follow its format (the error names the key)."""
    obj = read_json(path, what)
    if not isinstance(obj, dict) or ("probs" not in obj and "rows" not in obj):
        raise ConfigError(f"cannot tell the model type of {what} {path}")
    try:
        return from_json(TabularFile if "probs" in obj else FactorizedFile, obj).build()
    except ConfigError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None


@dataclass(frozen=True)
class TrapFamilyInstance:
    count: int = 20
    seed: int = 0
    length: int = 4
    vocab_size: int = 3

    def build(self) -> list[tuple[str, Denoiser]]:
        fam = trap_family(self.count, self.seed, self.length, self.vocab_size)
        return [(f"trap-{self.seed}-{i}", m) for i, m in enumerate(fam)]


@dataclass(frozen=True)
class TabularInstance:
    path: str

    def build(self) -> list[tuple[str, Denoiser]]:
        model = load_model_file(self.path, "tabular instance")
        if not isinstance(model, TabularModel):
            raise ConfigError(f"tabular instance {self.path} holds no joint table")
        return [(Path(self.path).stem, model)]


@dataclass(frozen=True)
class NgramInstance:
    path: str
    n: int = 3
    alpha: float = 0.5
    vocab_size: int | None = None  # None -> max corpus token + 1

    def build(self) -> list[tuple[str, Denoiser]]:
        model = fit_ngram(load_corpus(self.path), self.n, self.alpha, self.vocab_size)
        return [(f"ngram-{Path(self.path).stem}", model)]


INSTANCE_KINDS = {
    "trap_family": TrapFamilyInstance,
    "tabular": TabularInstance,
    "ngram": NgramInstance,
}


def _read_instance(obj):
    """An instance object read into the dataclass its "kind" names."""
    if not isinstance(obj, dict):
        raise ConfigError(f"an instance must be a JSON object with key 'kind', got {obj!r}")
    rest = dict(obj)
    kind = rest.pop("kind", None)
    if not isinstance(kind, str) or kind not in INSTANCE_KINDS:
        raise ConfigError(f"unknown instance kind {kind!r}")
    return from_json(INSTANCE_KINDS[kind], rest)


def build_instances(obj) -> list[tuple[str, Denoiser]]:
    """Instance list from a JSON description (one object or a list); every
    object is read before any instance is built."""
    specs = [_read_instance(item) for item in (obj if isinstance(obj, list) else [obj])]
    return [inst for spec in specs for inst in spec.build()]


def best_of_n_decode(
    model: Denoiser,
    prompt: Sequence[int],
    cfg: DecodeConfig,
    n: int,
    seed: int,
) -> tuple[DecodeResult, list[DecodeResult]]:
    """Majority completion over n sub-decodes with derived seeds seed*n + i.

    Ties break toward the lexicographically smallest completion; the
    returned result is the first sub-decode that produced the winner.
    """
    subs: list[DecodeResult] = []
    for i in range(n):
        sub_seed = seed * n + i
        sub_cfg = replace(cfg, search=replace(cfg.search, seed=sub_seed))
        subs.append(decode(model, prompt, sub_cfg))
    counts: dict[tuple[int, ...], int] = {}
    for res in subs:
        key = res.final.gen_tokens()
        counts[key] = counts.get(key, 0) + 1
    winner = max(counts, key=lambda k: (counts[k], tuple(-t for t in k)))
    chosen = next(r for r in subs if r.final.gen_tokens() == winner)
    return chosen, subs


def _run_cell(
    model: Denoiser, prompt: Sequence[int], method: MethodSpec, seed: int
) -> tuple[DecodeResult, int]:
    counted = CountingDenoiser(model)
    cfg = replace(method.config, search=replace(method.config.search, seed=seed))
    if method.kind == "medal":
        result = decode(counted, prompt, cfg)
    elif method.kind == "greedy":
        result = decode_greedy_baseline(counted, prompt, cfg)
    else:
        result, _ = best_of_n_decode(counted, prompt, cfg, method.n, seed)
    return result, counted.calls


def _result_row(
    instance_id: str,
    model: Denoiser,
    method: MethodSpec,
    seed: int,
    result: DecodeResult,
    calls: int,
) -> dict:
    logprob = None
    if isinstance(model, TabularModel):
        logprob = model.joint_logprob(result.final.gen_tokens())
        if logprob == float("-inf"):
            logprob = None  # zero-mass completion; keep JSON finite
    gain = 0.0
    if result.pool is not None and result.chosen_candidate >= 0:
        gain = result.pool.entries[result.chosen_candidate].score
    return {
        "kind": "row",
        "instance": instance_id,
        "method": method.id,
        "seed": seed,
        "logprob": logprob,
        "cumulative_gain": gain,
        "model_calls": calls,
        "tokens": list(result.final.gen_tokens()),
    }


def _summary(rows: list[dict], method_ids: Sequence[str]) -> dict:
    per_method = {}
    for mid in method_ids:
        mine = [r for r in rows if r.get("method") == mid and "error" not in r]
        logps = [r["logprob"] for r in mine if r.get("logprob") is not None]
        gains = [r["cumulative_gain"] for r in mine]
        calls = [r["model_calls"] for r in mine]
        per_method[mid] = {
            "rows": len(mine),
            "errors": sum(
                1 for r in rows if r.get("method") == mid and "error" in r
            ),
            "mean_logprob": float(np.mean(logps)) if logps else None,
            "std_logprob": float(np.std(logps)) if logps else None,
            "mean_cumulative_gain": float(np.mean(gains)) if gains else None,
            "mean_model_calls": float(np.mean(calls)) if calls else None,
        }
    return {"kind": "summary", "methods": per_method}


def run_experiment(
    spec: ExperimentSpec, out_path: str | Path | None = None
) -> tuple[list[dict], dict]:
    """Run the full grid; returns (rows, summary) and optionally writes JSONL.

    The metrics file holds one row per (instance, method, seed) plus a
    final summary line. Timings land in <out>.timing.json. Both files are
    created before the grid runs, so an unwritable path raises ConfigError
    before any decode.
    """
    spec.validate()
    if out_path is not None:
        sidecar = str(out_path) + ".timing.json"
        write_text(out_path, "")
        write_text(sidecar, "")
    rows: list[dict] = []
    timing: dict[str, float] = {}
    for instance_id, model in spec.instances:
        for method in spec.methods:
            for seed in spec.seeds:
                start = time.perf_counter()
                try:
                    result, calls = _run_cell(model, spec.prompt, method, seed)
                    row = _result_row(instance_id, model, method, seed, result, calls)
                except MedalError as exc:
                    row = {
                        "kind": "row",
                        "instance": instance_id,
                        "method": method.id,
                        "seed": seed,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                elapsed = time.perf_counter() - start
                timing[method.id] = timing.get(method.id, 0.0) + elapsed
                rows.append(row)
    summary = _summary(rows, [m.id for m in spec.methods])
    if out_path is not None:
        write_text(out_path, jsonl([*rows, summary]))
        write_text(sidecar, json.dumps({"seconds_by_method": timing}, indent=2) + "\n")
    return rows, summary


def ablation_methods(base_cfg: DecodeConfig) -> tuple[MethodSpec, ...]:
    """The four ablation variants plus the greedy reference."""
    no_mcts = replace(base_cfg, search=replace(base_cfg.search, init_length=0))
    no_aug = replace(base_cfg, augmenter="identity")
    margin_only = replace(
        base_cfg, search=replace(base_cfg.search, use_entropy_penalty=False)
    )
    return (
        MethodSpec("full", "medal", base_cfg),
        MethodSpec("no_mcts", "medal", no_mcts),
        MethodSpec("no_augmenter", "medal", no_aug),
        MethodSpec("margin_only", "medal", margin_only),
        MethodSpec("greedy", "greedy", base_cfg),
    )


def sweep_methods(base_cfg: DecodeConfig, lc_values: Sequence[int]) -> tuple[MethodSpec, ...]:
    """One medal method per init depth, plus the greedy reference; lc=0 and
    greedy anchor the curve."""
    depths = tuple(
        MethodSpec(
            f"lc={lc}", "medal", replace(base_cfg, search=replace(base_cfg.search, init_length=lc))
        )
        for lc in lc_values
    )
    return (*depths, MethodSpec("greedy", "greedy", base_cfg))
