"""Command-line entry points.

Subcommands:
  decode        run the full pipeline (or --baseline for greedy) on a model
  mcts-init     run only the search stage; emits the iteration trace + pool
  theory-check  lemma/theorem verification reports for a tabular model
  bench         run an experiment spec (instances x methods x seeds)
  ablate        ablation variants on an instance family
  sweep         init-depth scaling sweep

bench, ablate and sweep differ only in where their methods come from; each
runs one harness.run_experiment grid and, without --out, prints its summary.
All outputs are JSONL (or a single JSON report for theory-check) with
deterministic bytes for a fixed seed, written by jsonspec.write_text to
--out or stdout; timings go to .timing.json sidecars.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

from .decoder import DecodeConfig, decode, decode_greedy_baseline
from .denoisers import RemoteDenoiser, TabularModel
from .errors import ConfigError, MedalError
from .harness import (
    ExperimentSpec,
    MethodSpec,
    NgramInstance,
    ablation_methods,
    build_instances,
    load_model_file,
    run_experiment,
    sweep_methods,
)
from .jsonspec import from_json, jsonl, read_json, write_text
from .mcts import run_cgmcts
from .seqcore import SeqState, Vocab
from .theory import verify_lemma1, verify_theorem1

def default_config() -> DecodeConfig:
    text = resources.files("medal.data").joinpath("default_config.json").read_text()
    return DecodeConfig.from_json(json.loads(text))


def load_config(path: str | None) -> DecodeConfig:
    if path is None:
        return default_config()
    return DecodeConfig.from_json(read_json(path, "config file"))


def load_model(spec: str, vocab_size: int | None = None, mask_id: int | None = None):
    """Model spec: a JSON file, remote:host:port, or ngram:<corpus>[?key=value&...]
    whose keys are those of an ngram instance and whose values are JSON.
    --vocab-size is the vocab of a remote model and the default vocab_size
    of an ngram one; --mask-id applies to remote models only."""
    if spec.startswith("remote:"):
        if vocab_size is None:
            raise ConfigError("remote models need --vocab-size")
        vocab = Vocab(vocab_size, mask_id if mask_id is not None else -1)
        return RemoteDenoiser(spec[len("remote:") :], vocab)
    if mask_id is not None:
        raise ConfigError("--mask-id applies only to remote: models")
    if spec.startswith("ngram:"):
        path, _, query = spec[len("ngram:") :].partition("?")
        obj = {"path": path, "vocab_size": vocab_size}
        for kv in filter(None, query.split("&")):
            key, _, value = kv.partition("=")
            try:
                obj[key] = json.loads(value)
            except ValueError:
                raise ConfigError(
                    f"model spec {spec!r} has a parameter {kv!r} whose value is not JSON"
                ) from None
        return from_json(NgramInstance, obj).build()[0][1]
    if vocab_size is not None:
        raise ConfigError("--vocab-size applies only to remote: and ngram: models")
    return load_model_file(spec)


def _parse_ints(text: str | None, what: str = "integer list") -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(
            f"{what} must be integers separated by commas or spaces, got {text!r}"
        ) from None


def _apply_seed(cfg: DecodeConfig, seed: int | None) -> DecodeConfig:
    if seed is None:
        return cfg
    return replace(cfg, search=replace(cfg.search, seed=seed))


def _cmd_decode(args: argparse.Namespace) -> int:
    with load_model(args.model, args.vocab_size, args.mask_id) as model:
        cfg = _apply_seed(load_config(args.config), args.seed)
        prompt = _parse_ints(args.prompt, "--prompt")
        if args.baseline:
            result = decode_greedy_baseline(model, prompt, cfg)
        else:
            result = decode(model, prompt, cfg)
    write_text(args.out, jsonl([result.to_json()]))
    return 0


def _cmd_mcts_init(args: argparse.Namespace) -> int:
    lines: list[dict] = []

    def trace(rec: dict) -> None:
        lines.append({"kind": "trace", **rec})

    with load_model(args.model, args.vocab_size, args.mask_id) as model:
        cfg = _apply_seed(load_config(args.config), args.seed)
        cfg.validate()
        prompt = _parse_ints(args.prompt, "--prompt")
        root = SeqState.fully_masked(model.vocab, prompt, cfg.length)
        pool = run_cgmcts(model, root, cfg.search, trace=trace)
    lines.append(
        {
            "kind": "pool",
            "exhausted": pool.exhausted,
            "entries": [e.to_json() for e in pool.entries],
        }
    )
    write_text(args.out, jsonl(lines))
    return 0


def _cmd_theory_check(args: argparse.Namespace) -> int:
    if args.mode == "lemma1":
        for flag, value in (("--k", args.k), ("--budgets", args.budgets),
                            ("--step-size", args.step_size), ("--seed", args.seed)):
            if value is not None:
                raise ConfigError(f"{flag} applies only to --mode theorem1")
    budgets = (1, 2, 4, 8) if args.budgets is None else _parse_ints(args.budgets, "--budgets")
    if not budgets:
        raise ConfigError(f"--budgets lists no budget, got {args.budgets!r}")
    with load_model(args.model, args.vocab_size, args.mask_id) as model:
        if not isinstance(model, TabularModel):
            raise ConfigError("theory-check needs a tabular model")
        root = SeqState.fully_masked(model.vocab, (), model.length)
        if args.mode == "lemma1":
            report = verify_lemma1(model, root)
        else:
            report = verify_theorem1(
                model,
                root,
                2 if args.k is None else args.k,
                budgets,
                step_size=args.step_size,
                seed=0 if args.seed is None else args.seed,
            )
    write_text(args.out, json.dumps({"mode": args.mode, **report}, indent=2) + "\n")
    return 0


@dataclass(frozen=True)
class BenchSpec:
    """The experiment spec file of `bench`."""

    instances: dict | list
    methods: tuple[MethodSpec, ...]
    seeds: tuple[int, ...] = (1,)
    prompt: tuple[int, ...] = ()


@dataclass(frozen=True)
class AblateSpec:
    """The experiment spec file of `ablate`; `config` is the base config."""

    instances: dict | list
    config: DecodeConfig = field(default_factory=DecodeConfig)
    seeds: tuple[int, ...] = (1,)
    prompt: tuple[int, ...] = ()


@dataclass(frozen=True)
class SweepSpec(AblateSpec):
    """The experiment spec file of `sweep`."""

    lc_values: tuple[int, ...] = (0, 1, 2)


def _cmd_experiment(args: argparse.Namespace) -> int:
    """bench, ablate and sweep: the spec file read into the subcommand's spec
    class, its methods, and one run_experiment grid."""
    spec = from_json(args.spec, read_json(args.config, "experiment spec"))
    instances = tuple(build_instances(spec.instances))
    if args.command == "bench":
        methods = spec.methods
    elif args.command == "ablate":
        methods = ablation_methods(spec.config)
    else:
        methods = sweep_methods(spec.config, _parse_ints(args.lc, "--lc") or spec.lc_values)
    experiment = ExperimentSpec(instances, methods, spec.seeds, spec.prompt)
    _, summary = run_experiment(experiment, args.out)
    if args.out is None:
        write_text(None, jsonl([summary]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="medal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="model file, ngram:<corpus>, or remote:host:port")
        p.add_argument("--vocab-size", type=int, default=None)
        p.add_argument("--mask-id", type=int, default=None)

    p = sub.add_parser("decode", help="full decode (or greedy with --baseline)")
    add_model_args(p)
    p.add_argument("--prompt", default="", help="comma or space separated token ids")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--baseline", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("mcts-init", help="search stage only; trace + pool")
    add_model_args(p)
    p.add_argument("--prompt", default="")
    p.add_argument("--config", default=None)
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted like decode's; the search draws no random numbers, so it"
        " cannot change the output",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mcts_init)

    p = sub.add_parser("theory-check", help="lemma1 / theorem1 reports")
    add_model_args(p)
    p.add_argument("--mode", choices=["lemma1", "theorem1"], default="lemma1")
    p.add_argument("--k", type=int, default=None, help="theorem1 steps (default 2)")
    p.add_argument("--budgets", default=None, help="theorem1 budgets (default 1,2,4,8)")
    p.add_argument("--step-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theory_check)

    for name, spec, about in (
        ("bench", BenchSpec, "run an experiment spec file"),
        ("ablate", AblateSpec, "ablation variants on a family"),
        ("sweep", SweepSpec, "init-depth scaling sweep"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True)
        if name == "sweep":
            p.add_argument("--lc", default="", help="override lc values, e.g. 0,1,2,3")
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_experiment, spec=spec)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MedalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
