"""Experiment grid: rows, summaries, error capture, ablations, sweeps."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from medal.decoder import DecodeConfig, decode
from medal.denoisers import Denoiser, TabularModel
from medal.errors import ConfigError, NoMaskedPositions
from medal.families import trap_family
from medal.harness import (
    ExperimentSpec,
    MethodSpec,
    ablation_methods,
    best_of_n_decode,
    build_instances,
    run_experiment,
    sweep_methods,
)
from medal.jsonspec import jsonl, write_text
from medal.mcts import SearchConfig
from medal.seqcore import Vocab


def tiny_cfg(init_length=2, **kw):
    return DecodeConfig(
        length=4,
        remaining_mode="argmax",
        search=SearchConfig(
            init_length=init_length, candidate_count=3, max_simulations=60
        ),
        **kw,
    )


def two_instances():
    fam = trap_family(2, seed=0)
    return [("trap-0-0", fam[0]), ("trap-0-1", fam[1])]


def make_spec(methods=None, seeds=(1, 2, 3)):
    methods = methods or (
        MethodSpec("medal", "medal", tiny_cfg()),
        MethodSpec("greedy", "greedy", tiny_cfg()),
    )
    return ExperimentSpec(
        instances=tuple(two_instances()),
        methods=tuple(methods),
        seeds=tuple(seeds),
    )


def test_spec_validation():
    spec = make_spec()
    spec.validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(instances=(), methods=spec.methods, seeds=(1,)).validate()
    dup = (spec.methods[0], replace(spec.methods[1], id="medal"))
    with pytest.raises(ConfigError):
        replace(spec, methods=dup).validate()
    with pytest.raises(ConfigError):
        MethodSpec("x", "beam", tiny_cfg()).validate()
    with pytest.raises(ConfigError):
        MethodSpec("x", "best_of_n", tiny_cfg(), n=0).validate()


def test_grid_shape_and_determinism(tmp_path):
    out = tmp_path / "rows.jsonl"
    rows, summary = run_experiment(make_spec(), out)
    # 2 instances x 2 methods x 3 seeds
    assert len(rows) == 12
    assert summary["kind"] == "summary"
    for row in rows:
        assert row["kind"] == "row"
        assert set(row) == {
            "kind", "instance", "method", "seed", "logprob",
            "cumulative_gain", "model_calls", "tokens",
        }
        assert len(row["tokens"]) == 4
    med = summary["methods"]["medal"]
    assert med["rows"] == 6 and med["errors"] == 0
    assert med["mean_logprob"] is not None
    # file holds the rows plus one summary line, all valid JSON
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 13
    assert json.loads(lines[-1])["kind"] == "summary"
    # timing sidecar exists but stays out of the metrics stream
    sidecar = tmp_path / "rows.jsonl.timing.json"
    assert sidecar.exists()
    assert "seconds_by_method" in json.loads(sidecar.read_text())
    # byte-identical rows on a second run
    rows2, _ = run_experiment(make_spec())
    assert rows == rows2


def test_greedy_rows_are_seed_invariant():
    rows, _ = run_experiment(make_spec())
    greedy = [r for r in rows if r["method"] == "greedy"]
    by_instance = {}
    for r in greedy:
        by_instance.setdefault(r["instance"], set()).add(tuple(r["tokens"]))
    # greedy ignores the seed entirely
    assert all(len(v) == 1 for v in by_instance.values())


class ExplodingModel(Denoiser):
    def __init__(self):
        self.vocab = Vocab(3)

    def predict(self, state):
        raise NoMaskedPositions("synthetic failure")


def test_error_rows_do_not_abort_the_grid():
    spec = ExperimentSpec(
        instances=(("boom", ExplodingModel()), two_instances()[0]),
        methods=(MethodSpec("medal", "medal", tiny_cfg()),),
        seeds=(1,),
    )
    rows, summary = run_experiment(spec)
    assert len(rows) == 2
    assert "error" in rows[0] and "NoMaskedPositions" in rows[0]["error"]
    assert "error" not in rows[1]
    assert summary["methods"]["medal"]["errors"] == 1
    assert summary["methods"]["medal"]["rows"] == 1


def test_best_of_n_majority_and_sub_seeds():
    model = two_instances()[0][1]
    cfg = tiny_cfg()
    chosen, subs = best_of_n_decode(model, (), cfg, n=3, seed=5)
    assert len(subs) == 3
    # sub-decodes replay under their derived seeds seed*n + i
    for i, sub in enumerate(subs):
        sub_cfg = replace(cfg, search=replace(cfg.search, seed=5 * 3 + i))
        assert decode(model, (), sub_cfg).final == sub.final
    finals = [s.final.gen_tokens() for s in subs]
    counts = {f: finals.count(f) for f in finals}
    top = max(counts.values())
    winners = sorted(f for f, c in counts.items() if c == top)
    assert chosen.final.gen_tokens() == winners[0]
    assert chosen.final.gen_tokens() in finals


def test_best_of_n_method_row(tmp_path):
    methods = (MethodSpec("bo3", "best_of_n", tiny_cfg(), n=3),)
    rows, summary = run_experiment(make_spec(methods=methods, seeds=(1,)))
    assert len(rows) == 2
    # model calls accumulate across all n sub-decodes
    assert all(r["model_calls"] > 10 for r in rows)
    assert summary["methods"]["bo3"]["rows"] == 2


def test_ablation_matrix_variants(tmp_path):
    rows, summary = run_experiment(
        make_spec(methods=ablation_methods(tiny_cfg()), seeds=(1, 2)), tmp_path / "abl.jsonl"
    )
    methods = {r["method"] for r in rows}
    assert methods == {"full", "no_mcts", "no_augmenter", "margin_only", "greedy"}
    assert len(rows) == 2 * 5 * 2
    # the no-search variant commits argmax from the root, exactly greedy:
    # rows must agree on everything but the method label
    def strip(r):
        return {k: v for k, v in r.items() if k != "method"}

    no_mcts = sorted(
        (strip(r) for r in rows if r["method"] == "no_mcts"),
        key=lambda r: (r["instance"], r["seed"]),
    )
    greedy = sorted(
        (strip(r) for r in rows if r["method"] == "greedy"),
        key=lambda r: (r["instance"], r["seed"]),
    )
    assert no_mcts == greedy


def test_scaling_sweep_has_anchor(tmp_path):
    spec = ExperimentSpec(
        instances=tuple(two_instances()[:1]),
        methods=sweep_methods(tiny_cfg(), (0, 1, 2)),
        seeds=(1,),
    )
    rows, summary = run_experiment(spec)
    methods = [r["method"] for r in rows]
    assert methods == ["lc=0", "lc=1", "lc=2", "greedy"]
    by_method = {r["method"]: r for r in rows}
    assert by_method["lc=0"]["tokens"] == by_method["greedy"]["tokens"]
    assert by_method["lc=2"]["cumulative_gain"] >= by_method["lc=1"]["cumulative_gain"] - 1e-12


def test_build_instances_kinds(tmp_path):
    fam = build_instances({"kind": "trap_family", "count": 2, "seed": 9})
    assert [i for i, _ in fam] == ["trap-9-0", "trap-9-1"]
    model = fam[0][1]
    path = tmp_path / "inst.json"
    model.to_file(path)
    tab = build_instances({"kind": "tabular", "path": str(path)})
    assert tab[0][0] == "inst"
    assert np.allclose(tab[0][1].joint, model.joint)
    corpus = tmp_path / "corp.txt"
    corpus.write_text("0 1 2 0 1 2\n1 2 0 1 2 0\n")
    ng = build_instances({"kind": "ngram", "path": str(corpus), "n": 2})
    assert ng[0][0] == "ngram-corp"
    nested = build_instances(
        [{"kind": "tabular", "path": str(path)},
         {"kind": "ngram", "path": str(corpus)}]
    )
    assert len(nested) == 2
    with pytest.raises(ConfigError):
        build_instances({"kind": "mystery"})


def test_write_jsonl_compact(tmp_path):
    path = tmp_path / "x.jsonl"
    write_text(path, jsonl([{"a": 1}, {"kind": "summary"}]))
    text = path.read_text()
    assert text == '{"a":1}\n{"kind":"summary"}\n'
    with pytest.raises(ConfigError, match="cannot write output file .*missing"):
        write_text(tmp_path / "missing" / "x.jsonl", text)
