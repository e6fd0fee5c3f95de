"""Command-line surface: config loading, model specs, subcommand output."""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from medal import harness
from medal.cli import default_config, load_config, load_model, main, _parse_ints
from medal.decoder import DecodeConfig
from medal.denoisers import FactorizedModel, NGramMaskedModel, TabularModel, serve_denoiser
from medal.errors import ConfigError
from medal.families import trap_family
from medal.harness import (
    ExperimentSpec,
    MethodSpec,
    ablation_methods,
    build_instances,
    run_experiment,
    sweep_methods,
)
from medal.jsonspec import from_json, jsonl
from medal.seqcore import SeqState, Vocab
from medal.theory import verify_theorem1


@pytest.fixture
def trap_file(tmp_path):
    model = trap_family(1, seed=0)[0]
    path = tmp_path / "trap.json"
    model.to_file(path)
    return path


@pytest.fixture
def small_cfg_file(tmp_path):
    cfg = {
        "length": 4,
        "remaining_mode": "argmax",
        "search": {"init_length": 2, "candidate_count": 3, "max_simulations": 60},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_default_config_is_valid():
    cfg = default_config()
    cfg.validate()
    assert cfg.length == 256
    assert cfg.search.init_length == 20
    assert cfg.search.candidate_count == 3
    assert cfg.search.budget == 192


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"length": 8, "width": 2}')
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert isinstance(load_config(None), DecodeConfig)


def test_parse_ints():
    assert _parse_ints("1,2 3") == (1, 2, 3)
    assert _parse_ints("") == ()
    assert _parse_ints(None) == ()


def test_load_model_kinds(tmp_path, trap_file):
    model = load_model(str(trap_file))
    assert isinstance(model, TabularModel)
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps({"vocab_size": 2, "rows": [[0.5, 0.5], [0.9, 0.1]]}))
    assert isinstance(load_model(str(fact)), FactorizedModel)
    corpus = tmp_path / "c.txt"
    corpus.write_text("0 1 2\n2 1 0\n")
    ng = load_model(f"ngram:{corpus}?n=2&alpha=0.25")
    assert isinstance(ng, NGramMaskedModel)
    assert ng.n == 2 and ng.alpha == 0.25
    mystery = tmp_path / "m.json"
    mystery.write_text('{"weights": []}')
    with pytest.raises(ConfigError):
        load_model(str(mystery))
    with pytest.raises(ConfigError):
        load_model("remote:localhost:1")  # no vocab size


def test_decode_command_is_byte_deterministic(tmp_path, trap_file, small_cfg_file):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = [
        "decode", "--model", str(trap_file), "--config", str(small_cfg_file),
        "--seed", "7",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert set(obj) == {"final", "chosen_candidate", "reveal_order",
                        "per_step_scores", "pool"}
    assert len(obj["final"]["tokens"]) == 4
    assert obj["chosen_candidate"] >= 0


def test_remote_model_commands_match_in_process_and_close_their_socket(tmp_path):
    # a socket left open would fail the test as an unraisable ResourceWarning
    corpus = resources.files("medal.data") / "toy_corpus.txt"
    cfg = replace(default_config(), length=32, total_steps=None)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg.to_json()))
    server = serve_denoiser(load_model(f"ngram:{corpus}"))
    server.serve_in_thread()
    host, port = server.server_address
    try:
        for command, seeds in (("decode", ("1", "2", "3")), ("mcts-init", ("1",))):
            for seed in seeds:
                outs = []
                for model in (f"remote:{host}:{port}", f"ngram:{corpus}"):
                    out = tmp_path / f"{len(outs)}.jsonl"
                    assert main([
                        command, "--model", model, "--vocab-size", "12", "--prompt", "0,1",
                        "--config", str(cfg_file), "--seed", seed, "--out", str(out),
                    ]) == 0
                    outs.append(out.read_bytes())
                assert outs[0] == outs[1], (command, seed)
    finally:
        server.shutdown()
        server.server_close()


def test_decode_baseline_flag(tmp_path, trap_file, small_cfg_file):
    out = tmp_path / "g.jsonl"
    code = main([
        "decode", "--model", str(trap_file), "--config", str(small_cfg_file),
        "--baseline", "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["chosen_candidate"] == -1 and obj["pool"] is None


def test_mcts_init_emits_trace_then_pool(tmp_path, trap_file, small_cfg_file):
    out = tmp_path / "t.jsonl"
    code = main([
        "mcts-init", "--model", str(trap_file), "--config", str(small_cfg_file),
        "--out", str(out),
    ])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert all(l["kind"] == "trace" for l in lines[:-1])
    pool = lines[-1]
    assert pool["kind"] == "pool"
    assert not pool["exhausted"]
    assert len(pool["entries"]) == 3


def test_theory_check_lemma(tmp_path, trap_file):
    out = tmp_path / "report.json"
    code = main([
        "theory-check", "--model", str(trap_file), "--mode", "lemma1",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "lemma1"
    assert report["max_excess"] <= 1e-9
    assert report["schedules_checked"] == 75  # 4 positions, all k


def test_theory_check_theorem(tmp_path, trap_file):
    out = tmp_path / "thm.json"
    code = main([
        "theory-check", "--model", str(trap_file), "--mode", "theorem1",
        "--k", "2", "--budgets", "1,2,4", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["budgets"] == [1, 2, 4]
    assert report["j_final"] <= report["j_greedy"] + 1e-9


def test_theory_check_step_size_prints_the_in_process_report(trap_file, capsys):
    # the int --step-size path: the printed report is the in-process
    # verify_theorem1 report of the model as the CLI loads it
    code = main([
        "theory-check", "--model", str(trap_file), "--mode", "theorem1",
        "--k", "2", "--step-size", "1",
    ])
    assert code == 0
    model = load_model(str(trap_file))
    root = SeqState.fully_masked(model.vocab, (), model.length)
    report = verify_theorem1(model, root, 2, [1, 2, 4, 8], step_size=1)
    assert capsys.readouterr().out == json.dumps({"mode": "theorem1", **report}, indent=2) + "\n"


def test_theory_check_theorem1_defaults_apply_when_flags_are_absent(trap_file, capsys):
    # without --k, --budgets and --seed, theorem1 runs k=2 at budgets 1,2,4,8, seed 0
    assert main(["theory-check", "--model", str(trap_file), "--mode", "theorem1"]) == 0
    model = load_model(str(trap_file))
    root = SeqState.fully_masked(model.vocab, (), model.length)
    report = verify_theorem1(model, root, 2, [1, 2, 4, 8], seed=0)
    assert capsys.readouterr().out == json.dumps({"mode": "theorem1", **report}, indent=2) + "\n"


def test_theory_check_rejects_non_tabular(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("0 1\n")
    code = main(["theory-check", "--model", f"ngram:{corpus}"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_command(tmp_path, small_cfg_file):
    spec = {
        "instances": {"kind": "trap_family", "count": 2, "seed": 0},
        "methods": [
            {"id": "medal", "kind": "medal",
             "config": json.loads(small_cfg_file.read_text())},
            {"id": "greedy", "kind": "greedy",
             "config": json.loads(small_cfg_file.read_text())},
        ],
        "seeds": [1, 2],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "bench.jsonl"
    assert main(["bench", "--config", str(spec_path), "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert len(lines) == 2 * 2 * 2 + 1
    assert lines[-1]["kind"] == "summary"
    assert (tmp_path / "bench.jsonl.timing.json").exists()


def test_sweep_command_with_lc_override(tmp_path, small_cfg_file):
    spec = {
        "instances": {"kind": "trap_family", "count": 1, "seed": 3},
        "config": json.loads(small_cfg_file.read_text()),
        "seeds": [1],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweep.jsonl"
    code = main(["sweep", "--config", str(spec_path), "--lc", "0,2",
                 "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    methods = [l["method"] for l in lines if l["kind"] == "row"]
    assert methods == ["lc=0", "lc=2", "greedy"]


def test_ablate_command(tmp_path, small_cfg_file):
    spec = {
        "instances": {"kind": "trap_family", "count": 1, "seed": 2},
        "config": json.loads(small_cfg_file.read_text()),
        "seeds": [1],
    }
    spec_path = tmp_path / "abl.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "abl.jsonl"
    assert main(["ablate", "--config", str(spec_path), "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    methods = {l["method"] for l in lines if l["kind"] == "row"}
    assert methods == {"full", "no_mcts", "no_augmenter", "margin_only", "greedy"}


EXPERIMENT_CFG = {
    "length": 4,
    "remaining_mode": "argmax",
    "search": {"init_length": 2, "candidate_count": 3, "max_simulations": 60},
}
BENCH_METHODS = [
    {"id": "medal", "config": EXPERIMENT_CFG},
    {"id": "greedy", "kind": "greedy", "config": EXPERIMENT_CFG},
    {"id": "bo2", "kind": "best_of_n", "n": 2,
     "config": {**EXPERIMENT_CFG, "remaining_mode": "sample"}},
]


@pytest.mark.parametrize(
    "command,spec,methods",
    [
        (["bench"], {"methods": BENCH_METHODS},
         tuple(from_json(MethodSpec, m) for m in BENCH_METHODS)),
        (["ablate"], {"config": EXPERIMENT_CFG},
         ablation_methods(DecodeConfig.from_json(EXPERIMENT_CFG))),
        (["sweep"], {"config": EXPERIMENT_CFG, "lc_values": [0, 1]},
         sweep_methods(DecodeConfig.from_json(EXPERIMENT_CFG), (0, 1))),
        (["sweep", "--lc", "0,2"], {"config": EXPERIMENT_CFG, "lc_values": [0, 1]},
         sweep_methods(DecodeConfig.from_json(EXPERIMENT_CFG), (0, 2))),
    ],
    ids=["bench", "ablate", "sweep", "sweep_lc"],
)
def test_experiment_commands_write_the_run_experiment_grid(
    tmp_path, capsys, command, spec, methods
):
    spec = {"instances": {"kind": "trap_family", "count": 1, "seed": 4}, "seeds": [1, 2], **spec}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    experiment = ExperimentSpec(
        tuple(build_instances(spec["instances"])), methods, tuple(spec["seeds"])
    )
    rows, summary = run_experiment(experiment)
    out = tmp_path / "rows.jsonl"
    assert main([*command, "--config", str(spec_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == jsonl([*rows, summary])
    timing = json.loads((tmp_path / "rows.jsonl.timing.json").read_text())
    assert list(timing["seconds_by_method"]) == [m.id for m in experiment.methods]
    assert main([*command, "--config", str(spec_path)]) == 0
    assert capsys.readouterr().out == jsonl([summary])


MODEL_ARGS = ["--model", "{d}/trap.json", "--config", "{d}/cfg.json"]
EXPERIMENT_ARGS = {
    "bench": ["bench", "--config", "{d}/spec.json"],
    "ablate": ["ablate", "--config", "{d}/spec.json"],
    "sweep": ["sweep", "--config", "{d}/spec.json", "--lc", "0"],
}


@pytest.mark.parametrize(
    "argv,unwritable",
    [
        (["decode", *MODEL_ARGS], "out"),
        (["mcts-init", *MODEL_ARGS], "out"),
        (["theory-check", "--model", "{d}/trap.json"], "out"),
        *((argv, "out") for argv in EXPERIMENT_ARGS.values()),
        *((argv, "sidecar") for argv in EXPERIMENT_ARGS.values()),
    ],
    ids=["decode", "mcts_init", "theory_check", "bench", "ablate", "sweep",
         "bench_sidecar", "ablate_sidecar", "sweep_sidecar"],
)
def test_unwritable_out_is_a_config_error(
    tmp_path, trap_file, small_cfg_file, capsys, monkeypatch, argv, unwritable
):
    spec = {"instances": {"kind": "trap_family", "count": 1, "seed": 0}}
    if argv[0] == "bench":
        spec["methods"] = [{"id": "g", "kind": "greedy"}]
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    if unwritable == "out":
        out, named = tmp_path / "missing" / "x.jsonl", "missing/x.jsonl"
    else:
        out, named = tmp_path / "x.jsonl", "x.jsonl.timing.json"
        (tmp_path / "x.jsonl.timing.json").mkdir()

    def no_cell(*args):
        raise AssertionError("the grid ran before the output path was checked")

    monkeypatch.setattr(harness, "_run_cell", no_cell)
    assert main([*(arg.format(d=tmp_path) for arg in argv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and named in err


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"length": "abc"}, "length"),
        ({"length": True}, "length"),
        ({"length": 4.0}, "length"),
        ({"sample_temperature": "1"}, "sample_temperature"),
        ({"total_steps": [4]}, "total_steps"),
        ({"template_tokens": 5}, "template_tokens"),
        ({"template_tokens": [1, "2"]}, "template_tokens"),
        ({"search": None}, "search config must be a JSON object, got null"),
        ({"search": {"k1": "3"}}, "k1"),
        ({"search": {"max_simulations": 2.5}}, "max_simulations"),
        ({"search": {"use_entropy_penalty": 1}}, "use_entropy_penalty"),
        ([4], "decode config"),
        ({"search": {"seed": True}}, "seed"),
    ],
    ids=[
        "length_str", "length_bool", "length_float", "temperature_str", "steps_list",
        "template_int", "template_str_item", "search_null", "k1_str",
        "simulations_float", "penalty_int", "not_an_object", "seed_bool",
    ],
)
def test_ill_typed_config_is_a_config_error(tmp_path, trap_file, capsys, cfg, key):
    with pytest.raises(ConfigError, match=key):
        DecodeConfig.from_json(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["decode", "--model", str(trap_file), "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"search": {"gamma": NaN}}', "gamma"),
        ('{"search": {"gamma": Infinity}}', "gamma"),
        ('{"search": {"epsilon": NaN}}', "epsilon"),
        ('{"search": {"epsilon": Infinity}}', "epsilon"),
        ('{"search": {"c_explore": NaN}}', "c_explore"),
        ('{"search": {"c_explore": Infinity}}', "c_explore"),
        ('{"sample_temperature": NaN}', "sample_temperature"),
        ('{"sample_temperature": Infinity}', "sample_temperature"),
        ('{"sample_temperature": -Infinity}', "sample_temperature"),
    ],
)
def test_non_finite_config_float_is_a_config_error(tmp_path, trap_file, capsys, text, key):
    # Python's json reads the NaN and Infinity literals as floats
    with pytest.raises(ConfigError, match=key):
        DecodeConfig.from_json(json.loads(text))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["decode", "--model", str(trap_file), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and key in err


@pytest.mark.parametrize("alpha", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_ngram_alpha_is_a_config_error(tmp_path, capsys, alpha):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("0 1 2 1 0\n")
    with pytest.raises(ConfigError, match="alpha"):
        load_model(f"ngram:{corpus}?alpha={alpha}")
    with pytest.raises(ConfigError, match="alpha"):
        NGramMaskedModel(Vocab(3), 1, float(alpha), [{}])
    assert main(["decode", "--model", f"ngram:{corpus}?alpha={alpha}"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_packaged_default_config_round_trips_key_for_key():
    text = resources.files("medal.data").joinpath("default_config.json").read_text()
    obj = json.loads(text)
    assert json.dumps(DecodeConfig.from_json(obj).to_json()) == json.dumps(obj)


def test_config_list_field_reads_as_tuple_and_writes_as_list():
    cfg = DecodeConfig.from_json({"template_tokens": [1, 2]})
    assert cfg.template_tokens == (1, 2)
    assert cfg.to_json()["template_tokens"] == [1, 2]
    assert DecodeConfig.from_json(cfg.to_json()) == cfg


def test_config_accepts_ints_for_floats():
    cfg = DecodeConfig.from_json({
        "length": 8, "sample_temperature": 2,
        "search": {"init_length": 2, "gamma": 5, "c_explore": 1},
    })
    assert cfg.sample_temperature == 2 and cfg.search.gamma == 5
    assert DecodeConfig.from_json({"total_steps": None, "search": {"max_simulations": None}})


def test_bench_spec_with_infeasible_family_is_a_config_error(tmp_path, small_cfg_file, capsys):
    spec = {
        "instances": {"kind": "trap_family", "count": 1, "seed": 0, "vocab_size": 2},
        "methods": [{"id": "greedy", "kind": "greedy",
                     "config": json.loads(small_cfg_file.read_text())}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["bench", "--config", str(spec_path)]) == 2
    assert "vocab_size >= 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,files",
    [
        (["decode", "--model", "{d}/trap.json", "--seed", "-1"], {}),
        (["decode", "--model", "{d}/trap.json", "--config", "{d}/spec.json"],
         {"search": {"seed": -5}}),
        (["bench", "--config", "{d}/spec.json"],
         {"instances": {"kind": "trap_family", "count": 1, "seed": 0},
          "methods": [{"id": "g", "kind": "greedy"}], "seeds": [-1, 1]}),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "theorem1", "--seed", "-3"],
         {}),
    ],
    ids=["decode_flag", "config_search_seed", "bench_seeds", "theorem1_flag"],
)
def test_negative_seed_is_a_config_error(tmp_path, trap_file, capsys, argv, files):
    # numpy refuses negative seeds; each entry point must refuse them first
    (tmp_path / "spec.json").write_text(json.dumps(files))
    assert main([arg.format(d=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


TRAPS = {"kind": "trap_family", "count": 1, "seed": 0}


@pytest.mark.parametrize(
    "command,spec,key",
    [
        ("bench", {"methods": [{"id": "greedy", "kind": "greedy"}]}, "instances"),
        ("bench", {"instances": TRAPS, "methods": [{"kind": "greedy"}]}, "id"),
        ("bench", {"instances": {**TRAPS, "count": "x"}, "methods": [{"id": "g"}]}, "count"),
        ("bench", [TRAPS], "instances"),
        ("bench", {"instances": TRAPS, "methods": 3}, "methods"),
        ("bench", {"instances": {"kind": "tabular"}, "methods": [{"id": "g"}]}, "path"),
        ("ablate", {"instances": TRAPS, "seeds": 5}, "seeds"),
        ("sweep", {"instances": TRAPS, "lc_values": ["a"]}, "lc_values"),
        ("sweep", {"instances": [TRAPS, 7]}, "kind"),
        ("bench", {"instances": {"kind": "ngram", "path": "c.txt", "vocab_size": "x"},
                   "methods": [{"id": "g"}]}, "vocab_size"),
        ("bench", {"instances": TRAPS, "methods": [{"id": "g"}], "seedz": [1]}, "seedz"),
        ("bench", {"instances": {**TRAPS, "lenght": 4}, "methods": [{"id": "g"}]}, "lenght"),
        ("bench", {"instances": {"kind": "tabular", "path": "t.json", "paht": "t.json"},
                   "methods": [{"id": "g"}]}, "paht"),
        ("bench", {"instances": {"kind": "ngram", "path": "c.txt", "alpah": 0.1},
                   "methods": [{"id": "g"}]}, "alpah"),
        ("bench", {"instances": TRAPS, "methods": [{"id": "g", "nn": 3}]}, "nn"),
        ("bench", {"instances": {**TRAPS, "count": 2.9}, "methods": [{"id": "g"}]}, "count"),
        ("ablate", {"instances": TRAPS, "seeds": [1.7]}, "seeds"),
        ("bench", {"instances": TRAPS,
                   "methods": [{"id": "b", "kind": "best_of_n", "n": 2.5}]}, "n"),
        ("bench", {"instances": {"kind": "ngram", "path": "c.txt", "vocab_size": "12"},
                   "methods": [{"id": "g"}]}, "vocab_size"),
    ],
    ids=["no_instances", "method_without_id", "count_str", "top_level_list", "methods_int",
         "tabular_without_path", "seeds_int", "lc_values_str", "instance_not_object",
         "ngram_vocab_size_str", "unknown_top_level_key", "unknown_trap_family_key",
         "unknown_tabular_key", "unknown_ngram_key", "unknown_method_key", "count_float",
         "seeds_float", "method_n_float", "ngram_vocab_size_int_str"],
)
def test_ill_formed_experiment_spec_is_a_config_error(tmp_path, capsys, command, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.fixture
def input_dir(tmp_path, trap_file):
    (tmp_path / "not_json.json").write_text("{not json")
    (tmp_path / "no_vocab.json").write_text(json.dumps({"length": 1, "probs": []}))
    for name, entry, extra in [
        ("tab_float_token", {"tokens": [0.9, 1.7], "p": 0.5}, {}),
        ("tab_bool_token", {"tokens": [True, 0], "p": 0.5}, {}),
        ("tab_string_p", {"tokens": [0, 1], "p": "0.5"}, {}),
        ("tab_negative_token", {"tokens": [-1, 0], "p": 0.5}, {}),
        ("tab_token_is_vocab_size", {"tokens": [0, 2], "p": 0.5}, {}),
        ("tab_wrong_length", {"tokens": [0], "p": 0.5}, {}),
        ("tab_unknown_key", {"tokens": [0, 1], "p": 0.5}, {"temperature": 1.0}),
    ]:
        probs = [entry, {"tokens": [1, 1], "p": 0.5}]
        obj = {"vocab_size": 2, "length": 2, "probs": probs, **extra}
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    (tmp_path / "tab_probs_mapping.json").write_text(
        json.dumps({"vocab_size": 2, "length": 2, "probs": {"a": 1}})
    )
    (tmp_path / "tab_too_large.json").write_text(
        json.dumps({"vocab_size": 3, "length": 40, "probs": []})
    )
    (tmp_path / "fact_length.json").write_text(
        json.dumps({"vocab_size": 2, "length": 3, "rows": [[0.5, 0.5], [0.9, 0.1]]})
    )
    (tmp_path / "fact_string_entry.json").write_text(
        json.dumps({"vocab_size": 2, "rows": [[0.5, "0.5"], [0.9, 0.1]]})
    )
    (tmp_path / "corpus.txt").write_text("0 1 2\n2 1 0\n")
    (tmp_path / "bad_corpus.txt").write_text("0 1 2\n2 x 0\n")
    methods = [{"id": "g", "kind": "greedy"}]
    for name, instance in [
        ("spec_absent_tabular", {"kind": "tabular", "path": str(tmp_path / "absent.json")}),
        ("spec_bad_tabular", {"kind": "tabular", "path": str(tmp_path / "not_json.json")}),
        ("spec_absent_corpus", {"kind": "ngram", "path": str(tmp_path / "absent.txt")}),
    ]:
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"instances": instance, "methods": methods})
        )
    return tmp_path


@pytest.mark.parametrize(
    "argv,named",
    [
        (["decode", "--model", "{d}/absent.json"], "absent.json"),
        (["decode", "--model", "{d}/trap.json", "--config", "{d}/absent.json"], "absent.json"),
        (["bench", "--config", "{d}/absent.json"], "absent.json"),
        (["bench", "--config", "{d}/spec_absent_tabular.json"], "absent.json"),
        (["decode", "--model", "ngram:{d}/absent.txt"], "absent.txt"),
        (["bench", "--config", "{d}/spec_absent_corpus.json"], "absent.txt"),
        (["decode", "--model", "{d}/not_json.json"], "not_json.json"),
        (["decode", "--model", "{d}/trap.json", "--config", "{d}/not_json.json"], "not_json.json"),
        (["sweep", "--config", "{d}/not_json.json"], "not_json.json"),
        (["bench", "--config", "{d}/spec_bad_tabular.json"], "not_json.json"),
        (["decode", "--model", "{d}/no_vocab.json"], "vocab_size"),
        (["decode", "--model", "ngram:{d}/bad_corpus.txt"], "line 2"),
        (["decode", "--model", "ngram:{d}/corpus.txt?n=x"], "n=x"),
        (["decode", "--model", "ngram:{d}/corpus.txt?alpah=0.1"], "alpah"),
        (["decode", "--model", "{d}/trap.json", "--prompt", "0,a"], "--prompt"),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "theorem1", "--step-size", "0"],
         "step sizes"),
        (["decode", "--model", "{d}/trap.json", "--vocab-size", "9"], "--vocab-size"),
        (["decode", "--model", "{d}/trap.json", "--mask-id", "1"], "--mask-id"),
        (["decode", "--model", "ngram:{d}/corpus.txt", "--mask-id", "1"], "--mask-id"),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "theorem1", "--k", "0"],
         "k must be >= 1"),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "lemma1", "--k", "3"],
         "--k applies only to --mode theorem1"),
        (["theory-check", "--model", "{d}/trap.json", "--budgets", "4"],
         "--budgets applies only to --mode theorem1"),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "lemma1", "--step-size", "1"],
         "--step-size applies only to --mode theorem1"),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "lemma1", "--seed", "-3"],
         "--seed applies only to --mode theorem1"),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "theorem1", "--budgets", ","],
         "--budgets lists no budget"),
        (["theory-check", "--model", "{d}/trap.json", "--mode", "theorem1", "--budgets", ""],
         "--budgets lists no budget"),
        (["decode", "--model", "{d}/tab_float_token.json"],
         "tab_float_token.json: tabular entry key 'tokens'"),
        (["decode", "--model", "{d}/tab_bool_token.json"],
         "tab_bool_token.json: tabular entry key 'tokens'"),
        (["decode", "--model", "{d}/tab_string_p.json"], "tab_string_p.json: tabular entry key 'p'"),
        (["decode", "--model", "{d}/tab_negative_token.json"],
         "tab_negative_token.json: tabular entry key 'tokens'"),
        (["decode", "--model", "{d}/tab_token_is_vocab_size.json"],
         "tab_token_is_vocab_size.json: tabular entry key 'tokens'"),
        (["decode", "--model", "{d}/tab_wrong_length.json"],
         "tab_wrong_length.json: tabular entry key 'tokens'"),
        (["decode", "--model", "{d}/tab_unknown_key.json"],
         "tab_unknown_key.json: unknown tabular file keys ['temperature']"),
        (["decode", "--model", "{d}/tab_probs_mapping.json"],
         "tab_probs_mapping.json: tabular file key 'probs' must be list of tabular entry,"
         ' got {"a": 1}'),
        (["decode", "--model", "{d}/tab_too_large.json"],
         "tab_too_large.json: tabular file keys 'vocab_size' and 'length'"),
        (["theory-check", "--model", "{d}/fact_length.json"],
         "fact_length.json: factorized file key 'length'"),
        (["decode", "--model", "{d}/fact_string_entry.json"],
         "fact_string_entry.json: factorized file key 'rows'"),
    ],
    ids=[
        "model_absent", "config_absent", "spec_absent", "tabular_absent", "corpus_absent",
        "spec_corpus_absent", "model_not_json", "config_not_json", "spec_not_json",
        "tabular_not_json", "model_without_vocab_size", "corpus_token_not_int",
        "ngram_n_not_int", "ngram_unknown_parameter", "prompt_not_int", "step_size_zero",
        "model_file_vocab_size", "model_file_mask_id", "ngram_mask_id", "k_zero",
        "lemma1_k", "lemma1_budgets", "lemma1_step_size", "lemma1_seed", "budgets_comma",
        "budgets_empty",
        "tabular_float_token", "tabular_bool_token", "tabular_string_p",
        "tabular_negative_token", "tabular_token_is_vocab_size", "tabular_wrong_length",
        "tabular_unknown_key", "tabular_probs_not_list", "tabular_joint_too_large",
        "factorized_length_mismatch", "factorized_string_entry",
    ],
)
def test_unreadable_input_is_a_config_error(input_dir, capsys, argv, named):
    assert main([arg.format(d=input_dir) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
