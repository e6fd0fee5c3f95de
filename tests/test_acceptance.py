"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line (visible under `pytest -s` or in
the captured output) and enforces both a numerical tolerance and a wall-time
budget. Reference values come from independent oracles: arbitrary-precision
arithmetic, explicit joint-table enumeration, and exhaustive schedule
enumeration, all implemented in tests/oracles.py without touching package
internals.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from importlib import resources
from itertools import product

import numpy as np
import pytest

import oracles
from medal import kernels
from medal.cli import default_config, main
from medal.decoder import (
    DecodeConfig,
    decode,
    decode_greedy_baseline,
    finish_decode,
    replay_reveals,
)
from medal.denoisers import DenoiserOutput, TabularModel, fit_ngram, load_corpus
from medal.families import random_calibrated_model, trap_family, xor_pair_model
from medal.mcts import SearchConfig, simulate
from medal.reward import masked_entropies
from medal.scoring import build_candidates
from medal.seqcore import SeqState, UnmaskAction, Vocab, apply_action, apply_many
from medal.theory import verify_lemma1, verify_theorem1


class _Criterion:
    """Times a criterion body, prints one PASS/FAIL line, enforces a budget."""

    def __init__(self, num: int, desc: str, limit_s: float):
        self.num = num
        self.desc = desc
        self.limit = limit_s
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        stamp = f"[{elapsed:.2f}s < {self.limit:g}s]"
        if exc_type is not None:
            print(f"FAIL criterion {self.num:>2}: {self.desc} {stamp} ({exc})",
                  flush=True)
            return False
        if elapsed >= self.limit:
            print(f"FAIL criterion {self.num:>2}: {self.desc} {stamp} "
                  f"(time budget exceeded)", flush=True)
            raise AssertionError(
                f"criterion {self.num} took {elapsed:.2f}s, budget {self.limit}s"
            )
        suffix = f" {self.detail}" if self.detail else ""
        print(f"PASS criterion {self.num:>2}: {self.desc} {stamp}{suffix}",
              flush=True)
        return False


def _score(logits, gamma=5.0, epsilon=1e-8):
    """(probs, entropy, penalty, margin, margin_factor, scores) of one logit
    vector, through the kernels that build_candidates scores with."""
    probs = kernels.softmax_rows(np.asarray(logits, dtype=np.float64)[None])
    return (probs[0],) + tuple(f[0] for f in kernels.score_rows(probs, gamma, epsilon))


def _reward(model, state, action):
    """The search's reward of `action` at `state`: simulate on the total
    masked entropies of the state and of its child."""
    child = apply_action(state, action)
    after = masked_entropies(child, None if child.is_complete else model.predict(child))
    return simulate(float(masked_entropies(state, model.predict(state)).sum()), float(after.sum()))


def test_criterion_01_scoring_matches_high_precision_oracle():
    with _Criterion(1, "position scoring vs arbitrary-precision oracle "
                       "(50 dists, tol 1e-9; 3 frozen examples)", 1.0) as c:
        rng = np.random.default_rng(20260815)
        worst = 0.0
        for _ in range(50):
            width = int(rng.integers(2, 17))
            logits = rng.normal(scale=4.0, size=width)
            probs, entropy, penalty, margin, factor, scores = _score(
                logits, gamma=5.0, epsilon=1e-8
            )
            ref = oracles.mp_score_row(logits, 5.0, 1e-8)
            pairs = (
                [(entropy, ref["entropy"]),
                 (penalty, ref["penalty"]),
                 (margin, ref["margin"]),
                 (factor, ref["margin_factor"])]
                + list(zip(probs, ref["probs"]))
                + list(zip(scores, ref["scores"]))
            )
            for got, want in pairs:
                err = abs(float(got) - float(want))
                worst = max(worst, err)
                assert oracles.mp_close(got, want, 1e-9)

        # frozen example 1: uniform over four tokens
        _, entropy, penalty, _, factor, scores = _score(np.zeros(4))
        assert entropy == pytest.approx(1.3862943211198914, abs=1e-12)
        assert penalty == pytest.approx(0.25000001, abs=1e-12)
        assert factor == 0.5
        assert scores[0] == pytest.approx(0.03125000125, abs=1e-12)

        # frozen example 2: near-one-hot, margin factor saturates at sigmoid(5)
        _, entropy, _, _, factor, scores = _score(np.array([40.0, 0.0, 0.0]))
        assert entropy == 0.0
        assert factor == pytest.approx(0.9933071490757153, abs=1e-12)
        assert scores[0] == pytest.approx(0.9933071490757151, abs=1e-12)
        assert 0.0 < scores[1] < 1e-17

        # frozen example 3: probabilities (0.7, 0.2, 0.1)
        _, entropy, penalty, margin, factor, scores = _score(np.log(np.array([0.7, 0.2, 0.1])))
        assert entropy == pytest.approx(0.8018185225433381, abs=1e-12)
        assert penalty == pytest.approx(0.4485125917873227, abs=1e-12)
        assert margin == pytest.approx(0.5, abs=1e-12)
        assert factor == pytest.approx(0.9241418199787564, abs=1e-12)
        assert scores[0] == pytest.approx(0.2901424700004078, abs=1e-12)
        assert scores[1] == pytest.approx(0.0828978485715451, abs=1e-12)
        assert scores[2] == pytest.approx(0.0414489242857725, abs=1e-12)
        c.detail = f"max oracle error {worst:.2e}"


def test_criterion_02_candidate_filter_matches_brute_force():
    with _Criterion(2, "two-stage candidate filter vs brute force "
                       "(exhaustive L<=4, V<=4, K1<=3, K2<=6)", 10.0) as c:
        rng = np.random.default_rng(41)
        checked = 0
        for length, vocab, k1, k2 in product(
            range(1, 5), range(2, 5), range(1, 4), range(1, 7)
        ):
            state = SeqState.fully_masked(Vocab(vocab), (), length)
            outputs = [
                DenoiserOutput.from_matrix(range(length), matrix)
                for matrix in (
                    rng.normal(scale=2.0, size=(length, vocab)),
                    rng.normal(scale=2.0, size=(length, vocab)),
                    # fully tied scores exercise the positional tie-breaks
                    np.zeros((length, vocab)),
                )
            ]
            for out in outputs:
                cands = build_candidates(state, out, k1=k1, k2=k2)
                scores = kernels.score_rows(kernels.softmax_rows(out.matrix()), 5.0, 1e-8)[-1]
                table = {p: list(scores[p]) for p in range(length)}
                want = oracles.brute_candidates(table, k1, k2)
                got = [(a.position, a.token, s) for a, s in cands.pooled]
                assert len(got) == len(want)
                for (gp, gt, gs), (wp, wt, ws) in zip(got, want):
                    assert (gp, gt) == (wp, wt)
                    assert abs(gs - ws) < 1e-12
                for pos, tokens in zip(cands.positions.tolist(), cands.tokens.tolist()):
                    ranked = sorted(
                        range(vocab), key=lambda t: (-table[pos][t], t)
                    )[: min(k1, vocab)]
                    assert tokens == ranked
                checked += 1
        c.detail = f"{checked} (L,V,K1,K2) tables"


def test_criterion_03_info_gain_matches_joint_recomputation():
    with _Criterion(3, "information gain vs brute-force joint recomputation "
                       "(exhaustive L<=3, V<=3, tol 1e-9)", 10.0) as c:
        rng = np.random.default_rng(7)
        worst = 0.0
        cases = 0
        for length, vocab in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            joint = rng.dirichlet(np.full(vocab**length, 0.5))
            model = TabularModel(Vocab(vocab), joint.reshape((vocab,) * length))
            cells = oracles.cells_from_joint(model.joint)
            base = SeqState.fully_masked(model.vocab, (), length)
            for r in range(length):  # states with r revealed positions
                for pos_subset in product(range(length), repeat=r):
                    if len(set(pos_subset)) != r:
                        continue
                    for toks in product(range(vocab), repeat=r):
                        state = apply_many(
                            base,
                            [UnmaskAction(p, t) for p, t in zip(pos_subset, toks)],
                        )
                        revealed = dict(zip(pos_subset, toks))
                        for p in range(length):
                            if p in revealed:
                                continue
                            for tok in range(vocab):
                                got = _reward(model, state, UnmaskAction(p, tok))
                                want = oracles.oracle_info_gain(
                                    cells, length, vocab, revealed, p, tok
                                )
                                err = abs(got - want)
                                worst = max(worst, err)
                                assert err < 1e-9
                                cases += 1
        # perfectly coupled pair: one reveal resolves everything
        xor = xor_pair_model()
        root = SeqState.fully_masked(xor.vocab, (), 2)
        for action in (UnmaskAction(0, 0), UnmaskAction(1, 1)):
            assert _reward(xor, root, action) == pytest.approx(1.0, abs=1e-9)
        c.detail = f"{cases} gains, max err {worst:.2e}"


def test_criterion_04_dependence_never_exceeds_gap():
    with _Criterion(4, "sum of dependence errors <= sum of entropy gaps on "
                       "20 calibrated instances, all schedules (tol 1e-9)",
                    60.0) as c:
        shapes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]
        checked = 0
        max_excess = float("-inf")
        for seed in range(20):
            length, vocab = shapes[seed % len(shapes)]
            model = random_calibrated_model(
                np.random.default_rng(500 + seed), length, vocab
            )
            root = SeqState.fully_masked(model.vocab, (), length)
            report = verify_lemma1(model, root)  # raises on violation
            assert report["tol"] == 1e-9
            checked += report["schedules_checked"]
            max_excess = max(max_excess, report["max_excess"])
        # equality witness: the coupled pair is exactly tight on its 1-step
        # schedule, so the bound cannot be slack everywhere
        xor_report = verify_lemma1(xor_pair_model(),
                                   SeqState.fully_masked(Vocab(2), (), 2))
        assert abs(xor_report["min_slack"]) <= 1e-6
        assert xor_report["tightest_schedule"] == [[0, 1]]
        c.detail = f"{checked} schedules, max excess {max_excess:.2e}"


def test_criterion_05_schedule_search_converges_to_oracle():
    with _Criterion(5, "schedule search: J non-increasing in budget and "
                       "<= 1.05x oracle on >= 95% of 40 seeds", 120.0) as c:
        good = 0
        worst_ratio = 1.0
        for seed in range(40):
            vocab = 2 + seed % 2
            model = random_calibrated_model(
                np.random.default_rng(1000 + seed), 3, vocab
            )
            root = SeqState.fully_masked(model.vocab, (), 3)
            # raises BoundViolated if J regresses or loses to a baseline
            report = verify_theorem1(
                model, root, k=2, budgets=[1, 2, 4, 8], seed=seed
            )
            if report["j_oracle"] > 0:
                worst_ratio = max(worst_ratio, report["j_final"] / report["j_oracle"])
            if report["j_final"] <= 1.05 * report["j_oracle"] + 1e-9:
                good += 1
        assert good >= math.ceil(0.95 * 40)
        c.detail = f"{good}/40 within 1.05x oracle, worst ratio {worst_ratio:.4f}"


def test_criterion_06_search_beats_greedy_on_trap_family():
    with _Criterion(6, "search-initialized decoding vs greedy on 20 trap "
                       "instances x 200 seeds (mean log-prob, argmax finish)",
                    120.0) as c:
        base = DecodeConfig(
            length=4,
            remaining_mode="argmax",
            search=SearchConfig(
                init_length=2, candidate_count=3, max_simulations=60
            ),
        )
        fam = trap_family(20, seed=0)
        strict_wins = 0
        margins = []
        for model in fam:
            # greedy takes no rng and ignores the seed; one run is its mean
            g = decode_greedy_baseline(model, (), base)
            greedy_lp = model.joint_logprob(g.final.gen_tokens())
            lps = []
            for seed in range(1, 201):
                cfg = replace(base, search=replace(base.search, seed=seed))
                res = decode(model, (), cfg)
                lps.append(model.joint_logprob(res.final.gen_tokens()))
            mean_lp = float(np.mean(lps))
            assert mean_lp >= greedy_lp - 1e-9
            margins.append(mean_lp - greedy_lp)
            if mean_lp > greedy_lp + 1e-9:
                strict_wins += 1
        assert strict_wins >= math.ceil(0.8 * len(fam))
        c.detail = (f"{strict_wins}/20 strict wins, "
                    f"mean margin {np.mean(margins):+.3f} nats")


def test_criterion_07_gain_grows_with_depth_at_diminishing_rate():
    with _Criterion(7, "chosen-candidate gain non-decreasing in init depth, "
                       "last increment <= first (5 instances x 5 seeds)",
                    60.0) as c:
        base = DecodeConfig(
            length=4,
            remaining_mode="argmax",
            search=SearchConfig(
                init_length=2, candidate_count=3, max_simulations=60
            ),
        )
        fam = trap_family(5, seed=0)
        curves = 0
        for model in fam:
            for seed in (1, 2, 3, 4, 5):
                gains = []
                for lc in (0, 1, 2, 3):
                    cfg = replace(
                        base, search=replace(base.search, init_length=lc, seed=seed)
                    )
                    res = decode(model, (), cfg)
                    if res.pool is None:
                        gains.append(0.0)
                    else:
                        gains.append(res.pool.entries[res.chosen_candidate].score)
                diffs = [b - a for a, b in zip(gains, gains[1:])]
                assert all(d >= -1e-9 for d in diffs), gains
                assert diffs[-1] <= diffs[0] + 1e-9, gains
                curves += 1
        c.detail = f"{curves} depth curves checked"


def test_criterion_08_no_search_reduces_to_plain_decoding():
    with _Criterion(8, "depth-0 identity decode == greedy baseline (argmax) "
                       "and == finish-from-root (sample), 5 instances x 10 seeds",
                    10.0) as c:
        fam = trap_family(5, seed=1)
        argmax_cfg = DecodeConfig(
            length=4,
            remaining_mode="argmax",
            search=SearchConfig(init_length=0, candidate_count=3,
                                max_simulations=60),
        )
        sample_cfg = replace(argmax_cfg, remaining_mode="sample")
        pairs = 0
        for model in fam:
            for seed in range(1, 11):
                a_cfg = replace(
                    argmax_cfg, search=replace(argmax_cfg.search, seed=seed)
                )
                got = decode(model, (), a_cfg)
                ref = decode_greedy_baseline(model, (), a_cfg)
                assert got.final == ref.final
                assert got.reveal_order == ref.reveal_order

                s_cfg = replace(
                    sample_cfg, search=replace(sample_cfg.search, seed=seed)
                )
                got_s = decode(model, (), s_cfg)
                root = SeqState.fully_masked(model.vocab, (), 4)
                ref_s = finish_decode(
                    model, root, s_cfg, np.random.default_rng(seed)
                )
                assert got_s.final == ref_s.final
                assert got_s.reveal_order == ref_s.reveal_order
                pairs += 1
        c.detail = f"{pairs} seed/instance pairs, both modes"


def test_criterion_09_cli_is_byte_deterministic_and_replayable(tmp_path):
    with _Criterion(9, "identical output bytes across repeated CLI runs; "
                       "reveal logs replay to the final state", 30.0) as c:
        model = trap_family(1, seed=4)[0]
        model_path = tmp_path / "model.json"
        model.to_file(model_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "length": 4,
            "remaining_mode": "sample",
            "search": {"init_length": 2, "candidate_count": 3,
                       "max_simulations": 60},
        }))
        args = ["decode", "--model", str(model_path), "--config", str(cfg_path),
                "--seed", "13", "--prompt", "0,1"]
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        obj = json.loads(out_a.read_text())
        final = obj["final"]
        prompt = tuple(final["tokens"][: final["prompt_len"]])
        root = SeqState.fully_masked(
            model.vocab, prompt, len(final["tokens"]) - final["prompt_len"]
        )
        replayed = replay_reveals(
            root, [UnmaskAction(p, t) for p, t in obj["reveal_order"]]
        )
        assert list(replayed.tokens) == final["tokens"]
        assert replayed.is_complete

        trace_a, trace_b = tmp_path / "ta.jsonl", tmp_path / "tb.jsonl"
        targs = ["mcts-init", "--model", str(model_path),
                 "--config", str(cfg_path), "--seed", "3"]
        assert main(targs + ["--out", str(trace_a)]) == 0
        assert main(targs + ["--out", str(trace_b)]) == 0
        assert trace_a.read_bytes() == trace_b.read_bytes()

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "instances": {"kind": "trap_family", "count": 2, "seed": 0},
            "methods": [
                {"id": "medal", "kind": "medal",
                 "config": json.loads(cfg_path.read_text())},
                {"id": "greedy", "kind": "greedy",
                 "config": json.loads(cfg_path.read_text())},
            ],
            "seeds": [1, 2],
        }))
        bench_a, bench_b = tmp_path / "ba.jsonl", tmp_path / "bb.jsonl"
        assert main(["bench", "--config", str(spec_path),
                     "--out", str(bench_a)]) == 0
        assert main(["bench", "--config", str(spec_path),
                     "--out", str(bench_b)]) == 0
        assert bench_a.read_bytes() == bench_b.read_bytes()
        c.detail = "decode, mcts-init, bench all byte-stable"


def test_criterion_10_default_config_runs_end_to_end():
    with _Criterion(10, "packaged default config decodes 256 tokens against "
                        "the bundled corpus model", 10.0) as c:
        cfg = default_config()
        cfg.validate()
        assert cfg.length == 256
        assert cfg.search.init_length == 20
        assert cfg.search.budget == 192
        corpus_path = resources.files("medal.data").joinpath("toy_corpus.txt")
        with resources.as_file(corpus_path) as p:
            corpus = load_corpus(p)
        model = fit_ngram(corpus, n=3, alpha=0.5)
        res = decode(model, (0, 1), cfg)
        assert res.final.is_complete
        assert len(res.final.gen_tokens()) == 256
        assert res.pool is not None and len(res.pool.entries) >= 1
        assert res.chosen_candidate >= 0
        # the run is reproducible end to end
        again = decode(model, (0, 1), cfg)
        assert again.final == res.final
        c.detail = (f"pool {len(res.pool.entries)} entries, "
                    f"{len(res.reveal_order)} reveals")
