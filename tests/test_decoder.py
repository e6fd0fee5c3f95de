"""Decode pipeline: augmentation, candidate selection, finishing, replay."""

from __future__ import annotations

from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medal import decoder, kernels, scoring
from medal.decoder import (
    DecodeConfig,
    augment_prompt,
    build_template,
    decode,
    decode_greedy_baseline,
    finish_decode,
    replay_reveals,
    select_candidate,
)
from medal.denoisers import CountingDenoiser, Denoiser, TabularModel, fit_ngram, load_corpus
from medal.families import random_calibrated_model
from medal.errors import ConfigError, EmptyPool
from medal.mcts import CandidatePool, CandidateEntry, SearchConfig
from medal.seqcore import SeqState, UnmaskAction, Vocab


def small_cfg(**kw):
    search = kw.pop("search", {})
    base_search = SearchConfig(
        init_length=kw.pop("init_length", 2),
        candidate_count=kw.pop("candidate_count", 3),
        max_simulations=kw.pop("max_simulations", 60),
        seed=kw.pop("seed", 1),
        **search,
    )
    return DecodeConfig(length=kw.pop("length", 4), search=base_search, **kw)


def toy_model(rng, length=4, vocab=4):
    joint = rng.dirichlet(np.full(vocab**length, 0.4)).reshape((vocab,) * length)
    return TabularModel(Vocab(vocab), joint)


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        small_cfg(length=2, init_length=2).validate()  # init >= length
    with pytest.raises(ConfigError):
        small_cfg(sample_temperature=0.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(tokens_per_step=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(remaining_mode="beam").validate()
    with pytest.raises(ConfigError):
        small_cfg(augmenter="oracle").validate()
    with pytest.raises(ConfigError):
        # 4 - 2 = 2 masks at 1 per step needs 2 steps
        small_cfg(total_steps=1).validate()
    small_cfg(total_steps=2).validate()
    # a step commits at most ceil(k2/k1) = 2 distinct positions here, so
    # 6 masks need 3 steps whatever tokens_per_step says
    wide = DecodeConfig(length=6, total_steps=1, tokens_per_step=6,
                        search=SearchConfig(init_length=0, k2=5))
    with pytest.raises(ConfigError, match="need 3"):
        wide.validate()
    replace(wide, total_steps=3).validate()
    # a descent spends up to k2 = 5 simulations per level before the last,
    # so reaching depth 3 with certainty takes more than 10
    with pytest.raises(ConfigError, match="budget"):
        small_cfg(length=4, init_length=3, max_simulations=10).validate()
    small_cfg(length=4, init_length=3, max_simulations=11).validate()
    with pytest.raises(ConfigError):
        replace(small_cfg(), subtasks=0).validate()
    with pytest.raises(ConfigError):
        replace(small_cfg(), aux_length=0).validate()


def test_config_json_round_trip():
    cfg = small_cfg(augmenter="template", total_steps=3, tokens_per_step=2)
    back = DecodeConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ConfigError):
        DecodeConfig.from_json({"length": 8, "beam": 2})


def test_build_template_layout():
    v = Vocab(4)
    toks = build_template(v, subtasks=3, shots=2)
    assert toks == (1, 2, 3, 0, 1, 2, 3, 0)
    # subtask markers wrap inside the vocab
    toks2 = build_template(Vocab(2), subtasks=3, shots=1)
    assert toks2 == (1, 0, 1, 0)
    assert all(v.is_content(t) for t in toks)


def test_augment_prompt_modes(rng):
    model = toy_model(rng)
    prompt = (2, 1)
    identity = augment_prompt(model, prompt, small_cfg())
    assert identity == prompt
    cfg_t = small_cfg(augmenter="template", subtasks=2)
    templ = augment_prompt(model, prompt, cfg_t)
    assert templ[: len(prompt)] == prompt
    assert templ[len(prompt):] == build_template(model.vocab, 2)
    # explicit template tokens override the built scaffold
    cfg_x = replace(cfg_t, template_tokens=(3, 3))
    assert augment_prompt(model, prompt, cfg_x) == prompt + (3, 3)
    with pytest.raises(ConfigError):
        augment_prompt(model, prompt, replace(cfg_t, template_tokens=(9,)))


def test_augment_self_generate_appends_aux_tokens():
    # needs a model that accepts any generation length
    model = fit_ngram([(0, 1, 2, 3), (3, 2, 1, 0)], n=2, alpha=1.0)
    cfg = small_cfg(augmenter="self_generate", subtasks=2, aux_length=3)
    out = augment_prompt(model, (0,), cfg, np.random.default_rng(3))
    scaffold = build_template(model.vocab, 2)
    assert out[:1] == (0,)
    assert out[1 : 1 + len(scaffold)] == scaffold
    assert len(out) == 1 + len(scaffold) + 3
    assert all(model.vocab.is_content(t) for t in out)
    # deterministic under a fixed generator
    again = augment_prompt(model, (0,), cfg, np.random.default_rng(3))
    assert again == out


def test_select_candidate_prefers_score_then_order():
    s = SeqState.fully_masked(Vocab(2), (), 2)
    entries = [
        CandidateEntry(0, s, (), 0.1, 0.5),
        CandidateEntry(1, s, (), 0.1, 0.9),
        CandidateEntry(2, s, (), 0.1, 0.9),
    ]
    pool = CandidatePool(capacity=3, entries=entries)
    assert select_candidate(pool).order == 1
    with pytest.raises(EmptyPool):
        select_candidate(CandidatePool(capacity=1))


def test_finish_decode_argmax_commits_pool_top(rng):
    model = toy_model(rng)
    cfg = small_cfg(remaining_mode="argmax", init_length=0)
    root = SeqState.fully_masked(model.vocab, (1,), 4)
    res = finish_decode(model, root, cfg)
    assert res.final.is_complete
    assert len(res.reveal_order) == 4
    assert res.chosen_candidate == -1
    # each step's first action matches its recorded score trace
    for ev in res.per_step_scores:
        assert ev["mode"] == "argmax"
        assert len(ev["actions"]) == 1
    # replay rebuilds the same final state
    assert replay_reveals(root, res.reveal_order) == res.final


def test_finish_decode_multi_token_steps(rng):
    model = toy_model(rng)
    cfg = small_cfg(remaining_mode="argmax", init_length=0, tokens_per_step=3,
                    total_steps=2)
    root = SeqState.fully_masked(model.vocab, (), 4)
    res = finish_decode(model, root, cfg)
    assert res.final.is_complete
    steps = res.per_step_scores
    assert len(steps) == 2
    assert len(steps[0]["actions"]) == 3
    assert len(steps[1]["actions"]) == 1
    # positions inside one step never repeat
    for ev in steps:
        pos = [p for p, _ in ev["actions"]]
        assert len(pos) == len(set(pos))


def test_finish_decode_sampling_is_seeded(rng):
    model = toy_model(rng)
    cfg = small_cfg(remaining_mode="sample", init_length=0, sample_temperature=0.7)
    root = SeqState.fully_masked(model.vocab, (), 4)
    a = finish_decode(model, root, cfg, np.random.default_rng(5))
    b = finish_decode(model, root, cfg, np.random.default_rng(5))
    c = finish_decode(model, root, cfg, np.random.default_rng(6))
    assert a.final == b.final and a.reveal_order == b.reveal_order
    # a different stream is allowed to differ; don't assert inequality,
    # but the result must still be complete and replayable
    assert c.final.is_complete
    assert replay_reveals(root, c.reveal_order) == c.final


def test_finish_decode_step_budget_enforced(rng):
    model = toy_model(rng)
    cfg = small_cfg(remaining_mode="argmax", init_length=0)
    cfg = replace(cfg, total_steps=2)  # 4 masks, 1 per step: too few
    root = SeqState.fully_masked(model.vocab, (), 4)
    with pytest.raises(ConfigError, match="masks remaining"):
        finish_decode(model, root, cfg)


def test_negative_seed_without_an_rng_is_a_config_error(rng):
    model = fit_ngram([(0, 1, 2, 3), (3, 2, 1, 0)], n=2, alpha=1.0)
    cfg = small_cfg(init_length=0, augmenter="self_generate", aux_length=3, seed=-1)
    root = SeqState.fully_masked(model.vocab, (), 4)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        finish_decode(model, root, cfg)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        augment_prompt(model, (0,), cfg)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        decode(model, (0,), cfg)
    # a caller's own rng is used as given
    assert finish_decode(model, root, cfg, np.random.default_rng(0)).final.is_complete


def test_only_a_sampled_decode_builds_an_rng(monkeypatch):
    # argmax finishing never draws, so neither decode nor its self_generate
    # augmentation seeds a generator; a sampled decode does, once
    model = fit_ngram([(0, 1, 2, 3), (3, 2, 1, 0)], n=2, alpha=1.0)
    built = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    cfg = small_cfg(init_length=0, augmenter="self_generate", aux_length=3, seed=4)
    decode(model, (0,), replace(cfg, remaining_mode="argmax"))
    assert built == []
    decode(model, (0,), replace(cfg, remaining_mode="sample"))
    assert built == [4]


def test_decode_end_to_end_consistency(rng):
    model = toy_model(rng)
    cfg = small_cfg(init_length=2, remaining_mode="argmax")
    res = decode(model, (0, 2), cfg)
    assert res.final.is_complete
    assert res.pool is not None and res.pool.full
    assert res.chosen_candidate == select_candidate(res.pool).order
    # reveal_order = pooled prefix + finishing actions, replayable from root
    root = SeqState.fully_masked(model.vocab, (0, 2), cfg.length)
    assert replay_reveals(root, res.reveal_order) == res.final
    assert res.final.prompt_len == 2
    obj = res.to_json()
    assert set(obj) == {"final", "chosen_candidate", "reveal_order",
                        "per_step_scores", "pool"}
    assert len(obj["pool"]) == len(res.pool.entries)


def test_decode_without_search_equals_finish_from_root(rng):
    model = toy_model(rng)
    cfg = small_cfg(init_length=0, remaining_mode="sample", seed=9)
    res = decode(model, (1,), cfg)
    root = SeqState.fully_masked(model.vocab, (1,), cfg.length)
    ref = finish_decode(model, root, cfg, np.random.default_rng(9))
    assert res.final == ref.final
    assert res.reveal_order == ref.reveal_order
    assert res.pool is None and res.chosen_candidate == -1


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_decode_finishes_on_the_stream_the_search_left_untouched(rng, seed):
    # the search draws no random numbers, so sampled finishing starts from
    # a fresh seeded stream at the selected entry
    model = toy_model(rng, length=8, vocab=3)
    cfg = small_cfg(length=8, init_length=2, remaining_mode="sample", seed=seed)
    res = decode(model, (), cfg)
    entry = select_candidate(res.pool)
    ref = finish_decode(model, entry.state, cfg, np.random.default_rng(seed), output=entry.output)
    assert res.final == ref.final
    assert res.reveal_order == entry.path + ref.reveal_order
    assert res.per_step_scores == ref.per_step_scores


def test_greedy_baseline_strips_search_and_augmentation(rng):
    model = CountingDenoiser(toy_model(rng))
    cfg = small_cfg(init_length=2, augmenter="template", remaining_mode="sample")
    res = decode_greedy_baseline(model, (3,), cfg)
    assert res.final.is_complete
    assert res.final.prompt_len == 1  # no scaffold
    assert all(ev["mode"] == "argmax" for ev in res.per_step_scores)
    # one model call per committed token
    assert model.calls == cfg.length
    # deterministic regardless of rng stream
    again = decode_greedy_baseline(model, (3,), cfg, rng=np.random.default_rng(99))
    assert again.final == res.final


def test_decode_on_ngram_model():
    corpus = [(0, 1, 2, 3, 0, 1, 2, 3), (1, 2, 3, 0, 1, 2, 3, 0)]
    model = fit_ngram(corpus, n=2, alpha=0.5)
    cfg = small_cfg(length=6, init_length=2, remaining_mode="argmax",
                    max_simulations=40)
    res = decode(model, (0,), cfg)
    assert res.final.is_complete
    assert len(res.final.gen_tokens()) == 6


def test_finish_rescores_only_rows_whose_logits_changed(monkeypatch):
    corpus = resources.files("medal.data").joinpath("toy_corpus.txt")
    model = fit_ngram(load_corpus(corpus), n=3, alpha=0.5)
    outputs = []
    predict = model.predict

    def recording_predict(state, **kwargs):
        outputs.append(predict(state, **kwargs))
        return outputs[-1]

    scored = []
    score_rows = kernels.score_rows

    def counting_score_rows(probs, *args, **kwargs):
        scored.append(probs.shape[0])
        return score_rows(probs, *args, **kwargs)

    monkeypatch.setattr(model, "predict", recording_predict)
    monkeypatch.setattr(kernels, "score_rows", counting_score_rows)
    cfg = small_cfg(length=64, init_length=0, remaining_mode="argmax")
    cfg.validate()
    root = SeqState.fully_masked(model.vocab, (0, 1), 64)
    assert finish_decode(model, root, cfg).final.is_complete
    assert len(outputs) == 64
    # replay the rule on the recorded predictions: a step scores, once
    # each, the distinct row contents that no earlier build on this model
    # scored; it looks up only rows whose logits differ from the previous
    # step's at their position, and the others' contents are known already
    first_at = {}
    unseen = [len({row.tobytes() for row in outputs[0].matrix()})]
    for pos, row in zip(outputs[0].positions(), outputs[0].matrix()):
        first_at.setdefault(row.tobytes(), pos)
    changed, moved_hits = [], 0
    for before, after in zip(outputs, outputs[1:]):
        pos = after.positions()
        diff = (after.matrix() != before.matrix(pos)).any(axis=1)
        fresh = {}
        for p, row in zip(np.array(pos)[diff].tolist(), after.matrix()[diff]):
            key = row.tobytes()
            if key not in first_at:
                fresh.setdefault(key, p)
            elif first_at[key] != p:
                moved_hits += 1
        for key, p in fresh.items():
            first_at[key] = p
        assert all(row.tobytes() in first_at for row in after.matrix()[~diff])
        changed.append(int(diff.sum()))
        unseen.append(len(fresh))
    # a step with no unseen row skips scoring; most rows do not change, and
    # some changed rows reuse content first scored at another position,
    # and the first step's 64 rows hold repeated contents, so neither the
    # positional diff nor the memo is vacuous here
    assert scored == [u for u in unseen if u]
    assert sum(scored) == len(first_at)
    assert unseen[0] < 64
    assert sum(changed) < 64 * 63 // 2 // 4
    assert sum(unseen[1:]) < sum(changed)
    assert moved_hits >= 1
    # the memo belongs to the model: decoding again, through a fresh
    # counting wrapper too, scores no row
    del scored[:]
    assert finish_decode(model, root, cfg).final.is_complete
    assert finish_decode(CountingDenoiser(model), root, cfg).final.is_complete
    assert scored == []


@st.composite
def decode_case(draw):
    length = draw(st.integers(min_value=1, max_value=5))
    candidate_count = draw(st.integers(min_value=1, max_value=3))
    search = SearchConfig(
        k1=draw(st.integers(min_value=1, max_value=4)),
        k2=draw(st.integers(min_value=1, max_value=8)),
        init_length=draw(st.integers(min_value=0, max_value=length - 1)),
        candidate_count=candidate_count,
        max_simulations=draw(st.integers(min_value=candidate_count, max_value=30)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    cfg = DecodeConfig(
        length=length,
        total_steps=draw(st.none() | st.integers(min_value=1, max_value=length)),
        tokens_per_step=draw(st.integers(min_value=1, max_value=length)),
        remaining_mode=draw(st.sampled_from(["sample", "argmax"])),
        augmenter=draw(st.sampled_from(["identity", "template"])),
        search=search,
    )
    vocab = draw(st.integers(min_value=2, max_value=3))
    prompt = tuple(draw(st.lists(st.integers(0, vocab - 1), max_size=2)))
    return cfg, vocab, prompt, draw(st.integers(min_value=0, max_value=2**16))


@settings(max_examples=80, deadline=None)
@given(decode_case())
def test_property_validated_configs_decode_to_completion(case):
    cfg, vocab, prompt, model_seed = case
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    model = random_calibrated_model(np.random.default_rng(model_seed), cfg.length, vocab)
    res = decode(model, prompt, cfg)
    root = SeqState.fully_masked(model.vocab, augment_prompt(model, prompt, cfg), cfg.length)
    assert res.final.is_complete
    assert replay_reveals(root, res.reveal_order) == res.final
    gen = range(root.prompt_len, root.prompt_len + cfg.length)
    assert sorted(a.position for a in res.reveal_order) == list(gen)


class BasePath(Denoiser):
    """Forwards predict only, so finishing takes the base predict_after:
    a full prediction, whose repeated rows the score memo recognises."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab

    def predict(self, state):
        return self.inner.predict(state)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    vocab=st.integers(min_value=2, max_value=4),
    length=st.integers(min_value=4, max_value=12),
    tokens_per_step=st.integers(min_value=1, max_value=3),
    k1=st.integers(min_value=1, max_value=4),
    k2=st.integers(min_value=1, max_value=8),
    init_length=st.integers(min_value=0, max_value=3),
    remaining_mode=st.sampled_from(["argmax", "sample"]),
    augmenter=st.sampled_from(["identity", "template", "self_generate"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_incremental_finish_equals_base_path(
    n, vocab, length, tokens_per_step, k1, k2, init_length, remaining_mode, augmenter, seed
):
    # the n-gram model's own predict_after and the base path decode alike
    gen = np.random.default_rng(seed)
    corpus = [gen.integers(0, vocab, size=int(gen.integers(2, 12))).tolist() for _ in range(6)]
    model = fit_ngram(corpus, n=n, alpha=0.5, vocab_size=vocab)
    cfg = DecodeConfig(
        length=length,
        tokens_per_step=tokens_per_step,
        remaining_mode=remaining_mode,
        augmenter=augmenter,
        subtasks=2,
        aux_length=5,
        search=SearchConfig(
            k1=k1, k2=k2, init_length=init_length, candidate_count=2, max_simulations=40, seed=seed
        ),
    )
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    prompt = tuple(gen.integers(0, vocab, size=int(gen.integers(0, 3))).tolist())
    fast = decode(model, prompt, cfg)
    assert fast.to_json() == decode(BasePath(model), prompt, cfg).to_json()


@st.composite
def memo_jobs(draw):
    """A model recipe and a list of decode jobs on it: search on or off,
    argmax or sampled finishing, 1 to 3 tokens per step. An "ngram_base"
    model is an n-gram model behind BasePath, whose finish steps name no
    changed rows, though most rows repeat from one step to the next."""
    kind = draw(st.sampled_from(["tabular", "ngram", "ngram_base"]))
    vocab = draw(st.integers(min_value=2, max_value=3))
    length = draw(st.integers(min_value=3, max_value=5 if kind == "tabular" else 9))
    jobs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2]),  # init_length; 0 turns the search off
                st.sampled_from(["argmax", "sample"]),
                st.integers(min_value=1, max_value=3),  # tokens_per_step
                st.integers(min_value=0, max_value=2**16),  # decode seed
                st.lists(st.integers(0, vocab - 1), max_size=2).map(tuple),  # prompt
            ),
            min_size=1,
            max_size=5,
        )
    )
    return kind, vocab, length, draw(st.integers(min_value=0, max_value=2**16)), jobs


def _memo_model(kind, vocab, length, seed):
    gen = np.random.default_rng(seed)
    if kind == "tabular":
        return random_calibrated_model(gen, length, vocab)
    corpus = [gen.integers(0, vocab, size=int(gen.integers(2, 12))).tolist() for _ in range(6)]
    model = fit_ngram(corpus, n=int(gen.integers(1, 4)), alpha=0.5, vocab_size=vocab)
    return BasePath(model) if kind == "ngram_base" else model


@settings(max_examples=40, deadline=None)
@given(case=memo_jobs(), cap_rows=st.integers(min_value=0, max_value=4))
def test_property_model_score_memo_leaves_outputs_unchanged(case, cap_rows):
    # the score memo belongs to the model and outlives each decode; a job
    # decoded after others on one model (each through a fresh wrapper, as
    # the harness does) equals the job decoded on a freshly built model
    kind, vocab, length, model_seed, jobs = case
    runs = [
        (
            prompt,
            DecodeConfig(
                length=length,
                remaining_mode=mode,
                tokens_per_step=per_step,
                search=SearchConfig(
                    init_length=init, candidate_count=2, max_simulations=40, seed=seed
                ),
            ),
        )
        for init, mode, per_step, seed, prompt in jobs
    ]
    want = [decode(_memo_model(kind, vocab, length, model_seed), p, c).to_json() for p, c in runs]

    # rows sent to kernels.score_rows by finish steps (memo) and by search
    # expansions (no memo, scored directly), and the row contents of every
    # finish step's prediction
    scored = {"finish": [], "search": []}
    contents = set()
    score_rows = kernels.score_rows
    build = decoder.build_candidates
    inside = []

    def counting_score_rows(probs, *args, **kwargs):
        scored["finish" if inside else "search"].append(probs.shape[0])
        return score_rows(probs, *args, **kwargs)

    def finish_build(state, output, *args, **kwargs):
        contents.update(row.tobytes() for row in output.matrix())
        inside.append(True)
        try:
            return build(state, output, *args, **kwargs)
        finally:
            inside.pop()

    model = _memo_model(kind, vocab, length, model_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "score_rows", counting_score_rows)
        mp.setattr(decoder, "build_candidates", finish_build)
        assert [decode(CountingDenoiser(model), p, c).to_json() for p, c in runs] == want
        assert scored["finish"]  # the first pass scored rows
        # each distinct row content once: every content a finish step
        # reads must be scored once before its top-k1 is known, so any
        # content scored twice would push the sum past the count
        assert sum(scored["finish"]) == len(contents)
        first_search = scored["search"]
        # every row content a finish step of the second pass looks up is in
        # the model's memo; the search scores what it scored before
        scored = {"finish": [], "search": []}
        assert [decode(CountingDenoiser(model), p, c).to_json() for p, c in runs] == want
        assert scored == {"finish": [], "search": first_search}

    # with the memo capped at cap_rows entries it never holds more, and it
    # still changes no output
    entry = vocab * 8 + min(SearchConfig().k1, vocab) * 16 + scoring.MEMO_ENTRY_BYTES
    cap = cap_rows * entry
    seen = []

    def build_checked(*args, memo=None, **kwargs):
        out = build(*args, memo=memo, **kwargs)
        assert len(memo) * entry <= cap
        seen.append(len(memo))
        return out

    model = _memo_model(kind, vocab, length, model_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "MEMO_BYTES", cap)
        mp.setattr(decoder, "build_candidates", build_checked)
        assert [decode(CountingDenoiser(model), p, c).to_json() for p, c in runs] == want
    assert seen and max(seen) <= cap_rows
