"""The benchmark's four workloads, driven through medal's public API.

An op is the unit a workload times. Ops are short (tens of milliseconds
to about 0.15 s) and every op of a workload does the same amount of work,
so that the reference time measured just before an op stands for the
host's speed during it (see README.md).

Every input an op sees is derived from the workload seed through OpSeeds:
decode seeds, the trap-family seed and the calibrated-instance seeds. Ops
call medal through module attributes (``decoder.decode``,
``theory.verify_lemma1``) at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from medal import CountingDenoiser, RemoteDenoiser, decoder, families, fit_ngram, load_corpus, theory
from medal.cli import default_config
from medal.seqcore import SeqState

HERE = os.path.dirname(os.path.abspath(__file__))


class OpSeeds:
    """Deterministic seed stream derived from the workload seed.

    unit(k) is the seed of the k-th decode of the op sequence; negative k
    are the warm-up op's decodes.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.family = self.draw()
        self.warmup = self.draw()
        self.instances = [self.draw() for _ in range(32)]
        self._units: list[int] = []

    def draw(self) -> int:
        return int(self._rng.integers(1, 2**31 - 1))

    def unit(self, k: int) -> int:
        if k < 0:
            return self.warmup - k
        while len(self._units) <= k:
            self._units.append(self.draw())
        return self._units[k]


class CountedModel(CountingDenoiser):
    """CountingDenoiser that forwards other attributes (masked_conditional)
    to the model, so theory code sees an exact-conditional model."""

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


def toy_ngram():
    """The bundled toy-corpus trigram model (n=3, alpha=0.5)."""
    path = resources.files("medal.data").joinpath("toy_corpus.txt")
    with resources.as_file(path) as p:
        corpus = load_corpus(p)
    return fit_ngram(corpus, n=3, alpha=0.5)


def with_seed(cfg, seed: int):
    return replace(cfg, search=replace(cfg.search, seed=seed))


class OpFailed(Exception):
    """An op's output failed a correctness check."""


class Workload:
    """An op sequence over one or more models, each behind a CountedModel,
    so the timed loop counts model calls without the tracer."""

    tokens_per_op = 0  # generated tokens per op; 0 when an op decodes nothing

    def __init__(self, seeds: OpSeeds, models):
        self.seeds = seeds
        self.adapters = [CountedModel(m) for m in models]
        self.model = models[0]

    def calls(self) -> int:
        return sum(a.calls for a in self.adapters)

    def remote_models(self) -> list:
        """Models reached over a socket, whose streams the tracer wraps."""
        return []

    def tiny_model(self):
        """The model the self-check's tiny op runs on."""
        return self.model

    def warmup(self) -> None:
        self.run(-1)

    def close(self) -> None:
        pass


class DecodeWorkload(Workload):
    """An op is one or more decodes; plan(i) lists their (model, prompt, cfg).

    By default an op is one seeded decode of self.cfg on the first model,
    and the self-check's tiny op decodes tiny_length tokens.
    """

    quality_ops = 8
    prompt: tuple[int, ...] = ()
    tiny_length = 16

    def plan(self, i: int):
        return [(self.adapters[0], self.prompt, with_seed(self.cfg, self.seeds.unit(i)))]

    def tiny(self, model):
        return [decoder.decode(model, self.prompt, replace(self.cfg, length=self.tiny_length))]

    def run(self, i: int) -> list:
        return [decoder.decode(m, p, c) for m, p, c in self.plan(i)]

    def check(self, i: int, results) -> None:
        for (m, prompt, cfg), res in zip(self.plan(i), results, strict=True):
            root = SeqState.fully_masked(
                m.vocab, decoder.augment_prompt(m.inner, prompt, cfg), cfg.length
            )
            if decoder.replay_reveals(root, res.reveal_order) != res.final:
                raise OpFailed(f"op {i}: replaying the reveal order does not give the final state")
            gen = list(range(root.prompt_len, root.prompt_len + root.gen_length))
            if sorted(a.position for a in res.reveal_order) != gen:
                raise OpFailed(f"op {i}: generation positions not revealed exactly once")
            if not res.final.is_complete or any(res.final.masked):
                raise OpFailed(f"op {i}: final state has masks left")

    def digest_item(self, results) -> list:
        return [[list(r.final.tokens), [[a.position, a.token] for a in r.reveal_order]]
                for r in results]

    def quality(self, ops) -> dict:
        gains = [r.pool.entries[r.chosen_candidate].score
                 for results in ops for r in results if r.pool is not None]
        return {"search_gain": (float(np.mean(gains)), "share")} if gains else {}


class NgramFinish(DecodeWorkload):
    """Default config with the search off (init_length=0) on the toy
    trigram model, prompt (0,1), length 128: the finishing loop alone."""

    name = "ngram_finish"
    prompt = (0, 1)
    tokens_per_op = 128

    def __init__(self, seeds: OpSeeds):
        super().__init__(seeds, [toy_ngram()])
        base = default_config()
        self.cfg = replace(
            base, length=128, total_steps=None, search=replace(base.search, init_length=0)
        )


class RemoteNgram(DecodeWorkload):
    """Default config (search on) at length 32 through RemoteDenoiser.

    The model is served by serve_denoiser in a child process on loopback;
    the client keeps one connection.
    """

    name = "remote_ngram"
    prompt = (0, 1)
    tokens_per_op = 32
    tiny_length = 24  # above the default init_length of 20

    def __init__(self, seeds: OpSeeds):
        self.local = toy_ngram()
        self.cfg = replace(default_config(), length=32, total_steps=None)
        self.server = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            port = int(self.server.stdout.readline())
            super().__init__(seeds, [RemoteDenoiser(("127.0.0.1", port), self.local.vocab)])
        except BaseException:
            self._stop_server()
            raise

    def check(self, i: int, results) -> None:
        super().check(i, results)
        local = [decoder.decode(self.local, p, c) for _, p, c in self.plan(i)]
        if self.digest_item(local) != self.digest_item(results):
            raise OpFailed(f"op {i}: remote decode differs from the in-process decode")

    def remote_models(self) -> list:
        return [self.model]

    def close(self) -> None:
        self.model.close()
        self._stop_server()

    def _stop_server(self) -> None:
        # the server exits when its stdin closes
        self.server.stdin.close()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


class TrapSearch(DecodeWorkload):
    """Criterion-6 shape: trap_family(20), length 4, init_length 2,
    3 candidates, 60 simulations, argmax finish. An op is one round: every
    instance in turn, each decode with its own seed."""

    name = "trap_search"
    family_size = 20
    tokens_per_op = 4 * family_size
    tiny_length = 4

    def __init__(self, seeds: OpSeeds):
        super().__init__(seeds, families.trap_family(self.family_size, seed=seeds.family))
        self.cfg = decoder.DecodeConfig(
            length=4,
            remaining_mode="argmax",
            search=decoder.SearchConfig(init_length=2, candidate_count=3, max_simulations=60),
        )

    def plan(self, i: int):
        n = self.family_size
        return [(a, (), with_seed(self.cfg, self.seeds.unit(i * n + j)))
                for j, a in enumerate(self.adapters)]

    def quality(self, ops) -> dict:
        out = super().quality(ops)
        margins = []
        for j, adapter in enumerate(self.adapters):
            model = adapter.inner
            lps = [model.joint_logprob(results[j].final.gen_tokens()) for results in ops]
            greedy = decoder.decode_greedy_baseline(model, (), self.cfg)
            margins.append(np.mean(lps) - model.joint_logprob(greedy.final.gen_tokens()))
        out["logprob_gain_nats"] = (float(np.mean(margins)), "nats")
        return out


class TheoryExact(Workload):
    """verify_lemma1 over all 75 full-cover schedules, then verify_theorem1
    (k=3, budgets 16/64/256), on strictly positive calibrated joints of
    length 4. An op is a pair, one vocab-2 and one vocab-3 instance; 16
    pairs are built at set-up and cycled."""

    name = "theory_exact"
    quality_ops = 4
    length = 4

    def __init__(self, seeds: OpSeeds):
        instances = [
            families.random_calibrated_model(np.random.default_rng(s), self.length, 2 + j % 2)
            for j, s in enumerate(seeds.instances)
        ]
        super().__init__(seeds, instances)
        self.expected_schedules = sum(
            theory.count_schedules(self.length, k) for k in range(1, self.length + 1)
        )

    def pair(self, i: int):
        j = 2 * (i % (len(self.adapters) // 2))
        return self.adapters[j : j + 2]

    def _verify(self, model, length: int, k: int, budgets):
        root = SeqState.fully_masked(model.vocab, (), length)
        lemma = theory.verify_lemma1(model, root)
        thm = theory.verify_theorem1(model, root, k=k, budgets=budgets)
        return lemma, thm

    def run(self, i: int) -> list:
        return [self._verify(m, self.length, 3, [16, 64, 256]) for m in self.pair(i)]

    def tiny_model(self):
        return families.random_calibrated_model(np.random.default_rng(self.seeds.family), 3, 2)

    def tiny(self, model):
        return [self._verify(model, 3, 2, [4, 8])]

    def check(self, i: int, results) -> None:
        for lemma, thm in results:
            if lemma["schedules_checked"] != self.expected_schedules:
                raise OpFailed(f"op {i}: lemma 1 checked {lemma['schedules_checked']} schedules")
            if thm["j_final"] < thm["j_oracle"] - 1e-9:
                raise OpFailed(f"op {i}: search beat the exhaustive oracle")

    def digest_item(self, results) -> list:
        return [list(r) for r in results]

    def quality(self, ops) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (NgramFinish, TrapSearch, TheoryExact, RemoteNgram)}


def digest(workload, ops) -> str:
    items = [workload.digest_item(results) for results in ops]
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]
