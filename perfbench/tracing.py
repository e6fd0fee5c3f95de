"""Span tracing of medal's layers from outside the package.

Tracer.install() replaces, in every loaded ``medal`` module, each name bound
to a public function of a layer module with a timing wrapper, and wraps
``predict`` / ``masked_conditional`` on every denoiser class. The remote
model's socket stream is wrapped too, so one remote round trip is a span.
restore() puts every original object back; verify_restored() proves it.

Each call of a wrapped name is a span. A span's parent is the span that was
open when it started (one thread, so spans nest). Self time is the span's
duration minus the time covered by its child spans. Spans are aggregated in
memory by name; nothing is written while an op runs. Wrappers record only
while ``active`` is set, so the benchmark's own checks never show up.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# The layers the benchmark splits time across, by module name under medal.
# harness and cli are thin drivers the benchmark bypasses; families only
# builds instances during set-up.
LAYERS = ("decoder", "scoring", "kernels", "denoisers", "seqcore", "reward", "mcts", "theory")

_MARK = "_perfbench_traced"


def _layer_functions(module):
    """Public functions a layer module owns: defined there, or re-exported
    from a private medal module (the kernels backend)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if inspect.isgeneratorfunction(obj):
            continue  # a span would only cover creating the generator
        home = obj.__module__ or ""
        if home == module.__name__ or home.startswith("medal._"):
            out[name] = obj
    return out


class _TimedStream:
    """Stream proxy: write, flush and readline each become a remote span.

    Byte counts are the lengths of the encoded JSON lines passed through
    the stream, not socket-level counts.
    """

    def __init__(self, tracer: "Tracer", inner):
        self._inner = inner
        self.write = tracer._wrap("remote.write", inner.write)
        self.flush = tracer._wrap("remote.flush", inner.flush)
        self.readline = tracer._wrap("remote.readline", inner.readline)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Installs layer wrappers and aggregates their spans.

    Use as a context manager around the traced ops; set ``active`` only
    while an op runs, and call op_done() after each op (outside its timing)
    to fold per-op ratios into the totals.
    """

    def __init__(self, remote_models=()):
        self.active = False
        self.remote_models = tuple(remote_models)
        self._stack: list[list] = []  # [name, child_seconds]
        self._patched: list[tuple[object, str, object, bool]] = []
        # per span name: [count, inclusive seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_entries: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._op_states: list[tuple] = []  # (model id, state tokens) per predict call
        self._finish_outputs: list = []  # outputs of the finish loop running now
        self._op_finishes: list[list] = []  # one output list per finished loop
        self.root_seconds = 0.0  # time covered by spans with no parent
        self._hook_table = self._hooks()

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        medal_modules = [m for n, m in list(sys.modules.items())
                         if (n == "medal" or n.startswith("medal.")) and m is not None]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"medal.{layer}"]
            for name, fn in _layer_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in medal_modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1], is_class=False)
        from medal import denoisers

        for cls in vars(denoisers).values():
            if not (inspect.isclass(cls) and issubclass(cls, denoisers.Denoiser)):
                continue
            for meth in ("predict", "masked_conditional"):
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn):
                    self._patch(cls, meth, self._wrap(f"denoisers.{meth}", fn), is_class=True)
        for model in self.remote_models:
            if model._fh is None:
                raise RuntimeError("remote model must be connected before tracing")
            self._patch(model, "_fh", _TimedStream(self, model._fh), is_class=False)

    def _patch(self, owner, attr, new, *, is_class: bool) -> None:
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        self._patched.append((owner, attr, original, is_class))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)

    def verify_restored(self) -> list[str]:
        """Names not bound to their original object, plus any stray wrapper."""
        bad = []
        for owner, attr, original, is_class in self._patched:
            now = owner.__dict__.get(attr) if is_class else getattr(owner, attr, None)
            if now is not original:
                bad.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "medal" or name.startswith("medal.")):
                continue
            for attr, obj in vars(module).items():
                if getattr(obj, _MARK, False):
                    bad.append(f"{name}.{attr}")
        return bad

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        self.restore()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        hook = self._hook_table.get(name)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_seconds += dur
                agg = tracer.spans[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                tracer.layer_self[layer] += dur - frame[1]
                if parent is None or parent.split(".", 1)[0] != layer:
                    tracer.layer_entries[layer] += 1
            if hook is not None:
                hook(parent, args, result, dur)
            return result

        if not inspect.ismethod(fn):
            functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, True)
        return traced

    def _hooks(self):
        c = self.counts

        def on_predict(parent, args, result, dur):
            if parent == "denoisers.predict":
                return  # an adapter's inner call; the outer call counts
            c["predict_calls"] += 1
            c["predict_s"] += dur
            c["rows_predicted"] += len(result.logits)
            self._op_states.append((id(args[0]), args[1].tokens))  # per model

        def on_score_state(parent, args, result, dur):
            c["rows_scored"] += len(result[0])

        def on_score_position(parent, args, result, dur):
            c["rows_scored"] += 1

        def on_build_candidates(parent, args, result, dur):
            if parent == "decoder.finish_decode":
                c["finish_steps"] += 1
                self._finish_outputs.append(args[1])

        def on_finish(parent, args, result, dur):
            self._op_finishes.append(self._finish_outputs)
            self._finish_outputs = []

        def on_kernel(parent, args, result, dur):
            c["kernel_rows"] += np.shape(args[0])[0]

        def on_search(parent, args, result, dur):
            c["searches"] += 1
            c["pool_entries"] += len(result.entries)
            c["pool_exhausted"] += bool(result.exhausted)

        def on_lemma1(parent, args, result, dur):
            c["schedules_checked"] += result["schedules_checked"]

        def on_remote_write(parent, args, result, dur):
            c["request_bytes"] += len(args[0])

        def on_remote_readline(parent, args, result, dur):
            c["response_bytes"] += len(result)

        return {
            "denoisers.predict": on_predict,
            "scoring.score_state": on_score_state,
            "scoring.score_position": on_score_position,
            "scoring.build_candidates": on_build_candidates,
            "decoder.finish_decode": on_finish,
            "kernels.score_rows": on_kernel,
            "kernels.entropy_rows": on_kernel,
            "mcts.run_cgmcts": on_search,
            "theory.verify_lemma1": on_lemma1,
            "remote.write": on_remote_write,
            "remote.readline": on_remote_readline,
        }

    # -- per-op waste ratios ---------------------------------------------------

    def op_done(self) -> None:
        """Fold this op's distinct-state and changed-row counts into totals."""
        states = self._op_states
        self.counts["unique_states"] += len(set(states))
        self.counts["op_predicts"] += len(states)
        for outputs in self._op_finishes:
            for prev, cur in zip(outputs, outputs[1:]):
                pos = cur.positions()
                changed = (cur.matrix(pos) != prev.matrix(pos)).any(axis=1)
                self.counts["rows_changed"] += int(changed.sum())
                self.counts["rows_compared"] += len(pos)
        self._op_states = []
        self._finish_outputs = []
        self._op_finishes = []

    # -- report ----------------------------------------------------------------

    def span(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one span name."""
        return tuple(self.spans.get(name, (0, 0.0, 0.0)))

    def self_seconds(self) -> float:
        return float(sum(self.layer_self.values()))
