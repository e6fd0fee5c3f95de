"""Benchmark logic behind run.py: set-up, timed ops, checks, metrics, report."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

SETUP_REPS = 3  # set-ups per run: this process plus fresh ones; the median is reported
TRACED_SHARE = 0.5  # share of --seconds a traced run spends on traced ops
ACCOUNTING_TOL = 1e-6  # s/op allowed between summed self times and span time


class OpLog:
    """Times, model-call counts and check outcomes of a sequence of ops.

    Every op is checked as soon as it is timed and then dropped, so memory
    does not grow with the op count; only the first `keep` results stay,
    for the quality metrics and the digest. `hash` covers every op's output.
    In a timed loop, refs[i] is the reference time measured just before op i.
    """

    def __init__(self, keep: int):
        self.keep = keep
        self.kept: list = []
        self.times: list[float] = []
        self.refs: list[float] = []
        self.calls: list[int] = []
        self.failures: dict[int, str] = {}
        self.hash = hashlib.sha256()

    def __len__(self) -> int:
        return len(self.times)

    def record(self, w, i: int, res, dt: float, calls: int) -> None:
        self.times.append(dt)
        self.calls.append(calls)
        if isinstance(res, Exception):
            self.failures[i] = f"raised {type(res).__name__}: {res}"
            return
        try:
            w.check(i, res)
        except Exception as exc:  # whatever raised, the output is wrong
            self.failures[i] = f"{type(exc).__name__}: {exc}"
            return
        self.hash.update(json.dumps(w.digest_item(res), sort_keys=True).encode())
        if i < self.keep:
            self.kept.append(res)


def set_up(cls, seed: int):
    """Build the workload and run its untimed warm-up op; returns (w, seconds)."""
    start = time.perf_counter()
    w = cls(workloads.OpSeeds(seed))
    try:
        w.warmup()
    except BaseException:
        w.close()
        raise
    return w, time.perf_counter() - start


def fresh_setup_seconds(args) -> float:
    """Set-up time, imports included, of the workload in a new process."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run(
        [sys.executable, run_py, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


_REF_ROW = np.linspace(-3.0, 3.0, 12)


def reference_seconds() -> float:
    """Time a fixed computation of small numpy calls that uses no medal code.

    Other tenants of the host stretch op times by up to 2x for seconds to
    minutes, and this computation stretches with them, so op time over the
    reference time measured just before the op repeats between runs where
    op time does not. Never change it: ratios would stop comparing.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        row = _REF_ROW * (1 + i % 5)
        ex = np.exp(row - row.max())
        acc += float((ex / ex.sum()).max())
    return time.perf_counter() - start


def run_ops(w, log: OpLog, *, seconds: float | None = None, until: int | None = None,
            tracer: tracing.Tracer | None = None, reference: bool = False) -> OpLog:
    """Append ops to `log` for `seconds`, or until it holds `until` ops.

    Only the op call is timed, and the tracer (if any) records only inside
    it. With `reference`, the reference computation is timed before each
    op. An op that raises counts as failed.
    """
    loop_start = time.perf_counter()
    while until is None or len(log) < until:
        i = len(log)
        if reference:
            log.refs.append(reference_seconds())
        before = w.calls()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            res = w.run(i)
        except Exception as exc:  # a failed op; reported, the run goes on
            res = exc
        dt = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.op_done()
        log.record(w, i, res, dt, w.calls() - before)
        if seconds is not None and time.perf_counter() - loop_start >= seconds:
            break
    return log


def self_check(w) -> list[str]:
    """Tiny-instance check: the tracer counts exactly the calls CountingDenoiser
    counts, does not change the output, and leaves no wrapper behind."""
    problems = []
    model = w.tiny_model()
    counted = workloads.CountedModel(model)
    plain = w.tiny(counted)
    remote = w.remote_models()
    with tracing.Tracer(remote_models=remote) as tr:
        tr.active = True
        traced = w.tiny(model)
        tr.active = False
        tr.op_done()
    problems += [f"not restored: {name}" for name in tr.verify_restored()]
    if tr.counts["predict_calls"] != counted.calls:
        problems.append(
            f"traced predict calls {tr.counts['predict_calls']:.0f} != counted {counted.calls}"
        )
    if remote and tr.span("remote.readline")[0] != counted.calls:
        problems.append("remote round trips do not match predict calls")
    if workloads.digest(w, [plain]) != workloads.digest(w, [traced]):
        problems.append("tracing changed the tiny op's output")
    return problems


def low_quantile(times: list[float], q: float) -> float:
    """Nearest-rank q-quantile, rounding down: the minimum for few samples."""
    return sorted(times)[int(q * (len(times) - 1))]


def end_to_end(w, log: OpLog, n: int, setup_s: float):
    """(metrics, detail): the contract metrics, then the other metrics.

    Timings use the n timed ops; counts and quality use the first
    quality_ops ops of the sequence, so they depend only on the seed. The
    contract's op time is in reference units (see reference_seconds); the
    table gives it in seconds too.
    """
    k = w.quality_ops
    times = log.times[:n]
    busy = sum(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ref_p50": (statistics.median(t / r for t, r in zip(times, log.refs)), "ref"),
        "model_calls_per_op": (statistics.fmean(log.calls[:k]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "op_s_p10": (low_quantile(times, 0.1), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "ref_s_p50": (statistics.median(log.refs), "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_samples": (n, "count"),
    }
    if n >= 100:  # at least ten samples beyond the 90th percentile
        detail["op_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    if w.tokens_per_op:
        detail["tokens_per_s"] = (w.tokens_per_op * n / busy, "1/s")
    if len(log.kept) == k:
        detail.update(w.quality(log.kept))
    return metrics, detail


def per_layer(tr: tracing.Tracer, traced: OpLog, replay: OpLog):
    """Per-op layer metrics from one traced run and its untraced replay."""
    n = len(traced)
    c, self_s = tr.counts, tr.layer_self

    def incl(name):
        return tr.span(name)[1] / n

    def calls(name):
        return tr.span(name)[0] / n

    def share(num, den):
        return num / den if den else 0.0

    m = {
        "decoder.search_s": (incl("mcts.run_cgmcts"), "s/op"),
        "decoder.finish_s": (incl("decoder.finish_decode"), "s/op"),
        "decoder.augment_s": (incl("decoder.augment_prompt"), "s/op"),
        "decoder.finish_steps": (c["finish_steps"] / n, "count/op"),
        "scoring.calls": (tr.layer_entries["scoring"] / n, "count/op"),
        "scoring.rows_scored": (c["rows_scored"] / n, "count/op"),
        "scoring.rows_changed_share": (share(c["rows_changed"], c["rows_compared"]), "share"),
        "kernels.score_rows_s": (incl("kernels.score_rows"), "s/op"),
        "kernels.entropy_rows_s": (incl("kernels.entropy_rows"), "s/op"),
        "kernels.rows": (c["kernel_rows"] / n, "count/op"),
        "denoisers.predict_calls": (c["predict_calls"] / n, "count/op"),
        "denoisers.predict_s": (c["predict_s"] / n, "s/op"),
        "denoisers.rows_predicted": (c["rows_predicted"] / n, "count/op"),
        "denoisers.unique_state_share": (share(c["unique_states"], c["op_predicts"]), "share"),
        "remote.round_trip_s": (self_s["remote"] / n, "s/op"),
        "remote.request_bytes": (c["request_bytes"] / n, "B/op"),
        "remote.response_bytes": (c["response_bytes"] / n, "B/op"),
        "seqcore.apply_calls": (calls("seqcore.apply_many"), "count/op"),
        "seqcore.masked_positions_s": (incl("seqcore.masked_positions"), "s/op"),
        "reward.entropy_profile_calls": (calls("reward.entropy_profile"), "count/op"),
        "reward.info_gain_calls": (calls("reward.info_gain"), "count/op"),
        "mcts.simulations": (calls("mcts.simulate"), "count/op"),
        "mcts.expansions": (calls("mcts.expand"), "count/op"),
        "mcts.pool_fill": (share(c["pool_entries"], c["searches"]), "count/search"),
        "mcts.pool_exhausted_share": (share(c["pool_exhausted"], c["searches"]), "share"),
        "theory.schedule_cost_calls": (calls("theory.schedule_cost"), "count/op"),
        "theory.schedule_cost_self_s": (tr.span("theory.schedule_cost")[2] / n, "s/op"),
        "theory.dependence_error_s": (incl("theory.dependence_error"), "s/op"),
        "theory.search_schedules_s": (incl("theory.search_schedules"), "s/op"),
        "theory.oracle_s": (incl("theory.oracle_min_schedule"), "s/op"),
        "theory.schedules_checked": (c["schedules_checked"] / n, "count/op"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer] / n, "s/op")
    traced_op = statistics.fmean(traced.times)
    untraced_op = statistics.fmean(replay.times)
    m["trace.op_s"] = (traced_op, "s/op")
    m["trace.untraced_op_s"] = (untraced_op, "s/op")
    m["trace.overhead_s"] = (traced_op - untraced_op, "s/op")
    m["trace.unattributed_s"] = (traced_op - tr.root_seconds / n, "s/op")
    m["trace.ops"] = (n, "count")
    return m


def report(head: str, metrics, detail, failures, problems, attempted: int) -> None:
    """Human-readable table, then the result object as the last line."""
    print(head)
    for key, (value, unit) in {**metrics, **detail}.items():
        print(f"  {key:30s} {value:16.6g} {unit}")
    print(f"  {'failed_share':30s} {len(failures) / attempted:16.6g} share")
    for i, msg in list(failures.items())[:10]:
        print(f"FAILED op {i}: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"SELF-CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(w, args, setup_s: float) -> None:
    """Untraced run: time ops, top up to quality_ops, report."""
    log = run_ops(w, OpLog(w.quality_ops), seconds=args.seconds, reference=True)
    n = len(log)
    run_ops(w, log, until=w.quality_ops)  # untimed; only when the timed ops fell short
    problems = self_check(w)
    metrics, detail = end_to_end(w, log, n, setup_s)
    digest = workloads.digest(w, log.kept) if len(log.kept) == w.quality_ops else "-"
    head = f"# {w.name} seed {args.seed}: {n} timed ops, digest {digest}"
    report(head, metrics, detail, log.failures, problems, len(log))


def measure_traced(w, args) -> None:
    """Traced run: time ops under the tracer, replay them untraced, report layers."""
    with tracing.Tracer(remote_models=w.remote_models()) as tr:
        traced = run_ops(w, OpLog(1), seconds=args.seconds * TRACED_SHARE, tracer=tr)
    problems = [f"not restored: {name}" for name in tr.verify_restored()]
    replay = run_ops(w, OpLog(1), until=len(traced))
    if traced.hash.digest() != replay.hash.digest():
        problems.append("traced ops differ from their untraced replay")
    if abs(tr.self_seconds() - tr.root_seconds) > ACCOUNTING_TOL * len(traced):
        problems.append("layer self times do not add up to the traced span time")
    problems += self_check(w)
    metrics = per_layer(tr, traced, replay)
    failures = {**{f"{i} (traced)": m for i, m in traced.failures.items()},
                **{f"{i} (replay)": m for i, m in replay.failures.items()}}
    head = f"# {w.name} seed {args.seed}: {len(traced)} traced ops, replayed untraced"
    report(head, metrics, {}, failures, problems, len(traced) + len(replay))


def main(args, import_s: float) -> int:
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w, seconds = set_up(cls, args.seed)
    try:
        if args.setup_only:
            print(import_s + seconds)
            return 0
        if args.trace:
            measure_traced(w, args)
        else:
            setups = [import_s + seconds]
            setups += [fresh_setup_seconds(args) for _ in range(SETUP_REPS - 1)]
            measure(w, args, statistics.median(setups))
    finally:
        w.close()
    return 0
