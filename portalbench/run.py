#!/usr/bin/env python3
"""Portal benchmark: one workload, end to end or layer by layer.

Usage (from the repository root)::

    python3 portalbench/run.py --workload pool_replay --seed 1 \\
        --seconds 28 --trace 0

Workloads: ``pool_replay`` and ``churn_asof`` (see README.md), both
through a 2-worker pool.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` alternates traced and untraced rounds, reports the
per-layer metrics from the traced ones and the tracing overhead from
the pair, and writes the spans to ``portalbench/.work/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 only for a completed run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _reexec_with_fixed_hash_seed() -> None:
    """String hashing decides set and dict orders inside the program;
    fix it so two runs with one seed do the same work."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _unwind_on_sigterm() -> None:
    """A terminated run still stops its pool: SIGTERM unwinds this
    process like an exception, so ``main``'s ``finally`` runs.  Forked
    workers inherit the handler and keep the default action."""
    parent = os.getpid()

    def handler(signum, _frame):
        if os.getpid() != parent:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="run exactly this many rounds instead of --seconds",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced inputs, for the self-test",
    )
    return parser.parse_args(argv)


def end_to_end(workload, rec, setup_s: list, quick: bool = False) -> dict:
    """Every end-to-end metric, named as in BENCHMARK.json.

    Reduced (self-test) inputs may lack a kind altogether and leave too
    few samples for a tail: their latencies read 0 and their tails are
    left out.
    """

    def latency(kind: str, summary) -> float:
        if quick and not rec.count(kind):
            return 0.0
        return summary(kind)

    def tail(kind: str) -> float:
        return rec.tail_ms(kind, workload.tails[kind])

    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "req_per_s": (rec.rate, "req/s"),
        "login_mean_ms": (latency("login", rec.mean_ms), "ms"),
        "query_mean_ms": (latency("query", rec.mean_ms), "ms"),
        "write_mean_ms": (latency("write", rec.mean_ms), "ms"),
        "ingest_rows_per_s": (rec.rows_appended / rec.write_s, "rows/s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MiB"),
    }
    if not quick:
        metrics["login_tail_ms"] = (tail("login"), "ms")
        metrics["query_tail_ms"] = (tail("query"), "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def tails_ready(workload, rounds: list) -> bool:
    """Whether every tail of the workload has enough samples beyond it."""
    from core import Recorder

    merged = Recorder.merge(rounds)
    return all(merged.tail_ready(kind, q) for kind, q in workload.tails.items())


def per_layer(totals: dict, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from the traced rounds' summed counters.

    Times are per operation (``ms/op``) or per login (``ms/login``);
    counts per round, per login, or as a ratio.
    """
    rounds = traced["rounds"]
    ops = traced["ops"]
    logins = max(traced["logins"], 1)

    def get(name):
        return totals.get(name, 0)

    def ratio(hit, miss):
        total = get(hit) + get(miss)
        return get(hit) / total if total else 0.0

    requests = traced["requests"]
    handle_ms = get("worker.handle_ms")
    transport = (traced["request_s"] * 1000.0 - handle_ms) / requests
    overhead_pct = 0.0
    if untraced["timed_s"] > 0 and traced["timed_s"] > 0:
        untraced_rate = untraced["ops"] / untraced["timed_s"]
        traced_rate = traced["ops"] / traced["timed_s"]
        overhead_pct = (untraced_rate / traced_rate - 1.0) * 100.0
    metrics = {
        "web.handle_ms": (handle_ms / requests, "ms/req"),
        "web.transport_ms": (transport, "ms/req"),
        "service.login_ms": (get("service.login.ms") / logins, "ms/login"),
        "service.session_store_ms": (get("service.session_store.ms") / requests, "ms/req"),
        "service.query_cache_hit_ratio": (
            ratio("query_cache_hits", "query_cache_misses"), "ratio"),
        "personalization.start_session_ms": (
            get("personalization.start_session.ms") / logins, "ms/login"),
        "personalization.view_ms": (get("personalization.view.ms") / ops, "ms/op"),
        "personalization.view_builds": (get("view_builds") / rounds, "count/round"),
        "personalization.view_patches": (get("view_patches") / rounds, "count/round"),
        "prml.rule_exec_ms": (get("prml.rule_exec.ms") / logins, "ms/login"),
        "prml.rule_execs": (get("prml.rule_exec.calls") / logins, "count/login"),
        "geometry.spatial_calls": (get("geometry.spatial.calls") / logins, "count/login"),
        "geometry.spatial_ms": (get("geometry.spatial.ms") / logins, "ms/login"),
        "olap.parse_ms": (get("olap.parse.ms") / ops, "ms/op"),
        "olap.execute_ms": (get("olap.execute.ms") / ops, "ms/op"),
        "olap.executes": (get("olap.execute.calls") / rounds, "count/round"),
        "olap.rows_scanned": (get("olap.rows_scanned") / rounds, "count/round"),
        "storage.as_of_ms": (get("storage.as_of.ms") / ops, "ms/op"),
        "storage.reconstructions": (get("storage.reconstruct.calls") / rounds, "count/round"),
        "storage.replayed_mutations": (
            get("storage.replayed_mutations") / rounds, "count/round"),
        "storage.checkpoints": (get("storage.checkpoint.calls") / rounds, "count/round"),
        "storage.checkpoint_ms": (get("storage.checkpoint.ms") / ops, "ms/op"),
        "storage.insert_ms": (get("storage.insert.ms") / ops, "ms/op"),
        "reco.recommend_ms": (get("reco.recommend.ms") / ops, "ms/op"),
        "reco.memo_hit_ratio": (ratio("reco_memo_hits", "reco_memo_misses"), "ratio"),
        "cluster.backend_ops": (get("cluster.backend.calls") / rounds, "count/round"),
        "cluster.backend_ms": (get("cluster.backend.ms") / ops, "ms/op"),
        "cluster.codec_ms": (get("cluster.codec.ms") / ops, "ms/op"),
        "cluster.rehydrations": (get("rehydrations") / rounds, "count/round"),
        "client.overhead_ms": (traced["client_s"] * 1000.0 / ops, "ms/op"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def warm_up(workload_class, seed: int) -> None:
    """One untimed round of the workload on reduced inputs: imports and
    first-call caches are paid before the first timed round (pool
    workers fork from this process and inherit them)."""
    from core import Checks, Recorder

    workload = workload_class(seed, quick=True)
    workload.prepare(0)
    workload.setup(False)
    workload.ready()
    workload.run(Recorder())
    workload.check(Checks())
    workload.teardown()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"portalbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from core import (
        MIN_ROUNDS, SETUPS_PER_ROUND, TAIL_BEYOND, WALL_LIMIT_S, Checks, Recorder,
        collect_garbage, machine_reference_ms,
    )
    from tracing import dump_trace
    from workloads import WORK_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"portalbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(sorted(WORKLOADS))})", file=sys.stderr)
        return 2
    wall_start = time.monotonic()
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    rounds: list = []
    setup_s: list[float] = []
    checks = Checks()
    totals: dict = {}
    spans: list = []
    phase = {
        mode: {"rounds": 0, "ops": 0, "requests": 0, "logins": 0, "timed_s": 0.0,
               "request_s": 0.0, "client_s": 0.0}
        for mode in ("traced", "untraced")
    }
    warm_up(WORKLOADS[args.workload], args.seed)
    reference_before = machine_reference_ms()
    try:
        while True:
            round_index = len(rounds)
            traced = bool(args.trace) and round_index % 2 == 0
            # A traced round and the untraced round after it replay one
            # stream, so that their rates differ only by the tracing.
            workload.prepare(round_index // 2 if args.trace else round_index)
            for attempt in range(SETUPS_PER_ROUND):
                if attempt:
                    workload.teardown()
                collect_garbage()
                started = time.perf_counter()
                workload.setup(traced)
                setup_s.append(time.perf_counter() - started)
            workload.ready()
            collect_garbage()
            rec = Recorder()
            rec.timed_s = workload.run(rec)
            rounds.append(rec)
            if traced:
                # Before the checks, whose own requests would count too.
                for name, value in workload.layer_counts().items():
                    totals[name] = totals.get(name, 0) + value
                for worker, worker_spans in enumerate(workload.spans()):
                    spans.append({"round": round_index, "worker": worker,
                                  "spans": worker_spans})
            workload.check(checks)
            stats = phase["traced" if traced else "untraced"]
            stats["rounds"] += 1
            stats["ops"] += rec.attempted
            stats["requests"] += rec.attempted - rec.writes
            stats["logins"] += rec.logins
            stats["timed_s"] += rec.timed_s
            stats["request_s"] += rec.target_s - rec.write_s
            stats["client_s"] += rec.timed_s - rec.target_s
            workload.teardown()
            if args.rounds is not None:
                if len(rounds) >= args.rounds:
                    break
                continue
            timed = sum(r.timed_s for r in rounds)
            enough = timed >= args.seconds and len(rounds) >= MIN_ROUNDS
            if args.trace:
                enough = enough and len(rounds) % 2 == 0
            elif not args.quick:
                enough = enough and tails_ready(workload, rounds)
            if enough or time.monotonic() - wall_start > WALL_LIMIT_S:
                break
    finally:
        workload.close()
    if not (args.quick or args.trace or tails_ready(workload, rounds)):
        # A tail is a fixed percentile; one with too few samples beyond
        # it is no tail, so the run is incomplete.
        print(f"portalbench: incomplete: {len(rounds)} rounds leave fewer than "
              f"{TAIL_BEYOND} samples beyond a tail percentile", file=sys.stderr)
        return 1
    reference_after = machine_reference_ms()
    if args.trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        dump_trace(
            os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "totals": totals},
            spans,
        )

    everything = Recorder.merge(rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{everything.timed_s:.2f} s timed, {everything.attempted} ops, "
          f"{everything.failed} failed")
    print(f"machine reference loop: {reference_before:.2f} ms before, "
          f"{reference_after:.2f} ms after the timed phase")
    print("round ops/s: " + " ".join(f"{r.rate:.1f}" for r in rounds))
    print("inputs: " + json.dumps(workload.inputs(), sort_keys=True))
    print("ops by kind: " + json.dumps(
        {kind: len(samples) for kind, samples in sorted(everything.samples.items())}))
    if everything.failures:
        print("failures: " + json.dumps(everything.failures, sort_keys=True))
    for name, result in sorted(checks.report().items()):
        print(f"check {name}: {result['passed']} passed, {result['failed']} failed"
              + (f" ({result['first_failure']})" if result["failed"] else ""))
    if args.trace:
        metrics = per_layer(totals, phase["traced"], phase["untraced"])
    else:
        metrics = end_to_end(workload, everything, setup_s, quick=args.quick)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": checks.ok,
        "attempted": everything.attempted,
        "failed": everything.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    _reexec_with_fixed_hash_seed()
    _unwind_on_sigterm()
    sys.exit(main())
