"""The end-to-end benchmark: one workload per process, checked against its oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload osaka --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload city --seed 7 --seconds 20 --trace 1

``--trace 0`` times whole runs of the workload with nothing patched and
prints the end-to-end metrics, their times in reference seconds (wall
seconds rescaled by a reference loop timed between the steps of each run,
see reference.py); ``--trace 1`` alternates untraced and traced
runs and prints the per-layer metrics.  Either way every run's sink output
is checked against the oracle (the simulator, unfused, on the row path) and
every count is checked to repeat exactly across runs of the seed.  The last
line of standard output is one JSON object; the exit code is 0 only when
every check passed.  See README.md beside this file for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is sampled on its own before the timed runs: at least
#: ``SETUP_MIN_SAMPLES`` stacks, more while ``SETUP_BUDGET_S`` lasts.  A
#: few-millisecond set-up (osaka) needs many samples for a steady median.
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 200
SETUP_BUDGET_S = 2.0
#: Timed runs of the workload: as many as ``--seconds`` allows, at least this.
MIN_TIMED_RUNS = 3

#: (name, unit, better) of every end-to-end metric in the JSON result.
END_TO_END = (
    ("throughput_tps", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("latency_virtual_mean_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric in the traced result.
PER_LAYER = (
    ("sensors.generate_s", "s", "lower"),
    ("sensors.readings", "count", "higher"),
    ("sensors.skip_ratio", "ratio", "lower"),
    ("pubsub.stamp_s", "s", "lower"),
    ("pubsub.publish_s", "s", "lower"),
    ("pubsub.publishes", "count", "lower"),
    ("pubsub.suppressed_ratio", "ratio", "higher"),
    ("pubsub.deliver_s", "s", "lower"),
    ("pubsub.deliveries", "count", "lower"),
    ("network.send_s", "s", "lower"),
    ("network.messages", "count", "lower"),
    ("network.tuples_per_message", "ratio", "higher"),
    ("network.dropped", "count", "lower"),
    ("network.clock_events", "count", "lower"),
    ("network.clock_events_per_reading", "ratio", "lower"),
    ("network.clock_self_s", "s", "lower"),
    ("runtime.dispatch_s", "s", "lower"),
    ("runtime.receives", "count", "lower"),
    ("runtime.tuples_per_receive", "ratio", "higher"),
    ("runtime.monitor_s", "s", "lower"),
    ("runtime.monitor_calls", "count", "lower"),
    ("runtime.deploy_s", "s", "lower"),
    ("dsn.translate_s", "s", "lower"),
    ("runtime.backends.loop_self_s", "s", "lower"),
    ("streams.fused_s", "s", "lower"),
    ("streams.aggregate_s", "s", "lower"),
    ("streams.trigger_s", "s", "lower"),
    ("streams.filter_s", "s", "lower"),
    ("streams.sink_s", "s", "lower"),
    ("streams.other_s", "s", "lower"),
    ("streams.tuples_in", "count", "lower"),
    ("streams.tuples_out", "count", "lower"),
    ("streams.columnar_share", "ratio", "higher"),
    ("warehouse.load_s", "s", "lower"),
    ("warehouse.rows", "count", "higher"),
    ("sticker.push_s", "s", "lower"),
    ("sticker.pushes", "count", "higher"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


def _quantile(values: "list[float]", q: float) -> float:
    """Nearest-rank quantile of ``values`` (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


class Outcome:
    """What one process measured, and every check that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.counts: "dict | None" = None

    def check_run(self, index: int, run, oracle) -> None:
        """Count a finished run; compare it with the oracle and earlier runs."""
        self.attempted += run.readings
        failed = run.failed
        if run.digest != oracle.digest or run.totals != oracle.totals:
            self.problems.append(f"run {index}: sink output differs from the oracle")
            failed = run.readings
        self.failed += failed
        if self.counts is None:
            self.counts = run.counts
        elif run.counts != self.counts:
            drift = {k: (self.counts[k], v) for k, v in run.counts.items()
                     if self.counts.get(k) != v}
            self.problems.append(f"run {index}: counts drifted {drift}")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _fresh_run(workload, seed: int, oracle: bool = False, tracer=None):
    from workloads import Run

    gc.collect()
    wrap = tracer.wrap_generator if tracer is not None else None
    return Run(workload, seed, oracle=oracle, wrap_generator=wrap)


def _finish(run):
    """Run to the horizon, close, and keep only the run's summary."""
    try:
        run.run()
    finally:
        run.close()
    return run.summary()


def check_runs(workload, seed: int, summaries) -> Outcome:
    """Run the oracle, then check every summary against it and each other."""
    oracle = _finish(_fresh_run(workload, seed, oracle=True))
    outcome = Outcome()
    for index, summary in enumerate(summaries):
        outcome.check_run(index, summary, oracle)
    return outcome


def sample_setups(workload, seed: int, gauge) -> "tuple[list[float], list[float]]":
    """Set the workload up repeatedly, without running it, each set-up
    between two reference chunks: (reference seconds, wall seconds)."""
    reference: "list[float]" = []
    wall: "list[float]" = []
    start = time.perf_counter()
    while len(wall) < SETUP_MAX_SAMPLES and (
        len(wall) < SETUP_MIN_SAMPLES
        or time.perf_counter() - start < SETUP_BUDGET_S
    ):
        before = gauge.sample()
        run = _fresh_run(workload, seed)
        after = gauge.sample()
        run.close()
        wall.append(run.setup_s)
        reference.append(gauge.to_reference(run.setup_s, [before, after]))
    return reference, wall


def timed_run(workload, seed: int, gauge):
    """One fresh run with a reference chunk before its set-up and around
    each clock step: (summary, set-up and run in reference seconds, latencies)."""
    chunks = [gauge.sample()]
    run = _fresh_run(workload, seed)
    try:
        run.run(between=lambda: chunks.append(gauge.sample()))
    finally:
        run.close()
    setup_ref = gauge.to_reference(run.setup_s, chunks[:2])
    run_ref = gauge.steps_to_reference(run.steps_s, chunks[1:])
    return run.summary(), setup_ref, run_ref, run.latencies


def measure(workload, seed: int, seconds: float):
    """Untraced timed runs: (end-to-end metrics, wall figures, latencies,
    runs, outcome)."""
    from reference import SpeedGauge

    gauge = SpeedGauge()
    _finish(_fresh_run(workload, seed))  # warm-up: imports, lazy caches
    setups, setups_wall = sample_setups(workload, seed, gauge)
    summaries = []
    runs_ref: "list[float]" = []
    latencies: "list[float]" = []
    start = time.perf_counter()
    while len(summaries) < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        summary, setup_ref, run_ref, run_latencies = timed_run(workload, seed, gauge)
        summaries.append(summary)
        setups.append(setup_ref)
        setups_wall.append(summary.setup_s)
        runs_ref.append(run_ref)
        latencies = latencies or run_latencies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = check_runs(workload, seed, summaries)
    metrics = {
        "throughput_tps": statistics.median(
            r.readings / s for r, s in zip(summaries, runs_ref)
        ),
        "setup_s": statistics.median(setups),
        "latency_virtual_mean_s": statistics.fmean(latencies) if latencies else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {
        "throughput_wall_tps": statistics.median(r.readings / r.run_s for r in summaries),
        "setup_wall_s": statistics.median(setups_wall),
        "reference_chunk_ms": 1e3 * statistics.median(gauge.samples),
    }
    return metrics, wall, latencies, len(summaries), outcome


def layer_metrics(tracer, run) -> dict:
    """Per-layer metrics of one traced run (trace overhead filled in later)."""
    stats = run.stack.netsim.stats
    broker = run.stack.broker_network
    readings = run.readings
    routed = broker.data_tuples_sent + broker.data_tuples_suppressed
    receives = tracer.call_count("runtime.dispatch")
    s = tracer.self_time
    return {
        "sensors.generate_s": s("sensors.generate"),
        "sensors.readings": readings,
        "sensors.skip_ratio": tracer.generator_skips / max(tracer.generator_calls, 1),
        "pubsub.stamp_s": s("pubsub.stamp"),
        "pubsub.publish_s": s("pubsub.publish"),
        "pubsub.publishes": tracer.call_count("pubsub.publish"),
        "pubsub.suppressed_ratio": broker.data_tuples_suppressed / max(routed, 1),
        "pubsub.deliver_s": s("pubsub.deliver"),
        "pubsub.deliveries": tracer.call_count("pubsub.deliver"),
        "network.send_s": s("network.send"),
        "network.messages": stats.messages_sent,
        "network.tuples_per_message": stats.tuples_sent / max(stats.messages_sent, 1),
        "network.dropped": stats.messages_dropped,
        "network.clock_events": run.events,
        "network.clock_events_per_reading": run.events / max(readings, 1),
        "network.clock_self_s": s("network.clock"),
        "runtime.dispatch_s": s("runtime.dispatch"),
        "runtime.receives": receives,
        "runtime.tuples_per_receive": tracer.tuples_in / max(receives, 1),
        "runtime.monitor_s": s("runtime.monitor"),
        "runtime.monitor_calls": tracer.call_count("runtime.monitor"),
        "runtime.deploy_s": s("runtime.deploy"),
        "dsn.translate_s": s("dsn.translate"),
        "runtime.backends.loop_self_s": s("runtime.backends.loop"),
        "streams.fused_s": s("streams.fused"),
        "streams.aggregate_s": s("streams.aggregate"),
        "streams.trigger_s": s("streams.trigger"),
        "streams.filter_s": s("streams.filter"),
        "streams.sink_s": s("streams.sink"),
        "streams.other_s": s("streams.other"),
        "streams.tuples_in": tracer.tuples_in,
        "streams.tuples_out": tracer.tuples_out,
        "streams.columnar_share":
            tracer.columnar_transposes / max(tracer.fused_batches, 1),
        "warehouse.load_s": s("warehouse.load"),
        "warehouse.rows": len(run.stack.warehouse.facts),
        "sticker.push_s": s("sticker.push"),
        "sticker.pushes": run.stack.sticker.pushed,
        "unattributed_s": run.setup_s + run.run_s - tracer.attributed_s(),
    }


def measure_traced(workload, seed: int, seconds: float, out_dir: Path):
    """Alternate untraced and traced runs: (per-layer metrics, runs, outcome)."""
    from spans import Tracer

    _fresh_run(workload, seed).close()
    untraced_s, traced_s, layers, summaries = [], [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        # Alternate which side goes first, so drift hits both alike.
        for with_trace in (len(layers) % 2 == 1, len(layers) % 2 == 0):
            if not with_trace:
                summaries.append(_finish(_fresh_run(workload, seed)))
                untraced_s.append(summaries[-1].run_s)
                continue
            tracer = Tracer()
            with tracer:
                run = _fresh_run(workload, seed, tracer=tracer)
                try:
                    run.run()
                finally:
                    run.close()
            summaries.append(run.summary())
            traced_s.append(run.run_s)
            layers.append(layer_metrics(tracer, run))
    tracer.write(out_dir / f"{workload.name}-seed{seed}.spans.npz")
    outcome = check_runs(workload, seed, summaries)
    metrics = {}
    for name, unit, _ in PER_LAYER[:-1]:
        values = [layer[name] for layer in layers]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                outcome.problems.append(f"{name} drifted across traced runs: {values}")
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(untraced_s)
    )
    return metrics, len(summaries), outcome


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.trace:
        metrics, runs, outcome = measure_traced(
            workload, args.seed, args.seconds, HERE / "out"
        )
        specs = PER_LAYER
        print(f"# {workload.name} seed {args.seed}: {runs} runs, traced and "
              f"untraced alternating")
    else:
        metrics, wall, latencies, runs, outcome = measure(
            workload, args.seed, args.seconds
        )
        specs = END_TO_END
        print(f"# {workload.name} seed {args.seed}: {runs} timed runs of "
              f"{workload.horizon:g} virtual s")
        print(f"latency_virtual_p50_s {_fmt(_quantile(latencies, 0.50))} s "
              f"(n={len(latencies)}, virtual)")
        print(f"latency_virtual_p99_s {_fmt(_quantile(latencies, 0.99))} s "
              f"(n={len(latencies)}, virtual)")
        print(f"error_rate {_fmt(outcome.failed / max(outcome.attempted, 1))} "
              f"ratio ({outcome.failed} of {outcome.attempted} readings failed)")
        print(f"throughput_wall_tps {_fmt(wall['throughput_wall_tps'])} 1/s, "
              f"setup_wall_s {_fmt(wall['setup_wall_s'])} s (wall clock); "
              f"reference chunk median {_fmt(wall['reference_chunk_ms'])} ms")
    for name, unit, better in specs:
        print(f"{name} {_fmt(metrics[name])} {unit} ({better} is better)")
    for problem in outcome.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in specs
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
