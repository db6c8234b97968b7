"""The benchmark's own checks: held-out seeds, the oracle check, the tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Horizons are shortened here; the workloads keep their fleets and flows.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as runner
from reference import REFERENCE_CHUNK_S, SpeedGauge
from spans import Tracer
from workloads import CITY_WINDOW, WORKLOADS, Run, RunSummary

from repro.runtime.process import OperatorProcess

HERE = Path(__file__).resolve().parent

#: Short horizons: osaka still crosses the trigger (~7.9 h), city closes
#: one window; city-batched fills its first batch at 16 s.
SHORT = {
    "osaka": 9.0 * 3600.0,
    "osaka-async": 9.0 * 3600.0,
    "city": CITY_WINDOW + 1.0,
    "city-batched": 17.0,
}


def _short(name: str):
    return dataclasses.replace(WORKLOADS[name], horizon=SHORT[name])


def _summary(workload, seed: int, oracle: bool = False) -> RunSummary:
    return runner._finish(Run(workload, seed, oracle=oracle))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in runner.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in runner.PER_LAYER
    ]


@pytest.mark.parametrize("name", sorted(SHORT))
def test_held_out_seed_changes_inputs_and_passes_the_oracle(name):
    workload = _short(name)
    first = _summary(workload, 7, oracle=True)
    oracle = _summary(workload, 11, oracle=True)
    measured = _summary(workload, 11)
    assert first.digest != oracle.digest, "a second seed must change the inputs"
    assert measured.digest == oracle.digest
    assert measured.totals == oracle.totals
    assert measured.totals["latency_samples"] > 0


@pytest.mark.parametrize("name", ["city-batched", "osaka-async"])
def test_stepping_the_clock_changes_no_event(name):
    workload = _short(name)
    stepped = _summary(workload, 7)
    whole = Run(workload, 7)
    try:
        whole.events = whole.stack.run_until(workload.horizon)
    finally:
        whole.close()
    assert whole.summary().digest == stepped.digest
    assert whole.summary().counts == stepped.counts


def test_reference_seconds_rescale_each_step_by_the_chunks_around_it():
    chunk = REFERENCE_CHUNK_S
    assert SpeedGauge.to_reference(2.0, [chunk, chunk]) == pytest.approx(2.0)
    # The second step ran while chunks took 1.5x their nominal time on average.
    steps = SpeedGauge.steps_to_reference([1.0, 3.0], [chunk, chunk, 2 * chunk])
    assert steps == pytest.approx(1.0 + 3.0 / 1.5)


def test_a_mismatch_fails_every_reading_of_the_run():
    good = _summary(_short("city"), 7)
    bad = dataclasses.replace(good, digest="0" * 64)
    outcome = runner.Outcome()
    outcome.check_run(0, good, good)
    outcome.check_run(1, bad, good)
    assert not outcome.correct
    assert outcome.failed == good.readings
    assert outcome.attempted == 2 * good.readings


def test_count_drift_is_a_failure_not_an_average():
    good = _summary(_short("city"), 7)
    drifted = dataclasses.replace(
        good, counts={**good.counts, "clock_events": good.counts["clock_events"] + 1}
    )
    outcome = runner.Outcome()
    outcome.check_run(0, good, good)
    outcome.check_run(1, drifted, good)
    assert not outcome.correct
    assert outcome.failed == 0


@pytest.mark.parametrize("name, per_message", [("city", 1.0), ("city-batched", None)])
def test_tracer_splits_layers_and_restores_the_program(name, per_message):
    receive = OperatorProcess.__dict__["receive"]
    workload = _short(name)
    tracer = Tracer()
    with tracer:
        run = Run(workload, 7, wrap_generator=tracer.wrap_generator)
        run.run()
        run.close()
    assert OperatorProcess.__dict__["receive"] is receive
    layers = runner.layer_metrics(tracer, run)
    if per_message is None:
        assert layers["network.tuples_per_message"] > 1.0
        assert layers["streams.columnar_share"] > 0.0
    else:
        assert layers["network.tuples_per_message"] == per_message
    assert layers["sensors.readings"] == run.readings
    assert layers["network.clock_events"] == run.events > 0
    assert layers["pubsub.publish_s"] > 0.0 and layers["streams.fused_s"] > 0.0
    # Tracing must not change what the program does.
    assert run.summary().digest == _summary(workload, 7).digest


def test_runner_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "spans.py", "reference.py"):
        shutil.copy(HERE / name, tmp_path / "perfbench" / name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "osaka",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
