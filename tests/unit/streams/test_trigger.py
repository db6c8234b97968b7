"""Unit tests for Trigger On / Trigger Off — ⊕ON,t / ⊕OFF,t."""

import random

import pytest

from repro.errors import DataflowError
from repro.streams.trigger import (
    StatisticsCache,
    TriggerOffOperator,
    TriggerOnOperator,
    window_statistics,
)
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point


class TestWindowStatistics:
    def test_numeric_stats(self, make_tuple):
        tuples = [make_tuple(i, temperature=20.0 + i) for i in range(5)]
        stats = window_statistics(tuples)
        assert stats["count"] == 5
        assert stats["avg_temperature"] == 22.0
        assert stats["min_temperature"] == 20.0
        assert stats["max_temperature"] == 24.0
        assert stats["sum_temperature"] == 110.0
        assert stats["last_temperature"] == 24.0

    def test_non_numeric_gets_last_only(self, make_tuple):
        stats = window_statistics([make_tuple(0, station="umeda")])
        assert stats["last_station"] == "umeda"
        assert "avg_station" not in stats

    def test_empty_window(self):
        assert window_statistics([]) == {"count": 0}


class TestTriggerOn:
    def make(self, **kwargs):
        defaults = dict(
            interval=300.0,
            window=3600.0,
            condition="avg_temperature > 25",
            targets=["rain-1", "tweets-1"],
        )
        defaults.update(kwargs)
        return TriggerOnOperator(**defaults)

    def test_emits_no_data(self, make_tuple):
        op = self.make()
        assert op.on_tuple(make_tuple(0, temperature=30.0)) == []
        assert op.on_timer(300.0) == []

    def test_fires_when_condition_holds(self, make_tuple):
        op = self.make()
        commands = []
        op.control = commands.append
        for i in range(12):
            op.on_tuple(make_tuple(i, temperature=27.0, time=i * 300.0))
        op.on_timer(3600.0)
        assert len(commands) == 1
        assert commands[0].activate is True
        assert commands[0].sensor_ids == ("rain-1", "tweets-1")

    def test_silent_when_condition_false(self, make_tuple):
        op = self.make()
        commands = []
        op.control = commands.append
        for i in range(12):
            op.on_tuple(make_tuple(i, temperature=20.0, time=i * 300.0))
        op.on_timer(3600.0)
        assert commands == []

    def test_edge_triggered_not_repeated(self, make_tuple):
        op = self.make()
        commands = []
        op.control = commands.append
        for i in range(12):
            op.on_tuple(make_tuple(i, temperature=27.0, time=i * 300.0))
        op.on_timer(3600.0)
        op.on_timer(3900.0)
        op.on_timer(4200.0)
        assert len(commands) == 1  # persistent heat fires once

    def test_rearms_after_condition_clears(self, make_tuple):
        op = self.make(window=600.0)
        commands = []
        op.control = commands.append
        op.on_tuple(make_tuple(0, temperature=27.0, time=0.0))
        op.on_timer(300.0)           # hot -> fire
        op.on_tuple(make_tuple(1, temperature=15.0, time=400.0))
        op.on_timer(700.0)           # window mean now below -> re-arm
        op.on_tuple(make_tuple(2, temperature=40.0, time=800.0))
        op.on_timer(1000.0)          # hot again -> fire again
        assert [c.activate for c in commands] == [True, True]

    def test_sliding_window_prunes_old(self, make_tuple):
        op = self.make(interval=300.0, window=600.0)
        commands = []
        op.control = commands.append
        # Old hot reading, then cool readings; window slides past the heat.
        op.on_tuple(make_tuple(0, temperature=40.0, time=0.0))
        op.on_tuple(make_tuple(1, temperature=10.0, time=500.0))
        op.on_tuple(make_tuple(2, temperature=10.0, time=900.0))
        op.on_timer(1000.0)  # hot reading at t=0 is outside [400, 1000]
        assert commands == []

    def test_empty_window_never_fires(self):
        op = self.make()
        commands = []
        op.control = commands.append
        op.on_timer(300.0)
        assert commands == []

    def test_condition_error_counted(self, make_tuple):
        op = self.make(condition="avg_ghost > 1")
        commands = []
        op.control = commands.append
        op.on_tuple(make_tuple(0, temperature=30.0, time=0.0))
        op.on_timer(300.0)
        assert commands == []
        assert op.stats.errors == 1

    def test_reason_mentions_condition(self, make_tuple):
        op = self.make()
        commands = []
        op.control = commands.append
        op.on_tuple(make_tuple(0, temperature=30.0, time=0.0))
        op.on_timer(300.0)
        assert "avg_temperature > 25" in commands[0].reason

    def test_no_targets_raises(self):
        with pytest.raises(DataflowError):
            TriggerOnOperator(interval=300.0, condition="count > 0", targets=[])

    def test_window_shorter_than_interval_raises(self):
        with pytest.raises(DataflowError):
            TriggerOnOperator(interval=300.0, window=60.0,
                              condition="count > 0", targets=["x"])

    def test_default_window_is_interval(self):
        op = TriggerOnOperator(interval=300.0, condition="count > 0", targets=["x"])
        assert op.window == 300.0


class TestTriggerOff:
    def test_fires_deactivation(self, make_tuple):
        op = TriggerOffOperator(
            interval=300.0, condition="min_temperature < 0", targets=["rain-1"]
        )
        commands = []
        op.control = commands.append
        op.on_tuple(make_tuple(0, temperature=-3.0, time=0.0))
        op.on_timer(300.0)
        assert commands[0].activate is False

    def test_counts_controls_in_stats(self, make_tuple):
        op = TriggerOffOperator(
            interval=300.0, condition="count > 0", targets=["x"]
        )
        op.control = lambda command: None
        op.on_tuple(make_tuple(0, time=0.0))
        op.on_timer(300.0)
        assert op.stats.controls_issued == 1

    def test_reset_rearms(self, make_tuple):
        op = TriggerOffOperator(interval=300.0, condition="count > 0", targets=["x"])
        commands = []
        op.control = commands.append
        op.on_tuple(make_tuple(0, time=0.0))
        op.on_timer(300.0)
        op.reset()
        op.on_tuple(make_tuple(1, time=400.0))
        op.on_timer(600.0)
        assert len(commands) == 2


def _mixed_tuple(rng: random.Random, seq: int, time: float) -> SensorTuple:
    """Numeric, bool and string values; attributes come and go."""
    payload = {}
    for name in ("temperature", "rain", "wet", "station", "x"):
        roll = rng.random()
        if roll < 0.2:
            continue  # attribute missing from this tuple
        if name == "wet":
            payload[name] = rng.random() < 0.5
        elif name == "station":
            payload[name] = f"st-{rng.randrange(3)}"
        elif name == "x" and roll < 0.5:
            payload[name] = "n/a"  # the same attribute, not numeric here
        elif name == "rain":
            payload[name] = rng.randrange(10)
        else:
            payload[name] = rng.uniform(-5.0, 40.0)
    return SensorTuple(
        payload=payload,
        stamp=SttStamp(time=time, location=Point(34.69, 135.5)),
        seq=seq,
    )


class TestStatisticsCache:
    """Running columns equal a rescan with :func:`window_statistics`."""

    @staticmethod
    def check(cache: StatisticsCache) -> None:
        assert cache.statistics() == window_statistics(list(cache))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_adds_prunes_restores_and_clears(self, seed):
        rng = random.Random(seed)
        cache = StatisticsCache(max_tuples=25)  # overflow evicts as well
        saved = cache.snapshot()
        now = 0.0
        for seq in range(400):
            now += rng.uniform(0.0, 10.0)
            roll = rng.random()
            if roll < 0.7:
                cache.add(_mixed_tuple(rng, seq, now))
            elif roll < 0.85:
                cache.prune(before=now - rng.uniform(0.0, 150.0))
            elif roll < 0.9:
                saved = cache.snapshot()
            elif roll < 0.95:
                cache.restore(saved)
            elif roll < 0.97:
                cache.drain()
            else:
                cache.clear()
            self.check(cache)

    def test_trigger_statistics_survive_checkpoint_restore(self, make_tuple):
        op = TriggerOnOperator(
            interval=300.0, window=900.0, condition="avg_temperature > 25",
            targets=["x"],
        )
        for i in range(10):
            op.on_tuple(make_tuple(i, temperature=20.0 + i, time=i * 100.0))
        op.on_timer(1000.0)  # prunes the first tuple
        self.check(op.cache)
        state = op.checkpoint()
        fresh = TriggerOnOperator(
            interval=300.0, window=900.0, condition="avg_temperature > 25",
            targets=["x"],
        )
        fresh.restore(state)
        assert fresh.cache.statistics() == op.cache.statistics()
        self.check(fresh.cache)
        fresh.reset()
        assert fresh.cache.statistics() == {"count": 0}

    def test_bool_and_text_get_last_only(self):
        cache = StatisticsCache()
        cache.add(SensorTuple(
            payload={"wet": True, "station": "umeda", "rain": 3},
            stamp=SttStamp(time=0.0, location=Point(34.69, 135.5)),
        ))
        stats = cache.statistics()
        assert stats["last_wet"] is True and "avg_wet" not in stats
        assert stats["last_station"] == "umeda" and "sum_station" not in stats
        assert stats["sum_rain"] == 3.0 and type(stats["sum_rain"]) is float
        self.check(cache)
