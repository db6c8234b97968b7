"""Unit tests for spatio-temporal stamp back-fill."""

from repro.pubsub.stamping import backfill_stamp
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from tests.unit.pubsub.test_registry import make_metadata


class TestBackfill:
    def test_bare_payload_gets_everything_from_advertisement(self):
        metadata = make_metadata()
        tuple_ = backfill_stamp({"v": 1.0}, metadata, now=42.0, seq=3)
        assert tuple_.stamp.time == 42.0
        assert tuple_.stamp.location == metadata.location
        assert tuple_.stamp.themes == metadata.schema.themes
        assert tuple_.source == "temp-1"
        assert tuple_.seq == 3

    def test_equals_the_constructor_built_tuple(self):
        metadata = make_metadata()
        schema = metadata.schema
        payload = {"v": 1.0}
        tuple_ = backfill_stamp(payload, metadata, now=42.0, seq=3)
        expected = SensorTuple(
            payload=payload,
            stamp=SttStamp(
                time=42.0,
                location=metadata.location,
                temporal_granularity=schema.temporal_granularity,
                spatial_granularity=schema.spatial_granularity,
                themes=schema.themes,
            ),
            source=metadata.sensor_id,
            seq=3,
        )
        assert tuple_ == expected
        assert hash(tuple_.stamp) == hash(expected.stamp)
        assert vars(tuple_.stamp) == vars(expected.stamp)
        payload["v"] = 2.0
        assert tuple_["v"] == 1.0  # the reading keeps its own copy

    def test_partial_stamp_fields_win(self):
        metadata = make_metadata()
        own = SttStamp(time=100.0, location=Point(35.0, 136.0))
        tuple_ = backfill_stamp({"v": 1.0}, metadata, now=42.0, stamp=own)
        assert tuple_.stamp.time == 100.0
        assert tuple_.stamp.location == Point(35.0, 136.0)
        # Themes back-filled from the advertisement when absent.
        assert tuple_.stamp.themes == metadata.schema.themes

    def test_sensor_supplied_themes_kept(self):
        metadata = make_metadata()
        own = SttStamp(time=1.0, location=Point(0, 0), themes=("disaster/flood",))
        tuple_ = backfill_stamp({"v": 1.0}, metadata, now=0.0, stamp=own)
        assert tuple_.stamp.themes[0].path == "disaster/flood"

    def test_granularities_from_schema(self):
        metadata = make_metadata()
        tuple_ = backfill_stamp({"v": 1.0}, metadata, now=0.0)
        assert (
            tuple_.stamp.temporal_granularity
            == metadata.schema.temporal_granularity
        )
        assert (
            tuple_.stamp.spatial_granularity
            == metadata.schema.spatial_granularity
        )
