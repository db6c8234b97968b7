"""Unit tests for the Sticker feed."""

import math

import pytest

import repro.sticker.feed as feed_module
from repro.errors import StreamLoaderError
from repro.sticker.feed import StickerFeed
from repro.stt.granularity import spatial_granularity
from repro.stt.spatial import (
    METERS_PER_DEG_LAT,
    Box,
    Point,
    grid_cell_for,
    representative_point,
)


class TestBinning:
    def test_bins_by_time_bucket(self, make_tuple):
        feed = StickerFeed(bucket_seconds=3600.0)
        feed.push(make_tuple(0, time=100.0))
        feed.push(make_tuple(1, time=200.0))
        feed.push(make_tuple(2, time=4000.0))
        bins = feed.bins()
        assert len(bins) == 2
        assert bins[0].count == 2 and bins[1].count == 1

    def test_bins_by_theme(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=("weather/rain",)))
        feed.push(make_tuple(1, themes=("mobility/traffic",)))
        assert feed.themes() == ["mobility/traffic", "weather/rain"]

    def test_multi_theme_tuple_lands_in_each(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=("weather/rain", "disaster/flood")))
        assert len(feed.bins()) == 2

    def test_untagged_bucket(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=()))
        assert feed.themes() == ["(untagged)"]

    def test_numeric_means(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, temperature=10.0))
        feed.push(make_tuple(1, temperature=20.0))
        bin_ = feed.bins()[0]
        assert bin_.mean("temperature") == 15.0
        assert math.isnan(bin_.mean("nonexistent"))

    def test_invalid_bucket_raises(self):
        with pytest.raises(StreamLoaderError):
            StickerFeed(bucket_seconds=0.0)


class TestSeries:
    def test_time_ordered_merged_over_space(self, make_tuple):
        feed = StickerFeed(bucket_seconds=3600.0)
        # Same bucket, two different cells.
        feed.push(make_tuple(0, time=100.0, lat=34.60, lon=135.40))
        feed.push(make_tuple(1, time=200.0, lat=34.75, lon=135.60))
        feed.push(make_tuple(2, time=4000.0))
        series = feed.series("weather/temperature")
        assert [point.count for point in series] == [2, 1]
        assert series[0].bucket_start < series[1].bucket_start

    def test_theme_matching_is_hierarchical(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=("weather/rain",)))
        assert feed.series("weather")[0].count == 1

    def test_empty_series(self, make_tuple):
        feed = StickerFeed()
        assert feed.series("social") == []


class TestJsonDocuments:
    def test_documents_shape(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, temperature=25.0))
        docs = feed.to_json_documents()
        assert len(docs) == 1
        doc = docs[0]
        assert set(doc) == {"bucket_start", "cell", "theme", "count", "means"}
        assert doc["means"]["temperature"] == 25.0


class TestCellMemo:
    """The feed remembers each stamp location's grid cell, up to a cap."""

    def test_memo_stays_bounded_for_distinct_points(self, make_tuple, monkeypatch):
        monkeypatch.setattr(feed_module, "CELL_MEMO_MAX", 16)
        feed = StickerFeed()
        for i in range(200):
            feed.push(make_tuple(i, lat=34.0 + i * 1e-3, lon=135.0 + i * 1e-3))
            assert len(feed._cells) <= 16
        assert feed.pushed == 200
        assert sum(b.count for b in feed.bins()) == 200

    def test_memo_cells_equal_grid_cells_at_boundaries(self):
        """Points on and one ulp beside grid lines, where the nudge runs."""
        feed = StickerFeed(cell_granularity="district")
        d = spatial_granularity("district").cell_meters / METERS_PER_DEG_LAT
        nudged = 0
        for k in range(6440, 6480):
            lat_line, lon_line = -90.0 + k * d, -180.0 + (k + 8000) * d
            for step in (-math.inf, None, math.inf):
                lat = lat_line if step is None else math.nextafter(lat_line, step)
                lon = lon_line if step is None else math.nextafter(lon_line, step)
                for location in (Point(lat, 135.5), Point(34.6, lon), Point(lat, lon)):
                    cell = grid_cell_for(location, "district")
                    nudged += (cell.row, cell.col) != (
                        int((location.lat + 90.0) // d),
                        int((location.lon + 180.0) // d),
                    )
                    assert feed._cell_of(location) == (cell.row, cell.col)
                    assert feed._cell_of(location) == (cell.row, cell.col)  # memo hit
        assert nudged > 0

    def test_memo_covers_boxes_and_cells(self):
        feed = StickerFeed(cell_granularity="city")
        box = Box(34.5, 135.3, 34.8, 135.7)
        cell = grid_cell_for(Point(34.69, 135.5), "district")
        for location in (box, cell, box, cell):
            expected = grid_cell_for(representative_point(location), "city")
            assert feed._cell_of(location) == (expected.row, expected.col)
