"""The Sticker feed: binned geo-temporal aggregates of a stream."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StreamLoaderError
from repro.streams.tuple import SensorTuple
from repro.stt.spatial import SpatialObject, grid_cell_for, representative_point
from repro.stt.thematic import Theme


#: Stamp locations whose grid cell a feed remembers.  Fleets reuse a few
#: locations (a sensor stamps its registered position), so a hit is the
#: rule; a stream of distinct points refills the memo from empty.
CELL_MEMO_MAX = 4096


@dataclass
class TrendPoint:
    """One (time bucket, cell, theme) aggregate."""

    bucket_start: float
    row: int
    col: int
    theme: str
    count: int = 0
    numeric_sums: dict[str, float] = field(default_factory=dict)
    numeric_counts: dict[str, int] = field(default_factory=dict)

    def mean(self, attribute: str) -> float:
        count = self.numeric_counts.get(attribute, 0)
        if count == 0:
            return float("nan")
        return self.numeric_sums[attribute] / count


class StickerFeed:
    """Accumulates pushed tuples into trend bins.

    Args:
        bucket_seconds: temporal bin width.
        cell_granularity: spatial bin granularity (a gridded level).
    """

    def __init__(
        self, bucket_seconds: float = 3600.0, cell_granularity: str = "district"
    ) -> None:
        if bucket_seconds <= 0:
            raise StreamLoaderError(
                f"bucket_seconds must be positive: {bucket_seconds}"
            )
        self.bucket_seconds = bucket_seconds
        self.cell_granularity = cell_granularity
        #: (bucket, row, col, theme) -> that bin's aggregate.
        self._bins: dict[tuple[int, int, int, str], TrendPoint] = {}
        self.pushed = 0
        #: Stamp location -> (row, col) of its grid cell.
        self._cells: dict[SpatialObject, tuple[int, int]] = {}

    def _cell_of(self, location: SpatialObject) -> "tuple[int, int]":
        cell = self._cells.get(location)
        if cell is None:
            grid = grid_cell_for(representative_point(location), self.cell_granularity)
            cell = (grid.row, grid.col)
            if len(self._cells) >= CELL_MEMO_MAX:
                self._cells.clear()
            self._cells[location] = cell
        return cell

    def push(self, tuple_: SensorTuple) -> None:
        """Accumulate one processed tuple into its bins (one per theme)."""
        self.pushed += 1
        stamp = tuple_.stamp
        bucket = int(stamp.time // self.bucket_seconds)
        row, col = self._cell_of(stamp.location)
        themes = [theme.path for theme in stamp.themes] or ["(untagged)"]
        for theme in themes:
            key = (bucket, row, col, theme)
            bin_ = self._bins.get(key)
            if bin_ is None:
                bin_ = TrendPoint(
                    bucket_start=bucket * self.bucket_seconds,
                    row=row,
                    col=col,
                    theme=theme,
                )
                self._bins[key] = bin_
            bin_.count += 1
            for name, value in tuple_.payload.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    bin_.numeric_sums[name] = (
                        bin_.numeric_sums.get(name, 0.0) + float(value)
                    )
                    bin_.numeric_counts[name] = bin_.numeric_counts.get(name, 0) + 1

    # -- queries ------------------------------------------------------------

    def bins(self) -> list[TrendPoint]:
        return sorted(
            self._bins.values(),
            key=lambda b: (b.bucket_start, b.theme, b.row, b.col),
        )

    def series(self, theme: "Theme | str") -> list[TrendPoint]:
        """Time-ordered trend of one theme, summed over space."""
        target = theme if isinstance(theme, Theme) else Theme(theme)
        by_bucket: dict[float, TrendPoint] = {}
        for bin_ in self._bins.values():
            if not Theme(bin_.theme).matches(target):
                continue
            merged = by_bucket.get(bin_.bucket_start)
            if merged is None:
                merged = TrendPoint(
                    bucket_start=bin_.bucket_start, row=-1, col=-1, theme=target.path
                )
                by_bucket[bin_.bucket_start] = merged
            merged.count += bin_.count
            for name, total in bin_.numeric_sums.items():
                merged.numeric_sums[name] = merged.numeric_sums.get(name, 0.0) + total
                merged.numeric_counts[name] = (
                    merged.numeric_counts.get(name, 0) + bin_.numeric_counts[name]
                )
        return [by_bucket[key] for key in sorted(by_bucket)]

    def themes(self) -> list[str]:
        return sorted({bin_.theme for bin_ in self._bins.values()})

    def to_json_documents(self) -> list[dict]:
        """The wire format a map front end would consume."""
        return [
            {
                "bucket_start": bin_.bucket_start,
                "cell": [bin_.row, bin_.col],
                "theme": bin_.theme,
                "count": bin_.count,
                "means": {
                    name: bin_.mean(name) for name in sorted(bin_.numeric_counts)
                },
            }
            for bin_ in self.bins()
        ]
