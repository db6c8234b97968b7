"""Social sensor models.

The paper's motivation: "social sensors able to collect data from people
(like, twitter data, traffic information, train or flight schedule)".
Social feeds are event-like and text-bearing: tweets carry hashtag pools
biased by the (virtual) weather, traffic reports follow rush-hour cycles,
and schedule feeds emit per-service delay updates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.pubsub.registry import SensorMetadata
from repro.schema.schema import StreamSchema
from repro.sensors.base import SimulatedSensor
from repro.stt.spatial import Box, Point, SpatialObject

_DAY = 86400.0

_TWEET_TOPICS = {
    "weather": ["so hot today", "heavy rain again", "lovely weather", "typhoon coming?"],
    "traffic": ["stuck on the hanshin expressway", "accident near umeda", "roads clear"],
    "events": ["match day at the dome", "festival in namba", "fireworks tonight"],
}
_HASHTAGS = {
    "weather": ["#osaka", "#weather", "#rain", "#heat"],
    "traffic": ["#osaka", "#traffic", "#commute"],
    "events": ["#osaka", "#event", "#matsuri"],
}
#: Per topic, in ``_TWEET_TOPICS`` order: (texts, hashtags, tags drawn).
#: ``rng.choice(seq)`` on a list draws exactly ``rng.integers(len(seq))``
#: and indexes it, so the tweet generator indexes these tuples instead of
#: paying for a list-to-array conversion per draw (DESIGN.md §18).
_TWEET_DRAWS = tuple(
    (tuple(texts), tuple(_HASHTAGS[topic]), min(2, len(_HASHTAGS[topic])))
    for topic, texts in _TWEET_TOPICS.items()
)


def twitter_sensor(
    sensor_id: str,
    area: "Box | SpatialObject",
    node_id: str,
    frequency: float = 0.5,
    burst_hour: int = 18,
    seed: int = 7,
) -> SimulatedSensor:
    """Geo-tagged tweet stream over an area, rate-modulated by time of day.

    Emission probability peaks around ``burst_hour``; quiet hours skip
    readings, so the advertised frequency is the *maximum* rate — matching
    how social feeds actually behave against their advertised caps.
    """
    schema = StreamSchema.build(
        [
            ("user", "string"),
            ("text", "string"),
            ("hashtags", "string"),
            ("retweets", "int"),
        ],
        temporal="second",
        spatial="district",
        themes=("social/twitter",),
    )
    metadata = SensorMetadata(
        sensor_id=sensor_id,
        sensor_type="twitter",
        schema=schema,
        frequency=frequency,
        location=area,
        node_id=node_id,
        physical=False,
        description="geo-tagged tweet firehose slice",
    )

    def generate(now: float, rng: np.random.Generator) -> "dict | None":
        hour = (now % _DAY) / 3600.0
        activity = 0.35 + 0.65 * math.exp(-(((hour - burst_hour) % 24.0) ** 2) / 18.0)
        if rng.random() > activity:
            return None
        texts, hashtags, drawn = _TWEET_DRAWS[rng.integers(len(_TWEET_DRAWS))]
        text = texts[rng.integers(len(texts))]
        picked = rng.choice(len(hashtags), size=drawn, replace=False).tolist()
        return {
            "user": f"user{int(rng.integers(1, 5000))}",
            "text": text,
            "hashtags": " ".join([hashtags[index] for index in picked]),
            "retweets": int(rng.poisson(2)),
        }

    return SimulatedSensor(metadata, generate, seed=seed)


def traffic_sensor(
    sensor_id: str,
    location: Point,
    node_id: str,
    frequency: float = 1.0 / 120.0,
    road: str = "hanshin-expressway",
    capacity_vph: float = 3600.0,
    seed: int = 7,
) -> SimulatedSensor:
    """Road segment telemetry: vehicle flow, mean speed, congestion level.

    Flow follows the double-peaked commuter curve (08:00 and 18:00); speed
    drops as flow approaches capacity.
    """
    schema = StreamSchema.build(
        [
            ("road", "string"),
            ("vehicles_per_hour", "float"),
            ("mean_speed", "float", "kmh"),
            ("congestion", "float", "fraction"),
        ],
        temporal="second",
        spatial="district",
        themes=("mobility/traffic",),
    )
    metadata = SensorMetadata(
        sensor_id=sensor_id,
        sensor_type="traffic",
        schema=schema,
        frequency=frequency,
        location=location,
        node_id=node_id,
        physical=False,
        description=f"loop detector on {road}",
    )

    def generate(now: float, rng: np.random.Generator) -> dict:
        hour = (now % _DAY) / 3600.0
        morning = math.exp(-((hour - 8.0) ** 2) / 3.0)
        evening = math.exp(-((hour - 18.0) ** 2) / 4.0)
        demand = 0.15 + 0.85 * max(morning, evening)
        flow = capacity_vph * demand * float(rng.uniform(0.9, 1.1))
        congestion = min(1.0, flow / capacity_vph)
        speed = 90.0 * (1.0 - 0.75 * congestion**2) + float(rng.normal(0.0, 3.0))
        return {
            "road": road,
            "vehicles_per_hour": round(flow, 1),
            "mean_speed": round(max(5.0, speed), 1),
            "congestion": round(congestion, 3),
        }

    return SimulatedSensor(metadata, generate, seed=seed)


def _schedule_sensor(
    sensor_id: str,
    location: Point,
    node_id: str,
    frequency: float,
    sensor_type: str,
    theme: str,
    services: list[str],
    headway_s: float,
    delay_scale_min: float,
    seed: int,
) -> SimulatedSensor:
    schema = StreamSchema.build(
        [
            ("service", "string"),
            ("scheduled_time", "float"),
            ("delay_minutes", "float", "minute"),
            ("cancelled", "bool"),
        ],
        temporal="minute",
        spatial="city",
        themes=(theme,),
    )
    metadata = SensorMetadata(
        sensor_id=sensor_id,
        sensor_type=sensor_type,
        schema=schema,
        frequency=frequency,
        location=location,
        node_id=node_id,
        physical=False,
        description=f"{sensor_type} status feed",
    )

    def generate(now: float, rng: np.random.Generator) -> "dict | None":
        # A status update exists only when a service departs near this tick.
        if rng.random() > min(1.0, (1.0 / frequency) / headway_s):
            return None
        service = str(rng.choice(services))
        delay = max(0.0, float(rng.exponential(delay_scale_min)) - delay_scale_min / 2)
        return {
            "service": service,
            "scheduled_time": float(int(now // 60) * 60),
            "delay_minutes": round(delay, 1),
            "cancelled": bool(rng.random() < 0.01),
        }

    return SimulatedSensor(metadata, generate, seed=seed)


def train_schedule_sensor(
    sensor_id: str,
    location: Point,
    node_id: str,
    frequency: float = 1.0 / 60.0,
    seed: int = 7,
) -> SimulatedSensor:
    """Train departure/delay feed for a station."""
    lines = ["loop-line", "midosuji", "hankyu-kobe", "jr-kyoto", "nankai-airport"]
    return _schedule_sensor(
        sensor_id,
        location,
        node_id,
        frequency,
        sensor_type="train-schedule",
        theme="mobility/train-schedule",
        services=lines,
        headway_s=180.0,
        delay_scale_min=3.0,
        seed=seed,
    )


def flight_schedule_sensor(
    sensor_id: str,
    location: Point,
    node_id: str,
    frequency: float = 1.0 / 300.0,
    seed: int = 7,
) -> SimulatedSensor:
    """Flight departure/delay feed for an airport."""
    flights = ["NH31", "JL207", "MM107", "NH975", "JL2081", "GK351"]
    return _schedule_sensor(
        sensor_id,
        location,
        node_id,
        frequency,
        sensor_type="flight-schedule",
        theme="mobility/flight-schedule",
        services=flights,
        headway_s=600.0,
        delay_scale_min=12.0,
        seed=seed,
    )
