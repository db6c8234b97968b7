"""The tweet generator draws exactly what the list-based ``rng.choice`` did.

The reference below is the generator body the tweet sensor had before it
indexed tuples with ``rng.integers``: ``rng.choice`` on Python lists for
the topic and text, and on the hashtag list for the 2-of-n pick.  Both
must return equal payloads (skips included) and leave the generator in
the same state after every call.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sensors.social import _HASHTAGS, _TWEET_TOPICS, twitter_sensor
from repro.stt.spatial import Box

_DAY = 86400.0
SEEDS = 500
CALLS = 200


def reference_generate(now: float, rng: np.random.Generator, burst_hour: int = 18):
    hour = (now % _DAY) / 3600.0
    activity = 0.35 + 0.65 * math.exp(-(((hour - burst_hour) % 24.0) ** 2) / 18.0)
    if rng.random() > activity:
        return None
    topic = rng.choice(list(_TWEET_TOPICS))
    text = str(rng.choice(_TWEET_TOPICS[topic]))
    tags = " ".join(
        rng.choice(_HASHTAGS[topic], size=min(2, len(_HASHTAGS[topic])), replace=False)
    )
    return {
        "user": f"user{int(rng.integers(1, 5000))}",
        "text": text,
        "hashtags": tags,
        "retweets": int(rng.poisson(2)),
    }


def test_generator_matches_list_choice_reference():
    generate = twitter_sensor(
        "tweets", Box(34.5, 135.3, 34.8, 135.7), "hub"
    ).generator
    times = np.random.default_rng(2024).uniform(0.0, 3 * _DAY, size=CALLS)
    skips = 0
    for seed in range(SEEDS):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for now in times:
            payload = generate(float(now), ours)
            assert payload == reference_generate(float(now), theirs)
            skips += payload is None
            for value in (payload or {}).values():
                assert type(value) in (str, int)
        assert ours.bit_generator.state == theirs.bit_generator.state
    # Both branches ran: the activity curve skips some calls, not all.
    assert 0 < skips < SEEDS * CALLS
