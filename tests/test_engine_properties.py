from __future__ import annotations

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandrelay import engine
from wandrelay.engine import (
    _cell_units,
    evaluate_sample,
    expire_messages,
    grid_cell,
    grid_neighbours,
    haversine_distance,
)
from wandrelay.model import MAX_GEOFENCE_RADIUS_M, Specificity
from wandrelay.sim import MARKER_VISIBILITY_M

from genrandom import destination, random_messages, random_stream
from oracles import brute_force_deliveries, oracle_condition_flags, oracle_haversine


def run_engine(messages, samples, *, with_expiry=True):
    """Apply the engine sequentially over a stream, collecting deliveries."""
    pending = list(messages)
    last_t = None
    deliveries = []
    for sample in samples:
        if with_expiry:
            _, pending = expire_messages(sample.t, pending)
        new, pending = evaluate_sample(sample, pending, last_t)
        deliveries.extend(new)
        last_t = sample.t
    return deliveries, pending


def flags_of(record):
    mapping = {
        "geofence": record.satisfied.geofence_hit,
        "window": record.satisfied.window_hit,
        "marker": record.satisfied.marker_hit,
    }
    return {k: v for k, v in mapping.items() if v is not None}


def check_engine_matches_oracle(seed: int) -> None:
    rng = random.Random(seed)
    samples = random_stream(rng)
    span_end = samples[-1].t
    messages = random_messages(rng, span_end)
    deliveries, _ = run_engine(messages, samples)
    expected = brute_force_deliveries(messages, samples)

    got = {d.message_id: (d.delivered_at, flags_of(d)) for d in deliveries}
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_equivalence_randomized(seed):
    check_engine_matches_oracle(seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_at_most_once_delivery(seed):
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    deliveries, _ = run_engine(messages, samples)
    ids = [d.message_id for d in deliveries]
    assert len(ids) == len(set(ids))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_no_delivery_while_not_wearing(seed):
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    deliveries, _ = run_engine(messages, samples)
    assert all(d.triggering_sample.wearing for d in deliveries)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_combinator_soundness(seed):
    """AND deliveries satisfy every flag; OR deliveries at least one.

    Geofence hits are recomputed with the independent haversine oracle.
    """
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    by_id = {m.message_id: m for m in messages}
    deliveries, _ = run_engine(messages, samples)
    for record in deliveries:
        message = by_id[record.message_id]
        if message.schedule is None:
            continue
        flags = flags_of(record)
        assert flags == oracle_condition_flags(message, record.triggering_sample)
        if message.schedule.specificity is Specificity.SPECIFIC:
            assert all(flags.values())
            if message.schedule.window is not None:
                assert message.schedule.window.start <= record.delivered_at <= message.schedule.window.end
            if message.schedule.geofence is not None:
                g = message.schedule.geofence
                s = record.triggering_sample
                assert oracle_haversine(g.lat, g.lon, s.lat, s.lon) <= g.radius
        else:
            assert any(flags.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_expiry_never_blocks_a_delivery(seed):
    """Running expire_messages between samples changes nothing the oracle sees."""
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    with_expiry, _ = run_engine(messages, samples, with_expiry=True)
    without_expiry, _ = run_engine(messages, samples, with_expiry=False)
    assert [(d.message_id, d.delivered_at) for d in with_expiry] == [
        (d.message_id, d.delivered_at) for d in without_expiry
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=1_000))
def test_monotonicity_dropping_a_quiet_sample(seed, pick):
    """Removing a sample that triggered nothing leaves the outcome unchanged."""
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    deliveries, _ = run_engine(messages, samples)
    delivery_times = {d.delivered_at for d in deliveries}
    quiet = [i for i, s in enumerate(samples) if s.t not in delivery_times]
    if not quiet:
        return
    index = quiet[pick % len(quiet)]
    pruned = samples[:index] + samples[index + 1 :]
    pruned_deliveries, _ = run_engine(messages, pruned)
    assert [(d.message_id, d.delivered_at) for d in deliveries] == [
        (d.message_id, d.delivered_at) for d in pruned_deliveries
    ]


def test_conservation_after_expiry_accounting():
    """Delivered + still-pending + expired always partitions the message set."""
    rng = random.Random(12345)
    for _ in range(50):
        samples = random_stream(rng, max_samples=80)
        messages = random_messages(rng, samples[-1].t, max_messages=12)
        pending = list(messages)
        last_t = None
        delivered, expired = [], []
        for sample in samples:
            newly_expired, pending = expire_messages(sample.t, pending)
            expired.extend(newly_expired)
            new, pending = evaluate_sample(sample, pending, last_t)
            delivered.extend(new)
            last_t = sample.t
        assert len(delivered) + len(expired) + len(pending) == len(messages)
        ids = (
            [d.message_id for d in delivered]
            + [m.message_id for m in expired]
            + [m.message_id for m in pending]
        )
        assert sorted(ids) == sorted(m.message_id for m in messages)


# Latitudes and longitudes with the poles and the antimeridian kept.
LATITUDES = st.floats(-90.0, 90.0) | st.sampled_from([90.0, -90.0, 89.99999, -89.99999])
LONGITUDES = st.floats(-180.0, 180.0) | st.sampled_from([180.0, -180.0, 179.99999, -179.99999])


@settings(max_examples=300, deadline=None)
@given(
    LATITUDES,
    LONGITUDES,
    st.floats(0.0, 2 * math.pi),
    st.sampled_from([MAX_GEOFENCE_RADIUS_M, MARKER_VISIBILITY_M]),
    st.floats(0.0, 1.0),
)
def test_grid_neighbours_hold_every_point_within_a_fence_radius(lat, lon, bearing, reach, fraction):
    """Within a geofence radius or the marker range, each point's cell is among the other's 8 neighbours.

    Poles and the antimeridian included: the grid has no edge there.
    """
    lat2, lon2 = destination(lat, lon, bearing, fraction * reach)
    neighbours = grid_neighbours(lat, lon)
    assert len(set(neighbours)) == 8
    if haversine_distance(lat, lon, lat2, lon2) <= reach:
        assert grid_cell(lat2, lon2) in neighbours
        assert grid_cell(lat, lon) in grid_neighbours(lat2, lon2)


def product_neighbours(units):
    """Each axis's pair of cells, half a cell below and half above, in ``itertools.product`` order."""
    return list(product(*((math.floor(u - 0.5), math.floor(u + 0.5)) for u in units)))


@settings(max_examples=500, deadline=None)
@given(LATITUDES, LONGITUDES)
def test_grid_neighbours_are_the_product_of_each_axis_pair(lat, lon):
    """Poles and the antimeridian included."""
    assert grid_neighbours(lat, lon) == product_neighbours(_cell_units(lat, lon))


@pytest.mark.parametrize(
    "units",
    [(0.5, -0.5, 1.5), (-2.5, 3.5, 0.0), (199093.5, -199093.5, -0.0), (6221.5, -0.5, 0.5)],
)
def test_grid_neighbours_on_half_cell_boundaries(monkeypatch, units):
    """A coordinate exactly half a cell past a boundary has both its pair's cells one apart too."""
    monkeypatch.setattr(engine, "_cell_units", lambda lat, lon: units)
    assert grid_neighbours(0.0, 0.0) == product_neighbours(units)


def test_a_coordinate_just_below_half_a_cell_keeps_its_own_cell(monkeypatch):
    """Below 0.5, ``u + 0.5`` can round up to the next integer; ``floor(u - 0.5) + 1`` cannot.

    There the product form gave cells -1 and 1 on that axis, leaving out
    cell 0, which holds the point itself.
    """
    u = 0.5 - 2.0**-54
    monkeypatch.setattr(engine, "_cell_units", lambda lat, lon: (u, u, u))
    assert (0, 0, 0) in grid_neighbours(0.0, 0.0)
    assert (0, 0, 0) not in product_neighbours((u, u, u))
