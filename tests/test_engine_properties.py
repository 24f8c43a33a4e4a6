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
    check_order,
    evaluate_sample,
    evaluate_schedule,
    expire_messages,
    grid_cell,
    grid_neighbours,
    haversine_distance,
)
from wandrelay.model import MAX_GEOFENCE_RADIUS_M, Specificity
from wandrelay.sim import MARKER_VISIBILITY_M

from genrandom import destination, random_messages, random_stream
from oracles import brute_force_deliveries, oracle_condition_flags


def run_engine(messages, samples, *, with_expiry=True):
    """Apply the engine over a stream as the service does, collecting (message, firing sample) pairs."""
    pending = list(messages)
    last_t = None
    deliveries = []
    for sample in samples:
        check_order(sample.t, last_t)
        if with_expiry:
            _, pending = expire_messages(sample.t, pending)
        fired, pending = evaluate_sample(sample, pending)
        deliveries.extend((message, sample) for message in fired)
        last_t = sample.t
    return deliveries, pending


def delivered_at(deliveries):
    """message_id -> delivery time, in delivery order."""
    return {message.message_id: sample.t for message, sample in deliveries}


def check_engine_matches_oracle(seed: int) -> None:
    rng = random.Random(seed)
    samples = random_stream(rng)
    span_end = samples[-1].t
    messages = random_messages(rng, span_end)
    deliveries, _ = run_engine(messages, samples)
    assert delivered_at(deliveries) == brute_force_deliveries(messages, samples)


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
    ids = [message.message_id for message, _ in deliveries]
    assert len(ids) == len(set(ids))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_no_delivery_while_not_wearing(seed):
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    deliveries, _ = run_engine(messages, samples)
    assert all(sample.wearing for _, sample in deliveries)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_combinator_soundness(seed):
    """At the firing sample, AND deliveries satisfy every flag; OR deliveries at least one.

    The flags are recomputed by the oracle, geofence hits with the
    independent haversine.
    """
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    deliveries, _ = run_engine(messages, samples)
    for message, sample in deliveries:
        if message.schedule is None:
            continue
        flags = oracle_condition_flags(message, sample)
        if message.schedule.specificity is Specificity.SPECIFIC:
            assert all(flags.values())
        else:
            assert any(flags.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_evaluate_schedule_matches_the_oracle_at_every_pair(seed):
    """Every (message, sample) pair, fired or not: the evaluator is the all/any of the oracle's flags."""
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = [m for m in random_messages(rng, samples[-1].t) if m.schedule is not None]
    for message in messages:
        combine = all if message.schedule.specificity is Specificity.SPECIFIC else any
        for sample in samples:
            want = combine(oracle_condition_flags(message, sample).values())
            assert evaluate_schedule(message.schedule, sample) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_expiry_never_blocks_a_delivery(seed):
    """Running expire_messages between samples changes nothing the oracle sees."""
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    with_expiry, _ = run_engine(messages, samples, with_expiry=True)
    without_expiry, _ = run_engine(messages, samples, with_expiry=False)
    assert list(delivered_at(with_expiry).items()) == list(delivered_at(without_expiry).items())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=1_000))
def test_monotonicity_dropping_a_quiet_sample(seed, pick):
    """Removing a sample that triggered nothing leaves the outcome unchanged."""
    rng = random.Random(seed)
    samples = random_stream(rng)
    messages = random_messages(rng, samples[-1].t)
    deliveries, _ = run_engine(messages, samples)
    delivery_times = {sample.t for _, sample in deliveries}
    quiet = [i for i, s in enumerate(samples) if s.t not in delivery_times]
    if not quiet:
        return
    index = quiet[pick % len(quiet)]
    pruned = samples[:index] + samples[index + 1 :]
    pruned_deliveries, _ = run_engine(messages, pruned)
    assert list(delivered_at(deliveries).items()) == list(delivered_at(pruned_deliveries).items())


def test_conservation_after_expiry_accounting():
    """Delivered + still-pending + expired always partitions the message set."""
    rng = random.Random(12345)
    for _ in range(50):
        samples = random_stream(rng, max_samples=80)
        messages = random_messages(rng, samples[-1].t, max_messages=12)
        pending = list(messages)
        delivered, expired = [], []
        for sample in samples:
            newly_expired, pending = expire_messages(sample.t, pending)
            expired.extend(newly_expired)
            fired, pending = evaluate_sample(sample, pending)
            delivered.extend(fired)
        assert len(delivered) + len(expired) + len(pending) == len(messages)
        ids = (
            [m.message_id for m in delivered]
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
