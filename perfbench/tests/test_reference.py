"""The reference loop gives the run its unit of time."""

import pytest

import reference
from workloads import Measure


def test_reference_loop_is_timed_and_deterministic():
    times = reference.sample(3)
    assert len(times) == 3 and all(t > 0 for t in times)
    assert reference.loop() == reference.CHECKSUM


def test_ref_is_the_typical_loop_time():
    m = Measure(refs=[0.004] + [0.005] * 8 + [0.5])
    assert m.ref == pytest.approx(0.005)
    m.calibrate(1)
    assert len(m.refs) == 11


def test_helpers_time_the_loop_at_once_and_stop():
    ref = reference.Reference(width=2)
    try:
        assert len(ref.sample(2)) == 4
        helpers = list(ref.helpers)
    finally:
        ref.close()
    assert all(h.poll() is not None for h in helpers)


def test_round_trips_are_timed_and_the_echo_helper_stops():
    ref = reference.RoundTrip()
    try:
        times = ref.sample(2)
        helpers = list(ref.helpers)
    finally:
        ref.close()
    assert len(times) == 2 and all(t > 0 for t in times)
    assert all(h.poll() is not None for h in helpers)
