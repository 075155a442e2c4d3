"""The reconnect backoff survives an outage of any length.

``base * multiplier**attempt`` with an ever-growing ``attempt`` raised
``OverflowError`` at the 1025th consecutive failure (~25 minutes at the
2 s cap) — outside ``ClientConnection._run``'s ``try``, so the reconnect
task died unobserved and the client never came back.
"""

from __future__ import annotations

import pytest

from repro.net.client import ReconnectBackoff

#: ``ReconnectBackoff(0.05, seed=7)`` at the parent commit.
FIRST_20 = [
    0.033095819121, 0.057542458696, 0.165093447304, 0.214487257334,
    0.614352801723, 1.09255113353, 1.057998924775, 1.507435733189,
    1.037495658442, 1.433645683662, 1.069855423575, 1.090713013344,
    1.424519189143, 1.826852124672, 1.12380196115, 1.223238964607,
    1.627433222406, 1.947708942457, 1.577102948617, 1.396680474651,
]


def test_seeded_delay_sequence_is_unchanged():
    backoff = ReconnectBackoff(0.05, seed=7)
    assert [backoff.next_delay() for _ in range(20)] == pytest.approx(
        FIRST_20, abs=1e-11
    )


def test_delays_stay_at_the_cap_forever():
    backoff = ReconnectBackoff(0.05, cap=2.0)
    ramp = [backoff.next_delay() for _ in range(6)]
    assert all(0.025 <= delay < 2.0 for delay in ramp)
    assert ramp[0] < 0.05 and ramp[-1] >= 0.8  # it did ramp up
    for _ in range(5_000):  # the 1025th call used to raise OverflowError
        assert 1.0 <= backoff.next_delay() < 2.0


def test_reset_restarts_the_ramp():
    backoff = ReconnectBackoff(0.05)
    for _ in range(2_000):
        backoff.next_delay()
    backoff.reset()
    assert backoff.next_delay() < 0.05
    assert backoff.next_delay() < 0.1
