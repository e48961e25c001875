"""Admission-controller tests over synthetic engine signals.

A controller decides from ``(write_headroom, memory_fill, nbytes)`` and,
for a paced write, an injected clock — no server, no sleeping, no
wall-clock dependence. The last test feeds the simulator's controls and
the wire's adapters one sequence of trees and requires the same
decisions from both tiers.
"""

from __future__ import annotations

import math

import pytest

from repro.core import Component, GlobalComponentConstraint, TreeSnapshot
from repro.core.factory import build_control
from repro.errors import ConfigurationError
from repro.server.admission import (
    ADMIT,
    DELAY,
    REJECT,
    AdmissionController,
    build_admission,
)

HEALTHY = dict(write_headroom=1.0, memory_fill=0.0)
STALLED = dict(write_headroom=0.0, memory_fill=0.0)
FLUSHING = dict(write_headroom=1.0, memory_fill=1.0)


def frozen(now: float = 0.0):
    return lambda: now


# -- mode none ------------------------------------------------------------


def test_none_admits_even_a_stalled_engine():
    controller = AdmissionController()
    assert controller.decide(**STALLED, nbytes=4096).action == ADMIT
    assert controller.decide(**FLUSHING, nbytes=4096).action == ADMIT
    assert not controller.absorbs_stalls


# -- mode stop ------------------------------------------------------------


def test_stop_admits_healthy_engine():
    controller = build_admission("stop")
    assert controller.decide(**HEALTHY, nbytes=100).action == ADMIT
    # any headroom at all is full speed (Theorem 1)
    assert controller.decide(0.01, 0.99, 100).action == ADMIT


def test_stop_rejects_stalled_engine_with_retry_hint():
    controller = build_admission("stop", retry_after=0.2)
    decision = controller.decide(**STALLED, nbytes=100)
    assert decision.action == REJECT
    assert decision.retry_after == 0.2
    assert not controller.absorbs_stalls


def test_stop_rejects_when_all_memtables_are_flushing():
    decision = build_admission("stop").decide(**FLUSHING, nbytes=100)
    assert decision.action == REJECT
    assert decision.reason == "all memory components are flushing"


def test_stop_validates_retry_after():
    with pytest.raises(ConfigurationError):
        build_admission("stop", retry_after=0.0)


# -- mode limit -----------------------------------------------------------


def test_limit_paces_an_idle_write_by_its_own_size():
    controller = build_admission(
        "limit", rate_bytes_per_s=100.0, clock=frozen()
    )
    decision = controller.decide(**HEALTHY, nbytes=25)
    assert decision.action == DELAY
    assert decision.delay_seconds == pytest.approx(0.25)


def test_limit_delays_writes_beyond_the_rate():
    clock = [0.0]
    controller = build_admission(
        "limit", rate_bytes_per_s=100.0, clock=lambda: clock[0]
    )
    controller.decide(**HEALTHY, nbytes=100)  # reserves [0, 1)
    decision = controller.decide(**HEALTHY, nbytes=50)
    assert decision.action == DELAY
    # queued behind the first second, then 50 bytes at 100 B/s
    assert decision.delay_seconds == pytest.approx(1.5)
    # an idle pacer banks no burst: after a long gap, one write's worth
    clock[0] = 100.0
    later = controller.decide(**HEALTHY, nbytes=50)
    assert later.delay_seconds == pytest.approx(0.5)


def test_limit_falls_back_to_reject_when_engine_saturates():
    controller = build_admission(
        "limit", rate_bytes_per_s=100.0, retry_after=0.1, clock=frozen()
    )
    for signals in (STALLED, FLUSHING):
        decision = controller.decide(**signals, nbytes=10)
        assert decision.action == REJECT
        assert decision.retry_after == 0.1


def test_limit_requires_positive_rate():
    with pytest.raises(ConfigurationError):
        build_admission("limit", rate_bytes_per_s=0.0)
    with pytest.raises(ConfigurationError):
        build_admission("limit")


# -- mode gradual ---------------------------------------------------------


def test_gradual_admits_below_the_pressure_threshold():
    controller = build_admission(
        "gradual", rate_bytes_per_s=100.0, threshold=0.5
    )
    assert controller.decide(0.6, 0.0, 100).action == ADMIT
    assert controller.decide(0.5, 0.5, 100).action == ADMIT


def test_gradual_delay_ramps_linearly_with_merge_backlog():
    def delay(headroom: float) -> float:
        controller = build_admission(
            "gradual", rate_bytes_per_s=100.0, threshold=0.5, clock=frozen()
        )
        decision = controller.decide(headroom, 0.0, 10)
        assert decision.action == DELAY
        return decision.delay_seconds

    # headroom 0.25 -> halfway down the ramp -> 50 B/s
    assert delay(0.25) == pytest.approx(10 / 50.0)
    # headroom 0.1 -> a fifth of the way -> 20 B/s
    assert delay(0.1) == pytest.approx(10 / 20.0)


def test_gradual_never_rejects_only_slows():
    controller = build_admission(
        "gradual", rate_bytes_per_s=100.0, retry_after=0.02
    )
    for signals in (STALLED, FLUSHING):
        decision = controller.decide(**signals, nbytes=100)
        assert decision.action == DELAY
        assert decision.delay_seconds == pytest.approx(0.02)
    assert controller.absorbs_stalls
    assert controller.retry_after == pytest.approx(0.02)


def test_gradual_validates_parameters():
    with pytest.raises(ConfigurationError):
        build_admission("gradual", rate_bytes_per_s=0.0)
    with pytest.raises(ConfigurationError):
        build_admission("gradual", rate_bytes_per_s=100.0, threshold=1.0)
    with pytest.raises(ConfigurationError):
        build_admission("gradual", rate_bytes_per_s=100.0, retry_after=0.0)


# -- factory --------------------------------------------------------------


def test_build_admission_maps_modes():
    assert build_admission("none").mode == "none"
    assert build_admission("stop", retry_after=0.1).mode == "stop"
    assert build_admission("limit", rate_bytes_per_s=1e6).mode == "limit"
    assert build_admission("gradual", rate_bytes_per_s=1e6).mode == "gradual"


def test_build_admission_rejects_unknown_mode_and_stray_params():
    with pytest.raises(ConfigurationError):
        build_admission("panic")
    with pytest.raises(ConfigurationError):
        build_admission("none", retry_after=0.1)
    with pytest.raises(TypeError):
        build_admission("stop", max_delay=0.02)


# -- the two tiers decide alike -------------------------------------------


def tree_of(count: int) -> TreeSnapshot:
    return TreeSnapshot(
        Component(uid=uid, level=0, size_bytes=100.0, entry_count=1)
        for uid in range(1, count + 1)
    )


@pytest.mark.parametrize(
    "wire_mode, core_name",
    [("stop", "stop"), ("limit", "limit"), ("gradual", "slowdown")],
)
def test_the_simulator_and_the_wire_decide_alike(wire_mode, core_name):
    """One tree sequence, filling a global constraint and draining it
    again, through ``build_control`` and through the wire's adapter:
    the simulator's ∞ is an admit, its 0 a stall (REJECT, or for
    ``gradual`` an absorb pause of ``retry_after``), and a finite rate a
    DELAY of exactly ``nbytes / rate`` on an idle pacer."""
    rate, threshold, nbytes, retry_after = 1000.0, 0.6, 37, 0.03
    constraint = GlobalComponentConstraint(10)
    control = build_control(core_name, rate=rate, start_fraction=1 - threshold)
    clock = [0.0]
    adapter = build_admission(
        wire_mode,
        retry_after=retry_after,
        clock=lambda: clock[0],
        **(dict(rate_bytes_per_s=rate) if wire_mode != "stop" else {}),
        **(dict(threshold=threshold) if wire_mode == "gradual" else {}),
    )
    outcomes = set()
    for count in [*range(0, 13), *range(12, -1, -1)]:
        tree = tree_of(count)
        expected = control.admission_rate(tree, constraint)
        clock[0] += 3600.0  # the pacer is idle again
        decision = adapter.decide(constraint.headroom(tree), 0.0, nbytes)
        if math.isinf(expected):
            assert decision.action == ADMIT, count
        elif expected == 0.0:
            assert constraint.is_violated(tree), count
            if wire_mode == "gradual":
                assert decision.action == DELAY, count
                assert decision.delay_seconds == retry_after
            else:
                assert decision.action == REJECT, count
                assert decision.retry_after == retry_after
        else:
            assert decision.action == DELAY, count
            assert decision.delay_seconds == pytest.approx(nbytes / expected)
        outcomes.add(decision.action)
    # every shape the mode has showed up along the way
    assert outcomes == {
        "stop": {ADMIT, REJECT}, "limit": {DELAY, REJECT},
        "gradual": {ADMIT, DELAY},
    }[wire_mode]
