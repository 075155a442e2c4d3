"""The timeline renderer, and client churn as faults on ``system.faults``."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.analysis.timeline import render_timeline
from repro.api import FaustParams, SystemConfig, open_system
from repro.common.errors import ConfigurationError
from repro.common.types import BOTTOM
from repro.sim.faults import Fault, plan_windows
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
from repro.workloads.scenarios import figure3_scenario

from histbuild import h, r, w


class TestTimeline:
    def test_empty(self):
        assert render_timeline(h()) == "(empty history)"

    def test_one_line_per_client(self):
        hist = h(w(0, b"u", 0, 1), r(1, 0, BOTTOM, 2, 3))
        text = render_timeline(hist)
        lines = text.splitlines()
        assert lines[0].startswith("  C1")
        assert lines[1].startswith("  C2")
        assert lines[-1].strip().startswith("t=")

    def test_labels_present(self):
        hist = h(w(0, b"u", 0, 5), r(1, 0, b"u", 6, 10))
        text = render_timeline(hist, width=80)
        assert "w(X1)" in text
        assert "r(X1)->u" in text

    def test_bottom_read_label(self):
        hist = h(r(1, 0, BOTTOM, 0, 5))
        assert "r(X1)->B" in render_timeline(hist, width=60)

    def test_incomplete_op_extends_right(self):
        hist = h(w(0, b"u", 0, None), r(1, 0, b"u", 1, 10))
        text = render_timeline(hist, width=60)
        assert ">" in text.splitlines()[0]

    def test_figure3_renders(self):
        result = figure3_scenario()
        text = render_timeline(result.history, width=90)
        assert text.count("r(X1)") == 2

    def test_respects_width(self):
        hist = h(w(0, b"u", 0, 1))
        for width in (40, 100):
            line = render_timeline(hist, width=width).splitlines()[0]
            assert len(line) <= width + 5  # name prefix


def churn_system(seed=50):
    system = open_system(
        SystemConfig(
            num_clients=3,
            seed=seed,
            faust=FaustParams(
                dummy_read_period=3.0, probe_check_period=4.0, delta=20.0
            ),
        ),
    )
    return system


class TestChurn:
    def test_window_takes_client_offline_and_back(self):
        system = churn_system()
        system.faults.add(Fault("away", 1, 5.0, 10.0))
        system.run(until=6.0)
        assert not system.offline.is_online("C2")
        system.run(until=20.0)
        assert system.offline.is_online("C2")
        kinds = [n.kind for n in system.trace.notes if n.source == "C2"]
        assert "client-away" in kinds and "client-return" in kinds

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            churn_system().faults.add(Fault("away", 0, 1.0, 0.0))

    @pytest.mark.parametrize("mean", [0.0, -1.0, float("inf"), float("nan")])
    def test_random_windows_refuse_a_bad_mean_duration(self, mean):
        # inf divided by zero in the planner; a non-positive mean was
        # silently floored to one time unit.
        with pytest.raises(ConfigurationError, match="mean duration"):
            plan_windows(random.Random(0), "away", 2, 50.0, mean)

    def test_window_end_property(self):
        assert Fault("away", 0, 2.0, 3.0).end == 5.0

    def test_churn_causes_no_false_positives(self):
        system = churn_system(seed=51)
        rng = random.Random(51)
        for window in plan_windows(rng, "away", 6, 80.0, 15.0):
            fault = replace(window, target=rng.randrange(3))
            if system.faults.conflict(fault) is None:  # skip, never shorten
                system.faults.add(fault)
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=5, mean_think_time=2.0), random.Random(51)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=600.0)
        assert not any(c.failed for c in system.clients)

    def test_stability_completes_despite_churn(self):
        system = churn_system(seed=52)
        # C3 sleeps through the whole working phase.
        system.faults.add(Fault("away", 2, 2.0, 60.0))
        box = []
        system.clients[0].write(b"while-you-were-out", box.append)
        assert system.run_until(lambda: bool(box), timeout=100)
        t = box[0].timestamp
        # Not stable w.r.t. C3 while it sleeps...
        system.run(until=50.0)
        assert system.clients[0].tracker.stable_timestamp_for(2) < t
        # ...but stability completes after it returns.
        reached = system.run_until(
            lambda: system.clients[0].tracker.stable_timestamp_for_all() >= t,
            timeout=2_000,
        )
        assert reached
        assert not any(c.failed for c in system.clients)

    def test_detection_still_complete_under_churn(self):
        from repro.ustor.byzantine import SplitBrainServer

        system = open_system(
            SystemConfig(
                num_clients=4,
                seed=53,
                server_factory=lambda n, name: SplitBrainServer(
                    n, groups=[{0, 1}, {2, 3}], fork_time=5.0, name=name
                ),
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=4.0, delta=15.0
                ),
            ),
        )
        system.faults.add(Fault("away", 3, 10.0, 100.0))
        scripts = generate_scripts(
            4, WorkloadConfig(ops_per_client=6, mean_think_time=1.0), random.Random(53)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=1_500.0)
        # Every correct client — including the one that slept through the
        # fork — eventually learns of it.
        assert all(c.failed for c in system.clients if not c.crashed)
