"""FAUST stability: the tracker unit and the protocol-level cuts."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import CheckpointPolicy, FaustParams, SystemConfig, open_system
from repro.faust.stability import StabilityLog, StabilityTracker
from repro.ustor.digests import extend_digest
from repro.ustor.version import Version
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
from repro.workloads.scenarios import figure2_scenario


def chained_versions(schedule, num_clients):
    """Honest versions committed along one schedule (prefix per step)."""
    out = []
    vector = [0] * num_clients
    digests = [None] * num_clients
    digest = None
    for client in schedule:
        vector[client] += 1
        digest = extend_digest(digest, client)
        digests[client] = digest
        out.append(Version(tuple(vector), tuple(digests)))
    return out


class TestTracker:
    def test_initial_state(self):
        tracker = StabilityTracker(0, 3)
        assert tracker.stability_cut() == (0, 0, 0)
        assert tracker.max_version.is_zero
        assert tracker.stable_timestamp_for_all() == 0

    def test_own_version_advances_own_entry(self):
        tracker = StabilityTracker(0, 2)
        versions = chained_versions([0, 0], 2)
        outcome = tracker.absorb(0, versions[-1], now=1.0)
        assert outcome.updated and outcome.stability_advanced
        assert tracker.stability_cut() == (2, 0)

    def test_peer_version_advances_peer_entry(self):
        tracker = StabilityTracker(0, 2)
        versions = chained_versions([0, 1], 2)
        tracker.absorb(0, versions[0], now=1.0)
        outcome = tracker.absorb(1, versions[1], now=2.0)
        assert outcome.updated
        # VER[1] covers my op with timestamp 1: stable w.r.t. C2 up to 1.
        assert tracker.stability_cut() == (1, 1)
        assert tracker.stable_timestamp_for_all() == 1

    def test_stale_version_does_not_refresh_clock(self):
        # Receiving an old (or unchanged) version is NOT an update: the
        # staleness clock must keep running so the client keeps probing —
        # this is what makes fork detection complete (a forking server can
        # forever serve stale-but-valid versions of the other branch).
        tracker = StabilityTracker(0, 2)
        versions = chained_versions([0, 0], 2)
        tracker.absorb(1, versions[1], now=1.0)
        outcome = tracker.absorb(1, versions[0], now=5.0)
        assert not outcome.updated and not outcome.incomparable
        assert tracker.last_heard[1] == 1.0

    def test_incomparable_version_flagged(self):
        tracker = StabilityTracker(0, 2)
        fork_a = chained_versions([0, 0], 2)[-1]
        fork_b = chained_versions([1, 1], 2)[-1]
        tracker.absorb(0, fork_a, now=1.0)
        outcome = tracker.absorb(1, fork_b, now=2.0)
        assert outcome.incomparable
        # The poisoned version must NOT be stored.
        assert tracker.versions[1].is_zero

    def test_max_index_follows_largest(self):
        tracker = StabilityTracker(0, 2)
        versions = chained_versions([0, 1, 1], 2)
        tracker.absorb(0, versions[0], now=1.0)
        tracker.absorb(1, versions[2], now=2.0)
        assert tracker.max_index == 1
        assert tracker.max_version == versions[2]

    def test_stale_peers(self):
        tracker = StabilityTracker(0, 3)
        tracker.absorb(1, chained_versions([1], 3)[0], now=10.0)
        assert tracker.stale_peers(now=11.0, delta=5.0) == [2]
        assert set(tracker.stale_peers(now=50.0, delta=5.0)) == {1, 2}

    def test_version_from_third_party_counts(self):
        # The paper: a VERSION message from C_j need not be committed by
        # C_j.  Stability w.r.t. C_j uses whatever C_j *knows*.
        tracker = StabilityTracker(0, 3)
        versions = chained_versions([0, 1], 3)
        outcome = tracker.absorb(2, versions[-1], now=1.0)  # C3 knows C2's version
        assert outcome.updated
        # The version covers my op with timestamp 1 -> stable w.r.t. C3.
        assert tracker.stability_cut() == (0, 0, 1)


class TestStabilityEndToEnd:
    def test_all_operations_eventually_stable(self):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=5,
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=5.0, delta=15.0
                ),
            ),
        )
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=6, read_fraction=0.5), random.Random(5)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion()
        # Detection completeness (Definition 5, condition 7): every
        # timestamp returned *so far* eventually becomes stable w.r.t.
        # every client.  (Freeze the targets first — dummy reads keep
        # advancing each client's own timestamp forever, so "my latest op
        # is stable" is a moving target by design.)
        targets = {
            client.client_id: client.version.vector[client.client_id]
            for client in system.clients
        }

        def all_stable():
            return all(
                client.tracker.stable_timestamp_for_all() >= targets[client.client_id]
                for client in system.clients
            )

        assert system.run_until(all_stable, timeout=3_000)
        assert not any(c.failed for c in system.clients)

    def test_stability_without_user_operations(self):
        # Dummy reads alone keep versions flowing.
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=6,
                faust=FaustParams(dummy_read_period=2.0),
            ),
        )
        box = []
        system.clients[0].write(b"only-op", box.append)
        assert system.run_until(lambda: bool(box), timeout=100)
        t = box[0].timestamp
        assert system.run_until(
            lambda: system.clients[0].tracker.stable_timestamp_for_all() >= t,
            timeout=1_000,
        )

    def test_stability_via_offline_when_server_crashes(self):
        # The mechanism the paper motivates: after the server crashes,
        # PROBE/VERSION exchange still drives stability for completed ops.
        from repro.ustor.byzantine import CrashingServer

        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=7,
                server_factory=lambda n, name: CrashingServer(n, 4, name=name),
                faust=FaustParams(
                    dummy_read_period=1_000.0,  # no dummy reads: isolate offline path
                    probe_check_period=3.0,
                    delta=10.0,
                ),
            )
        )
        outcomes = []
        system.clients[0].write(b"a", outcomes.append)
        assert system.run_until(lambda: len(outcomes) == 1, timeout=50)
        box = []
        system.clients[1].read(0, box.append)
        assert system.run_until(lambda: bool(box), timeout=50)
        assert box[0].value == b"a"
        # Server is near its crash budget; let it die and rely on probes.
        system.run(until=system.now + 200)
        t = outcomes[0].timestamp
        cut_ok = system.run_until(
            lambda: system.clients[0].tracker.stable_timestamp_for(1) >= t,
            timeout=2_000,
        )
        assert cut_ok, "offline VERSION exchange must drive stability"
        assert not any(c.failed for c in system.clients)

    def test_w_vector_entries_monotonic(self):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=8,
                faust=FaustParams(dummy_read_period=2.0),
            ),
        )
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=5), random.Random(8)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        driver.run_to_completion()
        system.run(until=system.now + 100)
        for client in system.clients:
            cuts = [cut for _, cut in client.stable_notifications]
            for earlier, later in zip(cuts, cuts[1:]):
                assert all(a <= b for a, b in zip(earlier, later))

    def test_timestamps_monotonic_per_client(self):
        system = open_system(SystemConfig(num_clients=2, seed=9))
        outcomes = []
        for value in (b"a", b"b", b"c"):
            box = []
            system.clients[0].write(value, box.append)
            assert system.run_until(lambda: bool(box), timeout=200)
            outcomes.append(box[0])
        stamps = [o.timestamp for o in outcomes]
        assert stamps == sorted(stamps) and len(set(stamps)) == 3


def _notifications(n):
    return st.lists(
        st.tuples(
            st.floats(0, 1e9, allow_nan=False),
            st.tuples(*[st.integers(0, 2**40)] * n),
        ),
        max_size=25,
    )


class TestStabilityLog:
    @given(data=st.data(), n=st.integers(1, 5))
    def test_reads_as_the_list_it_replaces(self, data, n):
        pairs = data.draw(_notifications(n))
        log = StabilityLog(n)
        for time, cut in pairs:
            log.append(time, cut)
        assert list(log) == pairs and len(log) == len(pairs)
        assert [log[k] for k in range(-len(pairs), len(pairs))] == pairs + pairs
        for index in (len(pairs), -len(pairs) - 1):
            with pytest.raises(IndexError):
                log[index]

    @given(data=st.data(), n=st.integers(1, 4), keep=st.integers(1, 30))
    def test_keep_last_matches_deleting_the_list_head(self, data, n, keep):
        pairs = data.draw(_notifications(n))
        more = data.draw(_notifications(n))
        log = StabilityLog(n)
        for time, cut in pairs:
            log.append(time, cut)
        log.keep_last(keep)
        del pairs[:-keep]
        assert list(log) == pairs
        for time, cut in more:
            log.append(time, cut)
        assert list(log) == pairs + more

    def test_keep_last_keeps_at_least_one(self):
        with pytest.raises(ValueError):
            StabilityLog(2).keep_last(0)

    def test_checkpoints_trim_the_clients_log(self):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=7,
                checkpoint=CheckpointPolicy(interval=8, keep_tail=3),
            ),
        )
        sessions = system.sessions()
        for round_ in range(30):
            for session in sessions:
                session.write_sync(b"r%d-c%d" % (round_, session.client_id))
        held = [len(client.stable_notifications) for client in system.clients]
        assert sum(held) < system.notifications.emitted / 3, held
        for client in system.clients:
            assert client.checkpoint_manager.installed.seq > 2
            assert client.stable_notifications[-1][1] == client.tracker.stability_cut()


class TestFigure2:
    def test_exact_stability_cut(self):
        result = figure2_scenario(include_carlos_return=False)
        assert result.reproduced
        assert (10, 8, 3) in result.alice_cuts

    def test_cut_semantics_match_figure(self):
        # At the (10, 8, 3) moment: Alice consistent with herself up to 10,
        # with Bob up to 8, with Carlos up to 3.
        result = figure2_scenario(include_carlos_return=False)
        index = result.alice_cuts.index((10, 8, 3))
        # Entries never decrease before that point.
        for earlier, later in zip(result.alice_cuts[: index + 1], result.alice_cuts[1 : index + 1]):
            assert all(a <= b for a, b in zip(earlier, later))

    def test_carlos_return_brings_full_stability(self):
        result = figure2_scenario(include_carlos_return=True)
        system = result.system
        alice = system.clients[0]
        # After Carlos returns, Alice's ops become stable w.r.t. everyone.
        assert system.run_until(
            lambda: alice.tracker.stable_timestamp_for_all() >= 10, timeout=3_000
        )
        assert not any(c.failed for c in system.clients)
