"""The command-line interface."""

from __future__ import annotations

import pytest

import repro.api
import repro.cli as cli
import repro.experiments.runner as experiments_runner
from repro.cli import SERVERS, main
from repro.common.errors import ConfigurationError
from repro.net.supervisor import ServerProcess
from repro.obs.registry import get_registry, use_registry


class TestAttacksCommand:
    def test_lists_all_servers(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        for name in SERVERS:
            assert name in out


class TestRunCommand:
    def test_correct_server_run(self, capsys):
        code = main(
            ["run", "--clients", "2", "--ops", "3", "--seed", "5", "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed 6/6" in out
        assert "linearizability: OK" in out
        assert "weak-fork-linearizability: OK" in out

    def test_history_flag(self, capsys):
        main(["run", "--clients", "2", "--ops", "2", "--history"])
        out = capsys.readouterr().out
        assert "write_C" in out or "read_C" in out

    def test_tampering_server_detection(self, capsys):
        # seed 1: C1 writes register X1 and someone reads it — the
        # corrupted value trips line 50.
        main(["run", "--clients", "3", "--ops", "6", "--server", "tampering",
              "--seed", "1"])
        out = capsys.readouterr().out
        assert "C1: fail: DATA-signature on returned value invalid (line 50)" in out

    def test_split_brain_with_faust(self, capsys):
        main(
            [
                "run",
                "--clients",
                "4",
                "--ops",
                "6",
                "--server",
                "split-brain",
                "--backend",
                "faust",
                "--until",
                "900",
                "--seed",
                "11",
            ]
        )
        out = capsys.readouterr().out
        assert out.count(": fail: ") == 4 and "(forking evidence)" in out

    def test_unknown_server_rejected(self, capsys):
        assert main(["run", "--server", "nonsense"]) == 2

    def test_message_statistics_printed(self, capsys):
        main(["run", "--clients", "2", "--ops", "2"])
        out = capsys.readouterr().out
        assert "SUBMIT" in out and "REPLY" in out

    def test_every_replica_restart_is_reported(self, capsys):
        code = main(["run", "--backend", "ustor", "--clients", "3", "--ops", "6",
                     "--replicas", "3", "--storage", "log", "--outage", "20", "10"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("# server ")]
        assert [line.split()[2] for line in lines] == ["S/r0", "S/r1", "S/r2"]
        assert all(": 1 restart(s)," in line for line in lines)

    def test_batching_line_counts_every_replica(self, capsys, monkeypatch):
        systems = []
        report = cli._run_and_report

        def spy(args, system, *rest):
            systems.append(system)
            report(args, system, *rest)

        monkeypatch.setattr(cli, "_run_and_report", spy)
        code = main(["run", "--backend", "cluster", "--clients", "3", "--ops", "6",
                     "--shards", "2", "--replicas", "3", "--batch", "4"])
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("# batching:"))
        printed = int(line.split(", ")[-1].split()[0])
        shards = systems[0].shards
        every = sum(s.group_commits for shard in shards for s in shard.replica_servers)
        assert printed == every
        assert every > sum(shard.server.group_commits for shard in shards)


class TestExperimentsCommand:
    def test_single_experiment_quick(self, capsys):
        assert main(["experiments", "--quick", "--only", "E12"]) == 0
        out = capsys.readouterr().out
        assert "E12" in out and "incomparable" in out

    @pytest.fixture
    def experiments_md(self, tmp_path, monkeypatch):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text("the committed record\n")
        monkeypatch.setattr(experiments_runner, "EXPERIMENTS_MD", path)
        return path

    @pytest.mark.parametrize(
        "entry", [main, lambda argv: experiments_runner.main(argv[1:])],
        ids=["repro-experiments", "runner-main"],
    )
    def test_only_selects_exactly_what_it_names(self, entry, capsys, experiments_md):
        # The module's own zero-padded spelling names the same experiment.
        assert entry(["experiments", "--quick", "--only", "e01"]) == 0
        assert "## E1 " in capsys.readouterr().out
        # An unknown id used to run nothing and exit 0 ...
        assert entry(["experiments", "--quick", "--only", "E99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "E12" in captured.err
        # ... and with --write replaced the record by the bare header; one
        # section can never stand in for the whole file.
        for only in ("E99", "E1"):
            assert entry(["experiments", "--quick", "--only", only, "--write"]) == 2
        assert experiments_md.read_text() == "the committed record\n"


class TestReplayCommand:
    def test_corrupt_trace_is_one_line_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"t":"header","v":8,"n":1,"scheme":"hmac","server":"S","seq":0}\n'
            "[1, 2]\n"
        )
        assert main(["replay", "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("cannot replay") and out.count("\n") == 1
        assert "line 2: not a frame" in out


class TestClusterRunCommand:
    def test_cluster_run_with_per_shard_check(self, capsys):
        code = main(
            ["run", "--backend", "cluster", "--clients", "4", "--shards", "2",
             "--ops", "2", "--seed", "5", "--until", "60", "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster: 2 shard(s)" in out
        assert "linearizability [shard 0]" in out
        assert "linearizability [shard 1]" in out
        assert "weak-fork-linearizability: OK" in out

    def test_shard_knobs_require_cluster_backend(self, capsys):
        assert main(["run", "--clients", "4", "--shards", "2"]) == 2
        out = capsys.readouterr().out
        assert "shards=" in out and "'cluster'" in out

    def test_server_shard_targets_one_shard(self, capsys):
        code = main(
            ["run", "--backend", "cluster", "--clients", "6", "--shards", "3",
             "--ops", "3", "--server", "tampering", "--server-shard", "0",
             "--until", "150"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster: 3 shard(s)" in out

    def test_server_shard_requires_a_byzantine_server(self, capsys):
        code = main(
            ["run", "--backend", "cluster", "--clients", "4", "--shards", "2",
             "--server-shard", "1"]
        )
        assert code == 2
        assert "Byzantine" in capsys.readouterr().out

    def test_shard_outage_flag(self, capsys):
        code = main(
            ["run", "--backend", "cluster", "--clients", "4", "--shards", "2",
             "--ops", "2", "--storage", "log",
             "--shard-outage", "1", "10", "5", "--until", "120"]
        )
        assert code == 0

    def test_shard_zero_outage_on_an_unsharded_deployment(self, capsys):
        code = main(
            ["run", "--backend", "faust", "--clients", "3", "--ops", "2",
             "--storage", "log", "--shard-outage", "0", "5", "5", "--until", "120"]
        )
        assert code == 0


@pytest.fixture(params=["sim", pytest.param("tcp", marks=pytest.mark.net)])
def transport_flags(request):
    """``repro run`` flags selecting the transport: none for the simulator,
    a fresh ``repro serve`` child on a loopback port for tcp."""
    if request.param == "sim":
        yield []
        return
    with ServerProcess(2) as proc:
        yield ["--transport", "tcp", "--endpoints", proc.endpoint]


class TestOneRunPath:
    """The same report, asserted the same way, over both transports."""

    def test_report_is_shared(self, transport_flags, capsys):
        with use_registry(get_registry()):  # --metrics installs its own
            code = main(
                ["run", "--clients", "2", "--ops", "3", "--seed", "5", "--check",
                 "--history", "--timeline", "--metrics", *transport_flags]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 6/6" in out
        assert "linearizability: OK" in out
        assert "causal-consistency: OK" in out
        assert "weak-fork-linearizability: OK" in out
        assert "C1: ok" in out and "C2: ok" in out
        assert "SUBMIT" in out and "REPLY" in out
        assert "write_C" in out or "read_C" in out
        assert "\nrepro_clients_completed_operations_total 6\n" in out

    def test_audits_are_shared(self, transport_flags, capsys):
        cadence = "0.02" if transport_flags else "20"
        code = main(
            ["run", "--clients", "2", "--ops", "3", "--audit-every", cadence,
             *transport_flags]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "incremental audit(s)" in out
        assert "audit verdicts: causal=OK linearizability=OK" in out

    def test_fail_aware_report_is_shared(self, transport_flags, capsys):
        code = main(
            ["run", "--backend", "faust", "--clients", "2", "--ops", "3",
             "--seed", "5", "--check", *transport_flags]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 6/6" in out
        assert "C1: stability cut" in out and "C2: stability cut" in out
        assert "(0 failure, " in out

    @pytest.mark.net
    def test_tcp_report_counts_frames_not_offline_mail(self, capsys, monkeypatch):
        # A tampering server makes FAUST clients mail FAILUREs to each
        # other in-process; "on the wire" is the frames alone.
        from repro.net.client import ClientConnection
        from repro.sim.offline import OfflineChannel

        frames, mail = [], []
        record, post = ClientConnection._record, OfflineChannel.send

        def spy_record(self, src, dst, message, payload):
            frames.append(len(payload))
            record(self, src, dst, message, payload)

        def spy_post(self, src, dst, message):
            mail.append(message)
            post(self, src, dst, message)

        monkeypatch.setattr(ClientConnection, "_record", spy_record)
        monkeypatch.setattr(OfflineChannel, "send", spy_post)
        with ServerProcess(3, server="tampering") as proc:
            main(["run", "--backend", "faust", "--clients", "3", "--ops", "6",
                  "--seed", "1", "--transport", "tcp", "--endpoints",
                  proc.endpoint])
        out = capsys.readouterr().out
        assert mail and "(3 failure" in out
        assert f"messages: {len(frames)} ({sum(frames)} bytes on the wire)" in out

    def test_config_misuse_exits_2_before_anything_opens(
        self, transport_flags, capsys, tmp_path
    ):
        # faust records no wire trace on the simulator or over tcp: the
        # API's verdict either way, printed as is.
        code = main(
            ["run", "--backend", "faust", "--trace-file",
             str(tmp_path / "run.jsonl"), *transport_flags]
        )
        assert code == 2
        assert "not supported" in capsys.readouterr().out


#: Nothing listens here: a run that got as far as connecting would take
#: seconds and exit 1, so exit 2 proves the flags were refused first.
DEAD_TCP = ["run", "--transport", "tcp", "--endpoints", "127.0.0.1:1"]


class TestTcpNoLongerIgnoresFlags:
    @pytest.mark.parametrize(
        "flags, knob",
        [
            (["--shards", "2"], "shards="),
            (["--shard-outage", "0", "5", "5"], "server_outages="),
            (["--server", "tampering", "--server-shard", "0"],
             "shard_server_factories="),
            (["--batch", "4"], "batching="),
            (["--storage", "log"], "storage="),
            (["--backend", "cluster"], "simulator-only"),
        ],
    )
    def test_server_side_flags_are_refused_not_dropped(self, flags, knob, capsys):
        assert main([*DEAD_TCP, *flags]) == 2
        assert knob in capsys.readouterr().out

    @pytest.mark.slow  # waits out the 5 s connect deadline
    def test_unreachable_server_exits_1(self, capsys):
        assert main([*DEAD_TCP, "--clients", "1", "--ops", "1"]) == 1
        assert "could not connect" in capsys.readouterr().out


class TestCliOnlyChecks:
    """What the CLI still checks itself: notions that are not config
    fields.  Every case exits 2 with a message about the flag."""

    @pytest.mark.parametrize(
        "flags, hint",
        [
            (["--backend", "cluster", "--replicas", "3", "--server-replica", "0"],
             "Byzantine"),
            (["--backend", "cluster", "--clients", "4", "--shards", "2",
              "--replicas", "3", "--server", "tampering", "--server-shard", "0",
              "--server-replica", "0"], "pick one"),
            (["--backend", "cluster", "--server", "tampering",
              "--server-replica", "0"], "add --replicas"),
            (["--server", "tampering", "--storage", "log"],
             "owns its durability"),
            (["--backend", "cluster", "--clients", "4", "--shards", "2",
              "--shard-outage", "0.5", "1", "2"], "must be an integer"),
            (["--audit-every", "0"], "positive cadence"),
            (["--metrics-port", "0"], "--transport tcp"),
            (["--audit-every", "nan"], "positive cadence"),
            (["--backend", "cluster", "--clients", "2", "--shards", "3"],
             "owning nothing"),
        ],
    )
    def test_rejected_with_exit_2(self, flags, hint, capsys):
        assert main(["run", *flags]) == 2
        assert hint in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["lockstep", "unchecked"])
    def test_a_name_that_is_no_backend_is_refused(self, name, capsys):
        # The lock-step baseline is built by the experiments, not run from
        # the command line; the unchecked store is gone.
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--backend", name])
        assert exit_.value.code == 2
        assert f"invalid choice: {name!r}" in capsys.readouterr().err


def _forbid_open(*args, **kwargs):
    raise AssertionError("misuse reached the point of opening a deployment")


class TestMisuseBeforeBuilding:
    """Misuse is one line and exit 2, refused before anything is opened;
    a NaN or infinite budget used to hang the simulator instead."""

    @pytest.mark.parametrize(
        "flags, hint",
        [
            (["--backend", "faust", "--until", "nan"], "--until"),
            (["--backend", "faust", "--until", "inf"], "--until"),
            (["--until", "-5"], "--until"),
            (["--ops", "-1"], "invalid workload"),
            (["--read-fraction", "2"], "read_fraction"),
            (["--read-fraction", "nan"], "read_fraction"),
            (["--transport", "tcp", "--endpoints", "nohost"], "'host:port'"),
            (["--transport", "tcp", "--endpoints", "127.0.0.1:99999"], "1-65535"),
            # Shard 0 of an unsharded deployment is its server; shard 1 is
            # no server at all.
            (["--backend", "faust", "--storage", "log", "--shard-outage", "1",
              "5", "5"], "shard 1"),
            (["--backend", "faust", "--storage", "log", "--shard-outage", "-1",
              "5", "5"], "(shard, replica) pair"),
            # Output paths are checked before the run, not after it: these
            # used to run the whole workload and then raise.
            (["--span-log", "/nonexistent/dir/s.jsonl"], "--span-log"),
            (["--chrome-trace", "/nonexistent/dir/t.json"], "--chrome-trace"),
            (["--metrics-snapshot", "/nonexistent/dir/m.jsonl"],
             "--metrics-snapshot"),
            (["--backend", "ustor", "--transport", "tcp", "--endpoints",
              "127.0.0.1:1", "--trace-file", "/nonexistent/dir/w.jsonl"],
             "--trace-file"),
        ],
    )
    def test_run(self, flags, hint, monkeypatch, capsys):
        monkeypatch.setattr(repro.api, "open_system", _forbid_open)
        assert main(["run", *flags]) == 2
        out = capsys.readouterr().out
        assert hint in out and len(out.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags, hint",
        [
            (["--rate", "-1"], "rate and duration"),
            (["--duration", "nan"], "rate and duration"),
            (["--checkpoint-interval", "-3"], "checkpoint interval"),
            (["--membership"], "checkpoint="),
            (["--client-faults", "bogus"], "malformed client fault"),
            (["--churn-windows", "500", "--duration", "50"], "churn plan"),
            (["--sample-every", "nan", "--duration", "50"], "sample_every"),
            (["--zipf", "nan", "--duration", "20"], "zipf_exponent"),
            # An infinite rate never advances the arrival clock, an
            # infinite duration never ends the schedule: both used to hang.
            (["--rate", "inf", "--duration", "5"], "rate and duration"),
            (["--duration", "inf"], "rate and duration"),
            # inf raised ZeroDivisionError; -1 ran with every window
            # floored to one time unit; nan failed later, in Fault.
            (["--churn-windows", "2", "--churn-mean-duration", "inf",
              "--duration", "20"], "mean duration"),
            (["--churn-windows", "2", "--churn-mean-duration", "-1",
              "--duration", "20"], "mean duration"),
            (["--churn-windows", "2", "--churn-mean-duration", "nan",
              "--duration", "20"], "mean duration"),
            # An out-of-range client used to be a SimulationError traceback.
            (["--clients", "4", "--duration", "50", "--client-faults",
              "crash-forever:9@100"], "outside the fleet of 4"),
            (["--clients", "4", "--duration", "50", "--client-faults",
              "crash-forever:-1@100"], "outside the fleet of 4"),
            # These used to fail only once the run was over.
            (["--duration", "20", "--json", "/nonexistent/dir/r.json"], "--json"),
            (["--duration", "20", "--metrics-out", "/nonexistent/dir/m.prom"],
             "--metrics-out"),
        ],
    )
    def test_scale(self, flags, hint, monkeypatch, capsys):
        monkeypatch.setattr("repro.workloads.scale.open_system", _forbid_open)
        assert main(["scale", *flags]) == 2
        out = capsys.readouterr().out
        assert hint in out and len(out.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags, hint",
        [
            (["serve", "--port", "-1"], "0-65535"),
            (["serve", "--port", "99999"], "0-65535"),
            (["serve", "--metrics-port", "99999"], "metrics port"),
            (["serve-cluster", "--base-port", "99999"], "1-65535"),
            (["serve-cluster", "--base-port", "65535"], "1-65535"),
            (["serve-cluster", "--base-port", "-1"], "1-65535"),
            (["stats", "--endpoint", "127.0.0.1:99999"], "HOST:PORT"),
            (["stats", "--endpoint", "127.0.0.1:1", "--timeout", "nan"], "--timeout"),
            (["stats", "--endpoint", "127.0.0.1:1", "--timeout", "-1"], "--timeout"),
        ],
    )
    def test_ports_and_timeouts(self, flags, hint, capsys):
        assert main(flags) == 2
        out = capsys.readouterr().out
        assert hint in out and len(out.splitlines()) == 1

    def test_serve_on_a_taken_port_is_one_line(self, capsys):
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            assert main(["serve", "--clients", "2", "--port", str(port)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("cannot serve: ") and len(out.splitlines()) == 1


class TestTimeoutFlag:
    """``--timeout`` goes straight into ``SystemConfig.default_timeout``,
    which knows the per-transport default itself."""

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], 1_000.0),
            (DEAD_TCP[1:], 30.0),
            ([*DEAD_TCP[1:], "--timeout", "5"], 5.0),
            (["--timeout", "250"], 250.0),
        ],
    )
    def test_resolution(self, flags, expected, monkeypatch):
        seen = []

        def capture(config, backend):
            seen.append(config)
            raise ConfigurationError("captured")

        monkeypatch.setattr(repro.api, "open_system", capture)
        assert main(["run", *flags]) == 1
        assert seen[0].default_timeout == expected
