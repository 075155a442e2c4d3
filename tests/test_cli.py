"""The command-line interface."""

from __future__ import annotations

import pytest

import repro.cli as cli
import repro.experiments.runner as experiments_runner
from repro.cli import SERVERS, main
from repro.common.errors import ConfigurationError
from repro.net.supervisor import ServerProcess


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
        assert "USTOR fail" in out and "line 50" in out

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
        assert "FAUST fail" in out

    def test_unknown_server_rejected(self, capsys):
        assert main(["run", "--server", "nonsense"]) == 2

    def test_message_statistics_printed(self, capsys):
        main(["run", "--clients", "2", "--ops", "2"])
        out = capsys.readouterr().out
        assert "SUBMIT" in out and "REPLY" in out


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
        code = main(
            ["run", "--clients", "2", "--ops", "3", "--seed", "5", "--check",
             "--history", "--timeline", "--profile", *transport_flags]
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
        assert '"completed_operations": 6' in out

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

    def test_config_misuse_exits_2_before_anything_opens(
        self, transport_flags, capsys
    ):
        # lockstep has no storage engine on the simulator and no wire
        # codecs over tcp: the API's verdict either way, printed as is.
        code = main(
            ["run", "--backend", "lockstep", "--storage", "log",
             *transport_flags]
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
            (["--shard-map", "hash"], "shard_map="),
            (["--shard-outage", "0", "5", "5"], "shard_outages="),
            (["--server", "tampering", "--server-shard", "0"],
             "shard_server_factories="),
            (["--batch", "4"], "batching="),
            (["--storage", "log"], "storage="),
            (["--backend", "faust"], "simulator-only"),
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
            (["--backend", "lockstep", "--server", "replay"], "not implemented"),
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

        monkeypatch.setattr(cli, "open_system", capture)
        assert main(["run", *flags]) == 1
        assert seen[0].default_timeout == expected
