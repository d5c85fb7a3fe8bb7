"""CLI error-path tests: malformed specs exit non-zero with actionable
messages, never tracebacks.

Covers ``atlahs cotenant``, ``atlahs faults`` and ``atlahs inference``: bad
``pattern:ranks:size`` job specs, malformed/overlapping arrival lists,
unknown placement strategies, bad failure rates, unknown link names,
malformed timed-event specs, malformed tenant-mix specs, negative offered
rates and unknown arrival processes; a GOAL file whose run passes a 64-bit
clock; for every subcommand, network flags
``SimulationConfig`` rejects, a negative ``--parallel``, worker
processes that cannot start and a run the host has no memory for.  Every case asserts a
:class:`SystemExit` whose message names the offending input, which is what
separates a diagnosable CLI error from a stack trace.
"""
import pytest

from repro.cli import main


def _exit_message(excinfo) -> str:
    code = excinfo.value.code
    return code if isinstance(code, str) else str(code)


class TestCotenantErrors:
    def test_unknown_synthetic_pattern(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "sparkle:8:1024"])
        message = _exit_message(excinfo)
        assert "sparkle" in message and "expected one of" in message

    def test_non_integer_ranks_in_spec(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:eight:1024"])
        assert "incast:eight:1024" in _exit_message(excinfo)

    def test_bad_size_in_spec(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:8:huge"])
        assert "incast:8:huge" in _exit_message(excinfo)

    @pytest.mark.parametrize("spec", ["alltoall:4:-1", "allreduce:4:-1"])
    def test_negative_size_in_spec(self, spec):
        # used to run as 1-byte messages and report "bytes": 12
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", spec])
        message = _exit_message(excinfo)
        assert message.startswith(f"bad job spec {spec!r}: ") and "got -1" in message

    def test_non_integer_arrivals(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:4:1024", "alltoall:4:1024", "--arrivals", "0,soon"])
        message = _exit_message(excinfo)
        assert "--arrivals" in message and "comma-separated integers" in message

    def test_arrival_count_mismatch(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:4:1024", "alltoall:4:1024", "--arrivals", "0,1,2"])
        message = _exit_message(excinfo)
        assert "3 times for 2 jobs" in message

    def test_negative_arrival(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:4:1024", "alltoall:4:1024", "--arrivals", "0,-5"])
        message = _exit_message(excinfo)
        assert "bad --arrivals" in message and "non-negative" in message

    def test_unknown_placement_strategy(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:4:1024", "--placement", "scattered"])
        message = _exit_message(excinfo)
        assert "scattered" in message and "registered" in message

    @pytest.mark.parametrize("placement", ["locality", "fragmented", "packed", "random"])
    @pytest.mark.parametrize("size", ["-3", "0"])
    def test_non_positive_group_size_is_one_line(self, placement, size):
        # --group-size 0 used to be dropped: under locality / fragmented it
        # ran the topology's groups, under packed / random it ran unnoticed
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:4:1024", "--placement", placement,
                  "--group-size", size, "--backend", "lgs"])
        assert _exit_message(excinfo) == "atlahs cotenant: group_size must be positive"

    def test_group_size_without_a_group_aware_strategy_is_one_line(self):
        # used to be filtered away silently for packed / random / strided
        with pytest.raises(SystemExit) as excinfo:
            main(["cotenant", "incast:4:1024", "--placement", "packed,random",
                  "--group-size", "2", "--backend", "lgs"])
        assert _exit_message(excinfo) == (
            "atlahs cotenant: --group-size applies to locality, fragmented only; "
            "--placement packed,random takes no groups"
        )


class TestFaultsErrors:
    def test_unknown_synthetic_pattern(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "sparkle:8:1024"])
        assert "sparkle" in _exit_message(excinfo)

    def test_malformed_rates(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--rates", "0,lots"])
        message = _exit_message(excinfo)
        assert "--rates" in message and "0,lots" in message

    def test_empty_rates(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--rates", ","])
        assert "need at least one failure rate" in _exit_message(excinfo)

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate(self, rate):
        # used to reach the cable draw first: int(nan) / an overflow
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "alltoall:4:1024", "--rates", rate])
        message = _exit_message(excinfo)
        assert "link_failure_rate" in message and f"got {rate}" in message
        assert "\n" not in message

    def test_out_of_range_rate(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--rates", "0,1.5"])
        message = _exit_message(excinfo)
        assert "link_failure_rate" in message and "got 1.5" in message

    def test_unknown_routing(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--routings", "minimal,teleport"])
        message = _exit_message(excinfo)
        assert "teleport" in message and "registered" in message

    def test_unknown_link_name(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--fail-links", "tor9->core9"])
        message = _exit_message(excinfo)
        assert "tor9->core9" in message and "valid names" in message

    def test_event_spec_without_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--link-down", "tor0->core0"])
        message = _exit_message(excinfo)
        assert "TARGET@TIME_NS" in message

    def test_event_spec_with_bad_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--link-down", "tor0->core0@later"])
        message = _exit_message(excinfo)
        assert "later" in message and "integer" in message

    def test_event_spec_with_negative_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--link-down", "tor0->core0@-5"])
        message = _exit_message(excinfo)
        assert "non-negative" in message

    def test_drain_switch_requires_device_id(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--drain-switch", "tor0@1000"])
        message = _exit_message(excinfo)
        assert "switch" in message and "device id" in message

    def test_unknown_control_plane(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--control-plane", "bgp"])
        message = _exit_message(excinfo)
        assert "bgp" in message and "registered" in message
        assert "dv" in message and "ls" in message and "oracle" in message

    def test_empty_control_plane_list(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--control-plane", ","])
        assert "need at least one control plane" in _exit_message(excinfo)

    def test_negative_propagation_delay(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--cp-propagation-ns", "-5"])
        message = _exit_message(excinfo)
        assert "--cp-propagation-ns" in message and "non-negative" in message

    def test_negative_processing_delay(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--cp-processing-ns", "-1"])
        message = _exit_message(excinfo)
        assert "--cp-processing-ns" in message and "non-negative" in message

    def test_negative_fail_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "incast:4:1024", "--fail-time-ns", "-10"])
        message = _exit_message(excinfo)
        assert "fail_time_ns must be non-negative" in message and "got -10" in message

    def test_scenario_mode_accepts_only_one_protocol(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "faults",
                    "alltoall:8:4096",
                    "--fail-links",
                    "tor0->core0",
                    "--control-plane",
                    "ls,dv",
                ]
            )
        message = _exit_message(excinfo)
        assert "several protocols" in message and "rate-sweep" in message

    def test_partitioning_scenario_is_actionable(self):
        # failing both uplinks of tor0 (2 hosts per ToR -> 2 cores)
        # disconnects every cross-ToR pair of the all-to-all
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "faults",
                    "alltoall:4:1024",
                    "--backend",
                    "htsim",
                    "--fail-links",
                    "tor0->core0,tor0->core1",
                    "--nodes-per-tor",
                    "2",
                ]
            )
        message = _exit_message(excinfo)
        assert "fault scenario failed" in message
        assert "no surviving route" in message


class TestFaultsHappyPaths:
    """The error tests above prove rejects; prove the accepts too."""

    def test_rate_sweep_outputs_cells(self, capsys):
        import json

        rc = main(
            [
                "faults",
                "incast:4:4096",
                "--rates",
                "0,0.25",
                "--nodes-per-tor",
                "2",
                "--backend",
                "lgs",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 2
        assert payload["cells"][0]["failure_rate"] == 0.0
        assert payload["cells"][1]["slowdown"] >= 1.0

    def test_explicit_scenario_outputs_comparison(self, capsys):
        import json

        rc = main(
            [
                "faults",
                "alltoall:8:65536",
                "--backend",
                "htsim",
                "--nodes-per-tor",
                "4",
                "--fail-links",
                "tor0->core0,core0->tor0",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["failed_links"] == ["tor0->core0", "core0->tor0"]
        assert payload["healthy_time_ms"] > 0
        assert payload["faulted_time_ms"] > 0
        # the default control plane is the instantaneous oracle
        assert payload["control_plane"] == "oracle"
        assert payload["time_to_recover_ns"] == 0
        assert payload["packets_blackholed"] == 0

    def test_convergent_scenario_reports_recovery_metrics(self, capsys):
        import json

        rc = main(
            [
                "faults",
                "alltoall:8:65536",
                "--backend",
                "htsim",
                "--nodes-per-tor",
                "4",
                "--link-down",
                "tor0->core0@3000",
                "--link-down",
                "core0->tor0@3000",
                "--control-plane",
                "dv",
                "--cp-propagation-ns",
                "50000",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["control_plane"] == "dv"
        assert payload["time_to_recover_ns"] > 0
        assert payload["packets_blackholed"] > 0

    def test_timed_sweep_compares_control_planes(self, capsys):
        import json

        rc = main(
            [
                "faults",
                "alltoall:8:65536",
                "--rates",
                "0,0.25",
                "--nodes-per-tor",
                "4",
                "--backend",
                "lgs",
                "--control-plane",
                "oracle,ls",
                "--fail-time-ns",
                "3000",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fail_time_ns"] == 3000
        # rates x protocols cells, each tagged with its protocol and metrics
        assert len(payload["cells"]) == 4
        assert {c["control_plane"] for c in payload["cells"]} == {"oracle", "ls"}
        for cell in payload["cells"]:
            assert "time_to_recover_ns" in cell and "packets_blackholed" in cell
            if cell["control_plane"] == "oracle" or cell["failure_rate"] == 0.0:
                assert cell["time_to_recover_ns"] == 0
            else:
                assert cell["time_to_recover_ns"] > 0


class TestFaultsOnAnEmptySchedule:
    """A schedule with empty rank blocks finishes at t=0 on a healthy fabric,
    so its slowdown is 0/0: reported as JSON null, never a crash or NaN."""

    @staticmethod
    def _empty_goal(tmp_path) -> str:
        path = tmp_path / "empty.goal"
        path.write_text("num_ranks 2\nrank 0 {\n}\nrank 1 {\n}\n")
        return str(path)

    @staticmethod
    def _strict_json(text):
        import json

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        return json.loads(text, parse_constant=reject)

    def test_scenario_slowdown_is_null(self, tmp_path, capsys):
        # used to die with ZeroDivisionError
        argv = ["faults", self._empty_goal(tmp_path), "--backend", "htsim",
                "--link-down", "tor0->core0@100"]
        assert main(argv) == 0
        payload = self._strict_json(capsys.readouterr().out)
        assert payload["healthy_time_ms"] == 0 and payload["slowdown"] is None

    def test_sweep_output_is_strict_json(self, tmp_path, capsys):
        # used to print "slowdown": NaN, which jq and JSON.parse reject
        assert main(["faults", self._empty_goal(tmp_path), "--rates", "0,0.1"]) == 0
        payload = self._strict_json(capsys.readouterr().out)
        assert [cell["slowdown"] for cell in payload["cells"]] == [None, None]


class TestInferenceErrors:
    def test_unknown_arrival_process(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--process", "pareto"])
        message = _exit_message(excinfo)
        assert "pareto" in message
        assert "bursty" in message and "diurnal" in message and "poisson" in message

    def test_malformed_rates(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--rates", "200,fast"])
        message = _exit_message(excinfo)
        assert "--rates" in message and "200,fast" in message

    def test_empty_rates(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--rates", ","])
        assert "need at least one offered rate" in _exit_message(excinfo)

    def test_negative_rate(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--rates", "200,-50"])
        message = _exit_message(excinfo)
        assert "rate_rps must be a positive" in message and "got -50.0" in message

    def test_tenant_spec_with_wrong_arity(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--tenants", "chat:3:128"])
        message = _exit_message(excinfo)
        assert "chat:3:128" in message
        assert "NAME:WEIGHT:PROMPT_TOKENS:DECODE_TOKENS" in message

    def test_tenant_spec_with_non_numeric_weight(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--tenants", "chat:heavy:128:32"])
        assert "chat:heavy:128:32" in _exit_message(excinfo)

    def test_tenant_spec_with_non_positive_tokens(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--tenants", "chat:1:0:32"])
        message = _exit_message(excinfo)
        assert "chat:1:0:32" in message and "positive" in message

    def test_duplicate_tenant_names(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--tenants", "chat:1:128:32,chat:2:64:8"])
        message = _exit_message(excinfo)
        assert "duplicate" in message and "chat" in message

    def test_empty_tenant_list(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--tenants", ","])
        assert "no tenants" in _exit_message(excinfo)

    def test_bad_cluster_shape(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--prefill-ranks", "0"])
        message = _exit_message(excinfo)
        assert "prefill_ranks must be positive" in message

    def test_bad_slo_deadline(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inference", "--slo-ttft-ms", "-1"])
        message = _exit_message(excinfo)
        assert "bad --slo-ttft-ms" in message


class TestInferenceHappyPath:
    def test_rate_sweep_outputs_cells(self, capsys):
        import json

        rc = main(
            [
                "inference",
                "--requests",
                "12",
                "--rates",
                "200,600",
                "--tenants",
                "chat:3:64:8,summarize:1:128:4",
                "--nodes-per-tor",
                "2",
                "--backend",
                "lgs",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nominal_capacity_rps"] > 0
        assert [t["name"] for t in payload["tenants"]] == ["chat", "summarize"]
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert cell["goodput_rps"] > 0
            assert cell["ttft_p50_ms"] <= cell["ttft_p99_ms"] <= cell["ttft_p999_ms"]


class TestAiErrors:
    def test_unknown_collective_algorithm_is_one_line(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ai", "llama-7b", "--scale", "0.02", "--dp", "2", "--backend", "lgs",
                  "--collective-algorithm", "hier-rs"])
        message = _exit_message(excinfo)
        assert message.startswith("atlahs ai: unknown collective algorithm 'hier-rs'")
        assert "hier_rs" in message and "\n" not in message


class TestMissingFileSpecs:
    @pytest.mark.parametrize("command", ["cotenant", "faults"])
    def test_missing_goal_file_is_actionable(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "nonexistent.goal"])
        message = _exit_message(excinfo)
        assert "nonexistent.goal" in message and "pattern:ranks:size" in message


class TestSimulateErrors:
    """``atlahs simulate FILE`` ends in one line naming the file, not a traceback."""

    CYCLIC = (
        "num_ranks 2\n"
        "rank 0 {\n  r: recv 8b from 1 tag 0\n  s: send 8b to 1 tag 0\n  s requires r\n}\n"
        "rank 1 {\n  r: recv 8b from 0 tag 0\n  s: send 8b to 0 tag 0\n  s requires r\n}\n"
    )

    def _simulate(self, path):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(path)])
        message = _exit_message(excinfo)
        assert str(path) in message and "\n" not in message
        return message

    def test_missing_file(self, tmp_path):
        message = self._simulate(tmp_path / "nonexistent.goal")
        assert "cannot read GOAL file" in message and "No such file" in message

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.goal"
        path.write_text("num_ranks 1\nrank 0 {\n  a: frobnicate 3\n}\n")
        message = self._simulate(path)
        assert "not a valid GOAL file" in message and "line 3" in message

    def test_unmatched_channel(self, tmp_path):
        path = tmp_path / "unmatched.goal"
        path.write_text("num_ranks 2\nrank 0 {\n  a: send 8b to 1 tag 4\n}\nrank 1 {\n}\n")
        message = self._simulate(path)
        assert "fails validation" in message and "tag=4" in message

    def test_deadlock(self, tmp_path):
        path = tmp_path / "cyclic.goal"
        path.write_text(self.CYCLIC)
        message = self._simulate(path)
        assert "deadlocked" in message and "rank 1 vertex 0 (recv 8 B from 0 tag 0)" in message


class TestClockOverflow:
    """A run whose simulated clock passes 64 bits is one ``ValueError``, which
    ``cli.main`` prints as one ``atlahs simulate: ...`` line."""

    # the largest calc there is: the run ends past 2**63 ns, or a message
    # after it is posted past 2**64 ns, inside the event loop
    CLOCK_OVERFLOWS = {
        "calc": "num_ranks 1\nrank 0 {\n  a: calc 18446744073709551615\n}\n",
        "calc-then-send": (
            "num_ranks 2\n"
            "rank 0 {\n  a: calc 18446744073709551615\n  b: send 8b to 1\n  b requires a\n}\n"
            "rank 1 {\n  r: recv 8b from 0\n}\n"
        ),
    }

    @pytest.mark.parametrize(
        "flags",
        [["--backend", "lgs"], ["--backend", "htsim"], ["--backend", "htsim", "--shards", "2"]],
        ids=["lgs", "htsim", "htsim-shards2"],
    )
    @pytest.mark.parametrize("case", sorted(CLOCK_OVERFLOWS))
    def test_a_clock_past_64_bits_is_one_line(self, tmp_path, case, flags):
        path = tmp_path / f"{case}.goal"
        path.write_text(self.CLOCK_OVERFLOWS[case])
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(path), *flags])
        message = _exit_message(excinfo)
        assert message.startswith("atlahs simulate: simulated time does not fit 64 bits (must be < 2**63 ns)")
        assert "\n" not in message


class TestMisnamedGoalFiles:
    """The codec is picked by the file's content (the ``GOAL`` magic), not its name."""

    @staticmethod
    def _pingpong():
        from repro.goal import GoalBuilder

        b = GoalBuilder(2, name="pingpong")
        b.rank(0).send(4096, dst=1, tag=3)
        b.rank(1).recv(4096, src=0, tag=3)
        return b.build()

    def _write(self, tmp_path, name, binary):
        from repro.goal import encode_goal, write_goal

        path = tmp_path / name
        if binary:
            path.write_bytes(encode_goal(self._pingpong()))
        else:
            path.write_text(write_goal(self._pingpong()), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "name, binary",
        [("trace.goal", True), ("trace.bin", False), ("trace.goalbin", False), ("trace", True)],
    )
    def test_simulate_reads_either_codec_under_any_name(self, tmp_path, capsys, name, binary):
        import json

        assert main(["simulate", self._write(tmp_path, name, binary), "--backend", "lgs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ops_completed"] == 2 and payload["messages_delivered"] == 1

    def test_cotenant_job_specs_read_either_codec(self, tmp_path, capsys):
        import json

        jobs = [self._write(tmp_path, "a.goal", True), self._write(tmp_path, "b.bin", False)]
        assert main(["cotenant", *jobs, "--backend", "lgs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "cotenant-2job"
        for strategy in payload["strategies"].values():
            assert [job["messages"] for job in strategy["jobs"]] == [1, 1]


class TestShardingFlagErrors:
    def test_shards_rejected_on_loggops_backend(self):
        # --shards used to be silently ignored off the packet backend,
        # misreporting single-process runs as parallel ones
        with pytest.raises(SystemExit) as excinfo:
            main(["synthetic", "allreduce", "--shards", "2"])
        message = _exit_message(excinfo)
        assert "--shards 2" in message
        assert "--backend htsim" in message
        assert "'lgs'" in message

    def test_shards_rejected_on_explicit_lgs(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["synthetic", "allreduce", "--backend", "lgs", "--shards", "4"]
            )
        assert "--shards 4" in _exit_message(excinfo)

    def test_shards_accepted_on_packet_backend(self, capsys):
        import json

        rc = main(
            [
                "synthetic",
                "allreduce",
                "--ranks",
                "8",
                "--message-size",
                "1024",
                "--backend",
                "htsim",
                "--shards",
                "2",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages_delivered"] > 0


@pytest.mark.parametrize(
    "flags, named",
    [
        # each used to end in a SimulationConfig.__post_init__ traceback
        (["--shards", "0"], "--shards 0"),
        (["--seed", "-1"], "--seed -1"),
        (["--oversubscription", "0"], "--oversubscription 0.0"),
        # nan used to pass the >= 1 check and die building the tree; inf
        # built a tree with one uplink
        (["--oversubscription", "nan"], "--oversubscription nan"),
        (["--oversubscription", "inf"], "--oversubscription inf"),
        (["--nodes-per-tor", "0"], "--nodes-per-tor 0"),
        (["--fattree-planes", "0"], "--fattree-planes 0"),
        (["--route-cache-entries", "-1"], "--route-cache-entries -1"),
        (["--torus-hosts-per-node", "0"], "--torus-hosts-per-node 0"),
        (["--slimfly-q", "7"], "--slimfly-q 7"),
        (["--slimfly-hosts-per-router", "-1"], "--slimfly-hosts-per-router -1"),
        # the ring-count rule is the config's alone; the flag only parses integers
        (["--torus-dims", "4"], "--torus-dims (4,)"),
    ],
)
def test_rejected_network_flag_is_one_line_naming_the_flag(flags, named):
    with pytest.raises(SystemExit) as excinfo:
        main(["synthetic", "incast", "--ranks", "4", *flags])
    message = _exit_message(excinfo)
    assert message.startswith(f"bad {named}: ") and "\n" not in message


@pytest.mark.parametrize(
    "command", [["inference"], ["collectives", "--sweep", "--ranks", "4"]]
)
def test_negative_parallel_is_one_line(command):
    # used to run the sweep serially, as if --parallel had not been given
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--parallel", "-2"])
    message = _exit_message(excinfo)
    assert "parallel must be" in message and "got -2" in message
    assert "\n" not in message


@pytest.mark.parametrize(
    "error, line",
    [(MemoryError(), "MemoryError"), (MemoryError("fabric of 2000000 links"), "fabric of 2000000 links")],
    ids=["bare", "named"],
)
def test_memory_error_is_one_line(monkeypatch, error, line):
    # a fabric too large for the host used to end in a MemoryError traceback
    from repro.network import backend

    def no_memory(*args):
        raise error

    monkeypatch.setattr(backend, "build_topology", no_memory)
    with pytest.raises(SystemExit) as excinfo:
        main(["synthetic", "incast", "--ranks", "4", "--backend", "htsim"])
    assert _exit_message(excinfo) == f"atlahs synthetic: {line}"


def test_worker_error_is_one_line(monkeypatch):
    import concurrent.futures

    class NoProcesses:
        def __init__(self, *args, **kwargs):
            raise OSError("fork refused")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoProcesses)
    with pytest.raises(SystemExit) as excinfo:
        main(["synthetic", "allreduce", "--ranks", "8", "--backend", "htsim", "--shards", "2"])
    message = _exit_message(excinfo)
    assert "fork refused" in message and "shards=1" in message and "\n" not in message


@pytest.mark.parametrize(
    "field, value",
    [
        ("ack_size", -5),  # used to simulate: negative-size ACKs shrank the queues
        ("ack_size", 0),
        ("min_retransmit_timeout", -1),  # used to die mid-run, scheduling in the past
        ("min_retransmit_timeout", 0),
        ("link_bandwidth", float("nan")),  # used to die on int(nan) in set-up
        ("link_bandwidth", float("inf")),
        ("link_bandwidth", 0.0),
        ("seed", -1),  # used to surface numpy's bare seeding error
        ("link_latency", 2.5),  # routed LogGOPS latencies are event times
        ("link_latency", float("inf")),
        ("oversubscription", float("nan")),  # used to die on int(nan) building the tree
        ("oversubscription", float("inf")),  # used to build a tree with one uplink
    ],
)
def test_simulation_config_rejects_values_that_fail_late_or_simulate_wrongly(field, value):
    from repro.network.config import SimulationConfig

    with pytest.raises(ValueError, match=field):
        SimulationConfig(**{field: value})


def _int_config_fields():
    import dataclasses

    from repro.network.config import SimulationConfig

    return [f.name for f in dataclasses.fields(SimulationConfig) if f.type == "int"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 4.5])
@pytest.mark.parametrize("field", _int_config_fields())
def test_simulation_config_int_fields_must_be_whole_numbers(field, value):
    # NaN used to slip past every range check (buffer_size: nan < mtu is False)
    from repro.network.config import SimulationConfig

    with pytest.raises(ValueError, match=rf"^{field} must be a whole number"):
        SimulationConfig(**{field: value})


def test_simulation_config_takes_whole_floats_as_ints():
    from repro.network.config import SimulationConfig

    config = SimulationConfig(mtu=4096.0, buffer_size=65536.0, host_overhead=0.0)
    assert (config.mtu, config.buffer_size, config.host_overhead) == (4096, 65536, 0)
    assert all(type(v) is int for v in (config.mtu, config.buffer_size, config.host_overhead))


@pytest.mark.parametrize(
    "field, value",
    [
        ("G", float("nan")),  # used to die mid-run: cannot convert float NaN to integer
        ("O", float("nan")),
        ("G", float("inf")),  # used to die mid-run with OverflowError
        ("O", float("inf")),
        ("o", float("nan")),
        ("L", 2.5),  # used to leave float NIC clocks behind
        ("g", 0.5),
        ("S", 1024.5),
        ("L", float("inf")),
    ],
)
def test_loggops_params_reject_values_that_fail_late_or_are_truncated(field, value):
    from repro.network.config import LogGOPSParams

    with pytest.raises(ValueError, match=rf"^{field} must"):
        LogGOPSParams(**{field: value})


def test_loggops_params_take_whole_floats_as_ints():
    from repro.network.config import LogGOPSParams

    params = LogGOPSParams(L=3000.0, g=5.0, S=256000.0)
    assert (params.L, params.g, params.S) == (3000, 5, 256000)
    assert all(type(v) is int for v in (params.L, params.g, params.S))
