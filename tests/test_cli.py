"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_flags(self):
        args = build_parser().parse_args(["table1", "--seed", "3",
                                          "--trials", "10"])
        assert args.command == "table1"
        assert args.seed == 3
        assert args.trials == 10

    def test_estimate_flags(self):
        args = build_parser().parse_args([
            "estimate", "5,7", "9,18", "--device", "xczu9eg",
            "--boards", "2", "--simulate",
        ])
        assert args.filter_sizes == "5,7"
        assert args.boards == 2
        assert args.simulate


class TestCommands:
    def test_table1_small(self, capsys):
        assert main(["table1", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "NAS" in out and "FNAS" in out

    def test_figure8(self, capsys):
        assert main(["figure8"]) == 0
        out = capsys.readouterr().out
        assert "mean improvement" in out

    def test_estimate(self, capsys):
        code = main(["estimate", "5,7,5,7", "9,18,18,36"])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency:" in out
        assert "pynq-z1" in out

    def test_estimate_simulate(self, capsys):
        code = main(["estimate", "5,5", "9,9", "--simulate"])
        assert code == 0
        assert "simulate" in capsys.readouterr().out

    def test_estimate_multi_board(self, capsys):
        code = main(["estimate", "3,3", "16,16", "--device", "xczu9eg",
                     "--boards", "2", "--input-size", "32",
                     "--input-channels", "3"])
        assert code == 0
        assert "2 x xczu9eg" in capsys.readouterr().out

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            main(["estimate", "3", "4", "--device", "virtex"])


class TestSweep:
    def test_sweep_flags(self):
        args = build_parser().parse_args([
            "sweep", "--datasets", "mnist,cifar10", "--seeds", "0,1,2",
            "--specs", "5,2.5", "--include-nas", "--shard-workers", "4",
        ])
        assert args.datasets == ["mnist", "cifar10"]
        assert args.seeds == [0, 1, 2]
        assert args.specs == [5.0, 2.5]
        assert args.include_nas
        assert args.shard_workers == 4

    def test_sweep_runs_campaign(self, capsys, tmp_path):
        code = main([
            "sweep", "--seeds", "0,1", "--specs", "5", "--trials", "5",
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--output", str(tmp_path / "campaign.json"), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign frontier" in out
        assert "mnist-pynq-z1-fnas5ms-s0" in out
        assert (tmp_path / "campaign.json").exists()
        assert list((tmp_path / "ck").glob("*.checkpoint.json"))

    def test_sweep_without_work_errors(self, capsys):
        assert main(["sweep", "--seeds", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_unknown_dataset_errors(self, capsys):
        assert main(["sweep", "--datasets", "svhn", "--specs", "5"]) == 2
        assert "svhn" in capsys.readouterr().err

    def test_sweep_empty_axis_errors_cleanly(self, capsys):
        """An empty grid axis must take the clean error path (exit 2),
        not surface as a raw Campaign traceback."""
        assert main(["sweep", "--datasets", "", "--specs", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_table1_campaign_mode(self, capsys, tmp_path):
        assert main(["table1", "--trials", "5",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "NAS" in out and "FNAS" in out
        assert list(tmp_path.glob("*.checkpoint.json"))


class TestPlanFlow:
    """--dump-plan / `repro run` and the canonical flag set."""

    def test_dump_plan_then_run_reproduces_table1(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main(["table1", "--trials", "4", "--seed", "2",
                     "--dump-plan", str(plan_path)]) == 0
        first = capsys.readouterr().out
        assert plan_path.exists()
        assert main(["run", str(plan_path)]) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical stdout artifact

    def test_dump_plan_then_run_reproduces_sweep(self, capsys, tmp_path):
        import json

        plan_path = tmp_path / "plan.json"
        assert main([
            "sweep", "--seeds", "0", "--specs", "5", "--trials", "4",
            "--output", str(tmp_path / "a.json"),
            "--dump-plan", str(plan_path), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["run", str(plan_path), "--quiet",
                     "--output", str(tmp_path / "b.json")]) == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        a.pop("wall_seconds"), b.pop("wall_seconds")
        for doc in (a, b):
            for shard in doc["shards"]:
                shard["result"].pop("wall_seconds")
        assert a == b

    def test_dumped_plan_captures_flags(self, capsys, tmp_path):
        import json

        plan_path = tmp_path / "plan.json"
        assert main(["sweep", "--seeds", "0,1", "--specs", "5,2",
                     "--trials", "4", "--batch-size", "2",
                     "--eval-workers", "1", "--quiet",
                     "--dump-plan", str(plan_path)]) == 0
        plan = json.loads(plan_path.read_text())
        assert plan["workload"] == "sweep"
        assert plan["scenario"]["seeds"] == [0, 1]
        assert plan["scenario"]["specs_ms"] == [5.0, 2.0]
        assert plan["execution"]["batch_size"] == 2

    def test_run_invalid_plan_errors_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"workload": "figure99"}')
        assert main(["run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_missing_plan_file_errors_cleanly(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_wrong_typed_field_errors_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"workload": "table1", "search": {"trials": "5"}}')
        assert main(["run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_checkpoint_every_without_dir_errors_cleanly(self, capsys):
        assert main(["table1", "--trials", "3",
                     "--checkpoint-every", "2"]) == 2
        assert "checkpoint_dir" in capsys.readouterr().err

    def test_run_report_plan_without_output_reports_honestly(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "workload": "report",
            "search": {"trials": 3},
        }))
        assert main(["run", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "nothing written" in out
        assert not (tmp_path / "reproduction_report.md").exists()

    def test_deprecated_workers_alias_warns_and_works(self, capsys):
        assert main(["table1", "--trials", "3", "--batch-size", "2",
                     "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert "--workers is deprecated" in captured.err
        assert "NAS" in captured.out

    def test_deprecated_campaign_dir_alias_warns_and_works(
        self, capsys, tmp_path
    ):
        assert main(["table1", "--trials", "3",
                     "--campaign-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "--campaign-dir is deprecated" in captured.err
        assert list(tmp_path.glob("*.checkpoint.json"))

    def test_canonical_flags_do_not_warn(self, capsys, tmp_path):
        assert main(["table1", "--trials", "3",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        assert "deprecated" not in capsys.readouterr().err

    def test_alias_and_canonical_conflict_resolves_to_canonical(
        self, capsys, tmp_path
    ):
        canonical = tmp_path / "canonical"
        legacy = tmp_path / "legacy"
        assert main(["table1", "--trials", "3",
                     "--checkpoint-dir", str(canonical),
                     "--campaign-dir", str(legacy)]) == 0
        assert list(canonical.glob("*.checkpoint.json"))
        assert not legacy.exists()


class TestServiceVerbs:
    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--workers", "3",
            "--store-dir", "s", "--checkpoint-dir", "c",
        ])
        assert args.command == "serve"
        assert (args.port, args.workers) == (0, 3)
        assert (args.store_dir, args.checkpoint_dir) == ("s", "c")

    def test_serve_has_no_tiling_cache_option(self, capsys):
        """Pool workers keep tilings in memory: no cache dir to name."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--tiling-cache-dir", "t"])
        assert "--tiling-cache-dir" in capsys.readouterr().err

    def test_submit_flags(self):
        args = build_parser().parse_args([
            "submit", "plan.json", "--url", "http://h:1", "--priority", "2",
            "--no-wait",
        ])
        assert args.command == "submit"
        assert args.plan == "plan.json"
        assert args.url == "http://h:1"
        assert args.priority == 2
        assert args.no_wait

    def test_submit_missing_plan_errors_cleanly(self, capsys, tmp_path):
        assert main(["submit", str(tmp_path / "none.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_against_live_server(self, capsys, tmp_path):
        """The whole CLI loop: dump a plan, serve, submit, fetch bytes."""
        import json
        import threading

        from repro.service.http import make_server

        assert main([
            "table1", "--trials", "3", "--dump-plan",
            str(tmp_path / "plan.json"),
        ]) == 0
        server = make_server(port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            capsys.readouterr()  # drop the table1 output
            code = main([
                "submit", str(tmp_path / "plan.json"),
                "--url", f"http://{host}:{port}",
                "--output", str(tmp_path / "result.json"),
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "done" in out
            # table1 has no result codec, so no --output bytes land; a
            # cacheable plan does:
            (tmp_path / "search.json").write_text(json.dumps({
                "workload": "search",
                "search": {"trials": 3},
                "scenario": {"datasets": ["mnist"],
                             "devices": ["pynq-z1"], "specs_ms": [5.0]},
            }))
            code = main([
                "submit", str(tmp_path / "search.json"),
                "--url", f"http://{host}:{port}",
                "--output", str(tmp_path / "result.json"),
            ])
            assert code == 0
            payload = json.loads((tmp_path / "result.json").read_text())
            assert len(payload["trials"]) == 3
        finally:
            server.shutdown()
            server.server_close()
            server.service.shutdown(wait=True, cancel_running=True)
            thread.join(timeout=10)

    def test_submit_connection_refused_errors_cleanly(
        self, capsys, tmp_path
    ):
        assert main([
            "table1", "--trials", "3", "--dump-plan",
            str(tmp_path / "plan.json"),
        ]) == 0
        capsys.readouterr()
        # Nothing listens on this port: the client must fail cleanly.
        code = main(["submit", str(tmp_path / "plan.json"),
                     "--url", "http://127.0.0.1:9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
