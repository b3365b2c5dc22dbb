"""Tests for the command-line interface."""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import ServiceClient
from repro.service.journal import JobJournal
from repro.service.store import ResultStore

SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    def test_canonical_flags_do_not_warn(self, capsys, tmp_path):
        assert main(["table1", "--trials", "3",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        assert "deprecated" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--campaign-dir", "--workers"])
    def test_removed_search_aliases_are_rejected(
        self, capsys, tmp_path, flag
    ):
        """The pre-plan spellings of --checkpoint-dir and --eval-workers
        are gone: argparse rejects them with its usage error."""
        value = str(tmp_path) if flag == "--campaign-dir" else "1"
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--trials", "3", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err


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

    def test_serve_has_no_async_option(self, capsys):
        """The gateway is the only front end: nothing to opt into."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--async"])
        assert exit_info.value.code == 2
        assert "--async" in capsys.readouterr().err

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
        from repro.service.gateway import GatewayRunner

        assert main([
            "table1", "--trials", "3", "--dump-plan",
            str(tmp_path / "plan.json"),
        ]) == 0
        with GatewayRunner(workers=1, drain_grace=0) as runner:
            capsys.readouterr()  # drop the table1 output
            code = main([
                "submit", str(tmp_path / "plan.json"),
                "--url", runner.base_url,
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
                "--url", runner.base_url,
                "--output", str(tmp_path / "result.json"),
            ])
            assert code == 0
            payload = json.loads((tmp_path / "result.json").read_text())
            assert len(payload["trials"]) == 3

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


def search_plan(seed, trials):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


@contextmanager
def served(*flags):
    """Run ``repro serve --port 0 FLAGS`` in a subprocess.

    Yields ``(process, url)`` once the server has announced the URL it
    bound on stderr; kills the process on the way out if it still runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", *flags],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    lines = queue.Queue()

    def drain_stderr():
        for line in proc.stderr:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=drain_stderr, daemon=True)
    reader.start()
    try:
        url = None
        while url is None:
            line = lines.get(timeout=60)
            assert line is not None, "server exited before announcing"
            match = re.match(r"serving.* on (http://\S+) ", line)
            url = match and match.group(1)
        yield proc, url
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)
        reader.join(timeout=10)
        proc.stderr.close()


def wait_until_running(client, job_id):
    deadline = time.monotonic() + 60
    while client.status(job_id)["state"] != "running":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.02)


def journal_ops(store, job_id):
    entries = JobJournal.replay(store / "journal.jsonl")
    return [e["op"] for e in entries if e["job"] == job_id]


class TestServeProcess:
    """``repro serve`` as a process: announce, stream, drain, exit 0."""

    def test_port_zero_announces_the_bound_port(self):
        with served() as (proc, url):
            assert int(url.rpartition(":")[2]) > 0
            client = ServiceClient(url)
            assert client.health()["status"] == "ok"
            assert client.shutdown() == {"status": "shutting down"}
            assert proc.wait(timeout=60) == 0

    def test_events_stream_over_sse_to_the_end_frame(self):
        with served() as (proc, url):
            client = ServiceClient(url)
            info = client.submit(search_plan(seed=5, trials=8))
            frames = list(client.stream_events(info["job_id"]))
            tags = [f["event"] for f in frames]
            assert tags[0] == "job-queued"
            assert "job-completed" in tags
            assert tags[-1] == "end"
            assert frames[-1]["data"] == {
                "state": "done", "next": len(frames) - 1,
                "reason": "terminal"}
            client.shutdown()
            assert proc.wait(timeout=60) == 0

    def test_sigterm_drains_the_running_job_and_exits_0(self, tmp_path):
        store = tmp_path / "store"
        with served("--store-dir", str(store)) as (proc, url):
            client = ServiceClient(url)
            info = client.submit(search_plan(seed=6, trials=2000))
            wait_until_running(client, info["job_id"])
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=300) == 0
        assert journal_ops(store, info["job_id"])[-1] == "done"

    def test_ctrl_c_drains_the_running_job_and_exits_0(self, tmp_path):
        store = tmp_path / "store"
        with served("--store-dir", str(store)) as (proc, url):
            client = ServiceClient(url)
            info = client.submit(search_plan(seed=8, trials=2000))
            wait_until_running(client, info["job_id"])
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=300) == 0
        assert journal_ops(store, info["job_id"])[-1] == "done"

    def test_drain_grace_cancels_the_running_job(self, tmp_path):
        store = tmp_path / "store"
        with served("--store-dir", str(store),
                    "--drain-grace", "0") as (proc, url):
            client = ServiceClient(url)
            # Far too long to finish: only the grace expiry ends it.
            info = client.submit(search_plan(seed=9, trials=1_000_000))
            wait_until_running(client, info["job_id"])
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        assert journal_ops(store, info["job_id"])[-1] == "cancelled"

    def test_shutdown_lets_the_running_job_finish(self, tmp_path):
        store = tmp_path / "store"
        with served("--store-dir", str(store)) as (proc, url):
            client = ServiceClient(url)
            info = client.submit(search_plan(seed=7, trials=2000))
            wait_until_running(client, info["job_id"])
            assert client.shutdown() == {"status": "shutting down"}
            assert proc.wait(timeout=300) == 0
        assert journal_ops(store, info["job_id"])[-1] == "done"
        blob = ResultStore(str(store)).get_bytes(info["plan_hash"])
        assert len(json.loads(blob)["trials"]) == 2000
