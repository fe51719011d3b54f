"""The command-line interface."""

import argparse
import csv
import filecmp
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import SweepSpec
from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent


def campaign_artifacts(out_dir, cell=0):
    """Map artifact file name -> path for one cell of a campaign dir."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {path.rsplit("/", 1)[-1]: out_dir / path
            for path in manifest["cells"][cell]["artifacts"]}


def churn_artifacts(out_dir):
    """policy -> {artifact name -> path} for a single-seed churn dir."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {cell["params"]["policy"]: campaign_artifacts(out_dir, index)
            for index, cell in enumerate(manifest["cells"])}


class TestAdmit:
    def test_admit_prints_placement_and_bounds(self, capsys):
        code = main(["admit", "--vms", "6", "--pods", "1",
                     "--racks-per-pod", "2", "--servers-per-rack", "4",
                     "--slots", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ADMITTED 6 VMs" in out
        assert "latency bound" in out

    def test_admit_rejects_oversized_tenant(self, capsys):
        code = main(["admit", "--vms", "1000", "--pods", "1",
                     "--racks-per-pod", "1", "--servers-per-rack", "2",
                     "--slots", "4"])
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out


class TestBounds:
    def test_bounds_table(self, capsys):
        code = main(["bounds", "--bandwidth-mbps", "250",
                     "--burst-kb", "15", "--delay-us", "1000",
                     "--bmax-gbps", "1"])
        out = capsys.readouterr().out
        assert code == 0
        # Rows for small and large messages, monotone bounds.
        lines = [l for l in out.splitlines() if "KB" in l and "ms" in l]
        assert len(lines) >= 8


class TestPace:
    def test_pace_reports_wire_split(self, capsys):
        code = main(["pace", "--rate-gbps", "2", "--packets", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "void" in out
        assert "pacing error" in out


    def test_pace_checks_the_schedule_against_its_arrival_curve(
            self, capsys, monkeypatch):
        """The verdict is printed, and a pacer that over-bursts (every
        packet stamped for t=0) exits 1."""
        assert main(["pace", "--rate-gbps", "2", "--packets", "50"]) == 0
        assert "conformance: 50 stamps obey" in capsys.readouterr().out
        from repro.pacer import VMPacer
        monkeypatch.setattr(VMPacer, "stamp",
                            lambda self, destination, size, now: 0.0)
        assert main(["pace", "--rate-gbps", "2", "--packets", "50"]) == 1
        out = capsys.readouterr().out
        assert "conformance: VIOLATED" in out
        assert "75000 bytes sent, 1500 allowed" in out


class TestChurn:
    def test_churn_runs_three_policies(self, capsys):
        code = main(["churn", "--pods", "1", "--racks-per-pod", "2",
                     "--servers-per-rack", "4", "--slots", "4",
                     "--horizon", "10", "--occupancy", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        for policy in ("locality", "oktopus", "silo"):
            assert policy in out


class TestTrace:
    def test_trace_emits_plottable_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code = main(["trace", "--duration-ms", "5", "--seed", "3",
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p99=" in out
        artifacts = campaign_artifacts(out_dir)
        events = artifacts["events.jsonl"]
        latency = artifacts["latency.csv"]
        queues = artifacts["queues.csv"]
        admission = artifacts["admission.csv"]
        for artifact in (events, latency, queues, admission):
            assert artifact.exists(), artifact
        # Every event line is a JSON object with a registered kind.
        lines = events.read_text().splitlines()
        assert lines
        kinds = {json.loads(l)["kind"] for l in lines}
        assert "flow.finish" in kinds
        assert "admission" in kinds
        # The latency CSV alone reconstructs per-tenant percentiles.
        rows = list(csv.DictReader(latency.open()))
        assert rows
        assert {"tenant_id", "latency"} <= set(rows[0])
        assert all(float(r["latency"]) > 0 for r in rows)
        # The queue CSV gives (port, time, depth) triples.
        qrows = list(csv.DictReader(queues.open()))
        assert qrows
        assert {"port", "time", "mean", "max"} <= set(qrows[0])

    def test_trace_without_out_uses_ring_buffer(self, capsys):
        code = main(["trace", "--duration-ms", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "traced" in out and "events" in out

    def test_churn_out_writes_per_policy_files(self, capsys, tmp_path):
        out_dir = tmp_path / "churn"
        code = main(["churn", "--pods", "1", "--racks-per-pod", "2",
                     "--servers-per-rack", "4", "--slots", "4",
                     "--horizon", "5", "--occupancy", "0.5",
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "admitted=" in out  # the audit summary line
        by_policy = churn_artifacts(out_dir)
        assert sorted(by_policy) == ["locality", "oktopus", "silo"]
        for artifacts in by_policy.values():
            for name in ("events.jsonl", "admission.csv", "util.csv"):
                assert artifacts[name].exists()
        with pytest.raises(SystemExit):  # the legacy prefix mode is gone
            build_parser().parse_args(["churn", "--trace-out", "x"])

    def test_pace_trace_out_writes_stamp_events(self, capsys, tmp_path):
        path = str(tmp_path / "pace.jsonl")
        code = main(["pace", "--rate-gbps", "2", "--packets", "50",
                     "--trace-out", path])
        assert code == 0
        kinds = [json.loads(l)["kind"]
                 for l in open(path).read().splitlines()]
        assert "pacer.stamp" in kinds
        assert "pacer.void" in kinds


SMALL_TOPO = ["--pods", "1", "--racks-per-pod", "2",
              "--servers-per-rack", "4", "--slots", "4"]


class TestFaults:
    def test_faults_campaign_emits_csvs(self, capsys, tmp_path):
        out_dir = tmp_path / "f"
        code = main(["faults", *SMALL_TOPO, "--duration-ms", "50",
                     "--seed", "7", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fault events" in out
        artifacts = campaign_artifacts(out_dir)
        faults = list(csv.DictReader(open(artifacts["faults.csv"])))
        assert {"time", "target", "action", "factor", "affected",
                "recovered", "degraded", "evicted"} <= set(faults[0])
        recovery = list(csv.DictReader(open(artifacts["recovery.csv"])))
        for row in recovery:
            assert row["outcome"] in ("recovered", "degraded", "evicted")
        # Every recovery event also landed in the JSONL stream.
        kinds = [json.loads(l)["kind"]
                 for l in open(artifacts["events.jsonl"])]
        assert kinds.count("fault.recovery") >= len(recovery)

    def test_same_seed_runs_are_byte_identical(self, capsys, tmp_path):
        def run(out_dir):
            assert main(["faults", *SMALL_TOPO, "--duration-ms", "50",
                         "--seed", "7", "--out", str(out_dir)]) == 0
            capsys.readouterr()
            artifacts = campaign_artifacts(out_dir)
            return (artifacts["faults.csv"].read_bytes(),
                    artifacts["recovery.csv"].read_bytes())

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second
        assert first[0] and first[1]

    def test_different_seed_changes_the_schedule(self, capsys, tmp_path):
        def run(out_dir, seed):
            assert main(["faults", *SMALL_TOPO, "--duration-ms", "50",
                         "--seed", seed, "--out", str(out_dir)]) == 0
            capsys.readouterr()
            return campaign_artifacts(out_dir)["faults.csv"].read_bytes()

        assert run(tmp_path / "a", "7") != run(tmp_path / "b", "8")

    def test_empty_schedule_touches_nothing(self, capsys, tmp_path):
        out_dir = tmp_path / "f"
        code = main(["faults", *SMALL_TOPO, "--faults", "none",
                     "--duration-ms", "10", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 0 fault events" in out
        recovery = campaign_artifacts(out_dir)["recovery.csv"]
        assert list(csv.DictReader(open(recovery))) == []

    def test_churn_with_faults_writes_recovery_csvs(self, capsys,
                                                    tmp_path):
        out_dir = tmp_path / "churn"
        code = main(["churn", *SMALL_TOPO, "--horizon", "5",
                     "--occupancy", "0.5", "--seed", "2",
                     "--faults", "poisson:mtbf_ms=500,mttr_ms=200",
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults: affected=" in out
        by_policy = churn_artifacts(out_dir)
        for policy in ("locality", "oktopus", "silo"):
            path = by_policy[policy]["recovery.csv"]
            assert path.exists(), path

    def test_trace_with_faults_reports_and_dumps_schedule(self, capsys,
                                                          tmp_path):
        out_dir = tmp_path / "tr"
        code = main(["trace", "--duration-ms", "5", "--seed", "3",
                     "--faults", "poisson:mtbf_ms=2,mttr_ms=1",
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults: applied=" in out
        faults = campaign_artifacts(out_dir)["faults.csv"]
        rows = list(csv.DictReader(open(faults)))
        assert rows
        assert {"time", "target", "action", "factor"} <= set(rows[0])

class TestCampaignCommand:
    def test_list_prints_registered_sweeps(self, capsys):
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig15", "fig16", "table1", "failure-recovery"):
            assert name in out

    def test_needs_exactly_one_spec_source_and_an_out(self, capsys,
                                                      tmp_path):
        assert main(["campaign", "--out", str(tmp_path / "c")]) == 2
        assert main(["campaign", "--name", "fig15-micro", "--spec", "x",
                     "--out", str(tmp_path / "c")]) == 2
        assert main(["campaign", "--name", "fig15-micro"]) == 2

    def test_named_sweep_crashes_and_resumes(self, capsys, tmp_path):
        out_dir = tmp_path / "c"
        code = main(["campaign", "--name", "fig15-micro",
                     "--out", str(out_dir), "--max-cells", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stopped after 2/6 cells" in out
        # A partial run leaves checkpoints but no manifest.
        assert not (out_dir / "manifest.json").exists()
        assert len(list((out_dir / "cells").glob("*.json"))) == 2
        code = main(["campaign", "--name", "fig15-micro",
                     "--out", str(out_dir), "--resume"])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["cells"]) == 6

    def test_sigkilled_two_worker_run_resumes_to_the_serial_bytes(
            self, tmp_path, monkeypatch):
        """A real ``kill -9`` of the process group mid-campaign (the
        other crash tests stop by ``--max-cells``): only whole
        checkpoints and no manifest are left, and ``--resume`` merges
        byte-identically to an uninterrupted serial run."""
        spec = SweepSpec(name="sleepy", scenario="toy_sleeper",
                         grid={"duration": [0.25]}, seeds=tuple(range(8)),
                         modules=(), module_paths=(str(
                             REPO / "tests" / "campaign_scenarios_helper.py"),))
        spec_file = tmp_path / "sleepy.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        serial, killed = tmp_path / "serial", tmp_path / "killed"
        with monkeypatch.context() as patch:  # same bytes, no waiting
            patch.setattr(time, "sleep", lambda seconds: None)
            assert main(["campaign", "--spec", str(spec_file),
                         "--out", str(serial)]) == 0
        argv = [sys.executable, "-m", "repro", "campaign", "--spec",
                str(spec_file), "--workers", "2", "--out", str(killed)]
        env = dict(os.environ, PYTHONPATH="src")
        # Own process group, so the SIGKILL takes the pool workers too.
        proc = subprocess.Popen(argv, cwd=REPO, env=env,
                                start_new_session=True,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120.0
        while (proc.poll() is None and time.monotonic() < deadline
               and not list((killed / "cells").glob("*.json"))):
            time.sleep(0.01)
        assert proc.poll() is None, "finished (or died) before the kill"
        os.killpg(proc.pid, signal.SIGKILL)
        assert proc.wait() == -signal.SIGKILL
        checkpoints = list((killed / "cells").glob("*.json"))
        assert 1 <= len(checkpoints) < len(spec)
        for checkpoint in checkpoints:
            assert "result" in json.loads(checkpoint.read_text())
        assert not (killed / "manifest.json").exists()
        resumed = subprocess.run(argv + ["--resume"], cwd=REPO, env=env,
                                 capture_output=True, text=True)
        assert resumed.returncode == 0, resumed.stderr
        assert f"resume: {len(checkpoints)}/8" in resumed.stderr
        for name in ("manifest.json", "merged.json"):
            assert filecmp.cmp(serial / name, killed / name, shallow=False)


class TestReportCommand:
    @staticmethod
    def _write_fig15_campaign(campaigns):
        cells = [{"params": {"load": load, "policy": policy},
                  "result": {"total": 0.5}}
                 for load in ("moderate", "high")
                 for policy in ("locality", "oktopus", "silo")]
        fig15 = campaigns / "fig15"
        fig15.mkdir(parents=True)
        (fig15 / "merged.json").write_text(json.dumps({"cells": cells}))

    def test_check_flags_stale_doc_and_update_fixes_it(self, capsys,
                                                       tmp_path):
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("# doc\n\n<!-- begin:fig15 -->\nstale\n"
                       "<!-- end:fig15 -->\n")
        campaigns = tmp_path / "campaigns"
        self._write_fig15_campaign(campaigns)
        args = ["report", "--doc", str(doc), "--campaigns",
                str(campaigns)]
        assert main([*args, "--check"]) == 1
        assert "stale" in doc.read_text()  # --check never writes
        assert main(args) == 0
        assert "| locality | 50.0% | 50.0% |" in doc.read_text()
        assert main([*args, "--check"]) == 0

    def test_check_fails_on_a_block_without_campaign_data(self, capsys,
                                                          tmp_path):
        """A deleted or mistyped campaign directory must not turn the
        drift gate green; a plain update still renders what it can."""
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("<!-- begin:fig15 -->\nold\n<!-- end:fig15 -->\n"
                       "<!-- begin:fig16 -->\nkept\n<!-- end:fig16 -->\n"
                       "<!-- begin:notes -->\nfree text\n<!-- end:notes -->\n")
        campaigns = tmp_path / "campaigns"
        self._write_fig15_campaign(campaigns)
        args = ["report", "--doc", str(doc), "--campaigns",
                str(campaigns)]
        assert main(args) == 0
        assert "kept" in doc.read_text()
        capsys.readouterr()
        assert main([*args, "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "fig16" in captured.err
        assert "fig15" not in captured.err and "notes" not in captured.err

    def test_missing_doc_exits_2_with_one_line(self, capsys, tmp_path):
        code = main(["report", "--check", "--doc", str(tmp_path / "nope.md"),
                     "--campaigns", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: bad --doc ")
        assert "nope.md" in captured.err


class TestChurnCampaign:
    def test_churn_out_merges_multi_seed_series(self, capsys, tmp_path):
        out_dir = tmp_path / "c"
        code = main(["churn", *SMALL_TOPO, "--horizon", "5",
                     "--occupancy", "0.5", "--seeds", "1", "2",
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pooled over 2 seeds" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["cells"]) == 6  # 3 policies x 2 seeds
        for policy in ("locality", "oktopus", "silo"):
            merged = out_dir / f"merged.util.{policy}.csv"
            rows = list(csv.DictReader(open(merged)))
            assert rows
            assert {"time", "count", "mean", "max"} <= set(rows[0])

    def test_churn_same_seed_is_byte_identical_across_processes(
            self, tmp_path):
        # Tenant ids come from a process-global counter, so cross-run
        # identity is checked in fresh interpreters.
        def run(sub):
            out_dir = tmp_path / sub
            subprocess.run(
                [sys.executable, "-m", "repro", "churn", *SMALL_TOPO,
                 "--horizon", "5", "--occupancy", "0.5", "--seed", "4",
                 "--faults", "poisson:mtbf_ms=500,mttr_ms=200",
                 "--out", str(out_dir)],
                check=True, capture_output=True)
            by_policy = churn_artifacts(out_dir)
            return b"".join(
                by_policy[p][kind].read_bytes()
                for p in ("locality", "oktopus", "silo")
                for kind in ("admission.csv", "recovery.csv", "util.csv"))

        first = run("a")
        assert first and first == run("b")


#: Exact stdout of the four sweep-backed commands without ``--out``,
#: captured at the commit before they moved onto one run path (each in
#: a fresh interpreter: tenant ids come from a process-global counter).
GOLDEN_STDOUT = json.loads(
    (REPO / "tests" / "golden_cli_stdout.json").read_text(encoding="utf-8"))


def run_repro(argv):
    """``python -m repro <argv>`` in a fresh interpreter; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", GOLDEN_STDOUT,
                         ids=lambda c: c.split()[0])
class TestSweepBackedCommands:
    """churn/trace/faults/hybrid have one run path -- the campaign
    runner, in memory without ``--out`` -- so stdout is pinned once and
    the campaign flags mean the same with and without ``--out``."""

    def test_stdout_without_out_is_byte_identical(self, command):
        assert run_repro(shlex.split(command)) == GOLDEN_STDOUT[command]

    def test_same_lines_precede_the_out_trailer(self, command, tmp_path):
        out = run_repro([*shlex.split(command), "--out",
                         str(tmp_path / "c")])
        *body, trailer = out.splitlines(keepends=True)
        assert trailer.startswith(f"wrote {tmp_path / 'c'}/manifest.json")
        # The ring-buffer note is the one line that is about not having
        # --out; everything else must match.
        expected = [line
                    for line in GOLDEN_STDOUT[command].splitlines(True)
                    if "use --out to keep them" not in line]
        assert body == expected

    # The 1 ms alarm can land inside a finalizer of some earlier test's
    # garbage: reported as unraisable there, then it fires again.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning")
    def test_seeds_workers_and_timeout_work_without_out(self, command,
                                                        capsys):
        argv = shlex.split(command)
        at = argv.index("--seed")
        argv[at:at + 2] = ["--seeds", "1", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        # Both seeds ran and printed: each is tagged, and seed 2's
        # numbers are what a plain --seed 2 run prints (the multi-seed
        # run only adds a seed tag before "admitted" or a header line).
        assert "seed=1" in serial or "seed 1" in serial
        assert "seed=2" in serial or "seed 2" in serial
        assert main([*argv[:at], "--seed", "2", *argv[at + 3:]]) == 0
        for line in capsys.readouterr().out.splitlines():
            at_tag = line.find("admitted")
            assert line[max(at_tag, 0):] in serial
        assert main([*argv, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert main([*argv, "--cell-timeout", "0.001"]) == 1
        assert "cell FAILED" in capsys.readouterr().err


def readme_cli_commands():
    """The commands between README's ``cli-examples`` markers."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("<!-- cli-examples:begin -->")[1]
    block = block.split("<!-- cli-examples:end -->")[0]
    commands, pending = [], ""
    for line in block.splitlines():
        line = line.strip()
        if not line or line.startswith(("#", "```")):
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        commands.append(pending + line)
        pending = ""
    return commands


class TestSpecErrorContract:
    """Malformed specs exit 2 with a one-line diagnostic that names
    the offending field -- never a traceback."""

    def check(self, capsys, argv, *needles):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: bad ")
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err, (needle, err)

    def test_bad_inline_faults_key(self, capsys):
        self.check(capsys,
                   ["churn", *SMALL_TOPO, "--horizon", "5",
                    "--faults", "poisson:mtbfms=5"],
                   "--faults", "mtbfms")

    def test_bad_inline_faults_fragment(self, capsys):
        self.check(capsys,
                   ["trace", "--duration-ms", "5",
                    "--faults", "poisson:mtbf_ms"],
                   "--faults", "want k=v")

    def test_bad_faults_file_target(self, capsys, tmp_path):
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps(
            {"events": [{"time": 1.0, "target": "servr:0",
                         "action": "down"}]}))
        self.check(capsys,
                   ["faults", *SMALL_TOPO, "--duration-ms", "10",
                    "--faults", str(spec), "--out",
                    str(tmp_path / "out")],
                   "--faults", "servr:0")

    def test_missing_faults_file(self, capsys, tmp_path):
        self.check(capsys,
                   ["serve", "--data-dir", str(tmp_path / "d"),
                    "--horizon", "1",
                    "--faults", str(tmp_path / "nope.json")],
                   "--faults", "nope.json")

    def test_bad_campaign_spec_field(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(
            {"name": "x", "scenario": "churn_cell",
             "grids": {"occupancy": [0.5]}}))
        self.check(capsys,
                   ["campaign", "--spec", str(spec),
                    "--out", str(tmp_path / "c")],
                   "--spec", "grids")

    @pytest.mark.parametrize("spec, needle", [
        ([], "not list"),
        ({}, "['name', 'scenario']"),
        ({"name": "x"}, "['scenario']"),
        ({"name": "x", "scenario": "no_such_scenario"},
         "no_such_scenario"),
        ({"name": "x", "scenario": "churn_policy",
          "modules": ["no_such_module"]}, "no_such_module"),
    ])
    def test_unloadable_campaign_spec(self, capsys, tmp_path, spec, needle):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(spec))
        self.check(capsys,
                   ["campaign", "--spec", str(spec_file),
                    "--out", str(tmp_path / "c")],
                   "--spec", needle)
        assert not (tmp_path / "c").exists()

    def test_unknown_named_sweep(self, capsys, tmp_path):
        self.check(capsys,
                   ["campaign", "--name", "no-such-sweep",
                    "--out", str(tmp_path / "c")],
                   "--name", "no-such-sweep")

    @pytest.mark.parametrize("argv", [
        ["admit", "--vms", "4"],
        ["bounds"],
        ["trace", "--duration-ms", "2"],
        ["whatif", "--model", "campaigns/whatif-error/model.json"],
    ], ids=lambda argv: argv[0])
    def test_bmax_below_bandwidth(self, capsys, argv):
        """An infeasible guarantee used to be a bare ValueError
        traceback (``admit``) or a failed campaign cell (``trace``)."""
        self.check(capsys,
                   [*argv, "--bandwidth-mbps", "2000", "--bmax-gbps", "1"],
                   "guarantee", "--bandwidth-mbps 2000", "--bmax-gbps 1",
                   "Bmax must be at least the bandwidth")

    def test_hybrid_rejects_a_negative_bandwidth(self, capsys):
        self.check(capsys, ["hybrid", *SMALL_TOPO, "--bandwidth-mbps", "-5"],
                   "guarantee", "--bandwidth-mbps -5", "must be positive")

    def test_hybrid_bmax_follows_a_multi_gigabit_foreground(self, capsys):
        """``hybrid`` has no ``--bmax-gbps``: the cell used to hard-code
        1 Gbps, so any foreground above that died inside its cell."""
        code = main(["hybrid", *SMALL_TOPO, "--fg-vms", "6", "--horizon",
                     "1", "--bandwidth-mbps", "2000", "--seed", "11"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "window: offset=" in captured.out
        assert "Traceback" not in captured.err
        assert "FAILED" not in captured.err

    def test_no_traceback_on_stderr_via_subprocess(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "churn", "--horizon", "2",
             "--faults", "poisson:mtbfms=5"],
            capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestServe:
    def serve_argv(self, data_dir, *extra):
        return ["serve", "--data-dir", str(data_dir), *SMALL_TOPO,
                "--arrival-rate", "20", "--horizon", "2",
                "--seed", "5", *extra]

    def test_serve_prints_json_summary(self, capsys, tmp_path):
        code = main(self.serve_argv(tmp_path / "svc"))
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["metrics"]["admitted"] > 0
        assert summary["digest"]
        assert (tmp_path / "svc" / "wal.jsonl").is_file()

    def test_kill_restart_check_digest(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        data_dir = tmp_path / "svc"
        argv = [sys.executable, "-m", "repro"] + self.serve_argv(
            data_dir, "--faults",
            "poisson:mtbf_ms=400,mttr_ms=250,targets=server")
        killed = subprocess.run(argv + ["--kill-after", "15"],
                                capture_output=True, text=True,
                                cwd=REPO, env=env)
        assert killed.returncode == -signal.SIGKILL
        assert (data_dir / "digest.txt").is_file()
        reborn = subprocess.run(argv + ["--check-digest"],
                                capture_output=True, text=True,
                                cwd=REPO, env=env)
        assert reborn.returncode == 0, reborn.stderr
        assert "recovery OK" in reborn.stderr
        summary = json.loads(reborn.stdout)
        assert summary["digest"]

    @pytest.mark.parametrize("text, what", [
        ('{"cluster": {"sha', "not JSON"),
        ("[]", "not a JSON object"),
        ('{"done_count": 1}', "no 'cluster' key"),
    ])
    def test_corrupt_snapshot_exits_2_with_one_line(self, capsys,
                                                    tmp_path, text, what):
        data_dir = tmp_path / "svc"
        data_dir.mkdir()
        (data_dir / "snapshot.json").write_text(text, encoding="utf-8")
        code = main(self.serve_argv(data_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: bad --data-dir ")
        assert str(data_dir / "snapshot.json") in captured.err
        assert what in captured.err

    @pytest.mark.parametrize("text, what", [
        ('{"time":0,"done_count":0,"cluster":{"manager":{}}}',
         "cluster state has no 'controller' key"),
        ('{"done_count":0,"cluster":{"shards":[],"calc":{},"owner":[]}}',
         "written by the sharded layout"),
    ])
    def test_wrong_shape_snapshot_exits_2_with_one_line(self, capsys,
                                                        tmp_path, text,
                                                        what):
        """Valid JSON that is not a snapshot of this layout (the first
        used to be ``KeyError: 'shards'``, exit 1)."""
        data_dir = tmp_path / "svc"
        data_dir.mkdir()
        (data_dir / "snapshot.json").write_text(text, encoding="utf-8")
        code = main(self.serve_argv(data_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: bad --data-dir ")
        assert str(data_dir / "snapshot.json") in captured.err
        assert what in captured.err

    def test_wal_damaged_mid_file_exits_2_and_keeps_its_bytes(
            self, capsys, tmp_path):
        data_dir = tmp_path / "svc"
        assert main(self.serve_argv(data_dir)) == 0
        capsys.readouterr()
        wal = data_dir / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        assert len(lines) > 20
        lines[9] = b"\x00" * (len(lines[9]) - 1) + b"\n"
        damaged = b"".join(lines)
        wal.write_bytes(damaged)
        code = main(self.serve_argv(data_dir))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: bad --data-dir ")
        assert f"{wal} line 10" in captured.err
        assert wal.read_bytes() == damaged

    def test_torn_wal_tail_is_trimmed_and_serve_starts(self, capsys,
                                                       tmp_path):
        data_dir = tmp_path / "svc"
        assert main(self.serve_argv(data_dir)) == 0
        capsys.readouterr()
        wal = data_dir / "wal.jsonl"
        durable = wal.read_bytes()
        wal.write_bytes(durable + b'{"t": "done", "seq": 3, "ti')
        assert main(self.serve_argv(data_dir)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["metrics"]["replayed"] > 0
        # The resumed run appended right behind the durable prefix.
        after = wal.read_bytes()
        assert after.startswith(durable) and len(after) > len(durable)
        for line in after.splitlines():
            json.loads(line)

    def test_check_digest_without_kill_exits_2(self, capsys, tmp_path):
        code = main(self.serve_argv(tmp_path / "svc",
                                    "--check-digest"))
        err = capsys.readouterr().err
        assert code == 2
        assert "no pre-kill digest" in err


class TestReadmeExamples:
    """README's CLI section stays runnable and complete."""

    def test_every_subcommand_has_an_example(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        documented = {shlex.split(c)[3] for c in readme_cli_commands()}
        assert documented == set(sub.choices)

    @pytest.mark.parametrize(
        "command", readme_cli_commands(),
        ids=lambda c: shlex.split(c)[3])
    def test_example_runs_verbatim(self, command, tmp_path):
        argv = shlex.split(command.replace("/tmp/repro-demo",
                                           str(tmp_path)))
        assert argv[:3] == ["python", "-m", "repro"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
        # cwd=REPO so `report --check` sees campaigns/ + EXPERIMENTS.md.
        proc = subprocess.run([sys.executable, *argv[1:]], cwd=REPO,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestWhatIf:
    """The surrogate estimator subcommand: model loading, calibration,
    and the spec-error contract for both sources."""

    MODEL = REPO / "campaigns" / "whatif-error" / "model.json"
    CALIBRATION = REPO / "campaigns" / "whatif-error" / "calibration"

    def check_spec_error(self, capsys, argv, *needles):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: bad ")
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err, (needle, err)

    def test_needs_exactly_one_source(self, capsys):
        assert main(["whatif"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["whatif", "--model", str(self.MODEL),
                     "--calibrate", str(self.CALIBRATION)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_model_is_a_spec_error(self, capsys, tmp_path):
        self.check_spec_error(
            capsys, ["whatif", "--model", str(tmp_path / "nope.json")],
            "--model", "nope.json")

    def test_unsupported_model_format_is_a_spec_error(self, capsys,
                                                      tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": 99}))
        self.check_spec_error(capsys,
                              ["whatif", "--model", str(bad)],
                              "--model", "format")

    def test_non_object_model_is_a_spec_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        self.check_spec_error(capsys, ["whatif", "--model", str(bad)],
                              "--model", "not list")

    def test_bad_calibration_dir_is_a_spec_error(self, capsys,
                                                 tmp_path):
        self.check_spec_error(
            capsys, ["whatif", "--calibrate", str(tmp_path)],
            "--calibrate", "neither")

    @pytest.mark.parametrize("name, good, bad_row, needle", [
        ("latency.csv", "1,0,1,15000.0,0.0,0.0001,0.0001,0",
         "1,2,3,15000.0,0.0", "expected 8 cells"),
        ("latency.csv", "1,0,1,15000.0,0.0,0.0001,0.0001,0",
         "1,0,1,15000.0,0.0,0.0001,0.0001,0,9", "expected 8 cells"),
        ("queues.csv", "tor-down[3],0.0,5,100.0,0.0,300.0,50.0",
         "tor-down[3],0.0,abc,100.0,0.0,300.0,50.0", "abc"),
    ], ids=["short", "long", "non-numeric"])
    def test_malformed_trace_csv_row_is_a_spec_error(
            self, capsys, tmp_path, name, good, bad_row, needle):
        artifacts = self.CALIBRATION / "artifacts"
        (cell,) = [p for p in artifacts.iterdir() if p.is_dir()]
        for csv_name in ("latency.csv", "queues.csv"):
            (tmp_path / csv_name).write_text(
                (cell / csv_name).read_text(encoding="utf-8"),
                encoding="utf-8")
        target = tmp_path / name
        header = target.read_text(encoding="utf-8").splitlines()[0]
        target.write_text("\n".join([header, good, bad_row]) + "\n",
                          encoding="utf-8")
        self.check_spec_error(
            capsys, ["whatif", "--calibrate", str(tmp_path)],
            "--calibrate", f"{name}:3:", needle)

    def test_committed_model_scores_a_placement(self, capsys):
        code = main(["whatif", "--model", str(self.MODEL),
                     "--message-kb", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "25KB messages" in out
        assert "p99=" in out
        assert "worst-case bound" in out

    def test_calibrate_fits_and_saves(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code = main(["whatif", "--calibrate", str(self.CALIBRATION),
                     "--save-model", str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "calibrated on 1 trace(s)" in out
        assert model_path.is_file()
        # The saved model round-trips through --model.
        assert main(["whatif", "--model", str(model_path)]) == 0
