"""The command-line interface."""

import argparse
import csv
import filecmp
import json
import math
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest

from repro.campaign import SweepSpec, declaration
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

    def test_fig12_block_needs_the_section62_campaign(self, capsys,
                                                     tmp_path):
        """The Fig. 12-14 block renders from the ``fig12`` rows of
        ``mechanism-compare``: a ``fig12`` directory does not satisfy
        the check, and the error names the campaign file it needs."""
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("<!-- begin:fig12 -->\nold\n<!-- end:fig12 -->\n")
        campaigns = tmp_path / "campaigns"
        (campaigns / "fig12").mkdir(parents=True)
        (campaigns / "fig12" / "merged.json").write_text('{"cells": []}')
        assert main(["report", "--check", "--doc", str(doc),
                     "--campaigns", str(campaigns)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "fig12 (" in err and "mechanism-compare/merged.json" in err

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
                          cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Exact stdout of the commands that admit through
#: ``SiloPlacementManager``: ``admit`` and ``whatif`` directly, ``serve``
#: through the admission service under a server-crash storm (fresh
#: interpreters, as above), without ``whatif``'s wall-clock
#: ``estimated ... in X ms`` line; and of the two other commands
#: without a scenario, ``bounds`` and ``pace``.  ``serve``'s
#: ``--data-dir DIR`` is a fresh directory per run; its summary counts
#: virtual time only.  Kept apart from ``GOLDEN_STDOUT``, which also
#: drives an ``--out`` test these commands cannot take.
GOLDEN_ADMISSION_STDOUT = json.loads(
    (REPO / "tests" / "golden_admission_stdout.json").read_text(
        encoding="utf-8"))


@pytest.mark.parametrize("command", GOLDEN_ADMISSION_STDOUT,
                         ids=lambda c: c.split()[0])
def test_admission_stdout_is_byte_identical(command, tmp_path):
    out = run_repro([str(tmp_path / "data") if arg == "DIR" else arg
                     for arg in shlex.split(command)])
    kept = [line for line in out.splitlines(keepends=True)
            if not line.startswith("estimated ")]
    assert "".join(kept) == GOLDEN_ADMISSION_STDOUT[command]


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

    @pytest.mark.parametrize("source, value, message", [
        ("--spec", {"name": "x", "scenario": "nope"},
         "unknown scenario 'nope'; registered: "),
        ("--name", "nope", "unknown sweep 'nope'; known: "),
    ], ids=["spec", "name"])
    def test_unknown_name_reads_as_it_is(self, capsys, tmp_path, source,
                                         value, message):
        """An unregistered scenario or sweep used to read as a
        ``missing key '...'``."""
        if source == "--spec":
            (tmp_path / "sweep.json").write_text(json.dumps(value))
            value = str(tmp_path / "sweep.json")
        self.check(capsys,
                   ["campaign", source, value,
                    "--out", str(tmp_path / "c")],
                   f"error: bad {source} {value!r}: {message}")

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

    @pytest.mark.parametrize("argv, needle", [
        (["trace", "--vms", "1"], "--vms 1: must be >= 2"),
        (["trace", "--vms", "0"], "--vms 0: must be >= 2"),
        (["trace", "--message-kb", "0"], "--message-kb 0.0: must be > 0"),
        (["trace", "--message-kb", "-5"], "--message-kb -5.0"),
        (["trace", "--queue-interval-us", "0"], "--queue-interval-us 0.0"),
        (["trace", "--class-a", "-1"], "--class-a -1: must be >= 0"),
        (["hybrid", *SMALL_TOPO, "--horizon", "1", "--fg-vms", "1"],
         "--fg-vms 1: must be >= 2"),
        (["hybrid", *SMALL_TOPO, "--horizon", "1", "--fg-horizon-ms", "-1"],
         "--fg-horizon-ms -1.0: must be > 0"),
    ], ids=["trace-vms-1", "trace-vms-0", "trace-message-0",
            "trace-message-negative", "trace-queue-interval-0",
            "trace-class-a-negative", "hybrid-fg-vms-1",
            "hybrid-window-negative"])
    def test_bad_packet_workload_flag(self, capsys, argv, needle):
        """These used to fail inside a campaign cell with a traceback,
        or run and exit 0 (``--class-a -1``, a negative window)."""
        self.check(capsys, [*argv, *(["--duration-ms", "2"]
                                     if argv[0] == "trace" else [])],
                   needle)

    @pytest.mark.parametrize("argv, needle", [
        (["churn", "--occupancy", "1.5"], "--occupancy 1.5: must be < 1"),
        (["churn", "--occupancy", "0"], "--occupancy 0.0: must be > 0"),
        (["hybrid", "--occupancy", "-0.2"], "--occupancy -0.2: must be > 0"),
        (["hybrid", "--occupancy", "1"], "--occupancy 1.0: must be < 1"),
        (["faults", "--occupancy", "2"], "--occupancy 2.0: must be <= 1"),
    ], ids=["churn-occupancy-over", "churn-occupancy-0",
            "hybrid-occupancy-negative", "hybrid-occupancy-1",
            "faults-occupancy-over"])
    def test_out_of_range_workload_flag(self, capsys, argv, needle):
        """``churn``/``hybrid`` used to fail inside their campaign cell
        with a traceback (``TenantWorkload.for_occupancy`` wants (0, 1)),
        and ``faults --occupancy 2`` reported on a meaningless fill with
        exit 0."""
        self.check(capsys, argv, needle)

    @pytest.mark.parametrize("argv, needle", [
        (["pace", "--rate-gbps", "20"],
         "--rate-gbps 20.0: must be <= --link-gbps 10"),
        (["hybrid", *SMALL_TOPO, "--horizon", "2", "--fg-offset", "5"],
         "--fg-offset 5.0: must be <= --horizon 2"),
        (["hybrid", *SMALL_TOPO, "--horizon", "2", "--fg-offset", "-1"],
         "--fg-offset -1.0: must be >= 0"),
    ], ids=["pace-rate-over-link", "hybrid-offset-past-horizon",
            "hybrid-offset-negative"])
    def test_flag_bounded_by_another_flag(self, capsys, argv, needle):
        """``pace --rate-gbps 20`` on a 10 GbE link exited 0 and claimed
        conformance for a rate the wire cannot carry; an ``--fg-offset``
        outside the background run failed its campaign cell with a
        traceback."""
        self.check(capsys, argv, needle)

    @pytest.mark.parametrize("argv", [
        ["admit"],
        ["whatif", "--model", "campaigns/whatif-error/model.json"],
        ["churn", "--horizon", "1"],
        ["trace", "--duration-ms", "2"],
        ["faults", "--duration-ms", "5"],
    ], ids=lambda argv: argv[0])
    def test_empty_topology(self, capsys, argv):
        """``--pods 0`` used to be a traceback (or, on ``faults``, an
        error blamed on ``--faults``)."""
        self.check(capsys, [*argv, "--pods", "0"], "bad topology",
                   "--pods 0", "all topology dimensions must be >= 1")

    def test_zero_epoch_exits_instead_of_hanging(self):
        """``--epoch-us 0`` re-fired the epoch loop at the same instant
        forever; the timeout turns a hang into a failure."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--duration-ms", "2",
             "--epoch-us", "0"],
            capture_output=True, text=True, cwd=REPO, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: bad --epoch-us 0.0: must be > 0\n"

    @pytest.mark.parametrize("flags, diagnostic", [
        (["--tick-interval", "0"], "--tick-interval 0.0: must be > 0"),
        (["--horizon", "inf"], "--horizon inf: must be finite"),
    ], ids=["tick-interval-0", "horizon-inf"])
    def test_serve_exits_instead_of_hanging(self, tmp_path, flags,
                                            diagnostic):
        """Neither ever returned: at ``--tick-interval 0`` every tick of
        the load generator landed at virtual time 0, and an infinite
        horizon never stops generating arrivals."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--data-dir",
             str(tmp_path / "d"), "--horizon", "1", *flags],
            capture_output=True, text=True, cwd=REPO, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"error: bad {diagnostic}\n"

    def test_no_traceback_on_stderr_via_subprocess(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "churn", "--horizon", "2",
             "--faults", "poisson:mtbfms=5"],
            capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


#: Numeric flags and scenario parameters with no declared range, each
#: with the reason.
UNRANGED_FLAGS_ALLOWED = {
    "seed": "any integer seeds a run",
    "seeds": "any integers seed a sweep",
}


def declared(command):
    """``(params, groups)``: every parameter ``command`` declares -- its
    own flags (``cli._COMMANDS``) and, on a sweep-backed command, its
    scenario's parameters -- and the groups whose builders check them."""
    from repro.cli import _COMMANDS, _SWEEPS
    params, groups = _COMMANDS[command]
    if command not in _SWEEPS:
        return params, groups
    scenario = declaration(_SWEEPS[command][0])
    return {**scenario.params, **params}, (*scenario.groups, *groups)


def _kinds(param):
    """A parameter's annotation and its alternatives."""
    return {param.kind, *typing.get_args(param.kind)}


def _subparsers():
    """Command name -> its argparse subparser."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_every_numeric_flag_has_a_declared_range():
    """Every numeric parameter a command declares -- its own flags and,
    on a sweep-backed command, its scenario's parameters, which a spec
    file can set as well as a flag -- has a declared bound, is built
    into a group whose builder checks it, or is allow-listed with a
    reason.  Every ``int``/``float`` flag is a declared parameter."""
    undeclared = []
    for command, parser in _subparsers().items():
        params, groups = declared(command)
        grouped = {name for group in groups for name in group.params}
        for name, param in params.items():
            if (_kinds(param) & {int, float} and not param.bounds
                    and name not in grouped
                    and name not in UNRANGED_FLAGS_ALLOWED):
                undeclared.append(f"{command} {name}")
            assert not (param.bounds and name in UNRANGED_FLAGS_ALLOWED)
        for action in parser._actions:
            if (action.type in (int, float) and action.dest not in params
                    and action.dest not in UNRANGED_FLAGS_ALLOWED):
                undeclared.append(f"{command} {action.option_strings[0]}")
    assert not undeclared, (
        "numeric flags or parameters with no declared range (declare a "
        "bound with the scenario or in cli._COMMANDS):\n"
        + "\n".join(undeclared))


def _just_past(bound, op, integral):
    """The nearest value the bound ``op bound`` rejects."""
    if integral:
        return {">": bound, ">=": bound - 1, "<": bound, "<=": bound + 1}[op]
    return {">": float(bound), ">=": math.nextafter(bound, -math.inf),
            "<": float(bound), "<=": math.nextafter(bound, math.inf)}[op]


def _flag(name, param):
    """The flag a declared parameter is set by."""
    return "--" + (param.flag or name.replace("_", "-"))


def declared_bound_cases(own):
    """``(command, flag=value)`` just past every declared bound (a bound
    naming another parameter is that parameter's default): with
    ``own``, of every command's own flags, the sweep-backed commands'
    runner flags among them; else of the sweep-backed commands'
    scenario parameters."""
    from repro.cli import _COMMANDS, _SWEEPS
    cases = []
    for command in _COMMANDS if own else _SWEEPS:
        params = (_COMMANDS[command][0] if own
                  else declaration(_SWEEPS[command][0]).params)
        for name, param in params.items():
            for op, bound in param.bounds:
                limit = (params[bound].default if isinstance(bound, str)
                         else bound)
                value = _just_past(limit, op, int in _kinds(param))
                cases.append(pytest.param(
                    command, f"{_flag(name, param)}={value!r}",
                    id=f"{command}-{name}{op}{bound}"))
    return cases


def non_finite_cases():
    """``(command, flag=value)``: every float flag of every command,
    given ``inf`` and ``nan`` (an ``int`` flag's parser refuses both
    words before any check)."""
    return [pytest.param(command, f"{_flag(name, param)}={word}",
                         id=f"{command}-{name}-{word}")
            for command in _subparsers()
            for name, param in declared(command)[0].items()
            if float in _kinds(param)
            for word in ("inf", "nan")]


def _rejected_up_front(capsys, tmp_path, argv):
    """Run ``argv`` (with the ``--data-dir`` or ``--out`` its command
    takes): exit 2, one ``error: bad`` line, nothing made."""
    own = declared(argv[0])[0]
    made = tmp_path / "made"
    for name in ("data_dir", "out"):
        if name in own:
            argv = [*argv, _flag(name, own[name]), str(made)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: bad "), err
    assert not made.exists()
    return err


@pytest.mark.parametrize("command, flag", declared_bound_cases(own=True))
def test_declared_bound_rejects_flag(capsys, tmp_path, command, flag):
    """A value just past a bound a command declares for its own flag is
    one ``error:`` line and exit 2, before the command runs."""
    err = _rejected_up_front(capsys, tmp_path, [command, flag])
    assert flag.split("=")[0] in err


@pytest.mark.parametrize("command, flag", non_finite_cases())
def test_non_finite_flag_is_rejected(capsys, tmp_path, command, flag):
    """``admit --link-gbps inf`` used to print a 0.0 us queue bound,
    ``bounds --burst-kb nan`` a table of ``nanms``, and ``serve`` ran to
    completion on a ``nan`` oversubscription; every float flag of every
    command now refuses ``inf`` and ``nan`` up front."""
    err = _rejected_up_front(capsys, tmp_path, [command, flag])
    assert err.endswith(": must be finite\n"), err


def _spec_for(tmp_path, argv, **edits):
    """A ``campaign --spec`` file for the first cell ``argv`` (a
    sweep-backed command line) runs, with ``edits`` applied to its fixed
    parameters (None deletes one)."""
    from repro.cli import _SWEEPS
    args = build_parser().parse_args(argv)
    scenario, grid = _SWEEPS[args.command]
    declared = declaration(scenario).params
    fixed = {name: value for name, value in vars(args).items()
             if name in declared}
    fixed.update({axis: values[0] for axis, values in grid.items()})
    for name, value in edits.items():
        if value is None:
            del fixed[name]
        else:
            fixed[name] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": args.command, "scenario": scenario,
                                "seeds": [0], "fixed": fixed}))
    return path


def _rejected(capsys, argv, out):
    """Run ``argv --out out``: exit 2, one ``error:`` line, no ``out``."""
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: bad "), err
    assert not out.exists()
    return err


@pytest.mark.parametrize("command, flag", declared_bound_cases(own=False))
def test_declared_bound_rejects_flag_and_spec_alike(capsys, tmp_path,
                                                    command, flag):
    """A value just past a declared bound is the same one-line exit 2
    as a flag and as a ``campaign --spec`` value, before anything is
    written.  On a spec file these used to be tracebacks or runs of
    negative length."""
    by_flag = _rejected(capsys, [command, flag], tmp_path / "flag")
    spec = _spec_for(tmp_path, [command, flag])
    assert _rejected(capsys, ["campaign", "--spec", str(spec)],
                     tmp_path / "spec") == by_flag


#: One bounded numeric parameter per sweep-backed command.
SPEC_PARAMETER = {"churn": "occupancy", "trace": "vms", "hybrid": "fg_vms",
                  "faults": "duration_ms"}


@pytest.mark.parametrize("command", sorted(SPEC_PARAMETER))
@pytest.mark.parametrize("mistake", ["misspelled", "missing", "wrong-type",
                                     "infinite"])
def test_malformed_spec_value_is_one_line(capsys, tmp_path, command,
                                          mistake):
    """A misspelled or missing name, a value of the wrong JSON type and
    ``Infinity`` in a spec file are one ``error:`` line naming the
    parameter, not a traceback from inside a cell."""
    name = SPEC_PARAMETER[command]
    default = build_parser().parse_args([command]).__dict__[name]
    edits, needle = {
        "misspelled": ({name: None, name[:-1]: default},
                       f"parameter {name[:-1]!r}"),
        "missing": ({"pods": None}, "parameter 'pods': missing"),
        "wrong-type": ({name: str(default)},
                       f"{name.replace('_', '-')} {str(default)!r}: must be"),
        "infinite": ({name: math.inf}, f"fixed.{name} is Infinity"),
    }[mistake]
    spec = _spec_for(tmp_path, [command], **edits)
    assert needle in _rejected(capsys, ["campaign", "--spec", str(spec)],
                               tmp_path / "c")


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

    def test_calibration_manifest_values_are_checked(self, capsys,
                                                     tmp_path):
        """The manifest's cell parameters pass its scenario's
        declaration; a string ``vms`` used to be a ``TypeError``
        traceback from inside the fit."""
        calibration = tmp_path / "calibration"
        shutil.copytree(self.CALIBRATION, calibration)
        manifest = calibration / "manifest.json"
        document = json.loads(manifest.read_text(encoding="utf-8"))
        document["cells"][0]["params"]["vms"] = "12"
        manifest.write_text(json.dumps(document), encoding="utf-8")
        self.check_spec_error(
            capsys, ["whatif", "--calibrate", str(calibration)],
            "--calibrate", "--vms '12': must be an integer")

    def test_calibration_manifest_params_must_be_an_object(self, capsys,
                                                           tmp_path):
        """Non-object cell parameters used to be a ``TypeError``
        traceback from inside the declaration check."""
        calibration = tmp_path / "calibration"
        shutil.copytree(self.CALIBRATION, calibration)
        manifest = calibration / "manifest.json"
        document = json.loads(manifest.read_text(encoding="utf-8"))
        document["cells"][0]["params"] = 5
        manifest.write_text(json.dumps(document), encoding="utf-8")
        self.check_spec_error(
            capsys, ["whatif", "--calibrate", str(calibration)],
            "--calibrate", "cells[0].params must be an object, not int")

    @pytest.mark.parametrize("name", [7, ["churn_cell"]],
                             ids=["int", "list"])
    def test_calibration_manifest_scenario_must_be_registered(
            self, capsys, tmp_path, name):
        """An unregistered scenario used to read as ``missing key
        'unknown scenario 7; ...'``, a list one as a ``TypeError``."""
        calibration = tmp_path / "calibration"
        shutil.copytree(self.CALIBRATION, calibration)
        manifest = calibration / "manifest.json"
        document = json.loads(manifest.read_text(encoding="utf-8"))
        document["scenario"] = name
        manifest.write_text(json.dumps(document), encoding="utf-8")
        assert main(["whatif", "--calibrate", str(calibration)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(
            f"error: bad --calibrate {str(calibration)!r}: "
            f"unknown scenario {name!r}; registered: ")

    def test_bad_calibration_dir_is_a_spec_error(self, capsys,
                                                 tmp_path):
        self.check_spec_error(
            capsys, ["whatif", "--calibrate", str(tmp_path)],
            "--calibrate", "neither")

    @pytest.mark.parametrize("manifest, needle", [
        ([], "expected a JSON object, not list"),
        ({"cells": 5}, "'cells' must be a list, not int"),
        ({"cells": [1, "x"]}, "cells[0] must be an object, not int"),
        ({"cells": [{"artifacts": 5}]},
         "cells[0].artifacts must be a list of paths"),
    ], ids=["not-object", "cells-not-list", "cell-not-object",
            "artifacts-not-list"])
    def test_malformed_calibration_manifest_is_a_spec_error(
            self, capsys, tmp_path, manifest, needle):
        """Each of these used to escape as an ``AttributeError`` or
        ``TypeError`` traceback from the manifest walk."""
        (tmp_path / "manifest.json").write_text(json.dumps(manifest),
                                                encoding="utf-8")
        self.check_spec_error(
            capsys, ["whatif", "--calibrate", str(tmp_path)],
            "--calibrate", "manifest.json", needle)

    @pytest.mark.parametrize("name, good, bad_row, needle", [
        ("queues.csv", "tor-down[3],0.0,5,100.0,0.0,300.0,50.0",
         "tor-down[3],0.0,5,100.0", "expected 7 cells"),
        ("queues.csv", "tor-down[3],0.0,5,100.0,0.0,300.0,50.0",
         "tor-down[3],0.0,5,100.0,0.0,300.0,50.0,9", "expected 7 cells"),
        ("queues.csv", "tor-down[3],0.0,5,100.0,0.0,300.0,50.0",
         "tor-down[3],0.0,abc,100.0,0.0,300.0,50.0", "abc"),
    ], ids=["short", "long", "non-numeric"])
    def test_malformed_trace_csv_row_is_a_spec_error(
            self, capsys, tmp_path, name, good, bad_row, needle):
        """The calibration reads ``queues.csv`` (``latency.csv`` is
        only required beside it; its rows are parsed by the readers'
        own tests)."""
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

    def test_both_sources_number_tenants_from_1(self, capsys):
        """``--calibrate`` places the calibration's tenants before the
        what-if ones; it used to print the same placements as tenants 3
        and 4 where ``--model`` printed tenants 1 and 2."""
        lines = {}
        for source in (["--calibrate", str(self.CALIBRATION)],
                       ["--model", str(self.MODEL)]):
            assert main(["whatif", *source, "--class-a", "2"]) == 0
            lines[source[0]] = [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("tenant ")]
        assert [line.split(":")[0] for line in lines["--calibrate"]] == \
            ["tenant 1", "tenant 2"]
        assert lines["--calibrate"] == lines["--model"]

    def test_committed_model_is_what_the_tree_fits(self, capsys, tmp_path,
                                                   monkeypatch):
        """Refitting the committed calibration corpus reproduces
        ``model.json`` byte for byte (numpy's convolution is not in the
        fit, but the sample quantization and the JSON layout are)."""
        monkeypatch.chdir(REPO)
        model_path = tmp_path / "model.json"
        assert main(["whatif", "--calibrate",
                     "campaigns/whatif-error/calibration",
                     "--save-model", str(model_path)]) == 0
        capsys.readouterr()
        assert model_path.read_bytes() == self.MODEL.read_bytes()

    @staticmethod
    def _set_first(kind, key, value):
        def doctor(model):
            model["hop_samples"][kind][key][0] = value
        return doctor

    @staticmethod
    def _set_all(key, value):
        def doctor(model):
            for entry in model["hop_samples"].values():
                entry[key] = [value] * len(entry[key])
        return doctor

    @pytest.mark.parametrize("doctor, needle", [
        (_set_first.__func__("tor-down", "delays_us", -30.0), "delays"),
        (_set_first.__func__("tor-down", "delays_us", -4.0), "delays"),
        (_set_all.__func__("delays_us", -4.0), "delays"),
        (_set_first.__func__("tor-down", "delays_us", float("nan")),
         "delays"),
        (_set_all.__func__("weights", -1.0), "weights"),
    ], ids=["delay-out-of-grid", "delay-wraps-into-grid",
            "all-delays-negative", "delay-nan", "negative-weights"])
    def test_malformed_model_value_is_a_spec_error(self, capsys, tmp_path,
                                                   doctor, needle):
        """A negative delay used to be an ``IndexError`` traceback or,
        between -2 us and -(bins x 2 us), to wrap silently into the top
        bins; all-negative delays and a NaN were tracebacks; negative
        weights exited 0 with a collapsed distribution."""
        model = json.loads(self.MODEL.read_text(encoding="utf-8"))
        doctor(model)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(model))
        self.check_spec_error(
            capsys, ["whatif", "--model", str(bad), "--class-a", "2"],
            "--model", needle, "finite and >= 0")
