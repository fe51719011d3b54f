"""Smoke tests: the fast example scripts and doc examples run end to end."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def run_example(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "bound holds!" in out
        assert "switch drops: 0" in out

    def test_pacer_wire_view(self):
        out = run_example("pacer_wire_view.py")
        assert "67.2 ns" in out
        assert "void" in out

    def test_campaign_sweep(self):
        out = run_example("campaign_sweep.py", timeout=300.0)
        assert out.count("byte-identical") == 2
        assert "DIFFER" not in out
        assert "resuming" in out
        for policy in ("locality", "oktopus", "silo"):
            assert policy in out


def architecture_doc_commands():
    """The commands between ARCHITECTURE.md's ``hybrid-examples`` markers."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    block = text.split("<!-- hybrid-examples:begin -->")[1]
    block = block.split("<!-- hybrid-examples:end -->")[0]
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


class TestArchitectureDocExamples:
    """The hybrid tutorial's CLI examples stay runnable verbatim."""

    def test_markers_present_and_nonempty(self):
        commands = architecture_doc_commands()
        assert commands, "no commands between the hybrid-examples markers"
        assert any("hybrid" in c for c in commands)

    @pytest.mark.parametrize(
        "command", architecture_doc_commands(),
        ids=lambda c: " ".join(shlex.split(c)[3:5]))
    def test_example_runs_verbatim(self, command, tmp_path):
        argv = shlex.split(command.replace("/tmp/repro-demo",
                                           str(tmp_path)))
        assert argv[:3] == ["python", "-m", "repro"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *argv[1:]], cwd=REPO,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
