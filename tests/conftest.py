"""Fixtures shared by the tests that check benchmark pool commands."""

import importlib
import json
from pathlib import Path

import pytest

from qselftest import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def workloads(monkeypatch):
    """The benchmark's `perfbench/workloads.py`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.fixture()
def pinned_pool(workloads, tmp_path, monkeypatch, capsys):
    """(workloads, failures): the benchmark's `perfbench/workloads.py`, with
    the pool's circuit files written into a temporary working directory, and
    a function that runs commands through `cli.main --out` and returns why
    each one fails `workloads.check` against `perfbench/pinned.json`. Every
    report it reads must be the stdlib's `json.dumps(sort_keys=True,
    indent=2)` text of its own content, plus a newline."""
    wl = workloads
    pins = json.loads((PERFBENCH / "pinned.json").read_text())
    monkeypatch.chdir(tmp_path)
    wl.write_pool_circuits()

    def failures(cmds):
        found = []
        for cmd in cmds:
            rc = cli.main(list(cmd.argv) + ["--out", "report.json"])
            capsys.readouterr()
            data = Path("report.json").read_bytes()
            Path("report.json").unlink()
            report = json.loads(data)
            canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
            assert data == canonical.encode(), f"{cmd.key}: report is not canonical"
            error = wl.check(cmd, rc, data, report, pins)
            if error is not None:
                found.append(f"{cmd.key}: {error}")
        return found

    return wl, failures
