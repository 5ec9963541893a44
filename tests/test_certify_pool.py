"""Every command of the benchmark's certify pool against its pinned outcome.

A benchmark run checks only the commands its seed draws; this runs all of
them through `cli.main` and checks each with the benchmark's own
`workloads.check`, reading `perfbench/workloads.py` and `perfbench/pinned.json`.
"""

import importlib
import json
from pathlib import Path

from qselftest import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_certify_pool_command_matches_its_pin(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    pins = json.loads((PERFBENCH / "pinned.json").read_text())
    monkeypatch.chdir(tmp_path)
    wl.write_pool_circuits()
    cmds = wl.certify_pool()
    assert len(cmds) == 125
    failures = []
    for cmd in cmds:
        rc = cli.main(list(cmd.argv) + ["--out", "report.json"])
        capsys.readouterr()
        data = Path("report.json").read_bytes()
        Path("report.json").unlink()
        error = wl.check(cmd, rc, data, json.loads(data), pins)
        if error is not None:
            failures.append(f"{cmd.key}: {error}")
    assert failures == []
