"""Seed-7 ladder-exact reports against their pinned bytes.

The benchmark checks a ladder-exact report only by its exit code and
max_deviation, so a change that moves the bits of a record passes it. This
pins the sha256 of each seed-7 report: for the rungs of up to 256 amplitudes
(n = 2 and n = 4) as the op-list walker that batched branch evaluation
replaced wrote them, and for the n = 6, depolarized n = 3 (4,096 amplitudes)
and n = 8 rungs as the reduced-state path writes them. Every rung writes the
same bytes under one BLAS thread and under two; the reduced-state rungs are
checked under both, each in a process of its own, as the thread count is
fixed when BLAS loads.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qselftest import cli

PINS = {
    "ladder_n2_t4.json": "89486fad551bf4bc79749d2b07235b9a48f7c903c76e71b06b933f0bdf68de15",
    "ladder_n2_t8.json": "7d51c67041410b09f59e2a4a600d25de9839dd961d4b7e83396d634734868393",
    "ladder_n2_t16.json": "e2bdfde6b50cc1262bf68706e8440cb554180985133995340c0c3365d3fc6d4f",
    "ladder_n2_t32.json": "59f7b9758658d51515dc4273c1f1d1c2685955d1147854565f222cdaab02bc4d",
    "ladder_n4_t4.json": "e85cd36c50d5b4f0609465a6743e852455a3555e86c04b71eda8e27806dc761a",
    "ladder_n6_t4.json": "173c18de9e1771737eb4a89db21e50101a587d9e4e489e6a9cbe28378cf8a9a4",
    "ladder_depolarized_n3_t4.json": (
        "eb49711232f4c3cc5fc8b111815bd98919a33c4e18023213ccaf0ed9bd36804d"
    ),
}


def test_seed_7_ladder_reports_match_their_pins(pinned_pool, capsys):
    wl, _ = pinned_pool
    cmds = {cmd.argv[cmd.argv.index("--circuit") + 1]: cmd for cmd in wl.build("ladder-exact", 7)}
    assert set(cmds) == set(PINS) | {"ladder_n8_t4.json"}
    got = {}
    for name in PINS:
        assert cli.main(list(cmds[name].argv) + ["--out", "report.json"]) == 0
        capsys.readouterr()
        got[name] = hashlib.sha256(Path("report.json").read_bytes()).hexdigest()
    assert got == PINS


N8_PIN = "58acabcee630a9b4be1ffc2e14738e742214c24d1c53dbaa64bc3ef4f9efc1a9"


def report_hash_under_blas_threads(wl, name, threads):
    """The sha256 of the seed-7 report of rung name, written by a process of
    its own with BLAS held to threads threads."""
    cmd = next(c for c in wl.build("ladder-exact", 7) if name in c.argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    main = "import sys; from qselftest import cli; sys.exit(cli.main(sys.argv[1:]))"
    argv = [sys.executable, "-c", main, *cmd.argv, "--out", "report.json"]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return hashlib.sha256(Path("report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seed_7_n8_report_matches_its_pin_under_blas_threads(pinned_pool, threads):
    wl, _ = pinned_pool
    assert report_hash_under_blas_threads(wl, "ladder_n8_t4.json", threads) == N8_PIN


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", ["ladder_n6_t4.json", "ladder_depolarized_n3_t4.json"])
def test_seed_7_4096_amplitude_reports_match_their_pins_under_blas_threads(
    pinned_pool, name, threads
):
    wl, _ = pinned_pool
    assert report_hash_under_blas_threads(wl, name, threads) == PINS[name]
