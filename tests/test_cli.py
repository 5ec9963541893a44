"""Command-line behavior: exit codes, reports, determinism, config errors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qselftest
from qselftest import __version__
from qselftest import cli


@pytest.fixture()
def h_circuit_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(
        json.dumps(
            {"n": 1, "input": "0", "gates": [{"label": "g1", "wires": [0], "builtin": "H"}]}
        )
    )
    return str(path)


@pytest.fixture()
def bell_circuit_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "input": "00",
                "gates": [
                    {"label": "g1", "wires": [0], "builtin": "H"},
                    {"label": "g2", "wires": [0, 1], "builtin": "CNOT"},
                ],
            }
        )
    )
    return str(path)


class TestExitCodes:
    def test_honest_epr_accepts(self, capsys):
        code = cli.main(["epr-test", "--device", "builtin:honest", "--eps", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: accept" in out
        assert out.count("\n") >= 37  # header + 36 rows + summary

    def test_cheat_circuit_rejects(self, h_circuit_file, capsys):
        code = cli.main(
            [
                "circuit-test",
                "--device",
                "builtin:vandam",
                "--circuit",
                h_circuit_file,
                "--x",
                "0",
                "--eps",
                "0.05",
            ]
        )
        assert code == 1
        assert "verdict: reject" in capsys.readouterr().out

    def test_honest_circuit_accepts(self, bell_circuit_file, capsys):
        code = cli.main(
            [
                "circuit-test",
                "--device",
                "builtin:honest",
                "--circuit",
                bell_circuit_file,
                "--x",
                "00",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "conspiracy@0" in out
        assert "tomography@1" in out

    def test_gallery_lists_builtins(self, capsys):
        assert cli.main(["gallery"]) == 0
        out = capsys.readouterr().out
        for name in ("builtin:honest", "builtin:vandam", "builtin:rotated", "builtin:depolarized"):
            assert name in out

    def test_extract_verdicts(self, capsys):
        assert cli.main(["extract", "--device", "builtin:honest", "--eps", "0.001"]) == 0
        assert cli.main(["extract", "--device", "builtin:vandam", "--eps", "0.1"]) == 1

    def test_tomo_verdicts(self, capsys):
        assert cli.main(["tomo", "--device", "builtin:honest"]) == 0
        assert cli.main(["tomo", "--device", "builtin:vandam"]) == 1


class TestConfigErrors:
    def test_eps_out_of_range(self, capsys):
        code = cli.main(["epr-test", "--device", "builtin:honest", "--eps", "1.5"])
        assert code == 2
        assert "--eps" in capsys.readouterr().err

    def test_gamma_out_of_range(self, capsys):
        code = cli.main(["epr-test", "--device", "builtin:honest", "--gamma", "0"])
        assert code == 2
        assert "--gamma" in capsys.readouterr().err

    def test_sampled_requires_seed(self, capsys):
        code = cli.main(["epr-test", "--device", "builtin:honest", "--mode", "sampled"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_builtin(self, capsys):
        code = cli.main(["epr-test", "--device", "builtin:nope"])
        assert code == 2
        assert "gallery" in capsys.readouterr().err

    def test_missing_circuit_file(self, capsys):
        code = cli.main(
            ["circuit-test", "--device", "builtin:honest", "--circuit", "/nope.json", "--x", "0"]
        )
        assert code == 2

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["epr-test"])  # --device missing
        assert err.value.code == 2

    @pytest.mark.parametrize("wire", ["5", "-1"])
    @pytest.mark.parametrize("command", ["epr-test", "tomo", "extract"])
    def test_wire_out_of_range(self, command, wire, capsys):
        code = cli.main([command, "--device", "builtin:honest", "--wire", wire])
        assert code == 2
        assert f"wire {wire}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_device_parameter(self, value, capsys):
        code = cli.main(["epr-test", "--device", f"builtin:rotated?theta={value}"])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    def test_extract_gate_index_needs_circuit(self, capsys):
        code = cli.main(
            ["extract", "--device", "builtin:honest", "--gate-index", "1"]
        )
        assert code == 2
        assert "--circuit" in capsys.readouterr().err


class TestReports:
    def test_report_shape_and_version(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        cli.main(
            ["epr-test", "--device", "builtin:honest", "--out", str(out)]
        )
        report = json.loads(out.read_text())
        assert report["version"] == __version__
        assert report["command"] == "epr-test"
        assert report["config"]["eps"] == 0.1
        assert "out" not in report["config"]
        assert report["result"]["accepted"] is True
        assert len(report["result"]["records"]) == 36

    def test_sampled_reports_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            cli.main(
                [
                    "epr-test",
                    "--device",
                    "builtin:depolarized?p=0.05",
                    "--mode",
                    "sampled",
                    "--seed",
                    "42",
                    "--out",
                    str(p),
                ]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sampled_report_independent_of_hash_seed(self, bell_circuit_file, tmp_path):
        # the computation histogram is a dict of outcome strings; its TV
        # distance must not depend on the interpreter's string hashing
        src = str(Path(qselftest.__file__).resolve().parents[1])
        texts = []
        for hash_seed in ("0", "1", "2"):
            out = tmp_path / f"h{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            subprocess.run(
                [sys.executable, "-m", "qselftest.cli", "circuit-test",
                 "--circuit", bell_circuit_file, "--x", "01",
                 "--device", "builtin:depolarized?p=0.05",
                 "--mode", "sampled", "--seed", "0", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_different_seed_changes_report(self, tmp_path, capsys):
        texts = []
        for seed in ("1", "2"):
            p = tmp_path / f"{seed}.json"
            cli.main(
                [
                    "epr-test",
                    "--device",
                    "builtin:depolarized?p=0.05",
                    "--mode",
                    "sampled",
                    "--seed",
                    seed,
                    "--out",
                    str(p),
                ]
            )
            texts.append(p.read_text())
        assert texts[0] != texts[1]

    def test_exit_code_agrees_with_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(
            [
                "epr-test",
                "--device",
                "builtin:depolarized?p=0.2",
                "--eps",
                "0.01",
                "--out",
                str(out),
            ]
        )
        report = json.loads(out.read_text())
        assert code == 1
        assert report["result"]["accepted"] is False

    def test_forced_y_recorded(self, h_circuit_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        cli.main(
            [
                "circuit-test",
                "--device",
                "builtin:honest",
                "--circuit",
                h_circuit_file,
                "--x",
                "0",
                "--force-y",
                "1",
                "--out",
                str(out),
            ]
        )
        report = json.loads(out.read_text())
        assert report["result"]["y"] == "1"
        assert report["config"]["force_y"] == "1"
