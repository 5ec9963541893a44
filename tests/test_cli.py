"""Command-line behavior: exit codes, reports, determinism, config errors."""

import ast
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qselftest
import numpy as np

from qselftest import __version__
from qselftest import cli
from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest import protocol as pr


def _fresh_interpreter(code: str) -> str:
    """The stdout of code run by a new interpreter that imports this
    checkout's qselftest."""
    src = str(Path(qselftest.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    return run.stdout


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


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


ONE_WIRE = {"n_wires": 1, "a_dims": [2], "b_dims": [2]}
EYE2 = dv.matrix_to_json(np.eye(2))
# the pair (|00> + |11>)/sqrt(2) of one 2x2 wire, as [re, im] amplitudes
_EPR_VECTOR = [[0.5 ** 0.5, 0], [0, 0], [0, 0], [0.5 ** 0.5, 0]]


def a_frames(pi4):
    """Device-file frames of wire 0 on side A: ideal at 0 and pi/8, pi4 at pi/4."""
    mats = {"0": hb.projector_angle(0.0).matrix,
            "pi/8": hb.projector_angle(math.pi / 8).matrix, "pi/4": pi4}
    return [{"side": "A", "wire": 0, "angle": k, "matrix": dv.matrix_to_json(m)}
            for k, m in mats.items()]


def with_nan(m, entry=(1, 1)):
    m = np.array(m, dtype=complex)
    m[entry] = math.nan
    return m


NAN_DEVICES = {
    "gate": {"layout": ONE_WIRE, "gates": [
        {"side": "A", "label": "g1", "wires": [0],
         "matrix": dv.matrix_to_json(with_nan(dv.builtin_gate("H")))}]},
    "frame": {"layout": ONE_WIRE,
              "frames": a_frames(with_nan(hb.projector_angle(math.pi / 4).matrix))},
    "source": {"layout": ONE_WIRE, "source": {"kind": "matrix", "params": {
        "per_wire": [[[0.5 ** 0.5, 0], [0, 0], [0, 0], [math.nan, 0]]]}}},
}


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

    def test_deviation_between_eps_and_twice_eps_rejects(self, tmp_path, capsys):
        # fig-1 on a depolarized source deviates by 0.014775, inside
        # (eps, 2 eps] for eps = 0.01: exit 1, not 0
        gates = [
            {"label": "g1", "wires": [0], "builtin": "H"},
            {"label": "g2", "wires": [0, 1], "builtin": "CNOT"},
            {"label": "g3", "wires": [1], "builtin": "X"},
        ]
        circ = tmp_path / "fig1.json"
        circ.write_text(json.dumps({"n": 2, "input": "00", "gates": gates}))
        argv = ["circuit-test", "--device", "builtin:depolarized?p=0.03"]
        argv += ["--circuit", str(circ), "--x", "00", "--eps", "0.01"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "verdict: reject" in out
        assert "max_deviation=0.014775" in out

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

    @pytest.mark.parametrize("device", ["builtin:honest", "builtin:rotated?theta=0.5"])
    def test_three_wire_gate_extract(self, device, tmp_path, capsys):
        # 9^3 = 729 generators span the 64 dimensions of S: several Gram-Schmidt blocks
        toffoli = np.eye(8)
        toffoli[6:, 6:] = [[0.0, 1.0], [1.0, 0.0]]
        circuit = write_json(tmp_path, "toffoli.json", {"n": 3, "input": "000", "gates": [
            {"label": "g1", "wires": [0], "builtin": "H"},
            {"label": "g2", "wires": [1], "builtin": "H"},
            {"label": "g3", "wires": [0, 1, 2], "matrix": toffoli.tolist()}]})
        out = str(tmp_path / "report.json")
        argv = ["extract", "--device", device, "--circuit", circuit, "--gate-index", "3"]
        assert cli.main(argv + ["--out", out]) == 0
        rep = json.loads(Path(out).read_text())["result"]["report"]
        assert len(rep["projector_residuals"]) == 36
        assert rep["s_rank"] == 64
        residuals = list(rep["projector_residuals"].values()) + [
            rep[k] for k in ("state_residual", "gate_residual", "factorization_residual")]
        assert max(residuals) <= 1e-9


class TestConfigErrors:
    def test_eps_out_of_range(self, capsys):
        code = cli.main(["epr-test", "--device", "builtin:honest", "--eps", "1.5"])
        assert code == 2
        assert "--eps" in capsys.readouterr().err

    def test_gamma_out_of_range(self, capsys):
        code = cli.main(["epr-test", "--device", "builtin:honest", "--gamma", "0"])
        assert code == 2
        assert "--gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [("--eps", "1e-10"), ("--eps", "1e-160"), ("--eps", "1e-200"),
                 ("--gamma", "1e-320")]
    )
    @pytest.mark.parametrize("command", ["epr-test", "circuit-test"])
    def test_sample_count_too_large(self, command, flag, h_circuit_file, capsys):
        # a Hoeffding count past what NumPy can draw, or an infinite one,
        # is a config error, not a rejected device
        argv = [command, "--device", "builtin:honest", "--mode", "sampled", "--seed", "0"]
        if command == "circuit-test":
            argv += ["--circuit", h_circuit_file, "--x", "0"]
        code = cli.main(argv + list(flag))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "samples per statistic" in err

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

    @pytest.mark.parametrize("device", ["builtin:honest", "builtin:rotated?theta=0.3"])
    @pytest.mark.parametrize("label, wires", [("not0", [1]), ("not1", [1]), ("not1", [0])])
    def test_compensating_not_label_refused(self, device, label, wires, tmp_path, capsys):
        # the honest gate table holds the NOT on wire w under not<w>: a
        # circuit gate of that name ran as that NOT, and X on wire 1 labelled
        # not0 accepted with y = 11 and tv = 1
        circuit = {"n": 2, "input": "00",
                   "gates": [{"label": label, "wires": wires, "builtin": "X"}]}
        path = write_json(tmp_path, "c.json", circuit)
        argv = ["circuit-test", "--device", device, "--circuit", path, "--x", "00"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: gate {label}: label is reserved for the compensating NOT " \
            f"on wire {label[-1]}\n"

    @pytest.mark.parametrize("label", ["not2", "not00", "Not0", "not"])
    def test_other_not_labels_run(self, label, tmp_path, capsys):
        # only not<w> for a wire w of the circuit names a compensating NOT
        circuit = {"n": 2, "input": "00",
                   "gates": [{"label": label, "wires": [1], "builtin": "X"}]}
        path = write_json(tmp_path, "c.json", circuit)
        argv = ["circuit-test", "--device", "builtin:honest", "--circuit", path, "--x", "00"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "tv=0.000000  outcomes={'01': 1.0}" in out

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["epr-test"])  # --device missing
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag", [("--gamma", "0.9"), ("--seed", "3"), ("--mode", "sampled"), ("--mode", "exact")]
    )
    @pytest.mark.parametrize("command", ["extract", "tomo"])
    def test_sampling_flags_refused_by_exact_commands(self, command, flag, capsys):
        # extract and tomo are exact: a sampling flag would do nothing there
        # but show in the report's config as if it had
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--device", "builtin:honest", *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("wire", ["5", "-1"])
    @pytest.mark.parametrize("command", ["epr-test", "tomo", "extract"])
    def test_wire_out_of_range(self, command, wire, capsys):
        code = cli.main([command, "--device", "builtin:honest", "--wire", wire])
        assert code == 2
        assert f"wire {wire}" in capsys.readouterr().err

    # 1e999 is a JSON number by its syntax, which float() reads as inf
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_device_parameter(self, value, capsys):
        code = cli.main(["epr-test", "--device", f"builtin:rotated?theta={value}"])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", " 1", "1 ", "+.5", ".5", "1."])
    def test_device_parameter_takes_a_json_number_only(self, value, capsys):
        # float() reads each of these; theta=1_0 ran as theta = 10
        code = cli.main(["epr-test", "--device", f"builtin:rotated?theta={value}"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "bad device parameter" in err

    @pytest.mark.parametrize(
        "spec",
        ["builtin:rotated?theta=0.5", "builtin:rotated?theta=-0.3",
         "builtin:depolarized?p=1e-3"],
    )
    def test_device_parameter_json_number_runs(self, spec, capsys):
        assert cli.main(["epr-test", "--device", spec]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "spec", ["builtin:depolarized?P=0.3", "builtin:honest?theta=1"]
    )
    def test_misspelled_device_parameter(self, spec, capsys):
        # at p = 0 or on the honest device these would run and accept
        code = cli.main(["epr-test", "--device", spec])
        assert code == 2
        assert "takes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, key", [("builtin:rotated", "theta"), ("builtin:depolarized", "p")]
    )
    def test_missing_device_parameter(self, spec, key, capsys):
        # without its parameter each ran as the honest device and accepted
        code = cli.main(["epr-test", "--device", spec])
        assert code == 2
        assert f"requires {key!r}" in capsys.readouterr().err

    def test_extract_gate_index_needs_circuit(self, capsys):
        code = cli.main(
            ["extract", "--device", "builtin:honest", "--gate-index", "1"]
        )
        assert code == 2
        assert "--circuit" in capsys.readouterr().err


    def test_near_tolerance_projector_accepted_by_every_command(self, tmp_path, capsys):
        # idempotent to 3e-11, inside the frame tolerance; 2P - Id is then
        # unitary only to 1.2e-10, which no later check may hold against it
        pi4 = np.full((2, 2), 0.5) + 3e-11 * np.eye(2)
        dev = write_json(tmp_path, "near.json", {"layout": ONE_WIRE, "frames": a_frames(pi4)})
        for command in ("epr-test", "extract", "tomo"):
            assert cli.main([command, "--device", dev]) == 0, command

    @pytest.mark.parametrize("part", sorted(NAN_DEVICES))
    @pytest.mark.parametrize("command", ["epr-test", "extract", "tomo", "circuit-test"])
    def test_non_finite_device_file(self, command, part, h_circuit_file, tmp_path, capsys):
        dev = write_json(tmp_path, "nan.json", NAN_DEVICES[part])
        argv = [command, "--device", dev]
        if command == "circuit-test":
            argv += ["--circuit", h_circuit_file, "--x", "0"]
        assert cli.main(argv) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["circuit-test", "extract"])
    def test_non_finite_circuit_gate(self, command, tmp_path, capsys):
        gate = {"label": "g1", "wires": [0], "matrix": [[math.nan, 1.0], [1.0, 0.0]]}
        circ = write_json(tmp_path, "c.json", {"n": 1, "gates": [gate]})
        argv = [command, "--device", "builtin:honest", "--circuit", circ]
        argv += ["--x", "0"] if command == "circuit-test" else ["--gate-index", "1"]
        assert cli.main(argv) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unreadable_device_path_exits_two(self, tmp_path, capsys):
        assert cli.main(["epr-test", "--device", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["epr-test", "circuit-test", "extract", "tomo"])
    def test_out_path_with_nul_exits_two(self, command, h_circuit_file, tmp_path, capsys):
        # open() refuses it with ValueError, which main would not catch
        argv = [command, "--device", "builtin:honest", "--out", str(tmp_path / "a\0b")]
        if command == "circuit-test":
            argv += ["--circuit", h_circuit_file, "--x", "0"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: --out must not contain a NUL character")

    @pytest.mark.parametrize("command", ["epr-test", "circuit-test", "extract", "tomo"])
    def test_out_path_with_lone_surrogate_exits_two(
        self, command, h_circuit_file, tmp_path, capsys
    ):
        # no file system encoding takes it, so open() would raise
        # UnicodeEncodeError, and only after the whole run
        argv = [command, "--device", "builtin:honest", "--out", str(tmp_path / "a\ud800")]
        if command == "circuit-test":
            argv += ["--circuit", h_circuit_file, "--x", "0"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: --out is not a file name this system can encode")

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("device", "{not json"),
            ("circuit", "{not json"),
            ("device", {"layout": ONE_WIRE, "source": {
                "kind": "matrix", "params": {"per_wire": [[[1, 0], [0]]]}}}),
            ("device", {"layout": ONE_WIRE,
                        "gates": [{"side": "A", "label": "g1", "wires": [0]}]}),
            ("circuit", {"n": 1, "gates": ["H"]}),
            ("circuit", {"n": 1, "gates": [
                {"label": "g1", "wires": [0], "matrix": [[1, 0], [0]]}]}),
        ],
        ids=["device-json", "circuit-json", "ragged-source", "gate-without-matrix",
             "non-object-gate", "ragged-circuit-matrix"],
    )
    def test_malformed_file_exits_two(self, kind, content, h_circuit_file, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", content)
        if kind == "device":
            argv = ["epr-test", "--device", path]
        else:
            argv = ["circuit-test", "--device", "builtin:honest", "--circuit", path,
                    "--x", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "device",
        [
            {"layout": ONE_WIRE, "source": "epr"},
            {"layout": ONE_WIRE, "source": {"kind": "depolarized", "params": [0.1]}},
            {"layout": ONE_WIRE, "gates": 5},
            {"layout": ONE_WIRE, "frames": 5},
            {"layout": ONE_WIRE, "source": {"kind": "matrix", "params": {"per_wire": 5}}},
            {"layout": {**ONE_WIRE, "e_dims": ["two"]}},
            {"layout": {**ONE_WIRE, "c_dim": "two"}},
            {"layout": ONE_WIRE, "source": {"kind": "depolarized", "params": {"p": "x"}}},
            {"layout": ONE_WIRE, "frames": [
                {"side": "A", "wire": 0, "angle": ["0"], "matrix": []}]},
            {"layout": ONE_WIRE, "frames": [
                {"side": "C", "wire": 0, "angle": "0", "matrix": EYE2}]},
            {"layout": ONE_WIRE, "gates": [
                {"side": "A", "label": ["g1"], "wires": [0], "matrix": EYE2}]},
            {"layout": {**ONE_WIRE, "n_wires": math.inf}},
            {"layout": ONE_WIRE, "source": {"kind": "depolarized", "params": {"p": 2**1100}}},
            {"layout": ONE_WIRE, "gates": [
                {"side": "C", "label": "g1", "wires": [0], "matrix": EYE2}]},
            # each below ran before, as if the bad entry were not there
            {"layout": ONE_WIRE, "source": {"kind": "depolarized", "params": {"P": 0.5}}},
            {"layout": ONE_WIRE, "source": {"kind": "depolarized"}},
            {"layout": ONE_WIRE, "source": {"kind": "epr", "params": {"p": 0.5}}},
            {"layout": ONE_WIRE, "source": {"kind": "matrix", "params": {
                "per_wire": [_EPR_VECTOR], "p": 0.5}}},
            {"layout": ONE_WIRE, "gates": [
                {"side": "A", "label": "g1", "wires": [0], "matrix": EYE2}] * 2},
            {"layout": ONE_WIRE, "frames": a_frames(hb.projector_angle(math.pi / 4).matrix)
             + a_frames(hb.projector_angle(math.pi / 4).matrix)[:1]},
        ],
        ids=["source-not-object", "params-list", "gates-not-list", "frames-not-list",
             "per-wire-not-list", "e-dims-not-numeric", "c-dim-not-numeric",
             "p-not-numeric", "frame-angle-list", "frame-side-unknown",
             "gate-label-list", "n-wires-infinite", "p-overflows-float",
             "gate-side-unknown", "depolarized-unknown-param", "depolarized-without-p",
             "epr-with-params", "matrix-unknown-param", "gate-listed-twice",
             "frame-listed-twice"],
    )
    def test_malformed_device_shape_exits_two(self, device, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", device)
        assert cli.main(["epr-test", "--device", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "circuit",
        [
            {"n": 2**70},
            {"n": 1, "gates": 5},
            {"n": 1, "input": ["0"]},
            {"n": 1, "gates": [{"label": ["g1"], "wires": [0], "builtin": "H"}]},
            {"n": 1, "gates": [{"wires": [-1], "builtin": "H"}]},
        ],
        ids=["n-huge", "gates-not-list", "input-list", "label-list", "wire-negative"],
    )
    def test_malformed_circuit_shape_exits_two(self, circuit, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", circuit)
        argv = ["circuit-test", "--device", "builtin:honest", "--circuit", path, "--x", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", [0.5, 1.9, True, "1"], ids=repr)
    @pytest.mark.parametrize(
        "kind, field",
        [("device", f) for f in ("n_wires", "a_dims", "b_dims", "e_dims", "c_dim",
                                 "frame wire")]
        + [("circuit", "n"), ("circuit", "gate wires")],
    )
    def test_integer_field_takes_a_json_integer_only(self, kind, field, value, tmp_path, capsys):
        # int() would read 1.9 as 1, and True and "1" as 1, and run the file
        if kind == "device":
            layout = dict(ONE_WIRE)
            frames = a_frames(hb.projector_angle(math.pi / 4).matrix)
            if field == "frame wire":
                frames[0]["wire"] = value
            else:
                layout[field] = [value] if field.endswith("_dims") else value
            path = write_json(tmp_path, "bad.json", {"layout": layout, "frames": frames})
            argv = ["epr-test", "--device", path]
        else:
            gate = {"label": "g1", "wires": [0], "builtin": "H"}
            circuit = {"n": 1, "input": "0", "gates": [gate]}
            if field == "n":
                circuit["n"] = value
            else:
                gate["wires"] = [value]
            path = write_json(tmp_path, "bad.json", circuit)
            argv = ["circuit-test", "--device", "builtin:honest", "--circuit", path]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "must be an integer" in err

    @pytest.mark.parametrize(
        "device, message",
        [
            ({"source": {"kind": "depolarized", "params": {"P": 0.5}}},
             "source: kind 'depolarized' takes p, not 'P'"),
            ({"source": {"kind": "depolarized"}}, "source: kind 'depolarized' requires params.p"),
            ({"source": {"kind": "epr", "params": {"p": 0.5}}},
             "source: kind 'epr' takes no params, not 'p'"),
            ({"source": {"kind": "matrix", "params": {"per_wire": [_EPR_VECTOR], "p": 0.5}}},
             "source: kind 'matrix' takes per_wire, not 'p'"),
            ({"source": {"kind": "matrix"}}, "source: kind 'matrix' requires params.per_wire"),
            ({"gates": [{"side": "B", "label": "g1", "wires": [0], "matrix": EYE2}] * 2},
             "gate (B, g1): listed twice"),
            ({"frames": [{"side": "B", "wire": 0, "angle": "pi/8", "matrix": dv.matrix_to_json(
                hb.projector_angle(math.pi / 8).matrix)}] * 2},
             "frame (B, 0, pi/8): listed twice"),
        ],
        ids=["depolarized-P", "depolarized-no-p", "epr-p", "matrix-p", "matrix-no-per-wire",
             "gate-twice", "frame-twice"],
    )
    def test_refused_entry_is_named(self, device, message, tmp_path, capsys):
        # a source takes the params its kind names, as a builtin: URI does,
        # and a gate or frame is listed once, as a circuit's gate label is;
        # the one stderr line names the key or entry at fault
        path = write_json(tmp_path, "bad.json", {"layout": ONE_WIRE, **device})
        assert cli.main(["epr-test", "--device", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("value", [True, "0.1"], ids=repr)
    def test_p_takes_a_json_number_only(self, value, tmp_path, capsys):
        source = {"kind": "depolarized", "params": {"p": value}}
        path = write_json(tmp_path, "bad.json", {"layout": ONE_WIRE, "source": source})
        assert cli.main(["epr-test", "--device", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: source: p: must be a number")

    @pytest.mark.parametrize("command", ["epr-test", "extract", "tomo", "circuit-test"])
    def test_non_projector_device_file(self, command, h_circuit_file, tmp_path, capsys):
        # the ideal qubit frames are checked once and shared; a loaded frame
        # is still checked, also after an honest run has built the shared ones
        assert cli.main(["epr-test", "--device", "builtin:honest"]) == 0
        dev = write_json(tmp_path, "half.json", {"layout": ONE_WIRE,
                                                 "frames": a_frames(0.5 * np.eye(2))})
        argv = [command, "--device", dev]
        if command == "circuit-test":
            argv += ["--circuit", h_circuit_file, "--x", "0"]
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert "not idempotent" in capsys.readouterr().err


class TestInProcess:
    def test_calls_leave_no_state_for_the_next(
        self, bell_circuit_file, tmp_path, monkeypatch, capsys
    ):
        # main shares one parser, and devices share their ideal parts, across
        # calls in one process; each call must still print, write and exit
        # as the same command does in a fresh interpreter
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        device = ["--device", "builtin:rotated?theta=0.5"]
        circuit_test = ["circuit-test", *device, "--circuit", bell_circuit_file,
                        "--x", "00"]
        extract = ["extract", *device, "--circuit", bell_circuit_file, "--gate-index", "2"]
        out = tmp_path / "r.json"
        written = ["--out", str(out)]
        steps = [circuit_test + written, ["circuit-test", "--x"], ["--version"],
                 extract + written, circuit_test + written]
        src = str(Path(qselftest.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

        def report():
            data = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return data

        fresh = {}
        for argv in steps:
            if tuple(argv) not in fresh:
                run = subprocess.run(
                    [sys.executable, "-m", "qselftest.cli", *argv],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                fresh[tuple(argv)] = (run.returncode, run.stdout, run.stderr, report())
        assert [fresh[tuple(argv)][0] for argv in steps] == [0, 2, 0, 0, 0]
        for argv in steps:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            assert (code, got.out, got.err, report()) == fresh[tuple(argv)], argv


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

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_x_defaults_to_the_circuit_files_input(self, mode, tmp_path, capsys):
        circuit = write_json(tmp_path, "c.json", {"n": 2, "input": "01", "gates": [
            {"label": "g1", "wires": [0], "builtin": "H"},
            {"label": "g2", "wires": [0, 1], "builtin": "CNOT"},
        ]})
        argv = ["circuit-test", "--device", "builtin:rotated?theta=0.4", "--circuit", circuit,
                "--mode", mode, "--seed", "3", "--out", str(tmp_path / "r.json")]
        runs = []
        for x in ([], ["--x", "01"]):
            code = cli.main(argv + x)
            runs.append((code, capsys.readouterr(), (tmp_path / "r.json").read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][2])["config"]["x"] == "01"

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

    def test_import_leaves_numpy_random_unloaded(self):
        # NumPy loads numpy.random on first use; importing the CLI must not
        # use it, so start-up does not pay for the RNG modules
        code = "import sys, qselftest.cli; print('numpy.random' in sys.modules)"
        assert _fresh_interpreter(code) == "False\n"

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (None, set()),
            (["gallery"], set()),
            (["epr-test", "--device", "builtin:honest"], {"protocol", "stats"}),
            (["circuit-test", "--device", "builtin:honest", "--circuit", "BELL"],
             {"protocol", "stats"}),
            (["extract", "--device", "builtin:honest"], {"extraction", "stats"}),
            (["tomo", "--device", "builtin:honest"], {"extraction", "stats"}),
        ],
        ids=["import", "gallery", "epr-test", "circuit-test", "extract", "tomo"],
    )
    def test_each_command_loads_only_the_modules_it_runs(
        self, argv, loaded, bell_circuit_file
    ):
        # importing the CLI compiles and runs none of protocol, stats and
        # extraction; a command loads only those it runs
        if argv is not None:
            argv = [bell_circuit_file if a == "BELL" else a for a in argv]
        code = (
            "import contextlib, io, sys\n"
            "from qselftest import cli\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        modules = set(_fresh_interpreter(code).split())
        lazy = {"protocol", "stats", "extraction"}
        assert {m for m in lazy if f"qselftest.{m}" in modules} == loaded

    def test_sampled_outcomes_print_as_plain_floats(self, bell_circuit_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        cli.main(
            ["circuit-test", "--device", "builtin:honest", "--circuit", bell_circuit_file,
             "--x", "00", "--mode", "sampled", "--seed", "3", "--out", str(out)]
        )
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("computation:")
        )
        assert "np." not in line
        shown = ast.literal_eval(line.split("outcomes=", 1)[1])
        report = json.loads(out.read_text())["result"]
        assert shown == report["computation_outcome_histogram"]
        assert set(shown) == {"00", "11"}
        assert all(type(v) is float for v in shown.values())

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


def _table_by_rows(rows, hidden, hidden_failing) -> str:
    """The result table as it was printed, one row at a time and each float
    formatted apart: the reference for the table printed in one write."""
    header = ("experiment", "setting", "ideal", "estimated", "deviation", "pass")
    widths = [max([len(header[i])] + [len(r[i]) for r in rows]) for i in (0, 1)]
    fmt = "{:<%d}  {:<%d}  {:>10}  {:>10}  {:>10}  {}" % tuple(widths)
    lines = [fmt.format(*header)]
    for row in rows:
        lines.append(fmt.format(
            row[0], row[1], f"{row[2]:.6f}", f"{row[3]:.6f}", f"{row[4]:.6f}",
            "ok" if row[5] else "FAIL",
        ))
    if hidden:
        lines.append(f"... {hidden} more rows ({hidden_failing} failing)")
    return "".join(line + "\n" for line in lines)


class TestTable:
    def test_columns_fit_the_printed_rows(self, capsys):
        # rows the caller only counted are printed as their count; they do
        # not widen the columns
        rows = [("short", "A0@0", 0.5, 0.5, 0.0, True)] * cli._MAX_TABLE_ROWS
        cli._print_table(rows, hidden=3, hidden_failing=1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "experiment  setting       ideal   estimated   deviation  pass"
        assert lines[1] == "short       A0@0       0.500000    0.500000    0.000000  ok"
        assert lines[-1] == "... 3 more rows (1 failing)"
        assert len(lines) == cli._MAX_TABLE_ROWS + 2

    @pytest.mark.parametrize("hidden", [0, 41])
    def test_one_write_equals_the_row_by_row_text(self, hidden, capsys):
        rows = [
            ("conspiracy@0", "A0@0 B0@pi/8", -0.0, 5e-7, 0.9999995, True),
            ("tomography@12", "A1@pi/4", 1.0, 0.9999995, 1.0, False),
            ("c", "", 5e-7, -0.0, 0.0, True),
        ]
        cli._print_table(rows, hidden, 7 if hidden else 0)
        assert capsys.readouterr().out == _table_by_rows(rows, hidden, 7)

    def test_one_print_per_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "print", lambda *a, **k: calls.append(a), raising=False)
        cli._print_table([("short", "A0@0", 0.5, 0.5, 0.0, True)] * 3, hidden=3, hidden_failing=1)
        assert len(calls) == 1

    def test_hidden_rows_get_no_setting_text(self):
        # nine H steps: 36 + 9 * (36 + 9) = 441 records; rows are made only
        # for the printed 400, and the rest are only counted
        gates = tuple(
            dv.CircuitGate(f"g{i}", (0,), dv.builtin_gate("H")) for i in range(1, 10)
        )
        circ = dv.IdealCircuit(1, gates, "0")
        v = pr.circuit_test(
            dv.noisy_source_device(circ, p=0.3), circ, "0", eps=0.05, force_y="0"
        )
        rows, hidden, hidden_failing = cli._verdict_rows(v)
        recs = v.records
        assert len(recs) == 441 and len(rows) == cli._MAX_TABLE_ROWS
        assert hidden == 441 - cli._MAX_TABLE_ROWS
        passed = (recs.deviation <= v.eps).tolist()
        assert 0 < hidden_failing == passed[cli._MAX_TABLE_ROWS:].count(False)
        branches = [b for exp in recs.experiments for b in exp.branches]
        labels = [v.labels[e] for e in recs.experiment.tolist()]
        assert rows == [
            (label, cli._setting_text(b), ideal, est, dev, ok)
            for label, b, ideal, est, dev, ok in zip(
                labels, branches, recs.ideal_p.tolist(), recs.est_p.tolist(),
                recs.deviation.tolist(), passed,
            )
        ][: cli._MAX_TABLE_ROWS]


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2)


# strings that json escapes, the newline first among them: the text of a
# value at depth is re-indented at each newline of the stdlib's text
_ESCAPED = "a\nb\r c\"d\\e\0"


class TestReportEncoder:
    @pytest.mark.parametrize(
        "value",
        [
            _ESCAPED,
            [_ESCAPED, [], [1, [2.5, None]], {}],
            {_ESCAPED: {"b": [True, _ESCAPED], "a": {"\n": []}}, "": [{"x": -0.0}]},
        ],
        ids=["string", "lists", "dicts"],
    )
    @pytest.mark.parametrize("depth", range(6))
    def test_equals_stdlib_text_at_depth(self, value, depth):
        # the stdlib's text of value inside depth lists, less the lines of
        # the lists and the first line's indent
        nested = value
        for _ in range(depth):
            nested = [nested]
        lines = oracle(nested).split("\n")
        want = "\n".join(lines[depth : len(lines) - depth])[2 * depth :]
        assert cli._dumps(value, depth) == want

    @pytest.mark.parametrize(
        "value", [object(), {1, 2}, np.int64(3), [np.bool_(True)], {(1, 2): 3}, b"x"]
    )
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError):
            oracle(value)
        with pytest.raises(TypeError):
            cli._dumps(value)


# gate labels that json must escape, and floats whose shortest repr is long
_AWKWARD = '"\\\x00\x01\x1f\x7f\u00e9\u2028\U0001f600 g1'
_SPECIAL_PROBABILITIES = (0.0, 1.0, 0.5, 5e-324, 1e-17, 0.9999999999999999)


def _probability(rng):
    """A special probability, a uniform one, or one scaled down by up to
    2**-1074, so that reprs of every length and exponent occur."""
    pick = rng.integers(3)
    if pick == 0:
        return _SPECIAL_PROBABILITIES[rng.integers(len(_SPECIAL_PROBABILITIES))]
    scale = 1.0 if pick == 1 else 2.0 ** -int(rng.integers(1075))
    return float(rng.random()) * scale


def _label(rng):
    # indices, not rng.choice: a NumPy string drops a trailing NUL
    return "".join(_AWKWARD[i] for i in rng.integers(len(_AWKWARD), size=rng.integers(1, 4)))


# every shape the program builds on up to three wires, (kind, arity), and
# the chance to draw each: inverse to its number of settings (36 to 729),
# so that each shape gives about as many records as any other
_SHAPES = [(kind, k) for kind in ("conspiracy", "tomography") for k in (1, 2, 3)]
_SHAPE_P = np.array(
    [1 / len(pr.Experiment(kind, 0, tuple(range(k)), ()).settings) for kind, k in _SHAPES]
)
_SHAPE_P /= _SHAPE_P.sum()


def _experiment(rng):
    """An experiment of a drawn shape on that many of three wires, in any
    order, with a prep of 0-3 steps with awkward labels."""
    kind, k = _SHAPES[rng.choice(len(_SHAPES), p=_SHAPE_P)]
    wires = tuple(rng.permutation(3)[:k].tolist())
    prep = [("AB"[rng.integers(2)], _label(rng)) for _ in range(rng.integers(4))]
    return pr.Experiment(kind, int(rng.integers(6)), wires, prep)


@st.composite
def _synthetic_verdicts(draw):
    # a few coarse draws: the number of experiments; exact (n_samples 0)
    # or sampled; no, some or every record failing; an epr-test verdict or
    # a circuit-test one with its computation fields; and one seed for the
    # rest, so that a failing verdict shrinks in a few steps
    n_exps = draw(st.integers(1, 4))
    n = draw(st.sampled_from([0, 1, 12116, 2**62]))
    failing = draw(st.sampled_from(["none", "some", "all"]))
    computation = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exps = tuple(_experiment(rng) for _ in range(n_exps))
    size = sum(len(e.settings) for e in exps)
    ideal, est = ([_probability(rng) for _ in range(size)] for _ in range(2))
    records = pr.Records(exps, np.array(ideal), np.array(est), n)
    dev = records.deviation
    eps = {"none": 1.0, "some": float(np.median(dev)), "all": -1.0}[failing]
    bad = np.flatnonzero(dev > eps)
    labels = tuple(f"{e.kind}@{e.j}" for e in exps)
    v = pr.Verdict(not bad.size, float(dev.max()), eps, bad, records, labels)
    if computation:
        bits = ["00", "01", "10", "11"]
        keys = rng.permutation(bits)[: rng.integers(5)].tolist()
        v = replace(
            v,
            computation_outcome_histogram={k: _probability(rng) for k in keys},
            tv_distance=_probability(rng),
            y=bits[rng.integers(4)],
        )
    return v


def _fig1():
    return dv.load_circuit({"n": 2, "input": "00", "gates": [
        {"label": "g1", "wires": [0], "builtin": "H"},
        {"label": "g2", "wires": [0, 1], "builtin": "CNOT"},
        {"label": "g3", "wires": [1], "builtin": "X"},
    ]})


# whole runs of the library, each made when drawn
_RUNS = [
    lambda: pr.epr_test(dv.honest_device()),
    lambda: pr.epr_test(dv.noisy_source_device(p=0.3), 0, 0.05, "sampled", seed=3),
    lambda: pr.circuit_test(
        dv.van_dam_device(), dv.load_circuit({"n": 1, "input": "0", "gates": [
            {"label": "g1", "wires": [0], "builtin": "H"}]}),
        "0", eps=0.05, force_y="0",
    ),
    lambda: pr.circuit_test(
        dv.rotated_device(_fig1(), theta=0.5), _fig1(), "00", mode="sampled", seed=7
    ),
    lambda: pr.circuit_test(
        dv.noisy_source_device(_fig1(), p=0.2), _fig1(), "01", eps=0.05, seed=1
    ),
]


def _few_records():
    exp = pr.Experiment("tomography", 1, (0,), [("A", "g1")])  # nine settings
    est = np.array([0.25, 0.5, 0.0] + [0.25] * 6)
    records = pr.Records((exp,), np.full(9, 0.25), est)
    return pr.Verdict(False, 0.25, 0.1, np.array([1, 2]), records, ("tomography@1",))


def _chain(workloads):
    # the benchmark's n=2, t=32 ladder rung: 3,330 records, ~10 MB of report
    circ = dv.load_circuit(workloads.chain_circuit(np.random.default_rng(7), 2, 32))
    return pr.circuit_test(dv.honest_device(circ), circ, circ.input)


class TestRecordWriter:
    """The CLI writes a verdict's records from its columns and splices them
    into the report text; the bytes it writes must be the stdlib's text of
    the report that to_json gives, and a newline."""

    @staticmethod
    def check(cfg, verdict):
        result = cli._verdict_result(verdict)
        TestRecordWriter.check_written(cfg, result, verdict.to_json(), verdict)

    @staticmethod
    def check_written(cfg, result, want_result, verdict=None):
        """The bytes _emit writes for a run with result are the stdlib's
        text of the report with want_result, and a newline."""
        # a directory of its own per call: hypothesis's @given refuses
        # function-scoped fixtures such as tmp_path
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "report.json")
            cli._emit(replace(cfg, out=str(path)), result, verdict)
            got = path.read_bytes()
        config = asdict(cfg)
        del config["out"]
        want = (oracle({
            "command": cfg.command,
            "version": __version__,
            "config": config,
            "result": want_result,
        }) + "\n").encode()
        if got != want:
            # a short message: pytest's diff of two long reports takes
            # seconds, once per failing example that hypothesis shrinks
            i = next(i for i, (a, b) in enumerate(zip(got + b"\0", want)) if a != b)
            pytest.fail(f"bytes differ at {i}: {got[i - 40:i + 40]!r} != {want[i - 40:i + 40]!r}")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(_RUNS).map(lambda run: run()) | _synthetic_verdicts())
    def test_matches_json_dumps_of_to_json(self, verdict):
        self.check(cli.RunConfig("circuit-test", eps=0.1, out="report.json"), verdict)

    def test_both_zeros_keep_their_texts(self):
        # -0.0 == 0.0, so a text shared by equal values would write one as
        # the other; Records admits values down to -1e-12, both zeros too
        exp = pr.Experiment("tomography", 1, (0,), [("A", "g1")])  # nine settings
        records = pr.Records(
            (exp,),
            np.array([0.0, -0.0, -0.0] + [0.5] * 6),
            np.array([-0.0, 0.0, 0.0] + [0.5] * 6),
        )
        v = pr.Verdict(True, 0.0, 0.1, np.array([], dtype=np.int64), records, ("tomography@1",))
        text = oracle(v.to_json())
        for key in ("ideal_p", "est_p"):
            assert f'"{key}": 0.0' in text and f'"{key}": -0.0' in text
        self.check(cli.RunConfig("epr-test", out="report.json"), v)

    @pytest.mark.parametrize("run", _RUNS[:3])
    def test_config_strings_holding_the_placeholder(self, run):
        # a NUL encodes as the placeholder's own text, and so does a string
        # that ends in a quote and a NUL; the literal text \u0000 encodes as
        # an escaped backslash. Only the last two placeholders are the lists'
        for device, circuit in [("\0", "\\u0000"), ('x"\0', "\0\\u0000\0")]:
            cfg = cli.RunConfig("circuit-test", device=device, circuit=circuit, x="0")
            assert cli._BLANK_TEXT in cli._dumps(asdict(cfg))
            self.check(cfg, run())

    @pytest.mark.parametrize(
        "run, chunks",
        [
            (lambda wl: _few_records(), 1),
            (lambda wl: pr.epr_test(dv.honest_device()), 2),
            (_chain, 118),
        ],
        ids=["one-chunk", "epr-test", "chain-n2-t32"],
    )
    def test_chunks_join_to_the_stdlib_text(self, run, chunks, workloads):
        # _emit writes the report's parts in chunks of _WRITE_PARTS parts,
        # then a newline
        verdict = run(workloads)
        cfg = cli.RunConfig("circuit-test")
        parts = cli._report_parts(cfg, cli._verdict_result(verdict), verdict)
        assert -(-len(parts) // cli._WRITE_PARTS) == chunks
        self.check(cfg, verdict)

    def test_extract_report_is_one_part(self):
        from qselftest import extraction as ex

        report = ex.certify_state_equivalence(dv.honest_device(), wires=(0,))
        result = {"accepted": True, "report": report.to_json()}
        cfg = cli.RunConfig("extract", device="builtin:honest")
        assert len(cli._report_parts(cfg, result)) == 1
        self.check_written(cfg, result, result)

    def test_writing_a_report_never_holds_it_whole(self, workloads, tmp_path):
        # the report of the t=32 chain grows as t**2; joined whole, and then
        # encoded whole, writing it took twice its size
        verdict = _chain(workloads)
        out = tmp_path / "r.json"
        cfg = cli.RunConfig("circuit-test", out=str(out))
        result = cli._verdict_result(verdict)
        tracemalloc.start()
        try:
            cli._emit(cfg, result, verdict)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 9_000_000
        assert peak < size / 4
