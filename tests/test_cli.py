"""Command-line behavior: exit codes, reports, determinism, config errors."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qselftest
import numpy as np

from qselftest import __version__
from qselftest import cli
from qselftest import devices as dv
from qselftest import hilbert as hb


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
        ],
        ids=["source-not-object", "params-list", "gates-not-list", "frames-not-list",
             "per-wire-not-list", "e-dims-not-numeric", "c-dim-not-numeric",
             "p-not-numeric", "frame-angle-list", "frame-side-unknown",
             "gate-label-list", "n-wires-infinite", "p-overflows-float",
             "gate-side-unknown"],
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


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2)


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda i: i * (-1) ** (i % 2))
    | st.floats()
    | st.floats().map(np.float64)
    | st.text()
    | st.text(alphabet='"\\\x00\x01\x1f\x7f\u00e9\u2028\U0001f600 ab')
)
_keys = st.text(alphabet='"\\\x00\n\u00e9\U0001f600 abz', max_size=4)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=30,
)


@st.composite
def _shared_tuples(draw):
    # one tuple at two depths, and again inside a list, the way a prep
    # tuple recurs in every record of an experiment
    t = draw(st.lists(_values, max_size=3).map(tuple))
    rest = draw(_values)
    return {"a": t, "b": [t, {"c": t, "d": rest}], "e": (t, t)}


class TestReportEncoder:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_values | _shared_tuples())
    @example({"z": -0.0, "n": float("nan"), "p": float("inf"), "m": float("-inf")})
    @example([2**70, -(2**70), True, False, None, 1, 0])
    @example({"\u00e9\"\\\x00\x1f": "caf\u00e9 \"q\" \\ \t\x01\U0001f600"})
    @example(({}, [], (), {"": []}))
    @example(np.float64(0.1))
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == oracle(value)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.dictionaries(
            st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=2),
            _scalars,
            max_size=4,
        )
    )
    def test_non_string_keys_match_json_dumps(self, value):
        # keys of unlike types cannot be sorted: both must then raise
        def outcome(encode):
            try:
                return encode(value)
            except TypeError:
                return TypeError

        assert outcome(cli._dumps) == outcome(oracle)

    @pytest.mark.parametrize(
        "value", [object(), {1, 2}, np.int64(3), [np.bool_(True)], {(1, 2): 3}, b"x"]
    )
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError):
            oracle(value)
        with pytest.raises(TypeError):
            cli._dumps(value)

