"""Device model construction, validation, builtins, and JSON loading."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qselftest import cli
from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest.errors import (
    CircuitValidationError,
    ConfigError,
    DeviceValidationError,
)


def pair_probability(dev, a, b, wire=0):
    """||P_A(a) P_B(b) source||^2 computed straight from the model."""
    st = hb.apply_operator(dev.frame_operator("A", wire, a), dev.source)
    st = hb.apply_operator(dev.frame_operator("B", wire, b), st)
    return hb.norm(st) ** 2


def bell_vec(n):
    """2^(-n/2) sum_x |x>|x> over qubit blocks (x-half, then partner half)."""
    d = 1 << n
    v = np.zeros(d * d)
    v[(d + 1) * np.arange(d)] = 1 / math.sqrt(d)
    return v


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's rotated-device angles and circuits
WL = _perfbench_workloads()


def single_h_circuit():
    return dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),), "0")


class TestLayout:
    def test_indices_and_dims(self):
        lay = dv.RegisterLayout(2, (2, 2), (2, 2), (4, 1))
        assert lay.full.dims == (2, 2, 2, 2, 4, 1)
        assert lay.side_index("A", 1) == 1
        assert lay.side_index("B", 0) == 2
        assert lay.side_index("E", 1) == 5
        assert math.prod(lay.e_dims) == 4
        assert lay.side_dim("B", 1) == 2

    def test_full_is_built_once(self):
        lay = dv.RegisterLayout(2, (2, 3), (5, 7), (4, 1))
        assert lay.full is lay.full

    def test_side_dim_reads_each_side(self):
        lay = dv.RegisterLayout(2, (2, 3), (5, 7), (4, 1))
        assert [lay.side_dim(side, w) for side in "ABE" for w in (0, 1)] == [2, 3, 5, 7, 4, 1]

    @pytest.mark.parametrize(
        "side, wire",
        [("A", 9), ("A", 7), ("A", -1), ("B", 7), ("B", -1), ("E", 7), ("E", -1)],
    )
    def test_wire_outside_the_layout_refused(self, side, wire):
        # an unchecked wire would name another side's subsystem: A wire 9 of
        # 7 is B_2, A wire -1 the last E
        lay = dv.RegisterLayout(7, (2,) * 7, (2,) * 7, (1,) * 6 + (3,))
        with pytest.raises(DeviceValidationError, match=f"side {side} has no wire {wire}"):
            lay.side_index(side, wire)
        with pytest.raises(DeviceValidationError, match=f"side {side} has no wire {wire}"):
            lay.side_dim(side, wire)

    @pytest.mark.parametrize("side", ["C", "", "a", "AB"])
    def test_unknown_side_refused(self, side):
        lay = dv.RegisterLayout(2, (2, 2), (2, 2))
        with pytest.raises(DeviceValidationError, match="unknown side"):
            lay.side_index(side, 0)
        with pytest.raises(DeviceValidationError, match="unknown side"):
            lay.side_dim(side, 0)

    @pytest.mark.parametrize(
        "key, side, wires",
        [
            ("gates", "A", [2]),
            ("gates", "B", [-1]),
            ("gates", "A", [0, 5]),
            ("frames", "A", [2]),
            ("frames", "B", [-1]),
        ],
    )
    def test_device_file_wire_outside_the_layout_exits_two(
        self, key, side, wires, tmp_path, capsys
    ):
        eye = np.eye(1 << len(wires))
        matrix = [[[float(x), 0.0] for x in row] for row in eye]
        if key == "gates":
            entry = {"side": side, "label": "g", "wires": wires, "matrix": matrix}
        else:
            entry = {"side": side, "wire": wires[0], "angle": "0", "matrix": matrix}
        layout = {"n_wires": 2, "a_dims": [2, 2], "b_dims": [2, 2]}
        device = {"layout": layout, key: [entry]}
        (tmp_path / "d.json").write_text(json.dumps(device))
        assert cli.main(["epr-test", "--device", str(tmp_path / "d.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "wire" in err
        if key == "gates":
            assert f"gate ({side}, g): " in err

    def test_default_environments(self):
        lay = dv.RegisterLayout(3, (2, 2, 2), (2, 2, 2))
        assert lay.e_dims == (1, 1, 1)
        assert math.prod(lay.e_dims) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(DeviceValidationError, match="length"):
            dv.RegisterLayout(2, (2,), (2, 2))


class TestFrames:
    def test_complement_is_exact(self):
        dev = dv.honest_device()
        for a in dv.BASE_ANGLES:
            p = dev.frames[("A", 0)].projector(a)
            q = dev.frames[("A", 0)].projector(a + math.pi / 2)
            assert np.array_equal(p + q, np.eye(2))

    def test_angle_reduction_mod_pi(self):
        f = dv.honest_device().frames[("B", 0)]
        assert np.allclose(f.projector(13 * math.pi / 8), np.eye(2) - f.projector(math.pi / 8))
        assert np.allclose(f.projector(-7 * math.pi / 8), f.projector(math.pi / 8))

    @pytest.mark.parametrize("a", [-1e-17, math.pi - 1e-15, 2 * math.pi - 1e-15])
    def test_angle_wraps_around_pi(self, a):
        f = dv.honest_device().frames[("A", 0)]
        assert f.projector(a) is f.projector(0.0)
        assert dv.angle_index(a) == 0
        assert dv.angle_name(a) == "0"

    def test_angle_index_matches_tested_set_only(self):
        for i, a in enumerate(dv.TEST_ANGLES):
            assert dv.angle_index(a + 3 * math.pi) == i
            assert dv.angle_name(a) == dv.ANGLE_NAMES[a]
        for a in (0.3, math.pi / 16, math.nan, math.inf):
            assert dv.angle_index(a) is None
        assert dv.angle_name(0.3) == "0.300000"

    def test_base_key_outside_base_angles_rejected(self):
        base = {a: hb.projector_angle(a).matrix for a in dv.TEST_ANGLES[:4]}
        with pytest.raises(DeviceValidationError, match="base angle"):
            dv.MeasurementFrame("A", 0, base)

    def test_base_keys_stored_as_base_angles(self):
        base = {a + math.pi: hb.projector_angle(a).matrix for a in dv.BASE_ANGLES}
        f = dv.MeasurementFrame("A", 0, base)
        assert tuple(f.base) == dv.BASE_ANGLES

    @pytest.mark.parametrize("slot", ["diag", "offdiag"])
    def test_non_finite_projector_rejected(self, slot):
        bad = hb.projector_angle(0.0).matrix.astype(complex)
        bad[(0, 0) if slot == "diag" else (0, 1)] = math.nan
        base = {0.0: bad, math.pi / 8: np.eye(2), math.pi / 4: np.eye(2)}
        with pytest.raises(DeviceValidationError, match="non-finite"):
            dv.MeasurementFrame("A", 0, base)

    def test_unknown_angle_rejected(self):
        f = dv.honest_device().frames[("A", 0)]
        with pytest.raises(DeviceValidationError, match="not in the tested set"):
            f.projector(0.3)

    def test_non_projector_rejected(self):
        bad = {0.0: np.eye(2) * 0.5, math.pi / 8: np.eye(2), math.pi / 4: np.eye(2)}
        with pytest.raises(DeviceValidationError, match="idempotent"):
            dv.MeasurementFrame("A", 0, bad)

    def test_missing_base_angle_rejected(self):
        bad = {0.0: np.eye(2)}
        with pytest.raises(DeviceValidationError, match="missing base angle"):
            dv.MeasurementFrame("A", 0, bad)


class TestCircuit:
    def test_builtin_gates_orthogonal(self):
        for name in ("H", "X", "CNOT", "SWAP", "ROT(0.37)"):
            m = dv.builtin_gate(name)
            assert np.allclose(m.T @ m, np.eye(m.shape[0]), atol=1e-14)

    def test_complex_matrix_rejected(self):
        y = np.array([[0, -1j], [1j, 0]])
        with pytest.raises(CircuitValidationError, match="real"):
            dv.CircuitGate("g1", (0,), y)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(CircuitValidationError, match="orthogonal"):
            dv.CircuitGate("g1", (0,), np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_matrix_rejected(self, entry):
        m = np.eye(2, dtype=complex)
        m[1, 0] = entry
        with pytest.raises(CircuitValidationError, match="non-finite"):
            dv.CircuitGate("g1", (0,), m)

    def test_wire_arity_bounds(self):
        with pytest.raises(CircuitValidationError, match="1..3"):
            dv.CircuitGate("g1", (0, 1, 2, 3), np.eye(16))
        with pytest.raises(CircuitValidationError, match="distinct"):
            dv.CircuitGate("g1", (0, 0), np.eye(4))

    def test_circuit_level_checks(self):
        g = dv.CircuitGate("g1", (0,), dv.builtin_gate("X"))
        with pytest.raises(CircuitValidationError, match="out of range"):
            dv.IdealCircuit(1, (dv.CircuitGate("g1", (1,), dv.builtin_gate("X")),), "0")
        with pytest.raises(CircuitValidationError, match="duplicate"):
            dv.IdealCircuit(2, (g, dv.CircuitGate("g1", (1,), dv.builtin_gate("H"))), "00")
        with pytest.raises(CircuitValidationError, match="bits"):
            dv.IdealCircuit(1, (g,), "2")
        with pytest.raises(CircuitValidationError, match="bits"):
            dv.IdealCircuit(2, (g,), "0")


class TestHonestDevice:
    def test_source_is_fresh_pairs(self):
        dev = dv.honest_device(n=2)
        want = bell_vec(2)  # [A1 A2 B1 B2], trailing unit environments
        assert np.allclose(dev.source.vec, want, atol=1e-15)

    def test_pair_statistics_exact(self):
        dev = dv.honest_device()
        for a in dv.TEST_ANGLES:
            for b in dv.TEST_ANGLES:
                ideal = 0.5 * math.cos(a - b) ** 2
                assert pair_probability(dev, a, b) == pytest.approx(ideal, abs=1e-12)

    def test_b_side_gate_is_conjugate(self):
        circ = dv.IdealCircuit(
            2,
            (
                dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
                dv.CircuitGate("g2", (0, 1), dv.builtin_gate("CNOT")),
            ),
            "00",
        )
        dev = dv.honest_device(circ)
        for label in ("g1", "g2"):
            ga = dev.gates[("A", label)].matrix
            gb = dev.gates[("B", label)].matrix
            assert np.array_equal(gb, np.conj(ga))

    def test_both_sides_stepping_preserves_pairs(self):
        # applying T on side A and its partner on side B restores the source
        circ = single_h_circuit()
        dev = dv.honest_device(circ)
        st = hb.apply_operator(dev.gate_operator("A", "g1"), dev.source)
        st = hb.apply_operator(dev.gate_operator("B", "g1"), st)
        assert np.linalg.norm(st.vec - dev.source.vec) < 1e-12

    def test_not_gates_present_both_sides(self):
        dev = dv.honest_device(n=3)
        for w in range(3):
            for side in ("A", "B"):
                assert (side, f"not{w}") in dev.gates

    def test_unknown_gate_raises(self):
        with pytest.raises(DeviceValidationError, match="no gate"):
            dv.honest_device().gate_operator("A", "g9")


class TestSharedParts:
    def test_ideal_frames_and_nots_are_shared(self):
        one = dv.honest_device(single_h_circuit())
        two = dv.honest_device(dv.load_circuit(WL.FIXED_CIRCUITS["fig1.json"]))
        noisy = dv.noisy_source_device(n=2, p=0.1)
        for side in ("A", "B"):
            assert one.frames[(side, 0)] is two.frames[(side, 0)]
            assert one.gates[(side, "not0")] is two.gates[(side, "not0")]
            assert noisy.frames[(side, 1)] is two.frames[(side, 1)]
            assert noisy.gates[(side, "not1")] is two.gates[(side, "not1")]
        loaded = dv.load_device({"layout": {"n_wires": 1, "a_dims": [2], "b_dims": [2]}})
        assert loaded.frames[("A", 0)] is one.frames[("A", 0)]

    def test_shared_matrices_are_read_only(self):
        dev = dv.honest_device(n=2)
        frame = dev.frames[("A", 1)]
        with pytest.raises(ValueError, match="read-only"):
            frame.base[0.0][0, 0] = 0.0
        with pytest.raises(TypeError):
            frame.base[0.0] = np.eye(2)
        with pytest.raises(ValueError, match="read-only"):
            dev.gates[("B", "not1")].matrix[0, 0] = 1.0
        assert np.array_equal(dv.honest_device(n=2).frames[("A", 1)].base[0.0],
                              hb.projector_angle(0.0).matrix)


class TestValidation:
    def test_separability_cut_rejects_cross_wire_entanglement(self):
        lay = dv.RegisterLayout(2, (2, 2), (2, 2))
        v = np.zeros(16, dtype=np.complex128)
        v[0] = v[15] = 1 / math.sqrt(2)  # entangles wire 0 with wire 1
        frames = {}
        for side in ("A", "B"):
            for w in range(2):
                frames[(side, w)] = dv.MeasurementFrame(
                    side, w, {a: hb.projector_angle(a).matrix for a in dv.BASE_ANGLES}
                )
        with pytest.raises(DeviceValidationError, match="Schmidt rank"):
            dv.DeviceModel(lay, hb.PhysState(lay.full, v), {}, frames)

    @pytest.mark.parametrize("second", [1e-7, 1e-9])
    def test_separability_cut_tolerance(self, second):
        # wire 0's cut has Schmidt coefficients sqrt(1 - second^2) and second:
        # refused above SEPARABILITY_TOL (1e-8), accepted below it
        lay = dv.RegisterLayout(2, (2, 2), (2, 2))
        v = np.zeros(16, dtype=np.complex128)
        v[0], v[15] = math.sqrt(1 - second**2), second
        source = hb.PhysState(lay.full, v)
        frames = dv.honest_device(n=2).frames
        if second > dv.SEPARABILITY_TOL:
            with pytest.raises(DeviceValidationError, match="wire 0 cut has Schmidt rank 2"):
                dv.DeviceModel(lay, source, {}, frames)
        else:
            dv.DeviceModel(lay, source, {}, frames)

    def test_unnormalized_source_rejected(self):
        dev = dv.honest_device()
        v = dev.source.vec * 2.0
        with pytest.raises(DeviceValidationError, match="norm"):
            dv.DeviceModel(dev.layout, hb.PhysState(dev.layout.full, v), dev.gates, dev.frames)

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(DeviceValidationError, match="unitary"):
            dv.DeviceGate("A", (0,), np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_non_finite_gate_and_source_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DeviceValidationError, match="non-finite"):
                dv.DeviceGate("A", (0,), np.array([[1.0, 0.0], [0.0, bad]]))
        dev = dv.honest_device()
        v = dev.source.vec.copy()
        v[1] = math.nan
        with pytest.raises(DeviceValidationError, match="non-finite"):
            dv.DeviceModel(dev.layout, hb.PhysState(dev.layout.full, v), dev.gates, dev.frames)

    def test_missing_frame_rejected(self):
        dev = dv.honest_device()
        frames = {k: v for k, v in dev.frames.items() if k != ("B", 0)}
        with pytest.raises(DeviceValidationError, match=r"frame \(B, 0\): missing"):
            dv.DeviceModel(dev.layout, dev.source, dict(dev.gates), frames)

    def test_gate_dim_mismatch_rejected(self):
        dev = dv.van_dam_device()
        frames = dict(dev.frames)
        gates = {("A", "g1"): dv.DeviceGate("A", (0,), np.eye(2))}
        with pytest.raises(DeviceValidationError, match="matrix dim"):
            dv.DeviceModel(dev.layout, dev.source, gates, frames)


class TestVanDam:
    def test_legacy_single_system_check_passes(self):
        dev = dv.van_dam_device()
        comp = dev.frames[("A", 0)].projector(0.0)
        had = dev.gates[("A", "g1")].matrix
        notg = dev.gates[("A", "not0")].matrix
        zero = np.eye(4)[0]  # the encoded 0, |00>
        # half probability after one alleged Hadamard
        assert np.linalg.norm(comp @ had @ zero) ** 2 == pytest.approx(0.5, abs=1e-12)
        # deterministic zero after two
        assert np.linalg.norm(comp @ had @ had @ zero) ** 2 == pytest.approx(1.0, abs=1e-12)
        # alleged one reads one
        one = notg @ zero
        p1 = np.linalg.norm((np.eye(4) - comp) @ one) ** 2
        assert p1 == pytest.approx(1.0, abs=1e-12)

    def test_computational_pair_statistics_honest(self):
        dev = dv.van_dam_device()
        for a in dv.COMP_ANGLES:
            for b in dv.COMP_ANGLES:
                ideal = 0.5 * math.cos(a - b) ** 2
                assert pair_probability(dev, a, b) == pytest.approx(ideal, abs=1e-12)

    def test_intermediate_angle_deviations(self):
        dev = dv.van_dam_device()
        cases = {
            (math.pi / 8, math.pi / 8): 1 / 8,
            (math.pi / 8, math.pi / 4): math.sqrt(2) / 8,
            (math.pi / 4, math.pi / 4): 1 / 4,
        }
        for (a, b), want in cases.items():
            ideal = 0.5 * math.cos(a - b) ** 2
            dev_p = pair_probability(dev, a, b)
            assert abs(dev_p - ideal) == pytest.approx(want, abs=1e-12)

    def test_frames_are_valid_projectors(self):
        dev = dv.van_dam_device()
        p0 = dev.frames[("A", 0)].projector(0.0)
        assert np.allclose(p0 @ p0, p0, atol=1e-14)
        assert np.trace(p0).real == pytest.approx(2.0)


def toffoli_circuit():
    tof = np.eye(8)
    tof[6:, 6:] = [[0, 1], [1, 0]]
    return dv.load_circuit({"n": 3, "input": "000", "gates": [
        {"label": "g1", "wires": [0], "builtin": "H"},
        {"label": "g2", "wires": [0, 1, 2], "matrix": tof.tolist()},
        {"label": "g3", "wires": [2, 0], "builtin": "CNOT"},
    ]})


ROTATED_CIRCUITS = {
    "fig1": lambda: dv.load_circuit(WL.FIXED_CIRCUITS["fig1.json"]),
    "chain": lambda: dv.load_circuit(WL.chain_circuit(
        np.random.default_rng([WL.CHAIN_POOL, 0]), WL.CHAIN_WIRES, WL.CHAIN_GATES)),
    "toffoli": toffoli_circuit,
}


def reference_rotated(circuit, theta):
    """rotated_device's gate and frame matrices, built as one kron chain per
    gate and one conjugation per frame projector."""
    base = dv.honest_device(circuit)
    v = np.asarray(dv.rotation(theta), dtype=np.complex128)
    gates = {}
    for key, g in base.gates.items():
        w = np.array([[1.0 + 0j]])
        for _ in g.wires:
            w = np.kron(w, v)
        gates[key] = w @ g.matrix @ w.conj().T
    frames = {
        (key, a): v @ m @ v.conj().T
        for key, f in base.frames.items()
        for a, m in f.base.items()
    }
    return gates, frames


class TestRotatedAndNoisy:
    @pytest.mark.parametrize("theta", WL.THETAS)
    @pytest.mark.parametrize("name", sorted(ROTATED_CIRCUITS))
    def test_rotated_matrices_match_per_gate_conjugation(self, name, theta):
        circ = ROTATED_CIRCUITS[name]()
        dev = dv.rotated_device(circ, theta=theta)
        gates, frames = reference_rotated(circ, theta)
        assert dev.gates.keys() == gates.keys()
        for key, m in gates.items():
            assert dev.gates[key].matrix.tobytes() == m.tobytes(), key
        got = {(key, a): m for key, f in dev.frames.items() for a, m in f.base.items()}
        assert got.keys() == frames.keys()
        for key, m in frames.items():
            assert got[key].tobytes() == m.tobytes(), key

    @pytest.mark.parametrize("name", [None, *sorted(ROTATED_CIRCUITS)])
    def test_builders_build_no_honest_device(self, name, monkeypatch):
        # rotated and depolarized devices take the honest layout, gates and
        # frames without building (and checking) an honest source
        circ = ROTATED_CIRCUITS[name]() if name else None
        honest = dv.honest_device(circ)
        gates, frames = reference_rotated(circ, 0.5)
        want = [dv.rotated_device(circ, theta=0.5), dv.noisy_source_device(circ, p=0.05)]

        def refuse(*args, **kwargs):
            raise AssertionError("honest_device called")

        monkeypatch.setattr(dv, "honest_device", refuse)
        rot = dv.rotated_device(circ, theta=0.5)
        noisy = dv.noisy_source_device(circ, p=0.05)
        for dev, old in zip((rot, noisy), want):
            assert dev.layout == old.layout
            assert dev.source.vec.tobytes() == old.source.vec.tobytes()
        assert rot.gates.keys() == gates.keys()
        for key, m in gates.items():
            assert rot.gates[key].matrix.tobytes() == m.tobytes(), key
        got = {(key, a): m for key, f in rot.frames.items() for a, m in f.base.items()}
        assert got.keys() == frames.keys()
        for key, m in frames.items():
            assert got[key].tobytes() == m.tobytes(), key
        assert noisy.layout.a_dims == honest.layout.a_dims
        assert noisy.gates.keys() == honest.gates.keys()
        for key, g in honest.gates.items():
            assert noisy.gates[key].wires == g.wires
            assert noisy.gates[key].matrix.tobytes() == g.matrix.tobytes(), key
        assert noisy.frames.keys() == honest.frames.keys()
        assert all(noisy.frames[k] is f for k, f in honest.frames.items())

    def test_rotated_statistics_match_honest_exactly(self):
        circ = single_h_circuit()
        hon = dv.honest_device(circ)
        rot = dv.rotated_device(circ, theta=0.4)
        for a in dv.TEST_ANGLES:
            for b in dv.TEST_ANGLES:
                assert pair_probability(rot, a, b) == pytest.approx(
                    pair_probability(hon, a, b), abs=1e-12
                )

    def test_noisy_reduced_state_is_depolarized(self):
        p = 0.12
        dev = dv.noisy_source_device(p=p)
        rho = hb.partial_trace(dev.source, keep=(0, 1))
        phi = bell_vec(1)
        want = (1 - p) * np.outer(phi, phi.conj()) + p * np.eye(4) / 4
        assert np.allclose(rho, want, atol=1e-12)

    def test_noisy_pair_deviation_is_quarter_p(self):
        p = 0.2
        dev = dv.noisy_source_device(p=p)
        worst = max(
            abs(pair_probability(dev, a, b) - 0.5 * math.cos(a - b) ** 2)
            for a in dv.TEST_ANGLES
            for b in dv.TEST_ANGLES
        )
        assert worst == pytest.approx(p / 4, abs=1e-12)

    def test_noisy_two_wire_validates(self):
        circ = dv.IdealCircuit(
            2, (dv.CircuitGate("g1", (0, 1), dv.builtin_gate("CNOT")),), "00"
        )
        dev = dv.noisy_source_device(circ, p=0.05)
        assert math.prod(dev.layout.e_dims) == 16


class TestLoading:
    def test_load_epr_device_defaults_frames(self, tmp_path):
        data = {
            "layout": {"n_wires": 1, "a_dims": [2], "b_dims": [2]},
            "source": {"kind": "epr"},
        }
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(data))
        dev = dv.load_device(str(path))
        assert pair_probability(dev, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_load_device_with_gates_and_frames(self):
        hon = dv.honest_device(single_h_circuit())
        data = {
            "layout": {"n_wires": 1, "a_dims": [2], "b_dims": [2]},
            "source": {"kind": "epr"},
            "gates": [
                {
                    "side": side,
                    "label": "g1",
                    "wires": [0],
                    "matrix": dv.matrix_to_json(hon.gates[(side, "g1")].matrix),
                }
                for side in ("A", "B")
            ],
            "frames": [
                {
                    "side": "A",
                    "wire": 0,
                    "angle": key,
                    "matrix": dv.matrix_to_json(hb.projector_angle(a).matrix),
                }
                for key, a in dv.ANGLE_KEYS.items()
            ],
        }
        dev = dv.load_device(data)
        assert ("A", "g1") in dev.gates
        assert np.allclose(
            dev.frames[("A", 0)].projector(math.pi / 4), 0.5 * np.ones((2, 2))
        )

    def test_load_depolarized_source(self):
        data = {
            "layout": {"n_wires": 1, "a_dims": [2], "b_dims": [2]},
            "source": {"kind": "depolarized", "params": {"p": 0.3}},
        }
        dev = dv.load_device(data)
        assert dev.layout.e_dims == (4,)

    def test_bad_angle_key_rejected(self):
        data = {
            "layout": {"n_wires": 1, "a_dims": [2], "b_dims": [2]},
            "frames": [
                {"side": "A", "wire": 0, "angle": "pi/2", "matrix": dv.matrix_to_json(np.eye(2))}
            ],
        }
        with pytest.raises(DeviceValidationError, match="complements are derived"):
            dv.load_device(data)

    def test_missing_frame_on_wide_wire_rejected(self):
        data = {"layout": {"n_wires": 1, "a_dims": [4], "b_dims": [4]}}
        with pytest.raises(DeviceValidationError, match="epr source needs 2x2"):
            dv.load_device(data)

    def test_c_dim_maps_to_wire_zero(self):
        data = {
            "layout": {"n_wires": 2, "a_dims": [2, 2], "b_dims": [2, 2], "c_dim": 4},
            "source": {"kind": "epr"},
        }
        dev = dv.load_device(data)
        assert dev.layout.e_dims == (4, 1)

    def test_load_circuit_builtin_and_matrix(self, tmp_path):
        data = {
            "n": 2,
            "input": "10",
            "gates": [
                {"label": "g1", "wires": [0], "builtin": "H"},
                {"label": "g2", "wires": [0, 1], "matrix": dv._CNOT.tolist()},
            ],
        }
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(data))
        circ = dv.load_circuit(str(path))
        assert circ.t == 2
        assert circ.input == "10"
        assert np.array_equal(circ.gates[1].matrix, dv._CNOT)

    def test_load_circuit_complex_pairs_rejected(self):
        data = {
            "n": 1,
            "gates": [
                {
                    "label": "g1",
                    "wires": [0],
                    "matrix": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
                }
            ],
        }
        with pytest.raises(CircuitValidationError, match="real"):
            dv.load_circuit(data)

    def test_resolve_builtins(self):
        assert dv.resolve_device("builtin:honest").n_wires == 1
        assert dv.resolve_device("builtin:vandam").layout.a_dims == (4,)
        dep = dv.resolve_device("builtin:depolarized?p=0.1")
        assert dep.layout.e_dims == (4,)
        rot = dv.resolve_device("builtin:rotated?theta=0.3", single_h_circuit())
        assert ("A", "g1") in rot.gates

    def test_resolve_errors(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            dv.resolve_device("builtin:perfect")
        with pytest.raises(ConfigError, match="bad device parameter"):
            dv.resolve_device("builtin:depolarized?p=lots")

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("builtin:depolarized?P=0.3", "takes p, not 'P'"),
            ("builtin:depolarized?theta=0.3", "takes p, not 'theta'"),
            ("builtin:rotated?p=0.3", "takes theta, not 'p'"),
            ("builtin:honest?theta=1", "takes no parameters, not 'theta'"),
            ("builtin:vandam?p=0.1", "takes no parameters, not 'p'"),
            ("builtin:depolarized?p=0.1&p=0.3", "'p' repeats"),
            ("builtin:rotated?theta=0.3&theta=0.3", "'theta' repeats"),
            ("builtin:rotated", "requires 'theta'"),
            ("builtin:depolarized", "requires 'p'"),
        ],
    )
    def test_resolve_rejects_parameters_the_builtin_does_not_take(self, spec, match):
        # each of these used to run another device: a misspelled, foreign or
        # missing parameter meant p = 0 or theta = 0, the honest device, and
        # the last of a repeated one won
        with pytest.raises(ConfigError, match=match):
            dv.resolve_device(spec, single_h_circuit())

    def test_gallery_lists_builtins(self):
        uris = [u for u, _ in dv.builtin_gallery()]
        assert "builtin:honest" in uris
        assert "builtin:vandam" in uris
