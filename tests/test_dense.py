"""Exact records against the dense reference of `dense.py`, at every y.

Each record's est_p and ideal_p from an exact `evaluate_schedule` must
agree within 1e-12 with the dense reference on the device and on the
circuit's honest device. The JSON device's 288 amplitudes are above
`stats._REDUCED_AMPS`, so its records are read from reduced states; its
frames are projectors only within `devices.GATE_TOL`, so P^dagger P and P
differ there.
"""

import itertools
import json

import numpy as np
import pytest

import dense
from conftest import gate_free
from qselftest import devices as dv
from qselftest import protocol as pr
from qselftest import stats

TOL = 1e-12


def circuit(n, gates):
    steps = tuple(
        dv.CircuitGate(f"g{i + 1}", wires, dv.builtin_gate(name))
        for i, (name, wires) in enumerate(gates)
    )
    return dv.IdealCircuit(n, steps, "0" * n)


CIRCUITS = {
    "h": circuit(1, [("H", (0,))]),
    "bell": circuit(2, [("H", (0,)), ("CNOT", (0, 1))]),
    "fig1": circuit(2, [("H", (0,)), ("CNOT", (0, 1)), ("X", (1,))]),
}


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def json_device(circ, tmp_path):
    """A device file of 2 * 2 * 2 * 2 * 3 * 6 = 288 amplitudes on two wires:
    a random state on each wire's (A_w, B_w, E_w), a random unitary for
    every gate of the honest table, and each ideal base projector plus a
    random complex matrix with entries up to 2e-11, loaded back from the
    file."""
    rng = np.random.default_rng(11)
    n, e_dims = circ.n, (3, 6)
    per_wire = []
    for e in e_dims:
        v = rng.normal(size=4 * e) + 1j * rng.normal(size=4 * e)
        per_wire.append([[float(x.real), float(x.imag)] for x in v / np.linalg.norm(v)])
    honest = dv.honest_device(circ)
    gates = [
        {"side": side, "label": label, "wires": list(g.wires),
         "matrix": dv.matrix_to_json(random_unitary(rng, len(g.matrix)))}
        for (side, label), g in honest.gates.items()
    ]
    frames = []
    for (side, wire), f in honest.frames.items():
        for key, angle in dv.ANGLE_KEYS.items():
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = f.base[angle] + 2e-11 * noise / np.abs(noise).max()
            frames.append({"side": side, "wire": wire, "angle": key,
                           "matrix": dv.matrix_to_json(m)})
    data = {
        "layout": {"n_wires": n, "a_dims": [2] * n, "b_dims": [2] * n, "e_dims": list(e_dims)},
        "source": {"kind": "matrix", "params": {"per_wire": per_wire}},
        "gates": gates,
        "frames": frames,
    }
    path = tmp_path / "device.json"
    path.write_text(json.dumps(data))
    return dv.load_device(str(path))


DEVICES = {
    "honest": lambda circ, tmp_path: dv.honest_device(circ),
    "rotated-0.5": lambda circ, tmp_path: dv.rotated_device(circ, theta=0.5),
    "rotated-1.3": lambda circ, tmp_path: dv.rotated_device(circ, theta=1.3),
    "depolarized": lambda circ, tmp_path: dv.noisy_source_device(circ, p=0.05),
    "vandam": lambda circ, tmp_path: dv.van_dam_device(),
    "json": json_device,
}

# van Dam's device holds the H circuit's gate alone; the device file is
# built for fig-1 alone
ONLY = {"vandam": "h", "json": "fig1"}
CASES = [(c, d) for c in CIRCUITS for d in DEVICES if ONLY.get(d, c) == c]


@pytest.mark.parametrize("name, kind", CASES, ids=[f"{c}-{d}" for c, d in CASES])
def test_records_equal_the_dense_reference(name, kind, tmp_path):
    circ = CIRCUITS[name]
    device = DEVICES[kind](circ, tmp_path)
    assert (device.layout.full.total > stats._REDUCED_AMPS) == (kind == "json")
    ref, honest = dense.Reference(device), dense.Reference(dv.honest_device(circ))
    for y in map("".join, itertools.product("01", repeat=circ.n)):
        schedule = pr.build_schedule(circ, circ.input, y)
        records = pr.evaluate_schedule(device, schedule).records
        est = ref.probabilities(schedule.experiments)
        ideal = honest.probabilities(schedule.experiments)
        assert len(records) == len(est) == len(ideal)
        assert np.abs(records.est_p - est).max() <= TOL, y
        assert np.abs(records.ideal_p - ideal).max() <= TOL, y


def test_embedding_permutes_the_kronecker_product():
    # on qubits (q0, q1, q2): a matrix on (q2, q0) is the one on (q0, q2)
    # with its two factors swapped, and the identity on q1 sits between
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    want = np.kron(np.kron(a, np.eye(2)), b)
    assert np.array_equal(dense.embed(np.kron(b, a), [2, 0], (2, 2, 2)), want)
    assert np.array_equal(dense.embed(np.kron(a, b), [0, 2], (2, 2, 2)), want)
    with pytest.raises(ValueError, match="above 1024"):
        dense.Reference(dv.noisy_source_device(gate_free(3)))
