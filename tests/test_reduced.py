"""Probabilities of large states, from reduced states, against the product tree.

Above `stats._REDUCED_AMPS` amplitudes `stats.probabilities` contracts the
slots' reduced density matrix instead of building every branch state. Each
value must agree within 1e-12 with the tree written here: the rows of
`stats.branch_states`, then `math.sqrt(s) ** 2` of each squared norm s. At
or below it the package's values are the tree's, bit for bit.
"""

import json
import math

import numpy as np
import pytest

from conftest import gate_free
from qselftest import cli
from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest import protocol as pr
from qselftest import stats

TOL = 1e-12


def tree_probabilities(device, state, slots):
    """Each product's probability as its branch state's squared norm."""
    return [
        hb.norm(row) ** 2
        for block in stats.branch_states(device, state, slots)
        for row in block.states()
    ]


def chain_circuit(n):
    gates = [("H", (0,)), ("CNOT", (0, 1)), ("X", (n - 1,))]
    steps = tuple(
        dv.CircuitGate(f"g{i + 1}", wires, dv.builtin_gate(name))
        for i, (name, wires) in enumerate(gates)
    )
    return dv.IdealCircuit(n, steps, "0" * n)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def random_projector(rng, d):
    v = random_unitary(rng, d)[:, : d // 2]
    return v @ v.conj().T


def with_frames(device, frame):
    """The device with every base projector replaced by frame(side, wire, P)."""
    frames = {
        (side, wire): dv.MeasurementFrame(
            side, wire, {a: frame(side, wire, m) for a, m in f.base.items()}
        )
        for (side, wire), f in device.frames.items()
    }
    return dv.DeviceModel(device.layout, device.source, device.gates, frames)


def near_projector_frames(device, seed, size=2e-11):
    """Each base projector plus a random complex matrix with entries up to
    size: Hermitian and idempotent only within ~1e-10, as a device file's
    frames may be, so P^dagger P differs from P by ~size."""
    rng = np.random.default_rng(seed)

    def frame(side, wire, m):
        e = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        return m + size * e / np.abs(e).max()

    return with_frames(device, frame)


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=layout.total) + 1j * rng.normal(size=layout.total)
    return hb.PhysState(layout, v / np.linalg.norm(v))


@pytest.fixture()
def spied(monkeypatch):
    """Every stats.probabilities call of the package, as (total, slots, got,
    tree) with the tree's values beside the package's; a call on a block of
    states is one entry per state, its slice of the block's values beside
    that state's own tree."""
    calls = []
    real = stats.probabilities

    def spy(device, states, slots):
        got = real(device, states, slots)
        rows = states.states() if isinstance(states, hb.StateBlock) else (states,)
        size = math.prod(len(angles) for _, _, angles in slots)
        assert len(got) == size * len(rows)
        for i, state in enumerate(rows):
            want = tree_probabilities(device, state, slots)
            part = got[i * size : (i + 1) * size]
            calls.append((state.layout.total, [tuple(s[:2]) for s in slots], part, want))
        return got

    monkeypatch.setattr(stats, "probabilities", spy)
    return calls


def worst(calls):
    assert calls
    return max(
        max((abs(g - w) for g, w in zip(got, want, strict=True)), default=0.0)
        for _, _, got, want in calls
    )


CHAINS = {n: chain_circuit(n) for n in (3, 5, 6, 7)}
N7 = CHAINS[7]


def rotated(circ):
    rng = np.random.default_rng(2006)
    v_a = [random_unitary(rng, 2) for _ in range(circ.n)]
    v_b = [random_unitary(rng, 2) for _ in range(circ.n)]
    return dv.rotated_device(circ, v_a=v_a, v_b=v_b)


def near_projector(circ):
    return near_projector_frames(dv.honest_device(circ), 5)


def depolarized(circ):
    return dv.noisy_source_device(circ, p=0.05)


# (chain width, device) at 1,024 (n = 5), 4,096 (n = 6, and n = 3 with a
# 4-level environment per wire) and 16,384 (n = 7) amplitudes
KINDS = {"honest": dv.honest_device, "rotated": rotated, "near-projector": near_projector}
LARGE_DEVICES = {f"{kind}-{n}": (n, build) for n in (7, 5, 6) for kind, build in KINDS.items()}
LARGE_DEVICES["depolarized-3"] = (3, depolarized)


def large_device(name):
    n, build = LARGE_DEVICES[name]
    return build(CHAINS[n]), CHAINS[n]


@pytest.mark.parametrize("name", list(LARGE_DEVICES))
def test_circuit_test_records_and_readouts_match_the_tree(name, spied):
    device, circ = large_device(name)
    n = circ.n
    total = device.source.layout.total
    assert total > stats._REDUCED_AMPS
    v = pr.circuit_test(device, circ, "0" * n, eps=0.1)
    readouts = {
        side: [c for c in spied if c[1] == [(side, w) for w in range(n)]] for side in "AB"
    }
    assert len(readouts["A"]) == len(readouts["B"]) == 1
    assert len(spied) > 2  # the records too
    # the device's calls, and its honest reference's on 4^n amplitudes
    assert {t for t, *_ in spied} == {total, 4**n}
    assert worst(spied) <= TOL
    # the verdict itself stands: every device here but the depolarized one
    # simulates the circuit exactly, and a depolarized source moves any
    # probability by at most its p
    assert v.accepted
    assert v.max_deviation <= (0.05 if name == "depolarized-3" else 1e-9)


@pytest.mark.parametrize("name", list(LARGE_DEVICES))
def test_epr_test_matches_the_tree(name, spied):
    device, circ = large_device(name)
    wire = circ.n // 2
    v = pr.epr_test(device, wire=wire)
    assert len(spied) == 1 and spied[0][1] == [("A", wire), ("B", wire)]
    assert worst(spied) <= TOL
    assert v.accepted


def test_near_projector_frames_tell_p_from_p_dagger_p():
    # the test above kills a reduced path that contracts P, not P^dagger P,
    # only if the two differ by more than its tolerance on this device
    device, _ = large_device("near-projector-7")
    state = device.source
    slots = [("A", 2, dv.TEST_ANGLES), ("B", 2, dv.TEST_ANGLES)]
    rho = hb.partial_trace(state, [device.layout.side_index(s, w) for s, w, _ in slots])
    ops = [[device.frame_operator(s, w, a).matrix for a in angles] for s, w, angles in slots]
    linear = [np.trace(np.kron(p, q) @ rho).real for p in ops[0] for q in ops[1]]
    tree = tree_probabilities(device, state, slots)
    assert max(abs(a - b) for a, b in zip(linear, tree)) > 10 * TOL


def hidden_device(e_dims, seed):
    """Qubit wires with hidden environment dims, random projector frames and
    a random state on each wire's (A_w, B_w, E_w), the source their product."""
    n = len(e_dims)
    layout = dv.RegisterLayout(n, (2,) * n, (2,) * n, e_dims)
    wires = [random_state(hb.SubsystemDims((2, 2, e)), seed + i) for i, e in enumerate(e_dims)]
    # (A_0 B_0 E_0 A_1 ...) -> the layout's (A_0 A_1 ... B_0 ... E_0 ...)
    perm = [3 * w + k for k in range(3) for w in range(n)]
    source = hb.permute_subsystems(hb.tensor(*wires), perm)
    device = dv.DeviceModel(layout, source, {}, dv.honest_device(gate_free(n)).frames)
    rng = np.random.default_rng(seed)
    return with_frames(device, lambda side, wire, m: random_projector(rng, 2))


SLOTS = {
    "none-first": [("A", 0, (None,) + dv.BASE_ANGLES), ("B", 0, dv.TEST_ANGLES)],
    "none-inside": [
        ("B", 1, dv.COMP_ANGLES), ("A", 2, (0.0, None, math.pi / 8)), ("A", 0, (None,))
    ],
    "only-none": [("A", 1, (None, None)), ("B", 3, (None,))],
    "tomography-3": [(side, w, dv.BASE_ANGLES) for w in (0, 1, 3) for side in "AB"],
    "readout": [("B", w, dv.COMP_ANGLES) for w in range(4)],
    "no-slot": [],
}


@pytest.mark.parametrize("slots", list(SLOTS))
@pytest.mark.parametrize("device", ["hidden", "depolarized"])
def test_hidden_dims_and_none_angles_match_the_tree(device, slots):
    if device == "hidden":
        dev = hidden_device((3, 1, 4, 2), seed=11)
    else:
        dev = dv.noisy_source_device(gate_free(4), p=0.05)
    state = dev.source
    assert state.layout.total > stats._REDUCED_AMPS
    got = stats.probabilities(dev, state, SLOTS[slots])
    want = tree_probabilities(dev, state, SLOTS[slots])
    assert len(got) == len(want) == math.prod(len(a) for _, _, a in SLOTS[slots])
    assert max((abs(g - w) for g, w in zip(got, want)), default=0.0) <= TOL


def test_reduced_state_larger_than_the_state_keeps_the_tree():
    # 8-dim sides: rho over every side subsystem would hold 4096^2 entries
    # against the state's 8192, so the tree runs, bit for bit
    layout = dv.RegisterLayout(2, (8, 8), (8, 8), (2, 1))
    rng = np.random.default_rng(3)
    frames = {
        (side, w): dv.MeasurementFrame(
            side, w, {a: random_projector(rng, 8) for a in dv.BASE_ANGLES}
        )
        for side in "AB"
        for w in range(2)
    }
    state = random_state(layout.full, 4)
    assert layout.full.total == 8192 > stats._REDUCED_AMPS
    device = dv.DeviceModel(layout, hb.basis_state(layout.full, 0), {}, frames)
    slots = [(side, w, dv.TEST_ANGLES[:3]) for w in range(2) for side in "AB"]
    got = stats.probabilities(device, state, slots)
    assert [p.hex() for p in got] == [p.hex() for p in tree_probabilities(device, state, slots)]


BOUNDARY_DEVICES = {
    "honest-4": (256, lambda: dv.honest_device(chain_circuit(4))),
    "depolarized-2": (256, lambda: dv.noisy_source_device(gate_free(2), p=0.05)),
    "hidden-512": (512, lambda: hidden_device((1, 1, 1, 2), seed=7)),
    "honest-5": (1024, lambda: dv.honest_device(CHAINS[5])),
}


@pytest.mark.parametrize("name", list(BOUNDARY_DEVICES))
def test_reduced_path_runs_above_256_amplitudes_only(name, monkeypatch):
    total, build = BOUNDARY_DEVICES[name]
    device = build()
    state = device.source
    assert state.layout.total == total
    assert stats._REDUCED_AMPS == 256
    traced = []
    real = hb.partial_trace

    def spy(state, targets):
        traced.append(tuple(targets))
        return real(state, targets)

    monkeypatch.setattr(hb, "partial_trace", spy)
    products = {
        "conspiracy": [("A", 1, dv.TEST_ANGLES), ("B", 1, dv.TEST_ANGLES)],
        "tomography-2": [(side, w, dv.BASE_ANGLES) for w in (0, 1) for side in "AB"],
        "readout": [("B", w, dv.COMP_ANGLES) for w in range(device.n_wires)],
    }
    for slots in products.values():
        traced.clear()
        got = stats.probabilities(device, state, slots)
        want = tree_probabilities(device, state, slots)
        if total <= 256:
            assert traced == []
            assert [p.hex() for p in got] == [p.hex() for p in want]
        else:
            assert len(traced) == 1
            assert max(abs(g - w) for g, w in zip(got, want, strict=True)) <= TOL


def test_no_value_is_negative():
    # outcomes of zero probability, read through complex frames: the trace
    # form rounds some of them below zero, and they come back as 0.0
    device = rotated(N7)
    state = device.source
    values = []
    for w in range(N7.n):
        values += stats.probabilities(
            device, state, [("A", w, dv.TEST_ANGLES), ("B", w, dv.TEST_ANGLES)]
        )
    assert min(values) < 1e-15  # cos^2(a - b) / 2 is 0 at a - b = pi / 2
    assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


def test_forced_zero_probability_y_on_a_large_device_exits_two(tmp_path, capsys):
    # wire 0's pair is |00>, so reading 1 on B_0 has probability exactly 0
    r = 1 / math.sqrt(2)
    epr = [[r, 0], [0, 0], [0, 0], [r, 0]]
    zeros = [[1, 0], [0, 0], [0, 0], [0, 0]]
    device = {
        "layout": {"n_wires": 7, "a_dims": [2] * 7, "b_dims": [2] * 7},
        "source": {"kind": "matrix", "params": {"per_wire": [zeros] + [epr] * 6}},
    }
    circuit = {"n": 7, "gates": [{"label": "g1", "wires": [0], "builtin": "H"}]}
    (tmp_path / "d.json").write_text(json.dumps(device))
    (tmp_path / "c.json").write_text(json.dumps(circuit))
    argv = ["circuit-test", "--device", str(tmp_path / "d.json"), "--circuit"]
    argv += [str(tmp_path / "c.json"), "--x", "0" * 7]
    assert cli.main(argv + ["--force-y", "1" + "0" * 6]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "zero probability" in err


@pytest.mark.parametrize("wire", ["9", "30", "-1"])
def test_missing_wire_on_a_large_device_exits_two(wire, tmp_path, capsys):
    # the reduced path looks up the slots' subsystems only after the device
    # has built their projectors, so a wire it lacks is refused as before
    device = {"layout": {"n_wires": 7, "a_dims": [2] * 7, "b_dims": [2] * 7}}
    (tmp_path / "d.json").write_text(json.dumps(device))
    assert cli.main(["epr-test", "--device", str(tmp_path / "d.json"), "--wire", wire]) == 2
    assert capsys.readouterr().err == f"error: device has no frame on side A wire {wire}\n"
