"""Schedules evaluated shape by shape, against one experiment at a time.

`protocol._schedule_probabilities` evaluates the experiments of one shape
(kind, wires, settings) together, on the block of their prepared states.
Every value must equal, with `==`, the one `per_experiment` gives: the loop
that evaluated each experiment alone, on its own prepared state, before
shapes were batched, kept here as it ran.
"""

import json
import math

import numpy as np
import pytest

from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest import protocol as pr
from qselftest import stats


def one_experiment(device, state, exp):
    """exp's probabilities on one prepared state: one stats.probabilities
    call per group of settings that measure the same columns."""
    s = exp.settings
    width = s.shape[1]
    if exp.kind == "conspiracy":
        groups = [(np.flatnonzero(s[:, c] >= 0), range(c, c + 2)) for c in range(0, width, 2)]
    else:
        groups = [(np.arange(len(s)), range(width))]
    out = np.empty(len(s))
    for rows, cols in groups:
        if not rows.size:
            continue
        grid = s[rows][:, cols]
        dims = grid.max(axis=0) + 1
        slots = [
            ("AB"[c % 2], exp.wires[c // 2], dv.TEST_ANGLES[:d])
            for c, d in zip(cols, dims.tolist())
        ]
        probs = stats.probabilities(device, state, slots)
        out[rows] = np.take(probs, np.ravel_multi_index(grid.T, dims))
    return out


def per_experiment(device, experiments):
    """Each record's probability, one experiment at a time, in record order;
    the preps are one chain, and the last two prepared states are kept."""
    kept = []
    out = []
    for exp in experiments:
        prep, state = max(
            [((), device.source)] + [k for k in kept if exp.prep[: len(k[0])] == k[0]],
            key=lambda k: len(k[0]),
        )
        for i in range(len(prep), len(exp.prep)):
            state = hb.apply_operator(device.gate_operator(*exp.prep[i]), state)
            kept = kept[-1:] + [(exp.prep[: i + 1], state)]
        out.append(one_experiment(device, state, exp))
    return np.concatenate(out)


def chain(n, t, seed):
    """Rotation/CNOT chain: even steps rotate a random wire, odd steps CNOT
    a random neighbouring pair."""
    rng = np.random.default_rng(seed)
    gates = []
    for k in range(t):
        if k % 2 == 0 or n == 1:
            theta = rng.uniform(0.0, math.pi)
            c, s = math.cos(theta), math.sin(theta)
            wires, m = (int(rng.integers(n)),), np.array([[c, -s], [s, c]])
        else:
            a = int(rng.integers(n))
            wires, m = (a, (a + 1) % n), dv.builtin_gate("CNOT")
        gates.append(dv.CircuitGate(f"g{k + 1}", wires, m))
    return dv.IdealCircuit(n, tuple(gates), "0" * n)


FIG1 = dv.IdealCircuit(
    2,
    tuple(
        dv.CircuitGate(f"g{i + 1}", wires, dv.builtin_gate(name))
        for i, (name, wires) in enumerate([("H", (0,)), ("CNOT", (0, 1)), ("X", (1,))])
    ),
    "00",
)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def hidden_json_device(circ, e_dims, tmp_path, seed=29):
    """A device file with hidden environment dims e_dims, a random state on
    each wire's (A_w, B_w, E_w), a random unitary for every gate of the
    honest table and the ideal qubit frames, loaded back from the file."""
    rng = np.random.default_rng(seed)
    n = circ.n
    per_wire = []
    for e in e_dims:
        v = rng.normal(size=4 * e) + 1j * rng.normal(size=4 * e)
        per_wire.append([[float(x.real), float(x.imag)] for x in v / np.linalg.norm(v)])
    gates = [
        {"side": side, "label": label, "wires": list(g.wires),
         "matrix": dv.matrix_to_json(random_unitary(rng, g.matrix.shape[0]))}
        for (side, label), g in dv.honest_device(circ).gates.items()
    ]
    data = {
        "layout": {"n_wires": n, "a_dims": [2] * n, "b_dims": [2] * n, "e_dims": list(e_dims)},
        "source": {"kind": "matrix", "params": {"per_wire": per_wire}},
        "gates": gates,
    }
    path = tmp_path / "device.json"
    path.write_text(json.dumps(data))
    return dv.load_device(str(path))


CHAINS = {"n2-t32": chain(2, 32, 1), "n2-t64": chain(2, 64, 2), "n5-t8": chain(5, 8, 3)}

# (circuit, device): 16- to 256-amplitude states, batched by shape; the
# hidden device's 96 amplitudes fill a block only up to 42 states (4,032
# amplitudes); the n=5 chain's 1,024 are read from reduced states, one
# state at a time
CASES = {
    "n2-t32-honest": ("n2-t32", "honest"),
    "n2-t32-rotated": ("n2-t32", "rotated"),
    "n2-t32-depolarized": ("n2-t32", "depolarized"),
    "n2-t64-honest": ("n2-t64", "honest"),
    "n2-t64-depolarized": ("n2-t64", "depolarized"),
    "fig1-honest": ("fig1", "honest"),
    "fig1-rotated": ("fig1", "rotated"),
    "fig1-depolarized": ("fig1", "depolarized"),
    "fig1-hidden-json": ("fig1", "hidden-json"),
    "n5-t8-honest": ("n5-t8", "honest"),
    "n5-t8-rotated": ("n5-t8", "rotated"),
}


def build(circ, kind, tmp_path):
    if kind == "honest":
        return dv.honest_device(circ)
    if kind == "rotated":
        return dv.rotated_device(circ, theta=0.4)
    if kind == "depolarized":
        return dv.noisy_source_device(circ, p=0.05)
    return hidden_json_device(circ, (3, 2), tmp_path)


@pytest.mark.parametrize("case", list(CASES))
def test_schedule_equals_one_experiment_at_a_time(case, tmp_path, monkeypatch):
    name, kind = CASES[case]
    circ = FIG1 if name == "fig1" else CHAINS[name]
    device = build(circ, kind, tmp_path)
    n = circ.n
    # one compensating NOT joins the steps
    schedule = pr.build_schedule(circ, "0" * n, "1" + "0" * (n - 1))
    blocks = []
    real = stats.probabilities

    def spy(dev, states, slots):
        blocks.append((isinstance(states, hb.StateBlock), len(getattr(states, "rows", [0]))))
        return real(dev, states, slots)

    monkeypatch.setattr(stats, "probabilities", spy)
    got = pr._schedule_probabilities(device, schedule.experiments)
    monkeypatch.undo()
    want = per_experiment(device, schedule.experiments)
    assert got.shape == want.shape == (schedule.n_records,)
    assert got.tolist() == want.tolist()

    # every block holds one state or at most _BLOCK_AMPS amplitudes, and a
    # state above _REDUCED_AMPS comes alone, as the state itself
    total = device.layout.full.total
    for is_block, m in blocks:
        assert m * total <= stats._BLOCK_AMPS or m == 1
        assert not (is_block and m == 1)
    if total > stats._REDUCED_AMPS:
        assert not any(is_block for is_block, _ in blocks)
    else:
        assert max(m for _, m in blocks) > 1
    if case == "n2-t64-depolarized":
        # 256 amplitudes: a shape's queue is evaluated whenever it holds 16
        assert (True, 16) in blocks


def random_states(layout, m, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(m, layout.total)) + 1j * rng.normal(size=(m, layout.total))
    return [hb.PhysState(layout, row) for row in v]


# (device, parents): first-level children of 6 * 64 and 6 * 256 amplitudes
# fit 10 and 2 parents per kernel call, and neither count divides the parents
RAGGED = {"honest-3": (lambda: dv.honest_device(n=3), 23),
          "depolarized-2": (lambda: dv.noisy_source_device(n=2, p=0.05), 5)}


@pytest.mark.parametrize("name", list(RAGGED))
def test_leaves_split_parents_into_chunks_whose_children_fit(name, monkeypatch):
    build_device, m = RAGGED[name]
    device = build_device()
    layout = device.layout.full
    states = random_states(layout, m, 4)
    block = hb.StateBlock(layout, np.stack([s.vec for s in states]))
    slots = [("A", 0, dv.TEST_ANGLES), ("B", 1, (None,) + dv.BASE_ANGLES)]
    step = stats._BLOCK_AMPS // (len(dv.TEST_ANGLES) * layout.total)
    assert 1 < step < m and m % step
    parents = []
    real = hb.apply_operator

    def spy(op, state):
        if not isinstance(op, hb.LocalOperator) and len(op) == len(dv.TEST_ANGLES):
            parents.append(len(state.rows))
        return real(op, state)

    monkeypatch.setattr(hb, "apply_operator", spy)
    rows = [row for b in stats._leaves(stats._levels(device, slots), block) for row in b.rows]
    monkeypatch.undo()
    assert parents == [step] * (m // step) + [m % step]
    want = []
    for st in states:
        for a in dv.TEST_ANGLES:
            child = hb.apply_operator(device.frame_operator("A", 0, a), st)
            for b in slots[1][2]:
                leaf = child if b is None else hb.apply_operator(
                    device.frame_operator("B", 1, b), child
                )
                want.append(leaf.vec)
    assert len(rows) == len(want)
    assert all(r.tobytes() == w.tobytes() for r, w in zip(rows, want))


@pytest.mark.parametrize(
    "build_device",
    [lambda: dv.honest_device(n=3), lambda: dv.noisy_source_device(n=2, p=0.05),
     lambda: dv.noisy_source_device(n=3, p=0.05)],
    ids=["honest-3", "depolarized-2", "depolarized-3"],
)
def test_block_probabilities_are_each_states_in_turn(build_device):
    # parent-major: a block's values are its states' values, one after the
    # other; on 4,096 amplitudes each state is read from its reduced state
    device = build_device()
    layout = device.layout.full
    states = random_states(layout, 7, 5)
    block = hb.StateBlock(layout, np.stack([s.vec for s in states]))
    for slots in (
        [("A", 1, dv.TEST_ANGLES), ("B", 1, dv.TEST_ANGLES)],
        [(side, w, dv.BASE_ANGLES) for w in (0, 1) for side in "AB"],
        [("A", 0, (None, 0.0)), ("B", 0, (math.pi / 8,))],
    ):
        got = stats.probabilities(device, block, slots)
        want = [p for st in states for p in stats.probabilities(device, st, slots)]
        assert got == want
