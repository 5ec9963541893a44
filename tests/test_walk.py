"""Batched branch evaluation against a per-record loop, float for float.

Every branch state `stats.branch_states` builds for the protocol, the CLI
and the extraction diagnostics must equal, with `==`, the one computed by
applying its op list alone to the source, one operator at a time, and so
must every probability `stats.probabilities` gives on a state of up to
`stats._REDUCED_AMPS` amplitudes. Above that it contracts a reduced state,
so its probabilities are checked within REDUCED_TOL of the state's squared
norm here, and against the product tree in `test_reduced.py`.
"""

import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gate_free
from qselftest import cli
from qselftest import devices as dv
from qselftest import extraction as ex
from qselftest import hilbert as hb
from qselftest import protocol as pr
from qselftest import stats


def per_record(device, state, ops):
    """Probability of one op list applied alone to state, op by op."""
    for op in ops:
        if len(op) == 2:
            operator = device.gate_operator(*op)
        else:
            operator = device.frame_operator(*op)
        state = hb.apply_operator(operator, state)
    return float(hb.norm(state) ** 2)


REDUCED_TOL = 1e-12


def close(got, want, state):
    """got == want on a state of up to stats._REDUCED_AMPS amplitudes; above
    it, within REDUCED_TOL of the state's squared norm."""
    if state.layout.total <= stats._REDUCED_AMPS:
        return got == want
    return abs(got - want) <= REDUCED_TOL * hb.norm(state) ** 2


def per_record_estimate(p, n, seed, index):
    """Record index's estimate, drawn from its stream as NumPy builds it."""
    if n == 0:
        return p
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2 + index,)))
    return float(rng.binomial(n, min(max(p, 0.0), 1.0))) / n


def op_lists(schedule):
    """The op list of each record of the schedule, in record order."""
    return [exp.prep + b for exp in schedule.experiments for b in exp.branches]


def circuit(n, gates):
    steps = tuple(
        dv.CircuitGate(f"g{i + 1}", wires, dv.builtin_gate(name))
        for i, (name, wires) in enumerate(gates)
    )
    return dv.IdealCircuit(n, steps, "0" * n)


CIRCUITS = {
    "h": circuit(1, [("H", (0,))]),
    "fig1": circuit(2, [("H", (0,)), ("CNOT", (0, 1)), ("X", (1,))]),
    "chain3": circuit(3, [("ROT(0.3)", (0,)), ("CNOT", (0, 1)), ("SWAP", (1, 2)), ("H", (2,))]),
}

DEVICES = {
    "honest": dv.honest_device,
    "rotated": lambda c: dv.rotated_device(c, theta=0.4),
    "depolarized": lambda c: dv.noisy_source_device(c, p=0.05),
    "vandam": lambda c: dv.van_dam_device(),
}

CASES = [
    (c, d) for c in ("fig1", "chain3") for d in ("honest", "rotated", "depolarized")
] + [("h", "vandam")]


@pytest.fixture(params=CASES, ids=[f"{d}-{c}" for c, d in CASES])
def case(request):
    name, dev = request.param
    circ = CIRCUITS[name]
    return DEVICES[dev](circ), circ


@pytest.mark.parametrize("mode, seed", [("exact", 0), ("sampled", 5)])
def test_evaluate_schedule(case, mode, seed):
    device, circ = case
    y = "1" + "0" * (circ.n - 1)  # one compensating NOT joins the steps
    schedule = pr.build_schedule(circ, "0" * circ.n, y)
    verdict = pr.evaluate_schedule(device, schedule, mode, seed)
    reference = dv.honest_device(circ)
    recs = verdict.records
    n = recs.n_samples
    assert (n == 0) == (mode == "exact")
    ops_lists = op_lists(schedule)
    assert len(ops_lists) == len(recs)
    for idx, (ops, ideal, est) in enumerate(zip(ops_lists, recs.ideal_p, recs.est_p)):
        assert ideal == per_record(reference, reference.source, ops)
        p = per_record(device, device.source, ops)
        want = per_record_estimate(p, n, seed, idx)
        assert est == want if n else close(est, want, device.source)


@pytest.mark.parametrize("mode, seed", [("exact", 0), ("sampled", 3)])
def test_epr_test(case, mode, seed):
    device, circ = case
    for wire in range(device.n_wires):
        verdict = pr.epr_test(device, wire, mode=mode, seed=seed)
        recs = verdict.records
        (exp,) = recs.experiments
        assert len(exp.branches) == len(recs) == 36
        for idx, (ops, est) in enumerate(zip(exp.branches, recs.est_p)):
            p = per_record(device, device.source, ops)
            want = per_record_estimate(p, recs.n_samples, seed, idx)
            assert est == want if recs.n_samples else close(est, want, device.source)


def test_side_readouts(case):
    device, circ = case
    n = circ.n
    for side in ("A", "B"):
        got = pr._measure_side_distribution(device, device.source, side, n)
        assert list(got) == [format(c, f"0{n}b") for c in range(1 << n)]
        for bits, p in got.items():
            want = per_record(device, device.source, pr._readout(side, bits))
            assert close(p, want, device.source)


def test_input_prep_check(case):
    # circuit_test's input preparation: the B side collapses on each outcome,
    # then the A side is read from the renormalized state
    device, circ = case
    n = circ.n
    for code in range(1 << n):
        readout = pr._readout("B", format(code, f"0{n}b"))
        collapsed = stats.collapse(device, device.source, readout)
        p = per_record(device, device.source, readout)
        assert hb.norm(collapsed) ** 2 == p
        if p <= 1e-14:
            continue
        st = hb.normalized(collapsed)
        for bits, q in pr._measure_side_distribution(device, st, "A", n).items():
            assert close(q, per_record(device, st, pr._readout("A", bits)), st)


@pytest.mark.parametrize(
    "spec", ["builtin:honest", "builtin:rotated?theta=0.4",
             "builtin:depolarized?p=0.05", "builtin:vandam"]
)
def test_tomo(spec, tmp_path):
    out = tmp_path / "tomo.json"
    cli.main(["tomo", "--device", spec, "--out", str(out)])
    device = dv.resolve_device(spec)
    probs = {
        (a, b): per_record(device, device.source, (("A", 0, a), ("B", 0, b)))
        for a in ex.TOMO_ANGLES
        for b in ex.TOMO_ANGLES
    }
    rho = ex.tomo_reconstruct(probs, 2)
    result = json.loads(out.read_text())["result"]
    assert result["rho"] == dv.matrix_to_json(rho)


def shuffled_slots(circ, rng, order):
    """(prep, slots) for every experiment of a schedule: its measured
    columns as slots, in a random or sorted order, each at a random subset
    of the tested angles in a random order, some with None."""
    n = circ.n
    schedule = pr.build_schedule(circ, "0" * n, "1" + "0" * (n - 1))
    out = []
    for exp in schedule.experiments:
        slots = []
        for w in exp.wires:
            for side in ("A", "B"):
                choices = list(dv.TEST_ANGLES) + [None]
                pick = rng.permutation(len(choices))[: rng.integers(1, 4)]
                slots.append((side, w, tuple(choices[i] for i in pick)))
        if order == "sorted":
            slots.sort(key=repr)
        else:
            slots = [slots[i] for i in rng.permutation(len(slots))]
        out.append((exp.prep, slots))
    return out


def product_op_lists(prep, slots):
    """The op list of each product of the slots' branches, first slot
    slowest; a None branch adds no op."""
    return [
        prep + tuple((side, w, a) for (side, w, _), a in zip(slots, angles) if a is not None)
        for angles in itertools.product(*(angles for _, _, angles in slots))
    ]


@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_probabilities_over_any_order(case, order):
    # any order of slots, any angles and None at any place: each product's
    # probability is that of its op list applied alone
    device, circ = case
    rng = np.random.default_rng(2005)
    for prep, slots in shuffled_slots(circ, rng, order):
        state = stats.prepare(device, prep)
        got = stats.probabilities(device, state, slots)
        want = [per_record(device, device.source, ops) for ops in product_op_lists(prep, slots)]
        assert len(got) == len(want)
        assert all(close(g, w, state) for g, w in zip(got, want))


def test_siblings_extended_by_the_next_list():
    # a slot's children are each extended by the next slot, whose first
    # branch is None: the child itself, before its projected siblings
    device = dv.honest_device(CIRCUITS["fig1"])
    prep = (("A", "g1"),)
    slots = [("A", 0, (0.0, np.pi / 8, np.pi / 4)), ("B", 1, (None, np.pi / 8, 0.0))]
    got = stats.probabilities(device, stats.prepare(device, prep), slots)
    want = [per_record(device, device.source, ops) for ops in product_op_lists(prep, slots)]
    assert got == want


def test_walk_keeps_only_the_states_later_lists_restart_from():
    # 19 compensated steps deep: the longest prep has 38 gates. Keeping the
    # whole prep path peaked at 45 state sizes; the op-list walker, which
    # kept only the states later lists restarted from, at 18. The prep chain
    # keeps two prepared states, and every experiment is taken depth first
    # next to them (a block of state-sized rows is not batched). That peaks
    # at 15 state sizes plus the record lists: the two kept states, one
    # (A a) child of a conspiracy wire, and the six (B b) children of it as
    # the matmul's output next to their scatter copy
    gates = []
    for i in range(16):
        w = i // 2 % 3
        if i % 2 == 0:
            gates.append((f"ROT({0.1 * (i + 1)})", (w,)))
        else:
            gates.append(("CNOT", (w, (w + 1) % 3)))
    circ = circuit(3, gates)
    device = dv.noisy_source_device(circ, p=0.05)
    schedule = pr.build_schedule(circ, "000", "111")
    state_bytes = device.source.vec.nbytes  # 64 KiB: hidden dims 4 per wire
    tracemalloc.start()
    try:
        pr._schedule_probabilities(device, schedule.experiments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * state_bytes, peak / state_bytes


def count_applies(monkeypatch, device, schedule):
    """(single-state applies, sorted (operators, parents) of each block
    apply) of one evaluate_schedule call."""
    calls = []
    real = hb.apply_operator

    def counting(op, state):
        calls.append((op, state))
        return real(op, state)

    monkeypatch.setattr(hb, "apply_operator", counting)
    pr.evaluate_schedule(device, schedule)
    monkeypatch.undo()
    blocks = [
        (1 if isinstance(op, hb.LocalOperator) else len(op), len(st.rows))
        for op, st in calls
        if isinstance(st, hb.StateBlock)
    ]
    return len(calls) - len(blocks), sorted(blocks)


# H circuit, y = x = "0": steps (g1,), 4-amplitude states, so every level of
# every product goes to the kernel as one block. Per evaluation, the prep
# chain extends the source by (A g1) and (B g1), 2 single applies.
# conspiracy@0 and conspiracy@1 share a shape, the product (A0 x B0) over
# the six tested angles, so their two prepared states are one block: the
# six (A a) of both as one block call (6 operators, 2 parents), then the six
# (B b) of those twelve as one (6, 12); tomography@1 reads the kept (A g1)
# state and is the product over the three base angles: (3, 1) then (3, 3).
# That is 2 singles and 4 block calls (building the reference applies
# nothing). One experiment at a time took 2 singles and 6 block calls; the
# op-list walker, 17 singles and 15 stacks; one operator at a time, shared
# prefixes once, 98; one record at a time, 165.
ONE_WALK = (2, [(3, 1), (3, 3), (6, 2), (6, 12)])
TWO_WALKS = (2 * 2, sorted(ONE_WALK[1] * 2))


def test_walk_applies_each_shared_prefix_once(monkeypatch):
    # the device is the shared honest device itself, so its probabilities
    # are the ideals and the reference is not evaluated: 2 + 4 applies
    circ = CIRCUITS["h"]
    schedule = pr.build_schedule(circ, "0", "0")
    assert count_applies(monkeypatch, dv.honest_device(circ), schedule) == ONE_WALK


def test_device_and_reference_walked_when_they_differ(monkeypatch):
    # device and reference: 2 * (2 + 4) applies
    circ = CIRCUITS["h"]
    schedule = pr.build_schedule(circ, "0", "0")
    device = dv.rotated_device(circ, theta=0.4)
    assert count_applies(monkeypatch, device, schedule) == TWO_WALKS


def device_json(device):
    """A device file's contents for a device with qubit wires, an EPR source
    and the ideal frames, such as the honest one; the frames are written out."""
    lay = device.layout
    return {
        "layout": {"n_wires": lay.n_wires, "a_dims": list(lay.a_dims),
                   "b_dims": list(lay.b_dims)},
        "source": {"kind": "epr"},
        "gates": [
            {"side": side, "label": label, "wires": list(g.wires),
             "matrix": dv.matrix_to_json(g.matrix)}
            for (side, label), g in device.gates.items()
        ],
        "frames": [
            {"side": side, "wire": wire, "angle": dv.ANGLE_NAMES[a],
             "matrix": dv.matrix_to_json(m)}
            for (side, wire), f in device.frames.items()
            for a, m in f.base.items()
        ],
    }


def test_loaded_honest_device_walked_once(tmp_path, monkeypatch):
    # each walked once: the loaded device equals the honest one bit for bit
    # but is not the shared honest device, so its reference is evaluated
    # too, and gives the same records
    circ = CIRCUITS["h"]
    path = tmp_path / "device.json"
    path.write_text(json.dumps(device_json(dv.honest_device(circ))))
    device = dv.load_device(str(path))
    schedule = pr.build_schedule(circ, "0", "0")
    assert count_applies(monkeypatch, device, schedule) == TWO_WALKS
    got = pr.evaluate_schedule(device, schedule).records
    want = pr.evaluate_schedule(dv.honest_device(circ), schedule).records
    assert got.ideal_p.tolist() == want.ideal_p.tolist()
    assert got.est_p.tolist() == want.est_p.tolist()


def test_builtin_honest_is_the_shared_honest_device():
    circ = CIRCUITS["fig1"]
    assert dv.resolve_device("builtin:honest", circ) is dv.honest_device(circ)


def test_honest_device_shared_per_circuit_object():
    circ = CIRCUITS["chain3"]
    assert dv.honest_device(circ) is dv.honest_device(circ)


@pytest.mark.parametrize("mode, seed", [("exact", 0), ("sampled", 5)])
def test_equal_circuit_gets_its_own_honest_device(mode, seed, monkeypatch):
    # an equal circuit is another object, so it gets another honest device,
    # which is walked with its reference and gives the same records
    circ = CIRCUITS["h"]
    twin = dv.IdealCircuit(circ.n, circ.gates, circ.input)
    device = dv.honest_device(circ)
    other = dv.honest_device(twin)
    assert other is not device
    schedule = pr.build_schedule(circ, "0", "0")
    assert count_applies(monkeypatch, other, schedule) == TWO_WALKS
    got = pr.evaluate_schedule(other, schedule, mode, seed)
    want = pr.evaluate_schedule(dv.honest_device(circ), schedule, mode, seed)
    assert got.to_json() == want.to_json()


def nudged(circ, part):
    """The honest device with one part off by a hair: one source amplitude
    one ulp up, frame (A, 0)'s pi/8 projector rotated by 1e-9, or one entry
    of gate (A, g1) 1e-12 up, inside GATE_TOL."""
    dev = dv.honest_device(circ)
    source, gates, frames = dev.source, dict(dev.gates), dict(dev.frames)
    if part == "source":
        vec = dev.source.vec.copy()
        vec[0] = np.nextafter(vec[0].real, 1.0)
        source = hb.PhysState(dev.source.layout, vec)
    elif part == "frame":
        base = dict(frames[("A", 0)].base)
        base[np.pi / 8] = hb.projector_angle(np.pi / 8 + 1e-9).matrix
        frames[("A", 0)] = dv.MeasurementFrame("A", 0, base)
    else:
        g = gates[("A", "g1")]
        m = g.matrix.copy()
        m[0, 0] += 1e-12
        gates[("A", "g1")] = dv.DeviceGate("A", g.wires, m)
    return dv.DeviceModel(dev.layout, source, gates, frames)


@pytest.mark.parametrize("part", ["source", "frame", "gate"])
def test_nudged_device_walked_twice(part, monkeypatch):
    circ = CIRCUITS["h"]
    schedule = pr.build_schedule(circ, "0", "0")
    assert count_applies(monkeypatch, nudged(circ, part), schedule) == TWO_WALKS
    circ = CIRCUITS["fig1"]
    device = nudged(circ, part)
    reference = dv.honest_device(circ)
    schedule = pr.build_schedule(circ, "00", "10")
    recs = pr.evaluate_schedule(device, schedule).records
    for ops, ideal, est in zip(op_lists(schedule), recs.ideal_p, recs.est_p, strict=True):
        assert ideal == per_record(reference, reference.source, ops)
        assert est == per_record(device, device.source, ops)


def random_frames(device, seed):
    """The device with every base projector replaced by a random complex
    projector of half its frame's dimension."""
    rng = np.random.default_rng(seed)
    frames = {}
    for (side, wire), f in device.frames.items():
        base = {}
        for a in dv.BASE_ANGLES:
            z = rng.normal(size=(f.dim, f.dim)) + 1j * rng.normal(size=(f.dim, f.dim))
            v = np.linalg.qr(z)[0][:, : f.dim // 2]
            base[a] = v @ v.conj().T
        frames[(side, wire)] = dv.MeasurementFrame(side, wire, base)
    return dv.DeviceModel(device.layout, device.source, device.gates, frames)


def hidden_device(e_dims):
    """Qubit wires with hidden environment dims e_dims, a product source
    and the ideal frames."""
    n = len(e_dims)
    layout = dv.RegisterLayout(n, (2,) * n, (2,) * n, e_dims)
    frames = dv.honest_device(gate_free(n)).frames
    return dv.DeviceModel(layout, hb.basis_state(layout.full, 0), {}, frames)


# 4 to 4,096 amplitudes: the small ones are batched at every level, the
# middle ones at some levels and split into parents at others, and the
# largest go depth first; hidden-3 (768) and depolarized-3 (4,096) read
# their probabilities from reduced states
PROPERTY_DEVICES = {
    "honest-1": lambda: dv.honest_device(gate_free(1)),
    "rotated-2": lambda: dv.rotated_device(gate_free(2), theta=0.4),
    "depolarized-2": lambda: dv.noisy_source_device(gate_free(2), p=0.05),
    "depolarized-3": lambda: dv.noisy_source_device(gate_free(3), p=0.05),
    "vandam": dv.van_dam_device,
    "hidden-3": lambda: hidden_device((3, 1, 4)),
}


@functools.cache
def property_device(name):
    return PROPERTY_DEVICES[name]()


def test_property_devices_straddle_the_batching_rule():
    totals = [property_device(name).layout.full.total for name in PROPERTY_DEVICES]
    # the largest product below (four slots of four branches) fits one block
    # on the smallest state, and two branches of one parent do not on the
    # largest
    assert 4**4 * min(totals) <= stats._BLOCK_AMPS < 2 * max(totals)
    assert min(totals) <= stats._REDUCED_AMPS < max(totals)


_angles = st.lists(st.sampled_from(dv.TEST_ANGLES + (None,)), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(list(PROPERTY_DEVICES)),
    frames_seed=st.none() | st.integers(0, 2**32 - 1),
    state_seed=st.integers(0, 2**32 - 1),
    raw_slots=st.lists(
        st.tuples(st.sampled_from("AB"), st.integers(0, 2), _angles), max_size=4
    ),
)
@example(  # an empty slot: no product, no row
    name="honest-1", frames_seed=None, state_seed=0,
    raw_slots=[("A", 0, [0.0, None]), ("B", 0, []), ("A", 0, [0.0])],
)
def test_rows_and_probabilities_match_single_state_chains(
    name, frames_seed, state_seed, raw_slots
):
    # every row of branch_states, and every probability on a state of up to
    # _REDUCED_AMPS amplitudes, equals, bit for bit, its branches applied to
    # the state one single-state call at a time; a larger state's
    # probabilities agree within REDUCED_TOL of its squared norm
    device = property_device(name)
    if frames_seed is not None:
        device = random_frames(device, frames_seed)
    layout = device.layout.full
    rng = np.random.default_rng(state_seed)
    state = hb.PhysState(layout, rng.normal(size=layout.total) + 1j * rng.normal(size=layout.total))
    slots = [(side, w % device.n_wires, tuple(a)) for side, w, a in raw_slots]
    rows = [row for block in stats.branch_states(device, state, slots) for row in block.rows]
    probs = stats.probabilities(device, state, slots)
    products = list(itertools.product(*(angles for _, _, angles in slots)))
    assert len(rows) == len(probs) == len(products)
    for row, p, angles in zip(rows, probs, products):
        st_ = state
        for (side, w, _), a in zip(slots, angles):
            if a is not None:
                st_ = hb.apply_operator(device.frame_operator(side, w, a), st_)
        assert row.tobytes() == st_.vec.tobytes()
        want = hb.norm(st_) ** 2
        if layout.total <= stats._REDUCED_AMPS:
            assert p.hex() == want.hex()
        else:
            assert close(p, want, state)


# the op-list walker's tracemalloc peak on each product below, in state
# sizes, on the 2**16-amplitude state: the states on its path, one parent's
# stack of branches as the matmul's output and its scatter copy, and, for
# the span generators, every generator, as they are all kept
WALK_PEAKS = {"tomography-2": 9, "conspiracy": 13, "span": 18, "readout": 7}


@pytest.mark.parametrize("product", list(WALK_PEAKS))
def test_large_state_holds_no_more_states_than_the_walker(product):
    device = dv.noisy_source_device(gate_free(4), p=0.05)
    state_bytes = device.source.vec.nbytes
    assert device.source.vec.size == 2**16
    base = dv.BASE_ANGLES
    slots = {
        "tomography-2": [("A", 0, base), ("B", 0, base), ("A", 1, base), ("B", 1, base)],
        "conspiracy": [("A", 2, dv.TEST_ANGLES), ("B", 2, dv.TEST_ANGLES)],
        "span": [("A", 0, (None,) + base), ("B", 0, (None,) + base)],
        "readout": [("A", w, dv.COMP_ANGLES) for w in range(4)],
    }[product]
    tracemalloc.start()
    try:
        if product == "span":
            kept = [s for b in stats.branch_states(device, device.source, slots) for s in b.states()]
            assert len(kept) == 16
            del kept
        else:
            stats.probabilities(device, device.source, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (WALK_PEAKS[product] + 0.5) * state_bytes, peak / state_bytes
