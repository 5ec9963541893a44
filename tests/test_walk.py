"""The shared-prefix walker against a per-record loop, float for float.

Every probability the protocol, the CLI and the extraction diagnostics
evaluate through `stats.walk` must equal, with `==`, the one computed by
applying its op list alone to the source, one operator at a time.
"""

import json
import tracemalloc

import numpy as np
import pytest

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
        assert est == per_record_estimate(p, n, seed, idx)


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
            assert est == per_record_estimate(p, recs.n_samples, seed, idx)


def test_side_readouts(case):
    device, circ = case
    n = circ.n
    for side in ("A", "B"):
        got = pr._measure_side_distribution(device, device.source, side, n)
        assert list(got) == [format(c, f"0{n}b") for c in range(1 << n)]
        for bits, p in got.items():
            assert p == per_record(device, device.source, pr._readout(side, bits))


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
            assert q == per_record(device, st, pr._readout("A", bits))


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


def mixed_op_lists(device, circ, rng):
    """A schedule's op lists with prefixes cut at random (some end in a
    gate), empty lists, repeats and side readouts, in a random order."""
    n = circ.n
    schedule = pr.build_schedule(circ, "0" * n, "1" + "0" * (n - 1))
    lists = op_lists(schedule)
    lists += [ops[: rng.integers(len(ops) + 1)] for ops in lists[::7]]
    lists += [(), (), lists[3], lists[3]]
    lists += [tuple(pr._readout(side, format(c, f"0{n}b")))
              for side in ("A", "B") for c in range(1 << n)]
    return [lists[i] for i in rng.permutation(len(lists))]


@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_probabilities_over_any_order(case, order):
    # each list restarts from wherever the list before it left off, so the
    # states a later list restarts from must survive every shallower or
    # deeper list in between; sorting makes long runs of siblings
    device, circ = case
    rng = np.random.default_rng(2005)
    lists = mixed_op_lists(device, circ, rng)
    if order == "sorted":
        lists.sort(key=repr)
    got = stats.probabilities(device, device.source, lists)
    assert got == [per_record(device, device.source, ops) for ops in lists]


def test_siblings_extended_by_the_next_list():
    # the last sibling's state is where a list that extends it restarts
    device = dv.honest_device(CIRCUITS["fig1"])
    a = [("A", 0, x) for x in (0.0, np.pi / 8, np.pi / 4)]
    lists = [[("A", "g1"), op] for op in a]
    lists += [lists[-1] + [("B", 1, np.pi / 8)], [("A", "g1")], lists[0]]
    got = stats.probabilities(device, device.source, lists)
    assert got == [per_record(device, device.source, ops) for ops in lists]


def test_walk_keeps_only_the_states_later_lists_restart_from():
    # 19 compensated steps deep: the longest list has 41 ops. Keeping the
    # whole path of the current list peaked at 45 state sizes; keeping only
    # the few states that later lists restart from, next to one stack of
    # six siblings and its scatter copy, peaks at 18
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
    lists = op_lists(schedule)
    state_bytes = device.source.vec.nbytes  # 64 KiB: hidden dims 4 per wire
    tracemalloc.start()
    try:
        stats.probabilities(device, device.source, lists)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * state_bytes, peak / state_bytes


def count_applies(monkeypatch, device, schedule):
    """(single applies, sorted stack sizes) of one evaluate_schedule call."""
    calls = []
    real = hb.apply_operator

    def counting(op, state):
        calls.append(op)
        return real(op, state)

    monkeypatch.setattr(hb, "apply_operator", counting)
    pr.evaluate_schedule(device, schedule)
    monkeypatch.undo()
    stacks = [op for op in calls if not isinstance(op, hb.LocalOperator)]
    return len(calls) - len(stacks), sorted(len(s) for s in stacks)


# H circuit, y = x = "0": steps (g1,). A stacked call, the sibling branches
# of one parent applied at once, counts as one. Per walk, conspiracy@0 has
# 36 settings (A a)(B b) in a-major order: per a, one single (A a) and one
# stack of the six (B b), so 6 + 6; conspiracy@1 adds its prep (A g1)(B g1)
# once: 2 singles, then 6 + 6 again; tomography@1 keeps (A g1) from the list
# before and has three (A a), each with a stack of three (B b): 3 + 3. That
# is 17 singles and 15 stacks (building the reference applies nothing). One
# operator at a time, shared prefixes once, it took 98; one record at a
# time, 165.
ONE_WALK = (17, [3] * 3 + [6] * 12)
TWO_WALKS = (2 * 17, [3] * 6 + [6] * 24)


def test_walk_applies_each_shared_prefix_once(monkeypatch):
    # the device is the honest one bit for bit, so its probabilities are
    # the ideals and the reference is not walked: 17 + 15 applies
    circ = CIRCUITS["h"]
    schedule = pr.build_schedule(circ, "0", "0")
    assert count_applies(monkeypatch, dv.honest_device(circ), schedule) == ONE_WALK


def test_device_and_reference_walked_when_they_differ(monkeypatch):
    # device and reference: 2 * (17 + 15) applies
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
    circ = CIRCUITS["h"]
    path = tmp_path / "device.json"
    path.write_text(json.dumps(device_json(dv.honest_device(circ))))
    device = dv.load_device(str(path))
    schedule = pr.build_schedule(circ, "0", "0")
    assert count_applies(monkeypatch, device, schedule) == ONE_WALK
    got = pr.evaluate_schedule(device, schedule).records
    want = pr.evaluate_schedule(dv.honest_device(circ), schedule).records
    assert got.ideal_p.tolist() == want.ideal_p.tolist()
    assert got.est_p.tolist() == want.est_p.tolist()


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
