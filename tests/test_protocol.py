"""Protocol-level behavior: pair test, schedules, full runs, rejection goldens."""

import itertools
import json
import math

import numpy as np
import pytest

from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest import protocol as pr
from qselftest import stats as stx
from qselftest.errors import DeviceValidationError, ValidationError


def h_circuit():
    return dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),), "0")


def bell_circuit():
    return dv.IdealCircuit(
        2,
        (
            dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
            dv.CircuitGate("g2", (0, 1), dv.builtin_gate("CNOT")),
        ),
        "00",
    )


def fig1_circuit():
    return dv.IdealCircuit(
        2,
        (
            dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
            dv.CircuitGate("g2", (0, 1), dv.builtin_gate("CNOT")),
            dv.CircuitGate("g3", (1,), dv.builtin_gate("X")),
        ),
        "00",
    )


def classically_correlated_device():
    """Purified 50/50 mixture of |00><00| and |11><11|: right marginals, no pairing."""
    lay = dv.RegisterLayout(1, (2,), (2,), (2,))
    v = np.zeros(8, dtype=np.complex128)
    v[0] = v[7] = 1 / math.sqrt(2)
    frames = {
        (s, 0): dv.MeasurementFrame(
            s, 0, {a: hb.projector_angle(a).matrix for a in dv.BASE_ANGLES}
        )
        for s in ("A", "B")
    }
    return dv.DeviceModel(lay, hb.PhysState(lay.full, v), {}, frames)


class TestEprTest:
    def test_honest_accepts(self):
        v = pr.epr_test(dv.honest_device(), eps=0.1)
        assert v.accepted
        assert v.max_deviation <= 1e-12
        assert len(v.records) == 36

    def test_depolarized_rejected_with_exact_deviation(self):
        v = pr.epr_test(dv.noisy_source_device(p=0.2), eps=0.01)
        assert not v.accepted
        assert v.max_deviation == pytest.approx(0.05, abs=1e-12)

    def test_classically_correlated_rejected(self):
        v = pr.epr_test(classically_correlated_device(), eps=0.1)
        assert not v.accepted
        assert v.max_deviation == pytest.approx(0.25, abs=1e-12)
        pi4 = dv.TEST_ANGLES.index(math.pi / 4)
        settings = v.records.experiments[0].settings
        quarter = [i for i in v.failing.tolist() if settings[i].tolist() == [pi4, pi4]]
        assert quarter and v.records.est_p[quarter[0]] == pytest.approx(0.25, abs=1e-12)
        assert v.records.ideal_p[quarter[0]] == pytest.approx(0.5, abs=1e-12)

    def test_sampled_mode_deterministic_and_sound(self):
        dev = dv.honest_device()
        v1 = pr.epr_test(dev, eps=0.1, mode="sampled", seed=9)
        v2 = pr.epr_test(dev, eps=0.1, mode="sampled", seed=9)
        assert v1.records.est_p.tolist() == v2.records.est_p.tolist()
        assert v1.accepted
        assert v1.records.n_samples == stx.sample_size(0.1, 0.05, 36)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            pr.epr_test(dv.honest_device(), mode="guess")


class TestBuildSchedule:
    def test_matching_input_needs_no_compensation(self):
        sch = pr.build_schedule(h_circuit(), "0", "0")
        assert len(sch.steps) == 1
        assert [s.label for s in sch.steps] == ["g1"]

    def test_single_differing_bit_prepends_one_not(self):
        circ = bell_circuit()
        sch = pr.build_schedule(circ, "00", "10")
        assert len(sch.steps) == 3
        assert [s.label for s in sch.steps] == ["not0", "g1", "g2"]
        assert sch.steps[0].wires == (0,)

    def test_three_gate_two_wire_pattern(self):
        # 1 initial + one conspiracy and one tomography per gate = 4 + 3
        circ = dv.IdealCircuit(
            2,
            (
                dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
                dv.CircuitGate("g2", (0, 1), dv.builtin_gate("CNOT")),
                dv.CircuitGate("g3", (1,), dv.builtin_gate("X")),
            ),
            "00",
        )
        sch = pr.build_schedule(circ, "00", "00")
        kinds = [e.kind for e in sch.experiments]
        assert kinds == [
            "conspiracy",
            "conspiracy",
            "tomography",
            "conspiracy",
            "tomography",
            "conspiracy",
            "tomography",
        ]
        assert kinds.count("conspiracy") == 4
        assert kinds.count("tomography") == 3
        assert sch.experiments[0].j == 0
        assert sch.experiments[0].wires == (0, 1)
        assert len(sch.experiments) == 2 * len(sch.steps) + 1

    def test_record_count_bound(self):
        circ = bell_circuit()
        for y in ("00", "11"):
            sch = pr.build_schedule(circ, "00", y)
            n, tp = circ.n, len(sch.steps)
            assert sch.n_records <= 36 * n + 36 * 3 * tp + 9**3 * tp

    def test_tomography_counts_scale_with_arity(self):
        sch = pr.build_schedule(bell_circuit(), "00", "00")
        tomo = [e for e in sch.experiments if e.kind == "tomography"]
        assert [len(e.settings) for e in tomo] == [9, 81]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            pr.build_schedule(h_circuit(), "00", "0")
        with pytest.raises(ValidationError, match="bit strings"):
            pr.build_schedule(h_circuit(), "0", "2")

    def test_tomography_prep_is_one_sided_on_last_step(self):
        sch = pr.build_schedule(h_circuit(), "0", "0")
        tomo = sch.experiments[2]
        assert tomo.kind == "tomography"
        assert tomo.prep == (("A", "g1"),)

    def test_settings_of_an_experiment_share_one_prep(self):
        # one prep object per experiment, handed to every setting's entry
        # as is
        circ = bell_circuit()
        sch = pr.build_schedule(circ, "00", "10")
        js = pr.evaluate_schedule(dv.honest_device(circ), sch).to_json()
        preps = [exp.prep for exp in sch.experiments for _ in exp.settings]
        assert len(preps) == len(js["records"])
        assert all(r["setting"]["prep"] is p for r, p in zip(js["records"], preps))
        assert max(len(exp.prep) for exp in sch.experiments) == 6

    def test_setting_normalizes_other_preps(self):
        # a list prep becomes a tuple; its entries are kept as given
        first, second = ["A", "g1"], ("B", "g1")
        exp = pr.Experiment("conspiracy", 1, (0,), [first, second])
        assert type(exp.prep) is tuple and len(exp.prep) == 2
        assert exp.prep[0] is first and exp.prep[1] is second
        assert exp.branches[0] == (("A", 0, 0.0), ("B", 0, 0.0))

    def test_prep_of_str_pairs_is_kept_and_any_other_is_normalized(self):
        # a tuple prep, as every schedule's is, is kept as the same object;
        # a list or an iterator becomes a tuple of the same entries
        prep = (("A", "g1"), ["B", "g1"])
        assert pr.Experiment("conspiracy", 1, (0,), prep).prep is prep
        for other in (list(prep), iter(prep)):
            exp = pr.Experiment("conspiracy", 1, (0,), other)
            assert type(exp.prep) is tuple and exp.prep is not other
            assert len(exp.prep) == 2 and all(e is f for e, f in zip(exp.prep, prep))

    def test_settings_tables_are_built_once_and_frozen(self):
        # a step's settings depend only on its kind and arity: every
        # schedule shares one read-only table per (kind, arity)
        circ = fig1_circuit()
        tables = {}
        for y in ("00", "11"):
            for exp in pr.build_schedule(circ, "00", y).experiments:
                table = tables.setdefault((exp.kind, len(exp.wires)), exp.settings)
                assert exp.settings is table
        assert sorted(tables) == [
            ("conspiracy", 1), ("conspiracy", 2), ("tomography", 1), ("tomography", 2)
        ]
        for table in tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1
        assert [len(tables[k]) for k in sorted(tables)] == [36, 72, 9, 81]

    @pytest.mark.parametrize("name", ["h", "bell", "fig1", "toffoli"])
    def test_min_records_is_the_y_equals_x_schedule(self, name):
        circ = {
            "h": h_circuit, "bell": bell_circuit, "fig1": fig1_circuit,
            "toffoli": toffoli_circuit,
        }[name]()
        x = circ.input
        assert pr._min_records(circ) == pr.build_schedule(circ, x, x).n_records
        other = "".join("1" if b == "0" else "0" for b in x)
        assert pr._min_records(circ) < pr.build_schedule(circ, x, other).n_records


def toffoli_circuit():
    toffoli = np.eye(8)
    toffoli[[6, 7]] = toffoli[[7, 6]]
    return dv.IdealCircuit(
        3,
        (
            dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
            dv.CircuitGate("g2", (1,), dv.builtin_gate("H")),
            dv.CircuitGate("g3", (0, 1, 2), toffoli),
        ),
        "000",
    )


def fig1_circuit():
    return dv.IdealCircuit(
        2, bell_circuit().gates + (dv.CircuitGate("g3", (1,), dv.builtin_gate("X")),), "00"
    )


def nested_loop_schedule(circuit, x, y):
    """(label, prep, measured branches) per record, built one record at a
    time in the loop order of the per-record schedule that the columnar one
    replaced: the source test on every wire, then per step a conspiracy test
    after both sides ran it and a tomography test after side A alone did."""
    steps = tuple(dv.not_gate(i) for i, (a, b) in enumerate(zip(x, y)) if a != b)
    steps += circuit.gates
    out = []

    def both_sides(upto):
        return tuple((side, s.label) for s in steps[:upto] for side in ("A", "B"))

    def conspiracy(label, prep, wires):
        for w in wires:
            for a in dv.TEST_ANGLES:
                for b in dv.TEST_ANGLES:
                    out.append((label, prep, (("A", w, a), ("B", w, b))))

    def tomography(label, prep, wires):
        for a_tuple in itertools.product(dv.BASE_ANGLES, repeat=len(wires)):
            for b_tuple in itertools.product(dv.BASE_ANGLES, repeat=len(wires)):
                measured = []
                for w, a, b in zip(wires, a_tuple, b_tuple):
                    measured += [("A", w, a), ("B", w, b)]
                out.append((label, prep, tuple(measured)))

    conspiracy("conspiracy@0", (), range(circuit.n))
    for j, step in enumerate(steps, start=1):
        conspiracy(f"conspiracy@{j}", both_sides(j), step.wires)
        tomography(f"tomography@{j}", both_sides(j - 1) + (("A", step.label),), step.wires)
    return out


SCHEDULES = {
    "fig1": (fig1_circuit, "00", "00"),
    "bell": (bell_circuit, "00", "00"),
    "h": (h_circuit, "0", "0"),
    "toffoli": (toffoli_circuit, "000", "000"),
    "x-differs-from-y": (fig1_circuit, "00", "11"),
}


def random_frame_device(circ, seed):
    """The circuit's honest device with every base projector of every frame
    replaced by a random complex rank-1 one, so that no two settings share a
    probability by symmetry and a record out of order shows."""
    dev = dv.honest_device(circ)
    rng = np.random.default_rng(seed)
    frames = {}
    for (side, wire), f in dev.frames.items():
        base = {}
        for a in dv.BASE_ANGLES:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            base[a] = np.outer(v, v.conj())
        frames[(side, wire)] = dv.MeasurementFrame(side, wire, base)
    return dv.DeviceModel(dev.layout, dev.source, dev.gates, frames)


def chain_prob(device, ops):
    """Probability of one op list on the device's source, one operator at a
    time: a gate (side, label) or a branch (side, wire, angle)."""
    st = device.source
    for op in ops:
        build = device.gate_operator if len(op) == 2 else device.frame_operator
        st = hb.apply_operator(build(*op), st)
    return hb.norm(st) ** 2


class TestScheduleAgainstNestedLoops:
    """The columnar schedule against a per-record builder written here."""

    @pytest.mark.parametrize("name", list(SCHEDULES))
    def test_op_lists_order_and_measured_json(self, name):
        make, x, y = SCHEDULES[name]
        circ = make()
        want = nested_loop_schedule(circ, x, y)
        sch = pr.build_schedule(circ, x, y)
        # a device that is not the honest one, so the reference is evaluated
        # too; each record's probability, on both, is its op list's, in the
        # builder's order
        device = random_frame_device(circ, 3)
        reference = dv.honest_device(circ)
        v = pr.evaluate_schedule(device, sch)
        ops = [prep + measured for _, prep, measured in want]
        assert v.records.est_p.tolist() == [chain_prob(device, o) for o in ops]
        assert v.records.ideal_p.tolist() == [chain_prob(reference, o) for o in ops]
        assert [v.labels[e] for e in v.records.experiment.tolist()] == [
            label for label, _, _ in want
        ]
        records = json.loads(json.dumps(v.to_json()))["records"]
        assert [r["setting"] for r in records] == [
            {
                "prep": [list(e) for e in prep],
                "measured": [
                    {"side": side, "wire": w, "angle": a, "flip": 0}
                    for side, w, a in measured
                ],
            }
            for _, prep, measured in want
        ]

    def test_epr_op_lists(self):
        device = random_frame_device(h_circuit(), 5)
        v = pr.epr_test(device, wire=0)
        source_test = nested_loop_schedule(h_circuit(), "0", "0")[:36]
        assert v.records.est_p.tolist() == [
            chain_prob(device, measured) for _, _, measured in source_test
        ]
        assert v.records.experiments[0].branches == [m for _, _, m in source_test]


class TestCircuitTest:
    def test_honest_bell_prep(self):
        v = pr.circuit_test(dv.honest_device(bell_circuit()), bell_circuit(), "00", eps=0.1)
        assert v.accepted
        assert v.max_deviation <= 1e-12
        hist = v.computation_outcome_histogram
        assert set(hist) == {"00", "11"}
        assert hist["00"] == pytest.approx(0.5, abs=1e-12)
        assert hist["11"] == pytest.approx(0.5, abs=1e-12)
        assert v.tv_distance <= 1e-12

    def test_records_labelled_by_experiment(self):
        circ = bell_circuit()
        v = pr.circuit_test(dv.honest_device(circ), circ, "00", eps=0.1)
        sched = pr.build_schedule(circ, "00", v.y)
        assert v.labels == tuple(f"{e.kind}@{e.j}" for e in sched.experiments)
        sizes = [len(e.settings) for e in sched.experiments]
        assert v.records.experiment.tolist() == [
            e for e, size in enumerate(sizes) for _ in range(size)
        ]
        assert "labels" not in v.to_json()
        epr = pr.epr_test(dv.honest_device())
        assert epr.labels == ("epr",)
        assert epr.records.experiment.tolist() == [0] * 36

    def test_honest_not_gate_deterministic_output(self):
        circ = dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), dv.builtin_gate("X")),), "0")
        v = pr.circuit_test(dv.honest_device(circ), circ, "0", eps=0.1)
        assert v.accepted
        assert v.computation_outcome_histogram == {"1": pytest.approx(1.0, abs=1e-12)}

    def test_deviation_between_eps_and_twice_eps_rejected(self):
        # the other rejection goldens deviate by more than 2 eps; this one
        # lies in (eps, 2 eps], which a verdict that tolerates up to twice
        # the threshold would accept
        circ = fig1_circuit()
        device = dv.resolve_device("builtin:depolarized?p=0.03", circ)
        v = pr.circuit_test(device, circ, "00", eps=0.01)
        assert 0.01 < v.max_deviation <= 0.02
        assert v.max_deviation == pytest.approx(0.014775, abs=1e-12)
        assert not v.accepted
        assert len(v.failing) > 0

    def test_van_dam_rejected_golden(self):
        # the cheat computes perfectly but cannot survive the pair statistics
        v = pr.circuit_test(
            dv.van_dam_device(), h_circuit(), "0", eps=0.05, mode="exact", force_y="0"
        )
        assert not v.accepted
        assert v.max_deviation == pytest.approx(0.25, abs=1e-12)
        assert len(v.records) == 81
        assert len(v.failing) == 46
        # its actual computation is flawless: correct histogram, zero distance
        assert v.tv_distance <= 1e-12
        assert v.computation_outcome_histogram["0"] == pytest.approx(0.5, abs=1e-12)

    def test_van_dam_failing_record_structure(self):
        v = pr.circuit_test(
            dv.van_dam_device(), h_circuit(), "0", eps=0.05, mode="exact", force_y="0"
        )
        recs = v.records
        exps = recs.experiments
        pi4 = dv.TEST_ANGLES.index(math.pi / 4)
        source = exps[0]  # conspiracy@0, no prep
        assert source.prep == ()
        worst = [
            i for i in v.failing.tolist()
            if recs.experiment[i] == 0 and source.settings[i].tolist() == [pi4, pi4]
        ]
        assert worst and recs.deviation[worst[0]] == pytest.approx(0.25, abs=1e-12)
        # computational-angle records on the raw source all pass (legacy blind spot)
        comp = {dv.TEST_ANGLES.index(0.0), dv.TEST_ANGLES.index(math.pi / 2)}
        for i, row in enumerate(source.settings.tolist()):
            if set(row) <= comp:
                assert recs.deviation[i] <= 1e-12
        # both conspiracy-after-gate and tomography experiments contribute failures
        failing_preps = {exps[e].prep for e in recs.experiment[v.failing].tolist()}
        assert (("A", "g1"),) in failing_preps
        assert any(len(p) == 2 for p in failing_preps)

    def test_failing_records_are_the_records_entries(self):
        v = pr.circuit_test(
            dv.van_dam_device(), h_circuit(), "0", eps=0.05, mode="exact", force_y="0"
        )
        js = v.to_json()
        assert len(js["failing_records"]) == len(v.failing) == 46
        assert v.failing.tolist() == np.flatnonzero(v.records.deviation > 0.05).tolist()
        for i, entry in zip(v.failing.tolist(), js["failing_records"]):
            assert entry is js["records"][i]

    def test_force_y_validation(self):
        dev = dv.honest_device()
        with pytest.raises(ValidationError, match="bits"):
            pr.circuit_test(dev, h_circuit(), "0", force_y="00")
        with pytest.raises(ValidationError, match="x must be"):
            pr.circuit_test(dev, h_circuit(), "01")

    def test_wire_count_mismatch(self):
        with pytest.raises(DeviceValidationError, match="wires"):
            pr.circuit_test(dv.van_dam_device(), bell_circuit(), "00")

    def test_unsampleable_eps_refused_before_any_walk(self, monkeypatch):
        def apply_operator(*args):
            raise AssertionError("a state was evolved")

        monkeypatch.setattr(hb, "apply_operator", apply_operator)
        circ = bell_circuit()
        with pytest.raises(ValidationError, match="samples per statistic"):
            pr.circuit_test(
                dv.honest_device(circ), circ, "00", eps=1e-10, seed=0, mode="sampled"
            )

    @pytest.mark.parametrize("force_y", ["0", "012", "0x", ""])
    def test_malformed_force_y_refused_before_any_walk(self, force_y, monkeypatch):
        def apply_operator(*args):
            raise AssertionError("a state was evolved")

        monkeypatch.setattr(hb, "apply_operator", apply_operator)
        circ = bell_circuit()
        with pytest.raises(ValidationError, match="forced y must be 2 bits"):
            pr.circuit_test(dv.honest_device(circ), circ, "00", force_y=force_y)

    @pytest.mark.parametrize("mode", ["Sampled", "exact ", ""])
    def test_unknown_mode_refused_before_any_probability(self, mode, monkeypatch):
        calls = []
        monkeypatch.setattr(stx, "probabilities", lambda *args: calls.append(args))
        circ = bell_circuit()
        with pytest.raises(ValidationError, match="mode must be exact or sampled"):
            pr.circuit_test(dv.honest_device(circ), circ, "00", mode=mode)
        assert calls == []

    @pytest.mark.parametrize(
        "gates",
        [
            (),
            (("H", (0,)),),
            (("H", (0,)), ("CNOT", (0, 1)), ("X", (1,))),
            (("SWAP", (1, 2)), ("ROT(0.3)", (2,))),
        ],
    )
    def test_min_records_is_the_y_equals_x_schedule(self, gates):
        circ = dv.IdealCircuit(
            3,
            tuple(
                dv.CircuitGate(f"g{i}", wires, dv.builtin_gate(name))
                for i, (name, wires) in enumerate(gates)
            ),
            "000",
        )
        for x in ("000", "101"):
            assert pr._min_records(circ) == pr.build_schedule(circ, x, x).n_records
        assert pr._min_records(circ) < pr.build_schedule(circ, "000", "100").n_records

    def test_sampled_mode_deterministic(self):
        dev = dv.honest_device(h_circuit())
        v1 = pr.circuit_test(dev, h_circuit(), "0", mode="sampled", seed=4)
        v2 = pr.circuit_test(dev, h_circuit(), "0", mode="sampled", seed=4)
        assert v1.y == v2.y
        assert v1.records.est_p.tolist() == v2.records.est_p.tolist()
        assert v1.computation_outcome_histogram == v2.computation_outcome_histogram

    def test_sampled_honest_passes_many_seeds(self):
        dev = dv.honest_device(h_circuit())
        accepted = sum(
            pr.circuit_test(dev, h_circuit(), "0", eps=0.1, gamma=0.05, seed=s, mode="sampled").accepted
            for s in range(20)
        )
        assert accepted >= 18  # 1 - 2*gamma of 20

    def test_y_drawn_from_device_distribution(self):
        # a product source in |00> always reads y = 00
        dev = dv.honest_device(bell_circuit())
        v = np.zeros(16, dtype=np.complex128)
        v[0] = 1.0
        prod = dv.DeviceModel(dev.layout, hb.PhysState(dev.layout.full, v), dev.gates, dev.frames)
        out = pr.circuit_test(prod, bell_circuit(), "00", eps=1.0, seed=12)
        assert out.y == "00"


class TestCheckSimulation:
    """The pair test against the honest statistics (1/2)cos^2(a - b)."""

    def test_honest_and_rotated_simulate_exactly(self):
        assert pr.epr_test(dv.honest_device()).max_deviation <= 1e-12
        assert pr.epr_test(dv.rotated_device(theta=0.3)).max_deviation <= 1e-12

    def test_depolarized_deviation_formula(self):
        for p in (0.08, 0.2):
            dev = dv.noisy_source_device(p=p)
            assert pr.epr_test(dev).max_deviation == pytest.approx(p / 4, abs=1e-12)


def input_deviation(dev, y):
    """Worst gap, over every wire and tested angle, between the A side after
    the B side reads y and the basis state |y> circuit_test computes on."""
    st = hb.normalized(stx.collapse(dev, dev.source, pr._readout("B", y)))
    wire_angles = [(w, a) for w in range(len(y)) for a in dv.TEST_ANGLES]
    probs = [
        p for w in range(len(y)) for p in stx.probabilities(dev, st, [("A", w, dv.TEST_ANGLES)])
    ]
    return max(
        abs(p - (math.cos(a) if y[w] == "0" else math.sin(a)) ** 2)
        for (w, a), p in zip(wire_angles, probs)
    )


class TestInputPrep:
    """circuit_test's input preparation: once the B side reads y, the A side
    must look like |y> to every per-wire angle."""

    def test_honest_single_wire(self):
        dev = dv.honest_device(h_circuit())
        assert max(input_deviation(dev, y) for y in ("0", "1")) <= 1e-12

    def test_honest_two_wires(self):
        dev = dv.honest_device(bell_circuit())
        assert max(input_deviation(dev, y) for y in ("00", "01", "10", "11")) <= 1e-12

    def test_depolarized_deviation_is_half_p(self):
        p = 0.1
        dev = dv.noisy_source_device(h_circuit(), p=p)
        worst = max(input_deviation(dev, y) for y in ("0", "1"))
        assert worst == pytest.approx(p / 2, abs=1e-12)

    def test_unreachable_branch_skipped(self):
        dev = dv.honest_device(h_circuit())
        v = np.zeros(4, dtype=np.complex128)
        v[0] = 1.0  # B side always reads 0
        prod = dv.DeviceModel(dev.layout, hb.PhysState(dev.layout.full, v), dev.gates, dev.frames)
        assert input_deviation(prod, "0") <= 1e-12
        with pytest.raises(ValidationError, match="zero probability"):
            pr.circuit_test(prod, h_circuit(), "0", force_y="1")


class TestStability:
    def _perturbed(self, circ, delta, seed):
        rng = np.random.default_rng(seed)
        n = circ.n

        def small():
            return float(rng.uniform(-delta / 2, delta / 2))

        va = [dv.rotation(small()) for _ in range(n)]
        vb = [dv.rotation(small()) for _ in range(n)]
        dev = dv.rotated_device(circ, v_a=va, v_b=vb)
        gates = {}
        for k, g in dev.gates.items():
            extra = dv.rotation(small())
            m = np.kron(extra, np.eye(g.matrix.shape[0] // 2)) @ g.matrix
            gates[k] = dv.DeviceGate(g.side, g.wires, m)
        return dv.DeviceModel(dev.layout, dev.source, gates, dict(dev.frames))

    @pytest.mark.parametrize("delta", [1e-3, 1e-2])
    def test_near_honest_deviations_bounded_linearly(self, delta):
        circ = bell_circuit()
        for seed in range(3):
            dev = self._perturbed(circ, delta, seed)
            v = pr.circuit_test(dev, circ, "00", eps=1.0, mode="exact", force_y="00")
            assert v.max_deviation <= 8 * delta

    def test_noise_monotonicity_at_equal_angles(self):
        devs = [dv.noisy_source_device(p=p) for p in (0.0, 0.05, 0.1, 0.2)]
        worsts = []
        for dev in devs:
            worst = max(
                abs(stx.probabilities(dev, dev.source, [("A", 0, (a,)), ("B", 0, (a,))])[0] - 0.5)
                for a in dv.TEST_ANGLES
            )
            worsts.append(worst)
        for lo, hi in zip(worsts, worsts[1:]):
            assert hi >= lo - 1e-12


class TestEvaluateSchedule:
    def test_exact_honest_accepts(self):
        sch = pr.build_schedule(h_circuit(), "0", "0", eps=0.05)
        v = pr.evaluate_schedule(dv.honest_device(h_circuit()), sch)
        assert v.accepted
        assert v.max_deviation <= 1e-12
        assert len(v.records) == sch.n_records

    def test_record_order_is_stable(self):
        sch = pr.build_schedule(h_circuit(), "0", "0")
        dev = dv.honest_device(h_circuit())
        v1 = pr.evaluate_schedule(dev, sch, mode="sampled", seed=2)
        v2 = pr.evaluate_schedule(dev, sch, mode="sampled", seed=2)
        assert v1.records.est_p.tolist() == v2.records.est_p.tolist()

    def test_missing_not_gate_propagates(self):
        # a device lacking the compensation gate cannot run a y != x schedule
        dev = dv.honest_device(h_circuit())
        gates = {k: g for k, g in dev.gates.items() if k[1] != "not0"}
        crippled = dv.DeviceModel(dev.layout, dev.source, gates, dict(dev.frames))
        sch = pr.build_schedule(h_circuit(), "0", "1")
        with pytest.raises(DeviceValidationError, match="no gate"):
            pr.evaluate_schedule(crippled, sch)


class TestCostCounts:
    """The paper's cost claim, counted on the benchmark's rotation/CNOT
    chains without evaluating a schedule: records and device runs grow
    linearly in gates and qubits (runs up to a log factor), and the gate
    applications of the prefix re-runs as t^2."""

    EPS, GAMMA = 0.1, 0.05
    # (n, t): records m, samples per record, gate applications, at y = x
    TABLE = {
        (2, 4): (468, 492, 2_016),
        (2, 8): (864, 523, 7_200),
        (2, 16): (1_656, 556, 27_072),
        (2, 32): (3_240, 589, 104_832),
        (2, 64): (6_408, 623, 412_416),
        (8, 4): (684, 511, 2_016),
    }

    def _closed_forms(self, n, arities):
        """m, samples per record and gate applications from the wire count
        of each compensated step, in order."""
        m = 36 * n + sum(36 * k + 9**k for k in arities)
        samples = math.ceil(math.log(2 * m / self.GAMMA) / (2 * self.EPS**2))
        applies = sum(
            2 * j * 36 * k + (2 * j - 1) * 9**k for j, k in enumerate(arities, start=1)
        )
        return m, samples, applies

    def _counts(self, sch):
        """The same three counts read off the schedule: a record runs its
        experiment's whole prep."""
        m = sch.n_records
        applies = sum(len(e.prep) * len(e.settings) for e in sch.experiments)
        return m, stx.sample_size(sch.eps, sch.gamma, m), applies

    def _chain(self, workloads, n, t):
        return dv.load_circuit(workloads.chain_circuit(np.random.default_rng([n, t]), n, t))

    @pytest.mark.parametrize("n, t", list(TABLE))
    def test_counts_at_y_equal_x(self, workloads, n, t):
        circ = self._chain(workloads, n, t)
        x = circ.input
        sch = pr.build_schedule(circ, x, x, eps=self.EPS, gamma=self.GAMMA)
        arities = [len(s.wires) for s in sch.steps]
        assert len(arities) == t
        assert self._counts(sch) == self._closed_forms(n, arities) == self.TABLE[n, t]
        assert sch.n_records == pr._min_records(circ)

    def test_counts_with_compensating_nots(self, workloads):
        circ = self._chain(workloads, 2, 4)
        sch = pr.build_schedule(circ, "00", "11", eps=self.EPS, gamma=self.GAMMA)
        arities = [len(s.wires) for s in sch.steps]
        # the NOTs come first, one wire each
        assert arities[:2] == [1, 1]
        assert self._counts(sch) == self._closed_forms(2, arities) == (558, 501, 3_852)
