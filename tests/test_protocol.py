"""Protocol-level behavior: pair test, schedules, full runs, rejection goldens."""

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
        quarter = [
            r
            for r in v.failing_records
            if r.setting.measured[0][2] == pytest.approx(math.pi / 4)
            and r.setting.measured[1][2] == pytest.approx(math.pi / 4)
        ]
        assert quarter and quarter[0].est_p == pytest.approx(0.25, abs=1e-12)
        assert quarter[0].ideal_p == pytest.approx(0.5, abs=1e-12)

    def test_sampled_mode_deterministic_and_sound(self):
        dev = dv.honest_device()
        v1 = pr.epr_test(dev, eps=0.1, mode="sampled", seed=9)
        v2 = pr.epr_test(dev, eps=0.1, mode="sampled", seed=9)
        assert [r.est_p for r in v1.records] == [r.est_p for r in v2.records]
        assert v1.accepted
        assert v1.records[0].n_samples == stx.sample_size(0.1, 0.05, 36)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            pr.epr_test(dv.honest_device(), mode="guess")


class TestBuildSchedule:
    def test_matching_input_needs_no_compensation(self):
        sch = pr.build_schedule(h_circuit(), "0", "0")
        assert sch.t_prime == 1
        assert [s.label for s in sch.steps] == ["g1"]

    def test_single_differing_bit_prepends_one_not(self):
        circ = bell_circuit()
        sch = pr.build_schedule(circ, "00", "10")
        assert sch.t_prime == 3
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
        assert len(sch.experiments) == 2 * sch.t_prime + 1

    def test_record_count_bound(self):
        circ = bell_circuit()
        for y in ("00", "11"):
            sch = pr.build_schedule(circ, "00", y)
            n, tp = circ.n, sch.t_prime
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
        assert tomo.settings[0].prep == (("A", "g1"),)

    def test_settings_of_an_experiment_share_one_prep(self):
        # one prep object per experiment, kept by every Setting and handed
        # to the report as is, so its JSON is encoded once per experiment
        sch = pr.build_schedule(bell_circuit(), "00", "10")
        for exp in sch.experiments:
            prep = exp.settings[0].prep
            assert all(s.prep is prep for s in exp.settings)
            assert exp.settings[0].to_json()["prep"] is prep
        assert max(len(exp.settings[0].prep) for exp in sch.experiments) == 6

    def test_setting_normalizes_other_preps(self):
        s = stx.Setting(prep=[["A", "g1"], ("B", "g1")])
        assert s.prep == (("A", "g1"), ("B", "g1"))
        assert all(type(e) is tuple for e in s.prep)


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
        assert v.labels == tuple(
            f"{e.kind}@{e.j}" for e in sched.experiments for _ in e.settings
        )
        assert "labels" not in v.to_json()
        assert pr.epr_test(dv.honest_device()).labels == ("epr",) * 36

    def test_honest_not_gate_deterministic_output(self):
        circ = dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), dv.builtin_gate("X")),), "0")
        v = pr.circuit_test(dv.honest_device(circ), circ, "0", eps=0.1)
        assert v.accepted
        assert v.computation_outcome_histogram == {"1": pytest.approx(1.0, abs=1e-12)}

    def test_van_dam_rejected_golden(self):
        # the cheat computes perfectly but cannot survive the pair statistics
        v = pr.circuit_test(
            dv.van_dam_device(), h_circuit(), "0", eps=0.05, mode="exact", force_y="0"
        )
        assert not v.accepted
        assert v.max_deviation == pytest.approx(0.25, abs=1e-12)
        assert len(v.records) == 81
        assert len(v.failing_records) == 46
        # its actual computation is flawless: correct histogram, zero distance
        assert v.tv_distance <= 1e-12
        assert v.computation_outcome_histogram["0"] == pytest.approx(0.5, abs=1e-12)

    def test_van_dam_failing_record_structure(self):
        v = pr.circuit_test(
            dv.van_dam_device(), h_circuit(), "0", eps=0.05, mode="exact", force_y="0"
        )
        pi4 = math.pi / 4
        worst = [
            r
            for r in v.failing_records
            if r.setting.prep == ()
            and r.setting.measured[0][2] == pytest.approx(pi4)
            and r.setting.measured[1][2] == pytest.approx(pi4)
        ]
        assert worst and worst[0].deviation == pytest.approx(0.25, abs=1e-12)
        # computational-angle records on the raw source all pass (legacy blind spot)
        comp = {0.0, math.pi / 2}
        for r in v.records:
            if r.setting.prep == () and {r.setting.measured[0][2], r.setting.measured[1][2]} <= comp:
                assert r.deviation <= 1e-12
        # both conspiracy-after-gate and tomography experiments contribute failures
        assert any(r.setting.prep == (("A", "g1"),) for r in v.failing_records)
        assert any(len(r.setting.prep) == 2 for r in v.failing_records)

    def test_failing_records_are_the_records_entries(self):
        v = pr.circuit_test(
            dv.van_dam_device(), h_circuit(), "0", eps=0.05, mode="exact", force_y="0"
        )
        js = v.to_json()
        assert len(js["failing_records"]) == len(v.failing_records) == 46
        positions = {id(r): i for i, r in enumerate(v.records)}
        for rec, entry in zip(v.failing_records, js["failing_records"]):
            assert entry is js["records"][positions[id(rec)]]

    def test_force_y_validation(self):
        dev = dv.honest_device()
        with pytest.raises(ValidationError, match="bits"):
            pr.circuit_test(dev, h_circuit(), "0", force_y="00")
        with pytest.raises(ValidationError, match="x must be"):
            pr.circuit_test(dev, h_circuit(), "01")

    def test_wire_count_mismatch(self):
        with pytest.raises(DeviceValidationError, match="wires"):
            pr.circuit_test(dv.van_dam_device(), bell_circuit(), "00")

    def test_sampled_mode_deterministic(self):
        dev = dv.honest_device(h_circuit())
        v1 = pr.circuit_test(dev, h_circuit(), "0", mode="sampled", seed=4)
        v2 = pr.circuit_test(dev, h_circuit(), "0", mode="sampled", seed=4)
        assert v1.y == v2.y
        assert [r.est_p for r in v1.records] == [r.est_p for r in v2.records]
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
        prod = dv.replace_source(dev, hb.PhysState(dev.layout.full, v))
        out = pr.circuit_test(prod, bell_circuit(), "00", eps=1.0, seed=12)
        assert out.y == "00"


class TestCheckSimulation:
    def pair_settings(self):
        return [
            stx.Setting(measured=(("A", 0, a, 0), ("B", 0, b, 0)))
            for a in dv.TEST_ANGLES
            for b in dv.TEST_ANGLES
        ]

    def test_honest_and_rotated_simulate_exactly(self):
        assert pr.check_simulation(dv.honest_device(), self.pair_settings()) <= 1e-12
        assert pr.check_simulation(dv.rotated_device(theta=0.3), self.pair_settings()) <= 1e-12

    def test_depolarized_deviation_formula(self):
        for p in (0.08, 0.2):
            dev = dv.noisy_source_device(p=p)
            worst = pr.check_simulation(dev, self.pair_settings())
            assert worst == pytest.approx(p / 4, abs=1e-12)

    def test_empty_settings_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            pr.check_simulation(dv.honest_device(), [])


class TestInputPrep:
    def test_honest_single_wire(self):
        v = pr.input_prep_check(dv.honest_device(h_circuit()), h_circuit())
        assert v.accepted
        assert v.max_deviation <= 1e-12
        assert len(v.records) == 2 * 6  # outcomes x angles
        assert v.skipped == ()

    def test_honest_two_wires(self):
        circ = bell_circuit()
        v = pr.input_prep_check(dv.honest_device(circ), circ)
        assert v.accepted
        assert len(v.records) == 4 * 2 * 6

    def test_depolarized_deviation_is_half_p(self):
        p = 0.1
        v = pr.input_prep_check(dv.noisy_source_device(h_circuit(), p=p), h_circuit(), eps=0.2)
        assert v.max_deviation == pytest.approx(p / 2, abs=1e-12)

    def test_unreachable_branch_skipped(self):
        dev = dv.honest_device(h_circuit())
        v = np.zeros(4, dtype=np.complex128)
        v[0] = 1.0  # B side always reads 0
        prod = dv.replace_source(dev, hb.PhysState(dev.layout.full, v))
        out = pr.input_prep_check(prod, h_circuit())
        assert out.skipped == ("1",)
        assert out.accepted


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
        return dv.DeviceModel(
            dev.layout, dev.source, gates, dict(dev.frames), zero_states=dev.zero_states
        )

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
                abs(
                    stx.exact_prob(
                        dev, stx.Setting(measured=(("A", 0, a, 0), ("B", 0, a, 0)))
                    )
                    - 0.5
                )
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
        assert [r.est_p for r in v1.records] == [r.est_p for r in v2.records]

    def test_missing_not_gate_propagates(self):
        # a device lacking the compensation gate cannot run a y != x schedule
        dev = dv.honest_device(h_circuit())
        gates = {k: g for k, g in dev.gates.items() if k[1] != "not0"}
        crippled = dv.DeviceModel(dev.layout, dev.source, gates, dict(dev.frames))
        sch = pr.build_schedule(h_circuit(), "0", "1")
        with pytest.raises(DeviceValidationError, match="no gate"):
            pr.evaluate_schedule(crippled, sch)
