"""Setting evaluation, sampling determinism, and sample sizing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest import stats
from qselftest.errors import DeviceValidationError, ValidationError

HALF_COS8 = 0.5 * math.cos(math.pi / 8) ** 2  # 0.4267766952966369


def epr_setting(a, b, fa=0, fb=0):
    return stats.Setting(measured=(("A", 0, a, fa), ("B", 0, b, fb)))


def h_circuit():
    return dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),), "0")


class TestSetting:
    def test_angle_canonicalized(self):
        s = epr_setting(9 * math.pi / 8, 0.0)
        assert s.measured[0][2] == pytest.approx(math.pi / 8)

    @pytest.mark.parametrize("a", [-1e-17, math.pi - 1e-15, math.pi, -math.pi])
    def test_angle_wraps_around_pi(self, a):
        s = stats.Setting(measured=(("A", 0, a, 0),))
        assert s.measured[0][2] == 0.0

    def test_invalid_angle_rejected(self):
        with pytest.raises(ValidationError, match="tested set"):
            epr_setting(0.3, 0.0)

    def test_duplicate_wire_rejected(self):
        with pytest.raises(ValidationError, match="measured twice"):
            stats.Setting(measured=(("A", 0, 0.0, 0), ("A", 0, math.pi / 4, 0)))

    def test_bad_side_and_flip_rejected(self):
        with pytest.raises(ValidationError, match="side"):
            stats.Setting(measured=(("C", 0, 0.0, 0),))
        with pytest.raises(ValidationError, match="flip"):
            stats.Setting(measured=(("A", 0, 0.0, 2),))

    def test_with_flips(self):
        s = epr_setting(0.0, math.pi / 8)
        t = s.with_flips((1, 0))
        assert t.measured[0][3] == 1
        assert t.branch_angle(t.measured[0]) == pytest.approx(math.pi / 2)


class TestExactProb:
    def test_orthogonal_branches_vanish(self):
        dev = dv.honest_device()
        assert stats.exact_prob(dev, epr_setting(0.0, math.pi / 2)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_pair_value(self):
        dev = dv.honest_device()
        p = stats.exact_prob(dev, epr_setting(0.0, math.pi / 8))
        assert p == pytest.approx(HALF_COS8, abs=1e-12)
        assert p == pytest.approx(0.426777, abs=1e-6)

    def test_equal_angles_give_half(self):
        dev = dv.honest_device()
        p = stats.exact_prob(dev, epr_setting(math.pi / 8, math.pi / 8))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_unknown_label_raises(self):
        dev = dv.honest_device()
        s = stats.Setting(prep=(("A", "mystery"),), measured=(("A", 0, 0.0, 0),))
        with pytest.raises(Exception, match="no gate"):
            stats.exact_prob(dev, s)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_disjoint_prep_order_irrelevant(self, order):
        circ = dv.IdealCircuit(
            2,
            (
                dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
                dv.CircuitGate("g2", (1,), dv.builtin_gate("X")),
            ),
            "00",
        )
        dev = dv.honest_device(circ)
        labels = [("A", "g1"), ("A", "g2")]
        prep = tuple(labels[i] for i in order)
        s = stats.Setting(
            prep=prep, measured=(("A", 0, 0.0, 0), ("B", 1, math.pi / 8, 0))
        )
        base = stats.exact_prob(
            dev,
            stats.Setting(
                prep=tuple(labels),
                measured=(("A", 0, 0.0, 0), ("B", 1, math.pi / 8, 0)),
            ),
        )
        assert stats.exact_prob(dev, s) == pytest.approx(base, abs=1e-14)


class TestCollapsePath:
    def test_exact_prob_is_branch_prob_of_prepared_state(self):
        dev = dv.rotated_device(h_circuit(), theta=0.3)
        s = stats.Setting(prep=(("A", "g1"),), measured=(("A", 0, math.pi / 8, 1),))
        st = stats.prepare(dev, s.prep)
        assert stats.branch_prob(dev, st, s) == stats.exact_prob(dev, s)

    def test_collapse_norm_is_branch_prob(self):
        dev = dv.honest_device()
        s = epr_setting(0.0, math.pi / 8, fb=1)
        st = stats.collapse(dev, dev.source, s.branches)
        assert hb.norm(st) ** 2 == pytest.approx(stats.exact_prob(dev, s), abs=0)
        assert s.branches == (("A", 0, 0.0), ("B", 0, math.pi / 8 + math.pi / 2))

    def test_no_branches_leave_state_alone(self):
        dev = dv.honest_device()
        assert stats.collapse(dev, dev.source, ()) is dev.source
        assert stats.prepare(dev, ()) is dev.source

    @pytest.mark.parametrize("side, wire", [("A", 1), ("B", -1), ("C", 0)])
    def test_unknown_frame_is_a_device_error(self, side, wire):
        dev = dv.honest_device()
        with pytest.raises(DeviceValidationError, match="no frame"):
            stats.collapse(dev, dev.source, ((side, wire, 0.0),))


class TestIdealProb:
    def test_conspiracy_single_wire(self):
        p = stats.ideal_prob(None, epr_setting(math.pi / 4, 0.0))
        assert p == pytest.approx(0.25, abs=1e-12)

    def test_tomography_of_h(self):
        s = stats.Setting(
            prep=(("A", "g1"),), measured=(("A", 0, 0.0, 0), ("B", 0, 0.0, 0))
        )
        assert stats.ideal_prob(h_circuit(), s) == pytest.approx(0.25, abs=1e-12)

    def test_tomography_of_identity_orthogonal(self):
        circ = dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), np.eye(2)),), "0")
        s = stats.Setting(
            prep=(("A", "g1"),),
            measured=(("A", 0, 0.0, 0), ("B", 0, math.pi / 2, 0)),
        )
        assert stats.ideal_prob(circ, s) == pytest.approx(0.0, abs=1e-12)

    def test_reference_device_cached(self):
        circ = h_circuit()
        assert stats.reference_device(circ) is stats.reference_device(circ)

    def test_conspiracy_two_wires_multiplies(self):
        circ = dv.IdealCircuit(
            2, (dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),), "00"
        )
        s = stats.Setting(
            measured=(
                ("A", 0, 0.0, 0),
                ("B", 0, math.pi / 8, 0),
                ("A", 1, math.pi / 4, 0),
                ("B", 1, math.pi / 4, 0),
            )
        )
        want = HALF_COS8 * 0.5
        assert stats.ideal_prob(circ, s) == pytest.approx(want, abs=1e-12)


class TestSampling:
    def test_law_of_large_numbers(self):
        dev = dv.honest_device()
        rng = stats.record_rng(7, 0)
        est = stats.sample_prob(dev, epr_setting(0.0, math.pi / 8), 10**6, rng)
        assert abs(est - HALF_COS8) < 0.01

    def test_deterministic_setting_always_one(self):
        # a setting with no projectors has probability exactly 1
        dev = dv.honest_device()
        rng = stats.record_rng(3, 1)
        assert stats.sample_prob(dev, stats.Setting(), 5, rng) == 1.0

    def test_seed_reproducibility(self):
        dev = dv.honest_device()
        s = epr_setting(0.0, math.pi / 8)
        a = stats.sample_prob(dev, s, 1000, stats.record_rng(42, 5))
        b = stats.sample_prob(dev, s, 1000, stats.record_rng(42, 5))
        assert a == b

    def test_streams_differ_by_index(self):
        dev = dv.honest_device()
        s = epr_setting(0.0, math.pi / 8)
        a = stats.sample_prob(dev, s, 1000, stats.record_rng(42, 0))
        b = stats.sample_prob(dev, s, 1000, stats.record_rng(42, 1))
        assert a != b  # astronomically unlikely to collide

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            stats.sample_prob(dv.honest_device(), stats.Setting(), 0, stats.record_rng(0, 0))


class TestSampleSize:
    def test_known_values(self):
        assert stats.sample_size(0.1, 0.05, 1) == 185
        assert stats.sample_size(0.1, 0.05, 100) == 415

    def test_quadratic_scaling(self):
        n1 = stats.sample_size(0.1, 0.05, 1)
        n2 = stats.sample_size(0.05, 0.05, 1)
        assert abs(n2 - 4 * n1) <= 4

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            stats.sample_size(0.0, 0.05, 1)
        with pytest.raises(ValidationError):
            stats.sample_size(0.1, 1.5, 1)
        with pytest.raises(ValidationError):
            stats.sample_size(0.1, 0.05, 0)


class TestBranchSums:
    @pytest.mark.parametrize(
        "measured",
        [
            (("A", 0, 0.0, 0),),
            (("A", 0, math.pi / 8, 0), ("B", 0, math.pi / 4, 0)),
        ],
    )
    def test_exact_branches_sum_to_one(self, measured):
        dev = dv.honest_device(h_circuit())
        s = stats.Setting(prep=(("A", "g1"),), measured=measured)
        total = sum(stats.branch_probabilities(dev, s).values())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_sampled_branches_sum_within_tolerance(self):
        eps = 0.05
        dev = dv.honest_device()
        s = stats.Setting(measured=(("A", 0, math.pi / 8, 0),))
        n = stats.sample_size(eps, 0.05, 2)
        total = sum(
            stats.sample_prob(dev, s.with_flips((f,)), n, stats.record_rng(11, f))
            for f in (0, 1)
        )
        assert abs(total - 1.0) <= 3 * eps

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.sampled_from(dv.TEST_ANGLES),
        b=st.sampled_from(dv.TEST_ANGLES),
    )
    def test_pair_branch_sum_any_angles(self, a, b):
        dev = dv.honest_device()
        s = epr_setting(a, b)
        total = sum(stats.branch_probabilities(dev, s).values())
        assert total == pytest.approx(1.0, abs=1e-10)


class TestDiagnostics:
    """The two sides' single-wire collapses of the source, via stats.collapse."""

    @staticmethod
    def max_side_diff(dev):
        return max(
            hb.dist(
                stats.collapse(dev, dev.source, (("A", 0, a),)),
                stats.collapse(dev, dev.source, (("B", 0, a),)),
            )
            for a in dv.TEST_ANGLES
        )

    def test_collapse_symmetry_on_honest_source(self):
        assert self.max_side_diff(dv.honest_device()) <= 1e-12

    def test_collapse_asymmetry_flags_product_source(self):
        dev = dv.honest_device()
        v = np.zeros(4, dtype=np.complex128)
        v[0] = 1.0  # both halves in the local zero state, no pairing
        prod = dv.replace_source(dev, hb.PhysState(dev.layout.full, v))
        assert self.max_side_diff(prod) == pytest.approx(math.sqrt(0.5), abs=1e-12)


class TestRecordsAndReport:
    def test_record_bounds(self):
        s = epr_setting(0.0, 0.0)
        r = stats.StatRecord(s, 0.5, 0.45, n_samples=200)
        assert r.deviation == pytest.approx(0.05)
        with pytest.raises(ValidationError, match="outside"):
            stats.StatRecord(s, 1.2, 0.5)
