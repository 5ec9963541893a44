"""Branch probabilities, experiment settings, sampling determinism, and sample sizing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qselftest import devices as dv
from qselftest import hilbert as hb
from qselftest import protocol as pr
from qselftest import stats
from qselftest.errors import DeviceValidationError, ValidationError

HALF_COS8 = 0.5 * math.cos(math.pi / 8) ** 2  # 0.4267766952966369


def epr_ops(a, b):
    """The op list measuring wire 0 at angle a on side A, then b on side B."""
    return (("A", 0, a), ("B", 0, b))


def h_circuit():
    return dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),), "0")


def split(ops):
    """An op list's gates (side, label) and its branches (side, wire, angle)."""
    return tuple(op for op in ops if len(op) == 2), tuple(op for op in ops if len(op) == 3)


def exact_prob(dev, ops):
    """Probability of the op list's outcome branch on the device: its gates
    prepare a state, and each branch is a slot of one angle."""
    prep, branches = split(ops)
    slots = [(side, w, (a,)) for side, w, a in branches]
    return stats.probabilities(dev, stats.prepare(dev, prep), slots)[0]


def ideal_prob(circuit, ops):
    """The op list's probability on the circuit's honest implementation."""
    return exact_prob(dv.honest_device(circuit), ops)


def with_flips(ops, flips):
    """The op list with its last len(flips) branches each moved to its
    complement at angle + pi/2 where its flip is 1."""
    k = len(ops) - len(flips)
    return ops[:k] + tuple(
        (side, w, a + f * math.pi / 2) for (side, w, a), f in zip(ops[k:], flips)
    )


def branch_probabilities(dev, ops, k):
    """Exact probability of every outcome branch of the op list's last k
    branches, flips in itertools.product order: one product of slots, each
    of the last k at its angle and its complement."""
    prep, branches = split(ops)
    slots = [(side, w, (a,)) for side, w, a in branches[:-k]]
    slots += [(side, w, (a, a + math.pi / 2)) for side, w, a in branches[-k:]]
    probs = stats.probabilities(dev, stats.prepare(dev, prep), slots)
    flips = itertools.product((0, 1), repeat=k)
    assert probs == [exact_prob(dev, with_flips(ops, f)) for f in flips]
    return probs


class TestSetting:
    """An experiment's settings are angle indices, fixed by its kind and
    wires; its branches name them as (side, wire, angle). A branch angle
    names a frame projector modulo pi."""

    def test_angle_canonicalized(self):
        dev = dv.rotated_device(theta=0.3)
        got = stats.collapse(dev, dev.source, epr_ops(9 * math.pi / 8, 0.0))
        want = stats.collapse(dev, dev.source, epr_ops(math.pi / 8, 0.0))
        assert np.array_equal(got.vec, want.vec)
        # setting 10 of a one-wire conspiracy is tested angles 1 and 4
        exp = pr.Experiment("conspiracy", 1, (0,), ())
        assert exp.branches[10] == (("A", 0, dv.TEST_ANGLES[1]), ("B", 0, dv.TEST_ANGLES[4]))

    @pytest.mark.parametrize("a", [-1e-17, math.pi - 1e-15, math.pi, -math.pi])
    def test_angle_wraps_around_pi(self, a):
        dev = dv.rotated_device(theta=0.3)
        got = stats.collapse(dev, dev.source, (("A", 0, a),))
        want = stats.collapse(dev, dev.source, (("A", 0, 0.0),))
        assert np.array_equal(got.vec, want.vec)

    def test_invalid_angle_rejected(self):
        dev = dv.honest_device()
        with pytest.raises(DeviceValidationError, match="tested set"):
            exact_prob(dev, epr_ops(0.3, 0.0))

    def test_duplicate_wire_rejected(self):
        # one column per side and wire: a wire listed once is measured at
        # most once per side
        with pytest.raises(ValidationError, match="repeat"):
            pr.Experiment("conspiracy", 1, (0, 0), ())
        with pytest.raises(ValidationError, match="repeat"):
            pr.Experiment("tomography", 1, (1, 1), ())

    def test_bad_side_and_flip_rejected(self):
        # an experiment's kind and wires fix its settings, so no setting
        # names a side, an angle or a flip of its own; an unknown kind or no
        # wires is refused. No flip exists: every branch is the one its
        # angle names, and the report writes flip 0
        for kind in ("conspiracy", "tomography"):
            with pytest.raises(ValidationError, match="one or more wires"):
                pr.Experiment(kind, 1, (), ())
        with pytest.raises(ValidationError, match="kind"):
            pr.Experiment("flipped", 1, (0,), ())
        v = pr.epr_test(dv.honest_device())
        flips = {m["flip"] for r in v.to_json()["records"] for m in r["setting"]["measured"]}
        assert flips == {0}

    def test_with_flips(self):
        # the complement of tested angle i is tested angle i + 3
        ops = with_flips(pr.Experiment("conspiracy", 1, (0,), ()).branches[1], (1, 0))
        assert dv.angle_index(ops[0][2]) == 3
        assert ops[1] == ("B", 0, math.pi / 8)


class TestExactProb:
    def test_orthogonal_branches_vanish(self):
        dev = dv.honest_device()
        assert exact_prob(dev, epr_ops(0.0, math.pi / 2)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_pair_value(self):
        dev = dv.honest_device()
        p = exact_prob(dev, epr_ops(0.0, math.pi / 8))
        assert p == pytest.approx(HALF_COS8, abs=1e-12)
        assert p == pytest.approx(0.426777, abs=1e-6)

    def test_equal_angles_give_half(self):
        dev = dv.honest_device()
        p = exact_prob(dev, epr_ops(math.pi / 8, math.pi / 8))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_unknown_label_raises(self):
        dev = dv.honest_device()
        with pytest.raises(Exception, match="no gate"):
            exact_prob(dev, (("A", "mystery"), ("A", 0, 0.0)))

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
        measured = (("A", 0, 0.0), ("B", 1, math.pi / 8))
        base = exact_prob(dev, tuple(labels) + measured)
        assert exact_prob(dev, prep + measured) == pytest.approx(base, abs=1e-14)


class TestCollapsePath:
    def test_exact_prob_is_branch_prob_of_prepared_state(self):
        dev = dv.rotated_device(h_circuit(), theta=0.3)
        prep, branches = (("A", "g1"),), (("A", 0, math.pi / 8 + math.pi / 2),)
        st = stats.prepare(dev, prep)
        prob = hb.norm(stats.collapse(dev, st, branches)) ** 2
        assert prob == exact_prob(dev, prep + branches)

    def test_collapse_norm_is_branch_prob(self):
        dev = dv.honest_device()
        ops = with_flips(epr_ops(0.0, math.pi / 8), (0, 1))
        st = stats.collapse(dev, dev.source, ops)
        assert hb.norm(st) ** 2 == pytest.approx(exact_prob(dev, ops), abs=0)
        assert ops == (("A", 0, 0.0), ("B", 0, math.pi / 8 + math.pi / 2))

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
    """Closed-form ideals on the honest implementation: (1/2)cos^2(a - b) per
    pair, tomography blocks, and products over wires."""

    def test_conspiracy_single_wire(self):
        p = ideal_prob(None, epr_ops(math.pi / 4, 0.0))
        assert p == pytest.approx(0.25, abs=1e-12)

    def test_tomography_of_h(self):
        ops = (("A", "g1"),) + epr_ops(0.0, 0.0)
        assert ideal_prob(h_circuit(), ops) == pytest.approx(0.25, abs=1e-12)

    def test_tomography_of_identity_orthogonal(self):
        circ = dv.IdealCircuit(1, (dv.CircuitGate("g1", (0,), np.eye(2)),), "0")
        ops = (("A", "g1"),) + epr_ops(0.0, math.pi / 2)
        assert ideal_prob(circ, ops) == pytest.approx(0.0, abs=1e-12)

    def test_conspiracy_two_wires_multiplies(self):
        circ = dv.IdealCircuit(
            2, (dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),), "00"
        )
        ops = (
            ("A", 0, 0.0),
            ("B", 0, math.pi / 8),
            ("A", 1, math.pi / 4),
            ("B", 1, math.pi / 4),
        )
        want = HALF_COS8 * 0.5
        assert ideal_prob(circ, ops) == pytest.approx(want, abs=1e-12)


class TestSampling:
    def test_law_of_large_numbers(self):
        dev = dv.honest_device()
        rng = stats.record_rng(7, 0)
        p = exact_prob(dev, epr_ops(0.0, math.pi / 8))
        est = stats.sample_prob(p, 10**6, rng)
        assert abs(est - HALF_COS8) < 0.01

    def test_deterministic_setting_always_one(self):
        # an op list with no projectors has probability exactly 1
        dev = dv.honest_device()
        rng = stats.record_rng(3, 1)
        assert stats.sample_prob(exact_prob(dev, ()), 5, rng) == 1.0

    def test_seed_reproducibility(self):
        dev = dv.honest_device()
        ops = epr_ops(0.0, math.pi / 8)
        a = stats.sample_prob(exact_prob(dev, ops), 1000, stats.record_rng(42, 5))
        b = stats.sample_prob(exact_prob(dev, ops), 1000, stats.record_rng(42, 5))
        assert a == b

    def test_streams_differ_by_index(self):
        dev = dv.honest_device()
        ops = epr_ops(0.0, math.pi / 8)
        a = stats.sample_prob(exact_prob(dev, ops), 1000, stats.record_rng(42, 0))
        b = stats.sample_prob(exact_prob(dev, ops), 1000, stats.record_rng(42, 1))
        assert a != b  # astronomically unlikely to collide

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            stats.sample_prob(1.0, 0, stats.record_rng(0, 0))


def numpy_stream(seed, index):
    """Stream index of a run as NumPy builds it: the reference for
    stats.record_rng and stats.estimates."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


STREAM_SEEDS = [0, 1, 15, 2**32 - 1, 2**32, 2**64 - 1]


class TestStreams:
    """The seed words, streams and estimates the package derives itself,
    against NumPy's SeedSequence and Generator."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        keys = list(range(3000)) + [2**31, 2**32 - 1]
        got = stats._seed_words(seed, [np.array(keys, dtype=np.uint64)])
        want = np.array(
            [
                np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)
                for k in keys
            ]
        )
        assert np.array_equal(np.stack(got, axis=1), want)

    @pytest.mark.parametrize("seed", STREAM_SEEDS + [2**200 + 3])
    @pytest.mark.parametrize("index", [0, 1, 2, 2**32 - 1, 2**32, 2**64 + 5])
    def test_record_rng_matches_numpy(self, seed, index):
        got, want = stats.record_rng(seed, index), numpy_stream(seed, index)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.binomial(1000, 0.3) == want.binomial(1000, 0.3)
        weights = [0.2, 0.8]
        assert got.multinomial(50, weights).tolist() == want.multinomial(50, weights).tolist()
        assert got.random(4).tolist() == want.random(4).tolist()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 7, 10**3, 10**6, 2**40, 2**63 - 1])
    def test_estimates_match_numpy(self, seed, n):
        # edge probabilities, a run of one p (each draw after the first
        # reuses the Generator's cached binomial set-up), then random ones
        probs = [0.0, 1.0, 1e-12, 1 - 1e-12] + [0.3] * 20
        probs += np.random.default_rng(seed % 97).random(40).tolist()
        want = [
            float(numpy_stream(seed, 2 + i).binomial(n, p)) / n
            for i, p in enumerate(probs)
        ]
        assert stats.estimates(probs, n, seed) == want
        for i, p in enumerate(probs[:8]):
            assert stats.sample_prob(p, n, stats.record_rng(seed, 2 + i)) == want[i]

    def test_no_records(self):
        assert stats.estimates([], 10, 0) == []

    def test_negative_seed_or_index_refused(self):
        with pytest.raises(ValidationError, match=">= 0"):
            stats.record_rng(-1, 0)
        with pytest.raises(ValidationError, match=">= 0"):
            stats.record_rng(0, -1)
        with pytest.raises(ValidationError, match=">= 0"):
            stats.estimates([0.5], 10, -1)

    def test_zero_count_refused(self):
        with pytest.raises(ValidationError, match=">= 1"):
            stats.estimates([0.5], 0, 0)


class TestSampleSize:
    def test_known_values(self):
        assert stats.sample_size(0.1, 0.05, 1) == 185
        assert stats.sample_size(0.1, 0.05, 100) == 415

    def test_quadratic_scaling(self):
        n1 = stats.sample_size(0.1, 0.05, 1)
        n2 = stats.sample_size(0.05, 0.05, 1)
        assert abs(n2 - 4 * n1) <= 4

    @pytest.mark.parametrize("eps", [1e-10, 1e-160, 1e-200])
    def test_count_past_int64_refused(self, eps):
        with pytest.raises(ValidationError, match="samples per statistic"):
            stats.sample_size(eps, 0.05, 36)

    def test_int64_boundary(self):
        # the count is log(2m/gamma) / (2 eps^2); eps is solved for a count
        # a billionth inside and outside the largest one Generator.binomial
        # takes
        limit = np.iinfo(np.int64).max
        log_term = math.log(2 * 36 / 0.05)
        inside = math.sqrt(log_term / (2 * limit * (1 - 1e-9)))
        outside = math.sqrt(log_term / (2 * limit * (1 + 1e-9)))
        n = stats.sample_size(inside, 0.05, 36)
        assert limit * (1 - 2e-9) < n <= limit
        stats.sample_prob(0.5, n, stats.record_rng(0, 0))  # NumPy takes it
        with pytest.raises(ValidationError, match="samples per statistic"):
            stats.sample_size(outside, 0.05, 36)

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
            (("A", 0, 0.0),),
            (("A", 0, math.pi / 8), ("B", 0, math.pi / 4)),
        ],
    )
    def test_exact_branches_sum_to_one(self, measured):
        dev = dv.honest_device(h_circuit())
        ops = (("A", "g1"),) + measured
        total = sum(branch_probabilities(dev, ops, len(measured)))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_sampled_branches_sum_within_tolerance(self):
        eps = 0.05
        dev = dv.honest_device()
        ops = (("A", 0, math.pi / 8),)
        n = stats.sample_size(eps, 0.05, 2)
        total = sum(
            stats.sample_prob(
                exact_prob(dev, with_flips(ops, (f,))), n, stats.record_rng(11, f)
            )
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
        total = sum(branch_probabilities(dev, epr_ops(a, b), 2))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestDiagnostics:
    """The two sides' single-wire collapses of the source, via stats.collapse."""

    @staticmethod
    def side_diffs(dev):
        """||P_A^a psi - P_B^a psi|| per tested angle a."""
        return [
            np.linalg.norm(
                stats.collapse(dev, dev.source, (("A", 0, a),)).vec
                - stats.collapse(dev, dev.source, (("B", 0, a),)).vec
            )
            for a in dv.TEST_ANGLES
        ]

    def test_collapse_symmetry_on_honest_source(self):
        assert max(self.side_diffs(dv.honest_device())) <= 1e-12

    def test_collapse_asymmetry_flags_product_source(self):
        dev = dv.honest_device()
        v = np.zeros(4, dtype=np.complex128)
        v[0] = 1.0  # both halves in the local zero state, no pairing
        prod = dv.DeviceModel(dev.layout, hb.PhysState(dev.layout.full, v), dev.gates, dev.frames)
        diffs = self.side_diffs(prod)
        assert max(diffs) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        pi8 = dv.TEST_ANGLES.index(math.pi / 8)
        assert diffs[pi8] == pytest.approx(0.5, abs=1e-12)


class TestRecordsAndReport:
    def test_record_bounds(self):
        # a one-wire tomography experiment has nine settings; the first
        # seven records are 0.5 on both sides
        exp = pr.Experiment("tomography", 1, (0,), ())
        pad = [0.5] * 7
        r = pr.Records((exp,), pad + [0.5, 1 + 1e-12], pad + [0.45, 1.0], n_samples=200)
        assert len(r) == 9
        assert r.deviation.tolist() == [0.0] * 7 + [abs(0.45 - 0.5), abs(1.0 - (1 + 1e-12))]
        assert r.experiment.tolist() == [0] * 9
        for ideal, est, name in (
            ([1.2, 0.5], [0.5, 0.5], "ideal_p=1.2"),
            ([0.5, 0.5], [0.5, -1e-11], "est_p=-1e-11"),
            ([0.5, 0.5], [0.5, math.nan], "est_p=nan"),
        ):
            with pytest.raises(ValidationError, match=f"{name} outside"):
                pr.Records((exp,), pad + ideal, pad + est)
        with pytest.raises(ValidationError, match="one value per setting"):
            pr.Records((exp,), [0.5] * 8, [0.5] * 8)

    def test_verdict_derives_its_outcome_from_the_deviations(self):
        exp = pr.Experiment("tomography", 1, (0,), ())
        recs = pr.Records((exp,), [0.5] * 9, [0.5, 0.45, 0.75] + [0.5] * 6)
        dev = recs.deviation
        assert dev[0] == 0.0 < dev[1] < 0.1 < dev[2] == 0.25 == dev.max()
        # eps below, at and above each deviation: a record fails only beyond eps
        for eps in (0.0, 0.01, dev[1], 0.1, 0.25, 0.3):
            v = pr.Verdict(recs, eps, ("x",))
            assert v.failing.tolist() == np.flatnonzero(dev > eps).tolist()
            assert v.accepted is (not v.failing.size)
            assert v.max_deviation == 0.25
            summary = v.summary_json()
            assert summary["accepted"] is v.accepted
            assert summary["max_deviation"] == 0.25
        assert pr.Verdict(recs, dev[1], ("x",)).failing.tolist() == [2]
        assert pr.Verdict(recs, 0.25, ("x",)).accepted
        v = pr.Verdict(recs, 0.01, ("x",))
        assert v.failing.tolist() == [1, 2]
        records = v.to_json()["records"]
        assert v.to_json()["failing_records"] == [records[1], records[2]]

    def test_verdict_without_records_accepts(self):
        v = pr.Verdict(pr.Records((), [], []), 0.1, ())
        assert v.failing.tolist() == [] and v.accepted is True
        assert v.max_deviation == 0.0 and type(v.max_deviation) is float
        assert v.to_json()["failing_records"] == v.to_json()["records"] == []
