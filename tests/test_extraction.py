"""Extraction chain: swap unitaries, equivalence residuals, tomography, commutants."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gate_free
from qselftest import devices as dv
from qselftest import extraction as ex
from qselftest import hilbert as hb
from qselftest import stats as qstats
from qselftest.errors import ValidationError

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def rows(basis):
    """The basis vectors as rows: a transposed view of `basis.stacked`."""
    return basis.stacked.vec.reshape(basis.layout.total, basis.rank).T


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


FIG1 = dv.IdealCircuit(
    2,
    (
        dv.CircuitGate("g1", (0,), dv.builtin_gate("H")),
        dv.CircuitGate("g2", (0, 1), dv.builtin_gate("CNOT")),
        dv.CircuitGate("g3", (1,), X),
    ),
    "00",
)


def tomo_probs(vec, n):
    """Exact angle-projector statistics of a pure state."""
    out = {}
    for key in ex.tomo_settings(n):
        proj = np.array([[1.0]], dtype=np.complex128)
        for a in key:
            v = np.array([np.cos(a), np.sin(a)])
            proj = np.kron(proj, np.outer(v, v))
        out[key] = float(np.real(vec.conj() @ proj @ vec))
    return out


class TestSwapConstruction:
    def test_factors_are_the_crossed_nots(self):
        c1, c2 = ex.swap_factors(dv.honest_device(), "A", 0)
        e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert np.abs(c1 - (np.kron(e00, np.eye(2)) + np.kron(e11, X))).max() <= 1e-12
        assert np.abs(c2 - (np.kron(np.eye(2), e00) + np.kron(X, e11))).max() <= 1e-12

    def test_moves_wire_content_into_logical_slot(self):
        u = ex.build_swap_extraction(dv.honest_device(), "A", 0).matrix
        for a in (0.0, math.pi / 2, math.pi / 8):
            amp = np.array([math.cos(a), math.sin(a)])
            got = u @ np.kron([1.0, 0.0], amp)
            assert np.abs(got - np.kron(amp, [1.0, 0.0])).max() <= 1e-12

    @given(st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_rotated_not_block_is_hermitian_involution(self, theta):
        # the first factor's lower block is the device's own NOT, 2 P(pi/4) - Id
        c1, _ = ex.swap_factors(dv.rotated_device(theta=theta), "A", 0)
        n = c1[2:, 2:]
        assert np.abs(n @ n - np.eye(2)).max() <= 1e-10
        assert np.abs(n - n.conj().T).max() <= 1e-10

    def test_not_block_involution_b_side_and_van_dam(self):
        for dev, side in [(dv.honest_device(), "B"), (dv.van_dam_device(), "A")]:
            c1, _ = ex.swap_factors(dev, side, 0)
            d = c1.shape[0] // 2
            n = c1[d:, d:]
            assert np.abs(n @ n - np.eye(d)).max() <= 1e-10

    def test_unitary_for_every_builtin(self):
        for name in ("honest", "vandam"):
            dev = dv.resolve_device(f"builtin:{name}")
            u = ex.build_swap_extraction(dev, "A", 0).matrix
            assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() <= 1e-10


class TestStateEquivalence:
    def test_honest_all_residuals_vanish(self):
        rep = ex.certify_state_equivalence(dv.honest_device())
        assert rep.s_rank == 4
        assert rep.state_residual <= 1e-10
        assert max(rep.projector_residuals.values()) <= 1e-10
        # twelve projector residuals: 2 sides x 6 angles
        assert len(rep.projector_residuals) == 12

    def test_rotated_residuals_vanish(self):
        dev = dv.rotated_device(
            v_a=[dv.rotation(np.pi / 7)], v_b=[dv.rotation(np.pi / 5)]
        )
        rep = ex.certify_state_equivalence(dev)
        assert rep.state_residual <= 1e-9
        assert max(rep.projector_residuals.values()) <= 1e-9

    def test_depolarized_residual_is_root_three_quarters_p(self):
        for p in (1e-4, 1e-3, 1e-2):
            rep = ex.certify_state_equivalence(dv.noisy_source_device(p=p))
            assert rep.state_residual == pytest.approx(math.sqrt(3 * p / 4), abs=1e-9)
            assert rep.s_rank == 9

    def test_depolarized_quarter_root_exponent(self):
        # deviation seen by the pair test is p/4; calibrate at the largest
        # noise then check the promised fourth-root growth caps the rest
        ps = (1e-4, 1e-3, 1e-2)
        res = [
            ex.certify_state_equivalence(dv.noisy_source_device(p=p)).state_residual
            for p in ps
        ]
        c = res[-1] / (ps[-1] / 4) ** 0.25
        for p, r in zip(ps, res):
            assert r <= c * (p / 4) ** 0.25 + 1e-12
        slope = (math.log(res[-1]) - math.log(res[0])) / (
            math.log(ps[-1]) - math.log(ps[0])
        )
        assert slope >= 0.25

    def test_van_dam_large_residuals_golden(self):
        rep = ex.certify_state_equivalence(dv.van_dam_device())
        assert rep.s_rank == 7
        assert rep.state_residual == pytest.approx(math.sqrt(0.5), abs=1e-6)
        assert max(rep.projector_residuals.values()) == pytest.approx(0.603553, abs=1e-6)
        u = rep.u_bar_a[0].matrix
        assert u.shape == (8, 8)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-10

    def test_report_json_shape(self):
        js = ex.certify_state_equivalence(dv.honest_device()).to_json()
        assert js["s_rank"] == 4
        assert set(js["projector_residuals"]) == {
            f"{s}0:{k}"
            for s in "AB"
            for k in ("0", "pi/8", "pi/4", "pi/2", "5pi/8", "3pi/4")
        }

    @pytest.mark.parametrize("wires", [(), (0, 0)])
    def test_wires_must_be_distinct_and_present(self, wires):
        with pytest.raises(ValidationError, match="distinct wires"):
            ex.certify_state_equivalence(dv.honest_device(), wires=wires)


def near_idempotent_device(seed):
    """The honest 2-wire device with every base projector moved by about
    1e-11: idempotent only to that, inside the frame tolerance, so each swap
    is an isometry on the |0> logical input only to that."""
    dev = dv.honest_device(gate_free(2))
    rng = np.random.default_rng(seed)
    frames = {}
    for key, f in dev.frames.items():
        base = {}
        for a, m in f.base.items():
            h = rng.normal(size=m.shape)
            base[a] = m + 1e-11 * (h + h.T) / 2
        frames[key] = dv.MeasurementFrame(f.side, f.wire, base)
    return dv.DeviceModel(dev.layout, dev.source, dict(dev.gates), frames)


def restricted_norm(basis, target, m):
    """Largest singular value of m, acting on one subsystem, over the basis rows."""
    vecs = rows(basis).reshape((basis.rank,) + basis.layout.dims)
    out = np.moveaxis(np.tensordot(m, vecs, axes=([1], [target + 1])), 0, target + 1)
    return np.linalg.svd(out.reshape(basis.rank, -1), compute_uv=False)[0]


class TestComplementResiduals:
    """Each complement angle a + pi/2 is reported as the base residual plus
    the defect ||Id - U0^dag U0||, U0 the swap's |0> logical columns; here
    against the SVD value of P(a + pi/2) - m(a + pi/2) on S. On the builtins,
    and on one seen through complex local unitaries, U0 is an isometry."""

    @pytest.mark.parametrize(
        "make, wires, isometry",
        [
            (lambda: dv.honest_device(gate_free(2)), (0, 1), True),
            (lambda: dv.rotated_device(theta=0.5), (0,), True),
            (lambda: dv.noisy_source_device(p=0.05), (0,), True),
            (lambda: dv.van_dam_device(), (0,), True),
            (lambda: complex_frame(dv.noisy_source_device(p=0.05), 7), (0,), True),
            (lambda: near_idempotent_device(0), (0, 1), False),
            (lambda: near_idempotent_device(3), (0, 1), False),
        ],
    )
    def test_bounds_the_svd_value(self, make, wires, isometry):
        device = make()
        lay = device.layout
        rep = ex.certify_state_equivalence(device, wires=wires)
        defects = []
        for i, w in enumerate(wires):
            for side, swaps in (("A", rep.u_bar_a), ("B", rep.u_bar_b)):
                d = lay.side_dim(side, w)
                u0 = swaps[i].matrix[:, :d]
                defect = np.linalg.norm(np.eye(d) - u0.conj().T @ u0, 2)
                defects.append(defect)
                for a in dv.BASE_ANGLES:
                    b = a + math.pi / 2
                    v = np.array([math.cos(b), math.sin(b)])
                    pulled = u0.conj().T @ np.kron(np.outer(v, v), np.eye(d)) @ u0
                    want = restricted_norm(
                        rep.s_basis,
                        lay.side_index(side, w),
                        device.frames[(side, w)].projector(b) - pulled,
                    )
                    got = rep.projector_residuals[f"{side}{w}:{dv.angle_name(b)}"]
                    assert got >= want - 1e-15
                    # the complement's difference is the defect's operator minus
                    # the base one, so the sum overshoots by at most twice the defect
                    assert got <= want + 2 * defect + 1e-15
                    if isometry:
                        assert abs(got - want) <= 1e-12
        # the perturbed device exercises the defect term
        assert isometry or max(defects) > 1e-11


def product_generators(device, wires, angles):
    """Every product of {Id} + angles over the (wire, side) slots applied to
    the source in slot order, one product at a time."""
    slots = [
        [None] + [device.frame_operator(side, w, a) for a in angles]
        for w in wires
        for side in ("A", "B")
    ]
    out = []
    for combo in itertools.product(*slots):
        st = device.source
        for op in combo:
            if op is not None:
                st = hb.apply_operator(op, st)
        out.append(st)
    return out


def complex_pi4_device(n):
    """A loaded n-wire EPR device whose pi/4 projectors are complex: onto
    (|0> + i|1>)/sqrt(2). Id, P(0), P(pi/8) and P(pi/4) then span all 2x2
    matrices, so no angle can be dropped."""
    mats = {
        "0": hb.projector_angle(0.0).matrix,
        "pi/8": hb.projector_angle(math.pi / 8).matrix,
        "pi/4": np.array([[0.5, -0.5j], [0.5j, 0.5]]),
    }
    frames = [
        {"side": side, "wire": w, "angle": key, "matrix": dv.matrix_to_json(m)}
        for side in "AB"
        for w in range(n)
        for key, m in mats.items()
    ]
    layout = {"n_wires": n, "a_dims": [2] * n, "b_dims": [2] * n}
    return dv.load_device({"layout": layout, "frames": frames})


SPAN_CASES = [
    ("honest", lambda: dv.honest_device(bell_circuit()), (0,), 9),
    ("honest", lambda: dv.honest_device(bell_circuit()), (1, 0), 81),
    ("rotated", lambda: dv.rotated_device(bell_circuit(), theta=0.9), (0,), 9),
    ("rotated", lambda: dv.rotated_device(bell_circuit(), theta=0.9), (0, 1), 81),
    ("depolarized", lambda: dv.noisy_source_device(bell_circuit(), p=0.1), (0,), 9),
    ("depolarized", lambda: dv.noisy_source_device(bell_circuit(), p=0.1), (1, 0), 81),
    ("vandam", dv.van_dam_device, (0,), 16),
    ("complex", lambda: complex_pi4_device(2), (0,), 16),
    ("complex", lambda: complex_pi4_device(2), (0, 1), 256),
]


class TestSpanGenerators:
    def test_prefix_sharing_matches_product_of_projectors(self):
        # a real qubit frame keeps Id, P(0) and P(pi/8) per slot; P(pi/4)
        # lies in their span
        dev = dv.noisy_source_device(bell_circuit(), p=0.1)
        wires = (1, 0)
        want = [g.vec for g in product_generators(dev, wires, dv.BASE_ANGLES[:2])]
        got = [g.vec for g in ex._span_generators(dev, dev.source, wires)]
        assert len(got) == len(want) == 9 ** len(wires)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize(
        "make, wires, count", [c[1:] for c in SPAN_CASES], ids=[c[0] for c in SPAN_CASES]
    )
    def test_same_subspace_as_every_product(self, make, wires, count):
        dev = make()
        got = ex._span_generators(dev, dev.source, wires)
        assert len(got) == count
        full = hb.orthonormalize(product_generators(dev, wires, dv.BASE_ANGLES))
        reduced = hb.orthonormalize(got)
        assert reduced.rank == full.rank
        proj = rows(reduced).T @ rows(reduced).conj()
        assert np.abs(proj - rows(full).T @ rows(full).conj()).max() <= 1e-12


class TestGateEquivalence:
    def test_honest_h_exact(self):
        rep = ex.certify_gate_equivalence(dv.honest_device(h_circuit()), h_circuit(), 1)
        assert rep.gate_residual <= 1e-9
        assert rep.factorization_residual <= 1e-9
        assert np.abs(rep.w_matrix - np.eye(2)).max() <= 1e-10

    def test_rotated_h_exact(self):
        circ = h_circuit()
        dev = dv.rotated_device(circ, theta=0.4)
        rep = ex.certify_gate_equivalence(dev, circ, 1)
        assert rep.gate_residual <= 1e-9

    def test_wrong_gate_residual_golden(self):
        circ = h_circuit()
        base = dv.honest_device(circ)
        gates = dict(base.gates)
        gates[("A", "g1")] = dv.DeviceGate("A", (0,), dv.rotation(np.pi / 8))
        bad = dv.DeviceModel(base.layout, base.source, gates, dict(base.frames))
        rep = ex.certify_gate_equivalence(bad, circ, 1)
        # restricted norm equals the full spectral distance ||H - R(pi/8)|| here
        assert rep.gate_residual == pytest.approx(2.0, abs=1e-9)

    def test_honest_two_wire_gate_exact(self):
        circ = bell_circuit()
        rep = ex.certify_gate_equivalence(dv.honest_device(circ), circ, 2)
        assert rep.s_rank == 16
        assert rep.gate_residual <= 1e-9
        assert np.abs(rep.w_matrix - np.eye(4)).max() <= 1e-10

    def test_source_noise_does_not_indict_the_gate(self):
        circ = h_circuit()
        rep = ex.certify_gate_equivalence(dv.noisy_source_device(circ, p=1e-2), circ, 1)
        assert rep.gate_residual <= 1e-10
        assert rep.state_residual == pytest.approx(math.sqrt(3e-2 / 4), abs=1e-9)

    def test_gate_index_bounds(self):
        with pytest.raises(ValidationError, match="outside"):
            ex.certify_gate_equivalence(dv.honest_device(h_circuit()), h_circuit(), 2)


def chain_circuit():
    """Three wires; its CNOT runs from wire 2 to wire 0, against the layout order."""
    return dv.IdealCircuit(
        3,
        (
            dv.CircuitGate("g1", (1,), dv.rotation(0.7)),
            dv.CircuitGate("g2", (2, 0), dv.builtin_gate("CNOT")),
        ),
        "000",
    )


def reversed_bell_circuit():
    """Bell circuit with its CNOT from wire 1 to wire 0."""
    return dv.IdealCircuit(
        2,
        (
            dv.CircuitGate("g1", (1,), dv.builtin_gate("H")),
            dv.CircuitGate("g2", (1, 0), dv.builtin_gate("CNOT")),
        ),
        "00",
    )


def complex_frame(device, seed):
    """The device seen through random complex unitaries on every A and B subsystem.

    Its statistics are the device's own, but S and its reduced states are
    complex and not symmetric, so a lost conjugate or transpose shows.
    """
    rng = np.random.default_rng(seed)
    lay = device.layout
    vs = {}
    src = device.source
    for side in "AB":
        for w in range(lay.n_wires):
            d = lay.side_dim(side, w)
            v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            vs[(side, w)] = v
            src = hb.apply_operator(hb.LocalOperator.unitary((lay.side_index(side, w),), v), src)
    gates = {}
    for key, g in device.gates.items():
        v = np.eye(1)
        for w in g.wires:
            v = np.kron(v, vs[(g.side, w)])
        gates[key] = dv.DeviceGate(g.side, g.wires, v @ g.matrix @ v.conj().T)
    frames = {
        key: dv.MeasurementFrame(
            f.side, f.wire, {a: vs[key] @ m @ vs[key].conj().T for a, m in f.base.items()}
        )
        for key, f in device.frames.items()
    }
    return dv.DeviceModel(lay, hb.PhysState(lay.full, src.vec), gates, frames)


def with_gate(device, label, wires, matrix):
    """The device with its A-side gate `label` replaced."""
    gates = dict(device.gates)
    gates[("A", label)] = dv.DeviceGate("A", wires, matrix)
    return dv.DeviceModel(device.layout, device.source, gates, dict(device.frames))


def reference_gate_certificate(device, circuit, j):
    """Gate certification one basis vector at a time, each extended by 2k logical qubits.

    Returns (s_rank, w_matrix, factorization_residual, gate_residual).
    """
    gate = circuit.gates[j - 1]
    k, d_log = len(gate.wires), 1 << len(gate.wires)
    lay = device.layout
    st = device.source
    for g in circuit.gates[: j - 1]:
        st = hb.apply_operator(device.gate_operator("A", g.label), st)
        st = hb.apply_operator(device.gate_operator("B", g.label), st)
    basis = ex.certify_state_equivalence(device, st, gate.wires).s_basis
    states = [hb.PhysState(basis.layout, row) for row in rows(basis)]
    ext_layout = hb.SubsystemDims((2,) * (2 * k)) + basis.layout
    placed = []
    for i, w in enumerate(gate.wires):
        for side, slot in (("A", i), ("B", k + i)):
            u = ex.build_swap_extraction(device, side, w).matrix
            placed.append(hb.LocalOperator.unitary((slot, 2 * k + lay.side_index(side, w)), u))
    gate_op = device.gate_operator("A", gate.label)
    t_log = hb.LocalOperator.unitary(range(k), gate.matrix)
    t_dag = hb.LocalOperator.unitary(range(k), gate.matrix.conj().T)

    def apply(ops, x):
        for op in ops:
            x = hb.apply_operator(op, x)
        return x

    def lift(x):  # U (|0..0> (x) x)
        vec = np.zeros(ext_layout.total, dtype=np.complex128)
        vec[: x.vec.size] = x.vec
        return apply(placed, hb.PhysState(ext_layout, vec))

    xs = [lift(x) for x in states]
    zs = [hb.apply_operator(t_dag, lift(hb.apply_operator(gate_op, x))) for x in states]
    w_prime = sum(
        np.einsum(
            "ipd,iqd->pq",
            z.vec.reshape(d_log, d_log, -1),
            x.vec.reshape(d_log, d_log, -1).conj(),
        )
        for x, z in zip(xs, zs)
    )
    w = ex.polar_unitary(w_prime)
    w_log = hb.LocalOperator.unitary(range(k, 2 * k), w)
    fact = max(np.linalg.norm(z.vec - hb.apply_operator(w_log, x).vec) for x, z in zip(xs, zs))
    adjoint = [hb.LocalOperator.unitary(op.targets, op.matrix.conj().T) for op in reversed(placed)]
    cols = []
    for x, lifted in zip(states, xs):
        back = apply([t_log, w_log] + adjoint, lifted)
        cols.append(hb.apply_operator(gate_op, x).vec - back.vec[: x.vec.size])
    gate_res = np.linalg.svd(np.stack(cols), compute_uv=False)[0]
    return basis.rank, w, fact, gate_res


DIFFERENTIAL_CASES = (
    [(lambda: dv.honest_device(FIG1), FIG1, j) for j in (1, 2, 3)]
    + [(lambda: dv.rotated_device(FIG1, theta=0.9), FIG1, j) for j in (1, 2, 3)]
    + [(lambda: dv.noisy_source_device(FIG1, p=0.05), FIG1, j) for j in (1, 2, 3)]
    + [(lambda: complex_frame(dv.noisy_source_device(FIG1, p=0.05), 5), FIG1, j) for j in (1, 2)]
    + [
        (lambda: dv.van_dam_device(), h_circuit(), 1),
        (lambda: complex_frame(dv.van_dam_device(), 3), h_circuit(), 1),
        (lambda: dv.honest_device(chain_circuit()), chain_circuit(), 2),
        (lambda: dv.rotated_device(chain_circuit(), theta=0.9), chain_circuit(), 2),
        (lambda: complex_frame(dv.honest_device(chain_circuit()), 4), chain_circuit(), 2),
        (
            # a wrong gate on a noisy source: W then depends on rho_S, whose
            # support order (A1, A0, B1, B0) is not the layout's
            lambda: complex_frame(
                with_gate(
                    dv.noisy_source_device(reversed_bell_circuit(), p=0.05),
                    "g2",
                    (1, 0),
                    dv.builtin_gate("CNOT") @ np.kron(dv.rotation(0.3), dv.rotation(0.5)),
                ),
                6,
            ),
            reversed_bell_circuit(),
            2,
        ),
        # the device's g1 acts on wire 1, outside the circuit gate's wires
        (
            lambda: with_gate(dv.honest_device(bell_circuit()), "g1", (1,), dv.builtin_gate("H")),
            bell_circuit(),
            1,
        ),
    ]
)


class TestGatePathDifferential:
    """The support-matrix gate path against the per-vector computation it replaced."""

    @pytest.mark.parametrize("make, circuit, j", DIFFERENTIAL_CASES)
    def test_matches_per_vector_reference(self, make, circuit, j):
        device = make()
        rank, w, fact, gate_res = reference_gate_certificate(device, circuit, j)
        rep = ex.certify_gate_equivalence(device, circuit, j)
        assert rep.s_rank == rank
        assert abs(rep.factorization_residual - fact) <= 1e-12
        assert abs(rep.gate_residual - gate_res) <= 1e-12
        assert np.abs(rep.w_matrix - w).max() <= 1e-12

    def test_peak_memory_of_depolarized_cnot(self):
        # keeping every basis vector extended by 4^k logical qubits peaked at
        # 11.7 MiB here (D = 256, rank 81); the maps on the support take 2.8
        device = dv.noisy_source_device(FIG1, p=0.05)
        ex.certify_gate_equivalence(device, FIG1, 2)  # warm caches outside the trace
        tracemalloc.start()
        try:
            ex.certify_gate_equivalence(device, FIG1, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestRestrictedEquivalences:
    """The extraction pulls physical operations back to logical ones on S."""

    def test_physical_not_matches_logical_not_on_s(self):
        dev = dv.honest_device()
        rep = ex.certify_state_equivalence(dev)
        placed = ex._placed_swaps(
            rep.u_bar_a,
            rep.u_bar_b,
            (dev.layout.side_index("A", 0), dev.layout.side_index("B", 0)),
        )
        # the device's own NOT, 2 P(pi/4) - Id on the A wire
        n_phys = hb.LocalOperator.unitary(
            (dev.layout.side_index("A", 0),),
            2 * dev.frames[("A", 0)].projector(math.pi / 4) - np.eye(2),
        )
        n_log = hb.LocalOperator.unitary((0,), X)

        # the pulled-back NOT on the stacked basis: the logical qubits go in
        # front of it and the basis index stays last
        def composite(x):
            ext = ex._extended_zero(x, 1)
            for op in placed:
                ext = hb.apply_operator(op, ext)
            ext = hb.apply_operator(n_log, ext)
            for op in reversed(placed):
                ext = hb.apply_operator(
                    hb.LocalOperator(op.targets, op.matrix.conj().T, "unitary"), ext
                )
            return hb.PhysState._wrap(x.layout, ext.vec[: x.layout.total])

        stacked = rep.s_basis.stacked
        diff = hb.apply_operator(n_phys, stacked).vec - composite(stacked).vec
        assert np.linalg.svd(diff.reshape(-1, rep.s_rank), compute_uv=False)[0] <= 1e-10


class TestTomography:
    def test_settings_counts(self):
        assert [len(ex.tomo_settings(n)) for n in (1, 2, 3)] == [3, 9, 27]

    def test_zero_state_exact(self):
        v = np.array([1.0, 0.0])
        rho = ex.tomo_reconstruct(tomo_probs(v, 1), 1)
        assert np.abs(rho - np.outer(v, v)).max() <= 1e-12

    def test_bell_state_exact(self):
        v = np.zeros(4)
        v[0] = v[3] = 2**-0.5
        rho = ex.tomo_reconstruct(tomo_probs(v, 2), 2)
        assert np.abs(rho - np.outer(v, v)).max() <= 1e-10

    def test_random_real_pure_states_exact(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for _ in range(8):
                v = rng.normal(size=1 << n)
                v /= np.linalg.norm(v)
                rho = ex.tomo_reconstruct(tomo_probs(v, n), n)
                assert np.abs(rho - np.outer(v, v)).max() <= 1e-10

    def test_mixed_real_target_falls_back_to_inversion(self):
        rho_t = np.eye(4) / 4
        tbl = {}
        for key in ex.tomo_settings(2):
            proj = np.array([[1.0]], dtype=np.complex128)
            for a in key:
                u = np.array([np.cos(a), np.sin(a)])
                proj = np.kron(proj, np.outer(u, u))
            tbl[key] = float(np.real(np.trace(rho_t @ proj)))
        assert np.abs(ex.tomo_reconstruct(tbl, 2) - rho_t).max() <= 1e-12

    def test_noise_robustness_root_eps_budget(self):
        g = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        rng = np.random.default_rng(11)
        errs = {}
        for eps in (1e-6, 1e-4):
            worst = 0.0
            for _ in range(10):
                tbl = {
                    k: p + rng.uniform(-eps, eps) for k, p in tomo_probs(g, 1).items()
                }
                rho = ex.tomo_reconstruct(tbl, 1)
                worst = max(worst, np.linalg.norm(rho - np.outer(g, g), 2))
            errs[eps] = worst
        c = errs[1e-4] / math.sqrt(1e-4)
        assert errs[1e-6] <= c * math.sqrt(1e-6)
        slope = (math.log(errs[1e-4]) - math.log(errs[1e-6])) / math.log(100)
        assert slope >= 0.5

    def test_angle_canonicalization_and_errors(self):
        v = np.array([1.0, 0.0])
        tbl = {(k[0] + 1e-12,): p for k, p in tomo_probs(v, 1).items()}
        assert np.abs(ex.tomo_reconstruct(tbl, 1) - np.diag([1.0, 0.0])).max() <= 1e-9
        with pytest.raises(ValidationError, match="missing"):
            ex.tomo_reconstruct({(0.0,): 1.0}, 1)
        with pytest.raises(ValidationError, match="not one of"):
            ex.tomo_reconstruct({(0.3,): 1.0, (0.7,): 0.0, (1.1,): 0.0}, 1)
        with pytest.raises(ValidationError, match="1..3"):
            ex.tomo_reconstruct({}, 4)


class TestCommutantFactor:
    def test_exact_product_recovers_factor(self):
        u = np.kron(np.eye(2), dv.builtin_gate("H"))
        w, res = ex.commutant_factor(u, 1)
        assert res <= 1e-12
        assert np.abs(w - dv.builtin_gate("H")).max() <= 1e-12

    def test_cnot_not_factorable_golden(self):
        w, res = ex.commutant_factor(dv.builtin_gate("CNOT"), 1)
        assert w is None
        assert res == 2.0

    def test_left_rotation_residual_is_analytic(self):
        # best factor keeps the right leg; residual = ||R(theta) - Id|| = 2|sin(theta/2)|
        theta = 0.3
        u = np.kron(dv.rotation(theta), dv.rotation(1.1))
        _, res = ex.commutant_factor(u, 1)
        assert res == pytest.approx(2 * math.sin(theta / 2), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_products_both_sizes(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2):
            d = 1 << n
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            w_true, _ = np.linalg.qr(m)
            w, res = ex.commutant_factor(np.kron(np.eye(d), w_true), n)
            assert res <= 1e-12
            # recovered factor matches up to nothing: the average is exact
            assert np.abs(w - w_true).max() <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_perturbation_linear_budget(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        k = (k + k.conj().T) / 2
        k /= np.linalg.norm(k, 2)
        evals, evecs = np.linalg.eigh(k)
        for eps in (1e-4, 1e-3):
            pert = evecs @ np.diag(np.exp(1j * eps * evals)) @ evecs.conj().T
            u = np.kron(np.eye(2), dv.builtin_gate("H")) @ pert
            _, res = ex.commutant_factor(u, 1)
            assert res <= 10 * eps

    def test_nonzero_residual_for_entangling_input(self):
        for u in (dv.builtin_gate("CNOT"), dv.builtin_gate("SWAP")):
            _, res = ex.commutant_factor(u, 1)
            assert res >= 0.9

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="unitary"):
            ex.commutant_factor(np.ones((4, 4)), 1)
        with pytest.raises(ValidationError, match="divisible"):
            ex.commutant_factor(np.eye(6), 2)


class TestCollapseSymmetry:
    """The two sides' single-wire collapses of the source, angle by angle."""

    @staticmethod
    def collapse_diffs(dev, wire=0):
        """Per tested angle a: (||P_A^a psi - P_B^a psi||, ||P_A^a psi - P_A^a P_B^a psi||)."""
        out = {}
        for a in dv.TEST_ANGLES:
            pa = qstats.collapse(dev, dev.source, (("A", wire, a),))
            pb = qstats.collapse(dev, dev.source, (("B", wire, a),))
            joint = qstats.collapse(dev, pa, (("B", wire, a),))
            out[a] = (
                float(np.linalg.norm(pa.vec - pb.vec)),
                float(np.linalg.norm(pa.vec - joint.vec)),
            )
        return out

    def test_honest_vanishes(self):
        diffs = self.collapse_diffs(dv.honest_device())
        assert max(side for side, _ in diffs.values()) <= 1e-12
        assert max(joint for _, joint in diffs.values()) <= 1e-12

    def test_depolarized_grows_like_root_p(self):
        vals = []
        for p in (1e-4, 1e-2, 0.1):
            worst = max(side for side, _ in self.collapse_diffs(dv.noisy_source_device(p=p)).values())
            vals.append(worst)
            assert worst == pytest.approx(math.sqrt(p / 2), abs=1e-9)
        assert vals == sorted(vals)

    def test_product_source_golden(self):
        dev = dv.honest_device()
        prod = np.zeros(4, dtype=np.complex128)
        prod[0] = 1.0  # both halves in the local zero state, no pairing
        dev = dv.DeviceModel(dev.layout, hb.PhysState(dev.layout.full, prod), dev.gates, dev.frames)
        diffs = self.collapse_diffs(dev)
        worst = max(side for side, _ in diffs.values())
        assert worst == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert diffs[math.pi / 8][0] == pytest.approx(0.5, abs=1e-12)
        # the bound sqrt(2) cos sin at pi/8 from direct evaluation
        assert worst >= math.sqrt(2) * math.cos(math.pi / 8) * math.sin(math.pi / 8)


class TestFrameBlindness:
    """Rotating the local frames must not move any reported number."""

    @given(st.floats(-math.pi, math.pi, allow_nan=False))
    @settings(max_examples=10, deadline=None)
    def test_state_report_invariant(self, theta):
        honest = ex.certify_state_equivalence(dv.honest_device())
        rot = ex.certify_state_equivalence(dv.rotated_device(theta=theta))
        assert rot.state_residual == pytest.approx(honest.state_residual, abs=1e-8)
        assert rot.s_rank == honest.s_rank
        for key, val in honest.projector_residuals.items():
            assert rot.projector_residuals[key] == pytest.approx(val, abs=1e-8)
