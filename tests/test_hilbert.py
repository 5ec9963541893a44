"""Tests for states, local operators, and subspace geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qselftest import hilbert as hb
from qselftest.errors import DimensionError, ValidationError

A0 = (0.0, math.pi / 8, math.pi / 4)
ANGLES = A0 + tuple(a + math.pi / 2 for a in A0)


def dense_embed(matrix, dims, targets):
    """Oracle: materialize the full-space matrix with explicit kron factors."""
    nsub = len(dims)
    total = int(np.prod(dims))
    full = np.zeros((total, total), dtype=complex)
    d = int(np.prod([dims[t] for t in targets]))
    for row in range(d):
        for col in range(d):
            factors = [np.eye(dims[i], dtype=complex) for i in range(nsub)]
            rr, cc = row, col
            for t in reversed(targets):
                dt = dims[t]
                e = np.zeros((dt, dt), dtype=complex)
                e[rr % dt, cc % dt] = 1.0
                factors[t] = e
                rr //= dt
                cc //= dt
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            full += matrix[row, col] * term
    return full


class TestLayoutAndState:
    def test_total_dim(self):
        assert hb.SubsystemDims((2, 3, 4)).total == 24

    def test_dim_cap_enforced(self):
        with pytest.raises(DimensionError):
            hb.SubsystemDims((2,) * 21)

    def test_bad_dims_rejected(self):
        with pytest.raises(DimensionError):
            hb.SubsystemDims((2, 0))

    def test_state_length_checked(self):
        with pytest.raises(DimensionError):
            hb.PhysState(hb.SubsystemDims((2, 2)), np.ones(3))

    def test_state_vec_immutable(self):
        s = hb.angle_state(0.3)
        with pytest.raises(ValueError):
            s.vec[0] = 5.0

    def test_angle_state_values(self):
        s = hb.angle_state(math.pi / 8)
        np.testing.assert_allclose(
            s.vec, [math.cos(math.pi / 8), math.sin(math.pi / 8)], atol=1e-15
        )

    def test_angle_state_pi_half_is_one(self):
        np.testing.assert_allclose(hb.angle_state(math.pi / 2).vec, [0, 1], atol=1e-12)

    def test_bell_state_normalized(self):
        for n in (1, 2, 3):
            assert hb.norm(hb.bell_state(n)) == pytest.approx(1.0, abs=1e-14)

    def test_bell_pairing(self):
        # 2^-1 (|00>+|11>)(|00>+|11>) reordered A1B1A2B2 -> A1A2B1B2
        pair = hb.bell_state(1)
        two = hb.tensor(pair, pair)
        reordered = hb.permute_subsystems(two, (0, 2, 1, 3))
        np.testing.assert_allclose(reordered.vec, hb.bell_state(2).vec, atol=1e-15)


class TestTensorAndApply:
    def test_tensor_layout_concat(self):
        s = hb.tensor(hb.angle_state(0.2), hb.basis_state(hb.SubsystemDims((3,)), 1))
        assert s.layout.dims == (2, 3)

    def test_apply_matches_dense_embed(self):
        # dim-1 subsystems (device environments) and any number of targets in
        # any order, up to all of them
        rng = np.random.default_rng(42)
        drew_dim_one = drew_all_targets = False
        for _ in range(60):
            nsub = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(1, 4, nsub))
            k = int(rng.integers(1, nsub + 1))
            targets = tuple(int(t) for t in rng.choice(nsub, size=k, replace=False))
            drew_dim_one |= 1 in dims
            drew_all_targets |= k == nsub > 1 and targets != tuple(range(nsub))
            d = int(np.prod([dims[t] for t in targets]))
            total = int(np.prod(dims))
            mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            vec = rng.normal(size=total) + 1j * rng.normal(size=total)
            layout = hb.SubsystemDims(dims)
            op = hb.LocalOperator.general(targets, mat)
            got = hb.apply_operator(op, hb.PhysState(layout, vec))
            want = dense_embed(mat, dims, targets) @ vec
            np.testing.assert_allclose(got.vec, want, atol=1e-10)
        assert drew_dim_one and drew_all_targets

    def test_apply_bitwise_equals_moveaxis_form(self):
        # the kernel before the cached transpose: the same views, copies and
        # matmul, so every output bit, sign of zero included, must agree
        def moveaxis_apply(op, state):
            k = len(op.targets)
            t = np.moveaxis(state.vec.reshape(state.layout.dims), op.targets, range(k))
            shape = t.shape
            out = op.matrix @ t.reshape(op.dim, -1)
            return np.moveaxis(out.reshape(shape), range(k), op.targets).reshape(-1)

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint8)

        rng = np.random.default_rng(2005)
        drew_dim_one = drew_all_targets = drew_zero = False
        for _ in range(300):
            nsub = int(rng.integers(1, 7))
            dims = tuple(int(d) for d in rng.integers(1, 4, nsub))
            k = int(rng.integers(1, nsub + 1))
            targets = tuple(int(t) for t in rng.choice(nsub, size=k, replace=False))
            drew_dim_one |= 1 in dims
            drew_all_targets |= k == nsub > 1 and targets != tuple(range(nsub))
            d = int(np.prod([dims[t] for t in targets]))
            total = int(np.prod(dims))
            mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            vec = rng.normal(size=total) + 1j * rng.normal(size=total)
            # zero and negative-zero entries, where a changed order of
            # operations would show as a flipped sign bit
            mat[rng.random((d, d)) < 0.3] = -0.0
            vec[rng.random(total) < 0.3] = 0.0
            op = hb.LocalOperator.general(targets, mat)
            state = hb.PhysState(hb.SubsystemDims(dims), vec)
            want = moveaxis_apply(op, state)
            drew_zero |= bool(np.any(want == 0))
            got = hb.apply_operator(op, state)
            assert np.array_equal(bits(got.vec), bits(want)), (dims, targets)
        assert drew_dim_one and drew_all_targets and drew_zero

    def test_embed_rejects_bad_targets(self):
        op = hb.LocalOperator.general((5,), np.eye(2))
        with pytest.raises(DimensionError):
            hb.apply_operator(op, hb.basis_state(hb.SubsystemDims((2, 2)), 0))

    def test_embed_rejects_dim_mismatch(self):
        op = hb.LocalOperator.general((0,), np.eye(3))
        with pytest.raises(DimensionError):
            hb.apply_operator(op, hb.basis_state(hb.SubsystemDims((2, 2)), 0))

    def test_disjoint_embeds_commute(self):
        rng = np.random.default_rng(7)
        layout = hb.SubsystemDims((2, 3, 2))
        a = hb.LocalOperator.general((0,), rng.normal(size=(2, 2)))
        b = hb.LocalOperator.general((2,), rng.normal(size=(2, 2)))
        s = hb.PhysState(layout, rng.normal(size=12))
        ab = hb.apply_operator(a, hb.apply_operator(b, s))
        ba = hb.apply_operator(b, hb.apply_operator(a, s))
        np.testing.assert_allclose(ab.vec, ba.vec, atol=1e-12)

    def test_unnormalized_intermediate_allowed(self):
        p = hb.projector_angle(math.pi / 4)
        op = hb.LocalOperator.projector((1,), p.matrix)
        out = hb.apply_operator(op, hb.bell_state(1))
        assert hb.norm(out) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tensor_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        u = hb.PhysState(hb.SubsystemDims((2,)), rng.normal(size=2) + 1j * rng.normal(size=2))
        v = hb.PhysState(hb.SubsystemDims((3,)), rng.normal(size=3) + 1j * rng.normal(size=3))
        assert hb.norm(hb.tensor(u, v)) == pytest.approx(hb.norm(u) * hb.norm(v), rel=1e-12)


class TestProjectors:
    def test_pi4_projector_matrix(self):
        np.testing.assert_allclose(
            hb.projector_angle(math.pi / 4).matrix, np.full((2, 2), 0.5), atol=1e-15
        )

    @pytest.mark.parametrize("a", ANGLES)
    def test_complement_sums_to_identity(self, a):
        total = hb.projector_angle(a).matrix + hb.projector_angle(a + math.pi / 2).matrix
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    @given(st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_complement_sums_to_identity_any_angle(self, a):
        total = hb.projector_angle(a).matrix + hb.projector_angle(a + math.pi / 2).matrix
        assert np.abs(total - np.eye(2)).max() < 1e-12

    @given(st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_projector_idempotent_hermitian(self, a):
        m = hb.projector_angle(a).matrix
        assert np.abs(m @ m - m).max() < 1e-12
        assert np.abs(m - m.conj().T).max() < 1e-12

    def test_projector_matches_angle_state(self):
        for a in ANGLES:
            v = hb.angle_state(a).vec
            np.testing.assert_allclose(
                hb.projector_angle(a).matrix, np.outer(v, v.conj()), atol=1e-12
            )

    def test_operator_checks_shape_only(self):
        # structure is checked where a matrix enters (devices); the kind is a label
        op = hb.LocalOperator.unitary((0,), np.array([[1, 1], [0, 1]]))
        assert op.kind == "unitary"
        with pytest.raises(DimensionError):
            hb.LocalOperator.projector((0,), np.ones((2, 3)))
        with pytest.raises(ValidationError, match="kind"):
            hb.LocalOperator((0,), np.eye(2), "hermitian")

    def test_max_diff_treats_non_finite_as_infinite(self):
        assert hb.max_diff(np.eye(2), np.eye(2)) == 0.0
        assert hb.max_diff([1.0, 2.5], [1.0, 2.0]) == 0.5
        for bad in (math.nan, math.inf, -math.inf):
            assert hb.max_diff(np.array([[bad, 0.0]]), np.zeros((1, 2))) == math.inf
            assert hb.max_diff(0.0, bad) == math.inf
        assert "non-finite" in hb.diff_text(hb.max_diff(math.nan, 1.0))


class TestMetrics:
    def test_dist_zero_vs_pi8(self):
        d = hb.dist(hb.angle_state(0.0), hb.angle_state(math.pi / 8))
        assert d == pytest.approx(math.sqrt(2 - 2 * math.cos(math.pi / 8)), abs=1e-14)

    def test_inner_conjugate_first(self):
        x = hb.PhysState(hb.SubsystemDims((2,)), [1j, 0])
        y = hb.PhysState(hb.SubsystemDims((2,)), [1, 0])
        assert hb.inner(x, y) == pytest.approx(-1j)

    def test_bell_projection_length(self):
        # |P0 (x) P(pi/8) phi+| = cos(pi/8)/sqrt(2)
        p0 = hb.LocalOperator.projector((0,), hb.projector_angle(0.0).matrix)
        p8 = hb.LocalOperator.projector((1,), hb.projector_angle(math.pi / 8).matrix)
        out = hb.apply_operator(p8, hb.apply_operator(p0, hb.bell_state(1)))
        assert hb.norm(out) == pytest.approx(math.cos(math.pi / 8) / math.sqrt(2), abs=1e-14)


class TestSubspaces:
    def setup_method(self):
        self.bell = hb.bell_state(1)
        gens = []
        for a in ANGLES:
            for b in ANGLES:
                pa = hb.LocalOperator.projector((0,), hb.projector_angle(a).matrix)
                pb = hb.LocalOperator.projector((1,), hb.projector_angle(b).matrix)
                gens.append(hb.apply_operator(pb, hb.apply_operator(pa, self.bell)))
        self.gens = gens

    def test_projected_bell_span_has_rank_four(self):
        basis = hb.orthonormalize(self.gens)
        assert basis.rank == 4
        # independent check through the generator stack's singular values
        sv = np.linalg.svd(np.stack([g.vec for g in self.gens]), compute_uv=False)
        assert np.sum(sv > 1e-9) == 4

    def test_orthonormalize_idempotent(self):
        basis = hb.orthonormalize(self.gens)
        again = hb.orthonormalize(list(basis.states))
        np.testing.assert_allclose(again.matrix, basis.matrix, atol=1e-12)

    def test_orthonormal_rows(self):
        basis = hb.orthonormalize(self.gens)
        gram = basis.matrix.conj() @ basis.matrix.T
        np.testing.assert_allclose(gram, np.eye(basis.rank), atol=1e-12)

    def test_project_onto_contracts(self):
        rng = np.random.default_rng(42)
        basis = hb.orthonormalize(self.gens[:3])
        for _ in range(10):
            x = hb.PhysState(self.bell.layout, rng.normal(size=4) + 1j * rng.normal(size=4))
            assert hb.norm(hb.project_onto(basis, x)) <= hb.norm(x) + 1e-12

    def test_op_norm_on_matches_dense(self):
        rng = np.random.default_rng(3)
        layout = hb.SubsystemDims((2, 2))
        vecs = [hb.PhysState(layout, rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(2)]
        basis = hb.orthonormalize(vecs)
        ma = rng.normal(size=(4, 4))
        mb = rng.normal(size=(4, 4))
        m = hb.LocalOperator.general((0, 1), ma)
        n = hb.LocalOperator.general((0, 1), mb)
        got = hb.op_norm_on(basis, m, n)
        want = np.linalg.svd((ma - mb) @ basis.matrix.T, compute_uv=False)[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_op_norm_identity_default(self):
        basis = hb.orthonormalize(self.gens)
        assert hb.op_norm_on(basis, None, None) == 0.0


class TestPartialTrace:
    def test_bell2_reduced_is_maximally_mixed(self):
        rho = hb.partial_trace(hb.bell_state(2), keep=(0, 1))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-14)

    def test_product_state_reduces_to_factor(self):
        u = hb.angle_state(0.3)
        v = hb.angle_state(1.1)
        rho = hb.partial_trace(hb.tensor(u, v), keep=(1,))
        np.testing.assert_allclose(rho, np.outer(v.vec, v.vec.conj()), atol=1e-14)

    def test_matrix_path_matches_state_path(self):
        rng = np.random.default_rng(11)
        layout = hb.SubsystemDims((2, 3, 2))
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        s = hb.PhysState(layout, v)
        want = hb.partial_trace(s, keep=(1,))
        got = hb.partial_trace(np.outer(v, v.conj()), keep=(1,), dims=(2, 3, 2))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        s = hb.PhysState(hb.SubsystemDims((2, 2, 2)), v)
        rho = hb.partial_trace(s, keep=(2,))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
