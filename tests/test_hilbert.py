"""Tests for states, local operators, and subspace geometry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qselftest import hilbert as hb
from qselftest.errors import DimensionError, ValidationError

A0 = (0.0, math.pi / 8, math.pi / 4)
ANGLES = A0 + tuple(a + math.pi / 2 for a in A0)


def rows(basis):
    """The basis vectors as rows: a transposed view of `basis.stacked`."""
    return basis.stacked.vec.reshape(basis.layout.total, basis.rank).T


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


def bell_state(n):
    """2^(-n/2) sum_x |x>|x> over qubit blocks (x-half, then partner half)."""
    d = 1 << n
    v = np.zeros(d * d)
    v[(d + 1) * np.arange(d)] = 1 / math.sqrt(d)
    return hb.PhysState(hb.SubsystemDims((2,) * (2 * n)), v)


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

    def test_bell_pairing(self):
        # 2^-1 (|00>+|11>)(|00>+|11>) reordered A1B1A2B2 -> A1A2B1B2
        pair = bell_state(1)
        two = hb.tensor(pair, pair)
        reordered = hb.permute_subsystems(two, (0, 2, 1, 3))
        np.testing.assert_allclose(reordered.vec, bell_state(2).vec, atol=1e-15)


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
            op = hb.LocalOperator(targets, mat)
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
            op = hb.LocalOperator(targets, mat)
            state = hb.PhysState(hb.SubsystemDims(dims), vec)
            want = moveaxis_apply(op, state)
            drew_zero |= bool(np.any(want == 0))
            got = hb.apply_operator(op, state)
            assert np.array_equal(bits(got.vec), bits(want)), (dims, targets)
        assert drew_dim_one and drew_all_targets and drew_zero

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=6).flatmap(
            lambda dims: st.tuples(
                st.just(tuple(dims)),
                st.permutations(range(len(dims))).flatmap(
                    lambda order: st.integers(1, min(3, len(dims))).map(
                        lambda k: tuple(order[:k])
                    )
                ),
                st.integers(1, 8),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    @example(((3, 1, 4, 2), (2, 0), 8, 1))  # dim-1 and dim-3 wires, permuted
    @example(((2, 3), (1, 0), 5, 2))  # every subsystem a target, permuted
    @example(((4,), (0,), 8, 3))  # nothing left over (one column)
    @example(((1,), (0,), 3, 4))  # 1 x 1 matrices
    @example(((2, 2, 2, 2), (3, 0, 2), 7, 5))
    def test_stacked_rows_bitwise_equal_single_applies(self, case):
        # k operators on one state act as one (k*d x d) stack and give the
        # block of k rows: each row, scattered back to natural order, must
        # carry the bits of its operator applied alone
        dims, targets, k, seed = case
        rng = np.random.default_rng(seed)
        d = int(np.prod([dims[t] for t in targets]))
        total = int(np.prod(dims))
        vec = rng.normal(size=total) + 1j * rng.normal(size=total)
        vec[rng.random(total) < 0.2] = -0.0
        state = hb.PhysState(hb.SubsystemDims(dims), vec)
        ops = []
        for _ in range(k):
            mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mat[rng.random((d, d)) < 0.2] = 0.0
            ops.append(hb.LocalOperator(targets, mat))
        stacked = hb.apply_operator(ops, state)
        assert isinstance(stacked, hb.StateBlock) and stacked.layout == state.layout
        assert stacked.rows.shape == (k, total)
        for op, row in zip(ops, stacked.states()):
            want = hb.apply_operator(op, state)
            assert isinstance(want, hb.PhysState)
            assert row.vec.tobytes() == want.vec.tobytes()
            assert hb.norm(row) == hb.norm(want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=6).flatmap(
            lambda dims: st.tuples(
                st.just(tuple(dims)),
                st.permutations(range(len(dims))).flatmap(
                    lambda order: st.integers(1, min(3, len(dims))).map(
                        lambda k: tuple(order[:k])
                    )
                ),
                st.integers(1, 8),
                st.integers(0, 12),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    @example(((3, 1, 4, 2), (2, 0), 8, 1, 1))  # dim-1 and dim-3 wires, permuted
    @example(((2, 3), (1, 0), 5, 1, 2))  # every subsystem a target, permuted
    @example(((4,), (0,), 8, 1, 3))  # nothing left over (one column)
    @example(((1,), (0,), 3, 2, 4))  # 1 x 1 matrices
    @example(((2, 2, 2, 2), (3, 0, 2), 7, 1, 5))
    @example(((4,), (0,), 3, 5, 1))  # nothing left over (one column per parent)
    @example(((2, 3), (1, 0), 2, 0, 2))  # an empty block
    def test_block_rows_bitwise_equal_single_applies(self, case):
        # a block of m parents: row i*k + j is operator j applied to parent i
        # alone, bit for bit, and a single operator gives the block of m
        dims, targets, k, m, seed = case
        rng = np.random.default_rng(seed)
        d = int(np.prod([dims[t] for t in targets]))
        layout = hb.SubsystemDims(dims)
        rows = rng.normal(size=(m, layout.total)) + 1j * rng.normal(size=(m, layout.total))
        rows[rng.random(rows.shape) < 0.2] = -0.0
        block = hb.StateBlock(layout, rows)
        ops = []
        for _ in range(k):
            mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mat[rng.random((d, d)) < 0.2] = 0.0
            ops.append(hb.LocalOperator(targets, mat))
        out = hb.apply_operator(ops, block)
        first = hb.apply_operator(ops[0], block)
        assert out.layout == layout and out.rows.shape == (m * k, layout.total)
        assert first.rows.shape == (m, layout.total)
        for i, parent in enumerate(block.states()):
            for j, op in enumerate(ops):
                want = hb.apply_operator(op, parent)
                assert isinstance(want, hb.PhysState)
                assert out.rows[i * k + j].tobytes() == want.vec.tobytes()
            assert first.rows[i].tobytes() == hb.apply_operator(ops[0], parent).vec.tobytes()

    def test_block_holds_read_only_rows_of_its_layout(self):
        layout = hb.SubsystemDims((2, 3))
        rows = np.ones((2, 6))
        block = hb.StateBlock(layout, rows)
        rows[0, 0] = 5.0  # the block holds its own copy
        assert block.rows.dtype == np.complex128 and block.rows[0, 0] == 1.0
        with pytest.raises(ValueError):
            block.rows[0, 0] = 2.0
        assert [s.vec.tolist() for s in block.states()] == [[1.0] * 6] * 2
        for bad in (np.ones(6), np.ones((2, 5))):
            with pytest.raises(DimensionError, match="rows of length 6"):
                hb.StateBlock(layout, bad)

    def test_stack_must_share_targets(self):
        layout = hb.SubsystemDims((2, 2))
        ops = [hb.LocalOperator((0,), np.eye(2)), hb.LocalOperator((1,), np.eye(2))]
        with pytest.raises(DimensionError, match="stacked"):
            hb.apply_operator(ops, hb.basis_state(layout, 0))

    def test_norm_bitwise_equals_numpy(self):
        # norm is np.linalg.norm's own sum for a complex vector
        rng = np.random.default_rng(11)
        for size in (1, 2, 7, 64, 1000, 4096):
            vec = rng.normal(size=size) + 1j * rng.normal(size=size)
            vec *= 10.0 ** rng.integers(-8, 8, size)
            got = hb.norm(hb.PhysState(hb.SubsystemDims((size,)), vec))
            assert type(got) is float
            assert got == float(np.linalg.norm(vec))

    def test_embed_rejects_bad_targets(self):
        op = hb.LocalOperator((5,), np.eye(2))
        with pytest.raises(DimensionError):
            hb.apply_operator(op, hb.basis_state(hb.SubsystemDims((2, 2)), 0))

    def test_embed_rejects_dim_mismatch(self):
        op = hb.LocalOperator((0,), np.eye(3))
        with pytest.raises(DimensionError):
            hb.apply_operator(op, hb.basis_state(hb.SubsystemDims((2, 2)), 0))

    def test_disjoint_embeds_commute(self):
        rng = np.random.default_rng(7)
        layout = hb.SubsystemDims((2, 3, 2))
        a = hb.LocalOperator((0,), rng.normal(size=(2, 2)))
        b = hb.LocalOperator((2,), rng.normal(size=(2, 2)))
        s = hb.PhysState(layout, rng.normal(size=12))
        ab = hb.apply_operator(a, hb.apply_operator(b, s))
        ba = hb.apply_operator(b, hb.apply_operator(a, s))
        np.testing.assert_allclose(ab.vec, ba.vec, atol=1e-12)

    def test_unnormalized_intermediate_allowed(self):
        p = hb.projector_angle(math.pi / 4)
        op = hb.LocalOperator.projector((1,), p.matrix)
        out = hb.apply_operator(op, bell_state(1))
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
    def test_bell_projection_length(self):
        # |P0 (x) P(pi/8) phi+| = cos(pi/8)/sqrt(2)
        p0 = hb.LocalOperator.projector((0,), hb.projector_angle(0.0).matrix)
        p8 = hb.LocalOperator.projector((1,), hb.projector_angle(math.pi / 8).matrix)
        out = hb.apply_operator(p8, hb.apply_operator(p0, bell_state(1)))
        assert hb.norm(out) == pytest.approx(math.cos(math.pi / 8) / math.sqrt(2), abs=1e-14)


class TestSubspaces:
    def setup_method(self):
        bell = bell_state(1)
        gens = []
        for a in ANGLES:
            for b in ANGLES:
                pa = hb.LocalOperator.projector((0,), hb.projector_angle(a).matrix)
                pb = hb.LocalOperator.projector((1,), hb.projector_angle(b).matrix)
                gens.append(hb.apply_operator(pb, hb.apply_operator(pa, bell)))
        self.gens = gens

    def test_projected_bell_span_has_rank_four(self):
        basis = hb.orthonormalize(self.gens)
        assert basis.rank == 4
        # independent check through the generator stack's singular values
        sv = np.linalg.svd(np.stack([g.vec for g in self.gens]), compute_uv=False)
        assert np.sum(sv > 1e-9) == 4

    def test_orthonormalize_idempotent(self):
        basis = hb.orthonormalize(self.gens)
        again = hb.orthonormalize([hb.PhysState(basis.layout, row) for row in rows(basis)])
        np.testing.assert_allclose(rows(again), rows(basis), atol=1e-12)

    def test_orthonormal_rows(self):
        basis = hb.orthonormalize(self.gens)
        gram = rows(basis).conj() @ rows(basis).T
        np.testing.assert_allclose(gram, np.eye(basis.rank), atol=1e-12)

    def test_op_norm_on_matches_dense(self):
        rng = np.random.default_rng(3)
        layout = hb.SubsystemDims((2, 2))
        vecs = [hb.PhysState(layout, rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(2)]
        basis = hb.orthonormalize(vecs)
        ma = rng.normal(size=(4, 4))
        mb = rng.normal(size=(4, 4))
        got = hb.op_norm_on(basis.stacked, hb.LocalOperator((0, 1), ma - mb))
        want = np.linalg.svd((ma - mb) @ rows(basis).T, compute_uv=False)[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_stacked_may_pass_the_layout_cap(self):
        # dim * rank above DIM_CAP: the stacked state only holds the basis
        # matrix's own amplitudes, so it is not refused
        layout = hb.SubsystemDims((2,) * 16)
        rank = hb.DIM_CAP // layout.total + 1
        basis = hb.orthonormalize([hb.basis_state(layout, i) for i in range(rank)])
        assert basis.stacked.layout.dims == layout.dims + (rank,)
        identity = hb.LocalOperator((3,), np.eye(2))
        assert hb.op_norm_on(basis.stacked, identity) == pytest.approx(1.0, abs=1e-12)

    def test_op_norm_identity_default(self):
        # an operator minus itself, passed as one operator, is nothing on S
        basis = hb.orthonormalize(self.gens)
        zero = hb.LocalOperator((0, 1), np.zeros((4, 4)))
        assert hb.op_norm_on(basis.stacked, zero) == 0.0


def mgs_reference(vecs, rank_tol=hb.RANK_TOL):
    """Modified Gram-Schmidt, one accepted row at a time, run twice per generator."""
    rows = []
    for v in vecs:
        w = np.array(v, dtype=np.complex128)
        for _ in range(2):
            for q in rows:
                w -= q * np.vdot(q, w)
        nw = np.linalg.norm(w)
        if nw >= rank_tol:
            rows.append(w / nw)
    return np.array(rows)


def random_vecs(rng, n, dim):
    return rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))


def generator_sets():
    rng = np.random.default_rng(17)
    sets = {
        "random": random_vecs(rng, 12, 16),
        "overcomplete": random_vecs(rng, 20, 16),
        "rank-deficient": rng.normal(size=(10, 4)) @ random_vecs(rng, 4, 16),
    }
    # the last generator leaves a residual of 2 and of 0.5 rank_tol; it is
    # itself that small, so roundoff does not turn its residual's direction
    base = np.linalg.qr(random_vecs(rng, 16, 4))[0].T
    for f in (2.0, 0.5):
        extra = f * hb.RANK_TOL * (base[:3].sum(axis=0) + base[3])
        sets[f"near-tol x{f}"] = np.vstack([base[:3], extra])
    # spread over three blocks; the later blocks mostly fall in the span of
    # the rows accepted before them
    sets["multi-block"] = rng.normal(size=(300, 140)) @ random_vecs(rng, 140, 160)
    # a later block of large combinations of the first generators, each only
    # 1e-8 off their span: taking out a generator's in-block part leaves
    # rounding along the earlier rows of up to about 1e-4 of what is left,
    # until the second pass takes it out
    first = random_vecs(rng, 130, 160)
    near = 100 * rng.normal(size=(60, 130)) @ first + 1e-8 * random_vecs(rng, 60, 160)
    sets["multi-block, nearly dependent"] = np.vstack([first, near])
    return sets


class TestGramSchmidt:
    @pytest.mark.parametrize("name", list(generator_sets()))
    def test_matches_modified_gram_schmidt(self, name):
        vecs = generator_sets()[name]
        layout = hb.SubsystemDims((vecs.shape[1],))
        got = hb.orthonormalize([hb.PhysState(layout, v) for v in vecs])
        want = mgs_reference(vecs)
        assert got.rank == len(want)
        gram = rows(got).conj() @ rows(got).T
        np.testing.assert_allclose(gram, np.eye(got.rank), atol=1e-12)
        proj = rows(got).T @ rows(got).conj()
        np.testing.assert_allclose(proj, want.T @ want.conj(), atol=1e-12)

    def test_near_tol_residuals_split(self):
        sets = generator_sets()
        assert [len(mgs_reference(sets[k])) for k in ("near-tol x2.0", "near-tol x0.5")] == [4, 3]

    def test_op_norm_on_stacked_matches_per_vector(self):
        rng = np.random.default_rng(23)
        layout = hb.SubsystemDims((2, 3, 2))
        basis = hb.orthonormalize(
            [hb.PhysState(layout, v) for v in random_vecs(rng, 5, layout.total)]
        )
        m = hb.LocalOperator((2, 0), rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        states = [hb.PhysState(layout, row) for row in rows(basis)]
        cols = [hb.apply_operator(m, x).vec for x in states]
        want = np.linalg.svd(np.stack(cols), compute_uv=False)[0]
        assert hb.op_norm_on(basis.stacked, m) == pytest.approx(want, abs=1e-12)


class TestPartialTrace:
    def test_bell2_reduced_is_maximally_mixed(self):
        rho = hb.partial_trace(bell_state(2), keep=(0, 1))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-14)

    def test_product_state_reduces_to_factor(self):
        u = hb.angle_state(0.3)
        v = hb.angle_state(1.1)
        rho = hb.partial_trace(hb.tensor(u, v), keep=(1,))
        np.testing.assert_allclose(rho, np.outer(v.vec, v.vec.conj()), atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        s = hb.PhysState(hb.SubsystemDims((2, 2, 2)), v)
        rho = hb.partial_trace(s, keep=(2,))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
