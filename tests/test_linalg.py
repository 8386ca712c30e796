from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halab.fields import QQ, CyclotomicField
from halab.linalg import (Mat, kron, rref, rank, kernel, image, Subspace,
                          solve_affine, solve_affine_sparse, inverse,
                          is_invertible, quotient_by, mat_to_json,
                          mat_from_json, NoSolution, ShapeMismatch)


def qmat(rows, cols):
    elems = st.integers(-4, 4).map(Fraction)
    return st.lists(st.lists(elems, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda d: Mat(rows, cols, d, QQ))


class TestMat:
    def test_shapes(self):
        A = Mat.identity(3, QQ)
        with pytest.raises(ShapeMismatch):
            A * Mat.identity(2, QQ)
        with pytest.raises(ShapeMismatch):
            A + Mat.zero(2, 3, QQ)

    def test_from_cols_round_trip(self):
        cols = [[QQ.one, QQ.zero], [Fraction(3), Fraction(-1)]]
        A = Mat.from_cols(cols, 2, QQ)
        assert A.col(1) == cols[1]
        assert A.transpose().transpose() == A

    @given(qmat(2, 3), qmat(3, 2))
    def test_matvec_matches_mul(self, A, B):
        C = A * B
        for j in range(2):
            assert A.matvec(B.col(j)) == C.col(j)

    @given(qmat(2, 2), qmat(2, 2), qmat(2, 2), qmat(2, 2))
    @settings(max_examples=25)
    def test_kron_mixed_product(self, A, B, C, D):
        assert kron(A, B) * kron(C, D) == kron(A * C, B * D)


class TestEchelon:
    @given(qmat(3, 4))
    def test_rank_nullity(self, A):
        assert rank(A) + kernel(A).dim == 4

    @given(qmat(3, 4))
    def test_kernel_annihilated(self, A):
        for v in kernel(A).basis_rows:
            assert A.matvec(v) == [QQ.zero] * 3

    @given(qmat(3, 3))
    def test_image_contains_columns(self, A):
        im = image(A)
        assert im.dim == rank(A)
        for j in range(3):
            assert im.contains(A.col(j))

    def test_rref_pivots(self):
        A = Mat(2, 3, [[Fraction(2), Fraction(4), Fraction(0)],
                       [Fraction(1), Fraction(2), Fraction(1)]], QQ)
        R, pivots = rref(A)
        assert pivots == [0, 2]
        assert R.data[0][:2] == [Fraction(1), Fraction(2)]


class TestSolve:
    @given(qmat(3, 3))
    def test_inverse(self, A):
        if is_invertible(A):
            assert A * inverse(A) == Mat.identity(3, QQ)

    def test_no_solution(self):
        A = Mat(2, 1, [[Fraction(1)], [Fraction(1)]], QQ)
        with pytest.raises(NoSolution):
            solve_affine(A, [QQ.zero, QQ.one])

    @given(qmat(3, 3), qmat(3, 1))
    def test_solve_affine_solves(self, A, b):
        rhs = [b.data[i][0] for i in range(3)]
        try:
            x, hom = solve_affine(A, rhs)
        except NoSolution:
            assert not image(A).contains(rhs)
        else:
            assert A.matvec(x) == rhs
            assert hom == kernel(A)

    def test_sparse_agrees_with_dense(self):
        A = Mat(2, 3, [[Fraction(1), Fraction(2), Fraction(0)],
                       [Fraction(0), Fraction(1), Fraction(1)]], QQ)
        rhs = [Fraction(3), Fraction(2)]
        rows = [{j: A.data[i][j] for j in range(3) if A.data[i][j]}
                for i in range(2)]
        x, _ = solve_affine_sparse(rows, rhs, 3)
        assert A.matvec(x) == rhs


class TestSubspace:
    def test_canonical_equality(self):
        U = Subspace.from_spanning(3, [[QQ.one, QQ.one, QQ.zero],
                                       [QQ.zero, QQ.one, QQ.one]], QQ)
        V = Subspace.from_spanning(3, [[QQ.one, QQ.zero, -QQ.one],
                                       [QQ.one, QQ.one, QQ.zero],
                                       [QQ.one, Fraction(2), QQ.one]], QQ)
        assert U == V
        assert U.dim == 2
        assert U.contains([QQ.one, Fraction(2), QQ.one])
        assert not U.contains([QQ.one, QQ.zero, QQ.zero])

    def test_ordering(self):
        U = Subspace.from_spanning(2, [[QQ.one, QQ.zero]], QQ)
        W = Subspace.from_spanning(2, [[QQ.one, QQ.zero],
                                       [QQ.zero, QQ.one]], QQ)
        assert U <= W and not W <= U


class TestQuotient:
    def test_projection_section(self):
        rels = [[QQ.one, -QQ.one, QQ.zero]]
        q = quotient_by(3, rels, QQ)
        assert q.dim == 2
        assert q.proj * q.section == Mat.identity(2, QQ)
        # the relation collapses to zero
        assert q.proj.matvec(rels[0]) == [QQ.zero] * 2

    def test_zero_relations(self):
        q = quotient_by(2, [], QQ)
        assert q.dim == 2

    @given(qmat(3, 5))
    def test_relations_read_back_from_proj(self, M):
        q = quotient_by(5, M.data, QQ)
        assert q.relations == Subspace.from_spanning(5, M.data, QQ)
        assert q.relations.dim + q.dim == 5


def test_mat_json_round_trip():
    F = CyclotomicField(3)
    A = Mat(2, 2, [[F.one, F.zeta(1)], [F.zero, -F.one]], F)
    doc = mat_to_json(A)
    assert mat_from_json(doc, F) == A
    B = Mat(1, 2, [[Fraction(1, 2), Fraction(-3)]], QQ)
    assert mat_from_json(mat_to_json(B)) == B
