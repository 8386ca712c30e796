from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from halab.fields import QQ, CyclotomicField
from halab.linalg import (Mat, kron, kron_cols, rref, rank, det, kernel,
                          image, Subspace, solve_map, solve_affine_sparse,
                          inverse, quotient_by, equal_in, NoSolution,
                          ShapeMismatch, _echelon_dict)
from halab.cli import mat_to_json, mat_from_json

from conftest import sparse


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
        cols = [{0: QQ.one}, {0: Fraction(3), 1: Fraction(-1)}]
        A = Mat.from_cols(cols, 2, QQ)
        assert A.col(1) == cols[1]
        assert A == Mat(2, 2, [[QQ.one, Fraction(3)], [QQ.zero, Fraction(-1)]],
                        QQ)

    @given(qmat(2, 3), qmat(3, 2))
    def test_matvec_matches_mul(self, A, B):
        C = A * B
        for j in range(2):
            assert A.matvec(B.col(j)) == C.col(j)

    def test_a_copy_sees_writes_after_the_original_was_read(self):
        """The sparse column view is built on the first read and kept, so
        entries are changed on a fresh copy(), whose readers see them."""
        A = Mat.from_cols([{0: 1}, {1: 2}, {0: 3}], 2, QQ)
        I1, trivial = Mat.identity(1, QQ), quotient_by(2, [], QQ)
        assert A.matvec({0: 1, 1: 1, 2: 1}) == {0: 4, 1: 2}
        assert kron_cols(A, I1, [{0: 1}]) == [{0: 1}]
        assert trivial.apply(A) == A
        B = A.copy()
        B.data[1][0] = 5
        assert B.matvec({0: 1}) == {0: 1, 1: 5}
        assert B.col(0) == {0: 1, 1: 5}
        assert kron_cols(B, I1, [{0: 1}]) == [{0: 1, 1: 5}]
        assert kron_cols(I1, B, [{0: 1}]) == [{0: 1, 1: 5}]
        assert kron_cols(Mat.identity(2, QQ), I1, B) == [
            {0: 1, 1: 5}, {1: 2}, {0: 3}]
        assert trivial.apply(B) == B
        assert A.matvec({0: 1}) == {0: 1}

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
        for v in kernel(A).rows.values():
            assert A.matvec(v) == {}

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
        if rank(A) == A.rows:
            assert A * inverse(A) == Mat.identity(3, QQ)

    def test_no_solution(self):
        A = Mat(2, 1, [[Fraction(1)], [Fraction(1)]], QQ)
        with pytest.raises(NoSolution):
            solve_map([([(A, None)], Mat.from_cols([{1: QQ.one}], 2, QQ))],
                      1, 1, QQ)

    @given(qmat(3, 3), qmat(3, 1))
    def test_solve_affine_solves(self, A, b):
        rhs = b.col(0)
        try:
            X, kern = solve_map([([(A, None)], b)], 3, 1, QQ,
                                want_kernel=True)
        except NoSolution:
            assert not image(A).contains(rhs)
        else:
            assert A.matvec(X.col(0)) == rhs
            hom = Subspace.from_spanning(3, [K.col(0) for K in kern], QQ)
            assert hom == kernel(A)

    def test_sparse_agrees_with_dense(self):
        A = Mat(2, 3, [[Fraction(1), Fraction(2), Fraction(0)],
                       [Fraction(0), Fraction(1), Fraction(1)]], QQ)
        rhs = [Fraction(3), Fraction(2)]
        rows = [{j: A.data[i][j] for j in range(3) if A.data[i][j]}
                for i in range(2)]
        x, _ = solve_affine_sparse(rows, rhs, 3)
        assert A.matvec(x) == sparse(rhs)


class TestSubspace:
    def test_canonical_equality(self):
        U = Subspace.from_spanning(3, [{0: QQ.one, 1: QQ.one},
                                       {1: QQ.one, 2: QQ.one}], QQ)
        V = Subspace.from_spanning(3, [{0: QQ.one, 2: -QQ.one},
                                       {0: QQ.one, 1: QQ.one},
                                       {0: QQ.one, 1: Fraction(2),
                                        2: QQ.one}], QQ)
        assert U == V
        assert U.dim == 2
        assert U.contains({0: QQ.one, 1: Fraction(2), 2: QQ.one})
        assert not U.contains({0: QQ.one})

    def test_ordering(self):
        U = Subspace.from_spanning(2, [{0: QQ.one}], QQ)
        W = Subspace.from_spanning(2, [{0: QQ.one}, {1: QQ.one}], QQ)
        assert U <= W and not W <= U


class TestQuotient:
    def test_projection_section(self):
        rels = [{0: QQ.one, 1: -QQ.one}]
        q = quotient_by(3, rels, QQ)
        assert q.dim == 2
        assert q.apply(q.section_cols) == Mat.identity(2, QQ)
        # the relation collapses to zero
        assert q.project(rels[0]) == {}

    def test_zero_relations(self):
        q = quotient_by(2, [], QQ)
        assert q.dim == 2

    @given(qmat(3, 5))
    def test_relations_read_back_from_proj(self, M):
        rels = [sparse(r) for r in M.data]
        q = quotient_by(5, rels, QQ)
        assert q.relations == Subspace.from_spanning(5, rels, QQ)
        assert q.relations.dim + q.dim == 5


def test_mat_json_round_trip():
    F = CyclotomicField(3)
    A = Mat(2, 2, [[F.one, F.zeta(1)], [F.zero, -F.one]], F)
    doc = mat_to_json(A)
    assert mat_from_json(doc, F) == A
    B = Mat(1, 2, [[Fraction(1, 2), Fraction(-3)]], QQ)
    assert mat_from_json(mat_to_json(B)) == B


# ---------------------------------------------------------------------------
# differential tests: the elimination engine against a dense reference

def ref_rref(rows, cols, field):
    """Dense Gauss-Jordan with the leftmost-first-nonzero pivot rule."""
    R = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(R):
            break
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        piv = R[r][c]
        R[r] = [v / piv for v in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def ref_kernel_rows(M):
    """Canonical kernel basis of M, computed by the reference alone."""
    R, pivots = ref_rref(M.data, M.cols, M.field)
    vecs = []
    for f in range(M.cols):
        if f not in pivots:
            v = [M.field.zero] * M.cols
            v[f] = M.field.one
            for r, p in enumerate(pivots):
                v[p] = -R[r][f]
            vecs.append(v)
    K, kp = ref_rref(vecs, M.cols, M.field)
    return K[:len(kp)]


def leibniz(M):
    n = M.rows
    out = M.field.zero
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = M.field.one
        for i in range(n):
            term = term * M.data[i][perm[i]]
        out = out + term if sign > 0 else out - term
    return out


FIELDS = [QQ, CyclotomicField(3), CyclotomicField(4)]


def scalar(field):
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), -3])
    if field is QQ:
        return coeff.map(Fraction)
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(
        lambda cs: sum((field.from_rational(Fraction(c)) * field.zeta(k)
                        for k, c in enumerate(cs)), field.zero))


@st.composite
def matrices(draw, rows=None, cols=None, field=None):
    """Matrices over Q, Q(zeta_3) or Q(zeta_4), often rank-deficient: a
    product through a narrow inner dimension, or with repeated rows."""
    field = field or draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols

    def dense(r, c):
        return Mat(r, c, [[draw(scalar(field)) for _ in range(c)]
                          for _ in range(r)], field)
    shape = draw(st.sampled_from(["random", "product", "repeat"]))
    if shape == "product":
        inner = draw(st.integers(0, 2))
        return dense(rows, inner) * dense(inner, cols)
    M = dense(rows, cols)
    if shape == "repeat" and rows >= 2:
        M.data[-1] = list(M.data[0])
    return M


def square(n):
    return st.sampled_from(FIELDS).flatmap(
        lambda F: matrices(rows=n, cols=n, field=F))


class TestEngineAgainstReference:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_rref_rank_kernel(self, M):
        R, pivots = ref_rref(M.data, M.cols, M.field)
        assert rref(M) == (Mat(M.rows, M.cols, R, M.field), pivots)
        assert rank(M) == len(pivots)
        K = kernel(M)
        assert [K.rows[p] for p in K.pivots] == [
            sparse(r) for r in ref_kernel_rows(M)]
        assert K.dim == M.cols - len(pivots)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_affine(self, data):
        M = data.draw(matrices())
        F = M.field
        if data.draw(st.booleans()):   # consistent by construction
            y = [data.draw(scalar(F)) for _ in range(M.cols)]
            rhs = M.matvec(sparse(y))
        else:
            rhs = sparse([data.draw(scalar(F)) for _ in range(M.rows)])
        aug = [list(r) + [rhs.get(i, F.zero)] for i, r in enumerate(M.data)]
        R, pivots = ref_rref(aug, M.cols + 1, F)
        b = Mat.from_cols([rhs], M.rows, F)
        if M.cols in pivots:
            with pytest.raises(NoSolution):
                solve_map([([(M, None)], b)], M.cols, 1, F)
            return
        X, kern = solve_map([([(M, None)], b)], M.cols, 1, F,
                            want_kernel=True)
        x = X.col(0)
        expect = [F.zero] * M.cols
        for r, p in enumerate(pivots):
            expect[p] = R[r][M.cols]
        assert x == sparse(expect)
        assert M.matvec(x) == rhs
        hom = Subspace.from_spanning(M.cols, [K.col(0) for K in kern], F)
        assert [hom.rows[p] for p in hom.pivots] == [
            sparse(r) for r in ref_kernel_rows(M)]

    @given(st.integers(0, 4).flatmap(square))
    @settings(max_examples=150, deadline=None)
    def test_inverse(self, M):
        n, F = M.rows, M.field
        aug = [list(r) + [F.one if j == i else F.zero for j in range(n)]
               for i, r in enumerate(M.data)]
        R, pivots = ref_rref(aug, 2 * n, F)
        assert (rank(M) == n) == (pivots[:n] == list(range(n)))
        if rank(M) < n:
            with pytest.raises(NoSolution):
                inverse(M)
            return
        assert inverse(M) == Mat(n, n, [r[n:] for r in R], F)


class TestDeterminant:
    @given(st.integers(0, 4).flatmap(square))
    @settings(max_examples=200, deadline=None)
    def test_matches_leibniz(self, M):
        assert det(M) == leibniz(M)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.sampled_from(FIELDS).flatmap(
            lambda F: st.tuples(matrices(rows=n, cols=n, field=F),
                                matrices(rows=n, cols=n, field=F)))))
    @settings(max_examples=100, deadline=None)
    def test_multiplicative(self, AB):
        A, B = AB
        assert det(A * B) == det(A) * det(B)

    def test_row_swap_flips_sign(self):
        P = Mat(3, 3, [[QQ.zero, QQ.one, QQ.zero],
                       [QQ.zero, QQ.zero, QQ.one],
                       [QQ.one, QQ.zero, QQ.zero]], QQ)
        assert det(P) == 1
        Q = P.copy()
        Q.data[0], Q.data[1] = Q.data[1], Q.data[0]
        assert det(Q) == -1

    def test_non_square(self):
        with pytest.raises(ShapeMismatch):
            det(Mat.zero(2, 3, QQ))


def _scalars(obj):
    """Every scalar in a nest of tuples, lists, Mats and Subspaces, with
    None standing for an absent view."""
    if isinstance(obj, Mat):
        obj = obj.data
    elif isinstance(obj, Subspace):
        obj = [obj.rows[p] for p in obj.pivots]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _scalars(x)
    elif obj is not None:
        yield obj


def _q_views(M, rhs):
    """rref, det, inverse and the solve_map solution and kernel of a
    Q-matrix and a right-hand side, with None where a view does not
    apply."""
    square = M.rows == M.cols
    try:
        solved = solve_map([([(M, None)], Mat.from_cols(
            [sparse(rhs)], M.rows, QQ))], M.cols, 1, QQ, want_kernel=True)
    except NoSolution:
        solved = None
    return (rref(M), det(M) if square else None,
            inverse(M) if square and rank(M) == M.rows else None, solved)


class TestMixedRationals:
    """Over Q an integral scalar may be an int or a Fraction: the engine
    gives the same values either way, never a float, and each integral
    quotient it takes through QQ.div is an int."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_fraction_input(self, data):
        rows = data.draw(st.integers(0, 4))
        cols = data.draw(st.sampled_from([rows, data.draw(st.integers(0, 5))]))
        M = data.draw(matrices(rows=rows, cols=cols, field=QQ))
        rhs = [data.draw(scalar(QQ)) for _ in range(rows)]

        def mixed(x):
            return x.numerator if x.denominator == 1 and data.draw(
                st.booleans()) else x
        M_mixed = Mat(rows, cols, [[mixed(x) for x in r] for r in M.data], QQ)
        rhs_mixed = [mixed(x) for x in rhs]
        quotients = []
        div = QQ.div

        def recording_div(a, b):
            quotients.append(div(a, b))
            return quotients[-1]
        QQ.div = recording_div
        try:
            got = _q_views(M_mixed, rhs_mixed)
        finally:
            del QQ.div
        assert got == _q_views(M, rhs)
        assert all(type(x) in (int, Fraction) for x in _scalars(got))
        assert all(type(q) is int or q.denominator != 1 for q in quotients)


def rescanning_echelon(vectors, field):
    """The previous engine, kept as a reference: it reduces an incoming
    vector one min(v) at a time, reduces each new row against every stored
    pivot in sorted order and back-substitutes into every stored row."""
    zero = field.zero
    rows = {}
    scalars = []
    for vec in vectors:
        v = dict(vec)
        while v:
            p = min(v)
            if p in rows:
                f = v[p]
                for c, x in rows[p].items():
                    nv = v.get(c, zero) - f * x
                    if nv:
                        v[c] = nv
                    elif c in v:
                        del v[c]
            else:
                piv = v[p]
                row = {c: x / piv for c, x in v.items()}
                for q in sorted(rows):
                    if q in row:
                        f = row[q]
                        for c, x in rows[q].items():
                            nv = row.get(c, zero) - f * x
                            if nv:
                                row[c] = nv
                            elif c in row:
                                del row[c]
                for q, other in rows.items():
                    if p in other:
                        f = other[p]
                        for c, x in row.items():
                            nv = other.get(c, zero) - f * x
                            if nv:
                                other[c] = nv
                            elif c in other:
                                del other[c]
                rows[p] = row
                scalars.append(piv)
                break
    return rows, scalars


class TestOnePassEngine:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_rows_order_and_scalars_as_rescanning_engine(self, data):
        """Tall, often rank-deficient inputs over Q and Q(zeta_3), as sparse
        dicts: the one-pass engine finds the same pivots in the same
        order, with the same pivot scalars and rows."""
        field = data.draw(st.sampled_from(FIELDS[:2]))
        M = data.draw(matrices(rows=data.draw(st.integers(0, 9)),
                               cols=data.draw(st.integers(0, 7)),
                               field=field))
        vectors = [sparse(r) for r in M.data]
        rows, scalars = _echelon_dict(vectors, field)
        ref_rows, ref_scalars = rescanning_echelon(vectors, field)
        assert rows == ref_rows
        assert list(rows) == list(ref_rows)
        assert scalars == ref_scalars


# ---------------------------------------------------------------------------
# differential tests: sparse quotient projection against dense references

def ref_quotient(n, rels, field):
    """The dense proj and section of k^n / span(rels) from the reference
    RREF: proj keeps the non-pivot coordinates and sends e_p to minus the
    non-pivot entries of the relation row with pivot p."""
    R, pivots = ref_rref(rels, n, field)
    nonpiv = [c for c in range(n) if c not in pivots]
    proj = Mat.zero(len(nonpiv), n, field)
    section = Mat.zero(n, len(nonpiv), field)
    for qi, c in enumerate(nonpiv):
        proj.data[qi][c] = field.one
        section.data[c][qi] = field.one
        for row, p in zip(R, pivots):
            if row[c]:
                proj.data[qi][p] = -row[c]
    return proj, section


@st.composite
def relation_sets(draw):
    """(n, relation vectors as lists, field) over Q or Q(zeta_3): a random
    (often rank-deficient) set, no relations at all, or a spanning set."""
    field = draw(st.sampled_from(FIELDS[:2]))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "random", "empty", "full"]))
    if kind == "empty":
        return n, [], field
    if kind == "full":
        extra = draw(matrices(cols=n, field=field)).data
        return n, Mat.identity(n, field).data + extra, field
    rows = draw(matrices(cols=n, field=field)).data
    return n, rows, field


class TestSparseQuotient:
    @given(relation_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_project_and_apply_match_dense_reference(self, rels, data):
        n, vectors, field = rels
        q = quotient_by(n, [sparse(v) for v in vectors], field)
        proj, section = ref_quotient(n, vectors, field)
        assert (q.apply(Mat.identity(n, field)),
                Mat.from_cols(q.section_cols, n, field)) == (proj, section)
        assert q.dim == proj.rows
        M = data.draw(matrices(rows=n, field=field))
        for j in range(M.cols):
            v = M.col(j)
            assert q.project(v) == sparse(
                [sum((a * v.get(c, field.zero) for c, a in enumerate(row)),
                     field.zero) for row in proj.data])
            assert q.project(v) == proj.matvec(v)
        cols = [M.col(j) for j in range(M.cols)]
        assert q.apply(M) == q.apply(cols) == proj * M
        for v in vectors:
            assert q.project(sparse(v)) == {}

    @given(relation_sets())
    @settings(max_examples=100, deadline=None)
    def test_relations_match_spanning_subspace(self, rels):
        n, vectors, field = rels
        vectors = [sparse(v) for v in vectors]
        q = quotient_by(n, vectors, field)
        assert q.relations == Subspace.from_spanning(n, vectors, field)
        assert q.relations.dim + q.dim == n
        assert q.pivots == q.relations.pivots == sorted(q.rows)

    def test_project_checks_length(self):
        with pytest.raises(ShapeMismatch):
            quotient_by(3, [], QQ).project({3: QQ.one})

    def test_equal_in_builds_the_quotient_only_for_pairs_that_differ(self):
        """Equal columns never build the quotient; a pair that differs by a
        relation is equal in it, one that differs otherwise is not, and
        lifts with different column counts are never equal."""
        one, built = QQ.one, []

        def quotient():
            built.append(1)
            return quotient_by(3, [{0: one, 1: -one}], QQ)

        e0, e1, e2 = ({i: one} for i in range(3))
        M = Mat.from_cols([e0, e2], 3, QQ)
        assert equal_in(quotient, M, [e0, e2]) and not built
        assert equal_in(quotient, M, [e1, e2]) and len(built) == 1
        assert not equal_in(quotient, M, [e0, e1]) and len(built) == 2
        assert not equal_in(quotient, M, [e0]) and len(built) == 2

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_kron_cols_matches_kron_product(self, data):
        field = data.draw(st.sampled_from(FIELDS[:2]))
        dims = [data.draw(st.integers(1, 3)) for _ in range(5)]
        A = data.draw(matrices(rows=dims[0], cols=dims[1], field=field))
        B = data.draw(matrices(rows=dims[2], cols=dims[3], field=field))
        M = data.draw(matrices(rows=dims[1] * dims[3], cols=dims[4],
                               field=field))
        ref = kron(A, B) * M
        got = kron_cols(A, B, M)
        assert got == [ref.col(j) for j in range(ref.cols)]
        assert kron_cols(A, B, [M.col(j) for j in range(M.cols)]) == got
        assert kron_cols(A, B, M.sparse_cols()) == got
