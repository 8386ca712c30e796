"""One vector form: every kernel returns the dict of a vector's nonzeros.

The kernels (mul_vec, matvec, pair_mul, convolve, kron_cols, project) are
compared with dense references over Q and Q(zeta_3) on inputs built so
that an accumulated entry cancels, and a cancelled entry must not survive
as a stored zero: Mat.from_cols stores columns as given and == is a plain
dict comparison, so a stored zero would make equal vectors compare
unequal.  A wrapper around Mat.from_cols then checks every column the
library builds while the hopf corpus and the shipped documents are
checked."""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from halab.cli import main
from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat, kron_cols, quotient_by
from halab.algebra import tensor_algebra
from halab.bimod import pair_mul
from halab.hopfalgebroid import check_hopf_algebroid

from conftest import sparse, hopf_instances
from test_algebra import dense_product, product_corpus, coordinates
from test_linalg import matrices, ref_quotient

F3 = CyclotomicField(3)
DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "documents")


def zero_free(vec):
    return all(vec.values())


def dense(vec, n, field):
    return [vec.get(i, field.zero) for i in range(n)]


def dense_matvec(rows, vec, field):
    return [sum((a * x for a, x in zip(row, vec)), field.zero)
            for row in rows]


def cancelling(f, w, i, field):
    """w changed at entry i so that the linear map f (dense lists) cancels
    at the first index where f(w) and f(e_i) are both nonzero: the
    kernel's accumulator gets nonzero terms there that sum to zero.  w is
    returned as it is when there is no such index."""
    e = [field.one if k == i else field.zero for k in range(len(w))]
    r, s = f(w), f(e)
    k = next((k for k in range(len(r)) if r[k] and s[k]), None)
    if k is None:
        return w
    w = list(w)
    w[i] = w[i] + field.div(-r[k], s[k])
    return w


def draw_cancelling(data, f, n, field):
    """A drawn dense vector of length n made to cancel under f."""
    w = data.draw(coordinates(field, n))
    return cancelling(f, w, data.draw(st.integers(0, n - 1)), field)


def small_corpus(field):
    return [(name, A) for name, A in product_corpus(field) if A.dim <= 4]


@pytest.mark.parametrize("kernel", ["mul_vec", "matvec", "pair_mul",
                                    "convolve", "kron_cols", "project"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernels_match_dense_reference_without_stored_zeros(kernel, data):
    field = data.draw(st.sampled_from([QQ, F3]))
    if kernel == "mul_vec":
        name, A = data.draw(st.sampled_from(product_corpus(field)))
        x = data.draw(coordinates(field, A.dim))
        y = draw_cancelling(data, lambda y: dense_product(A, x, y), A.dim,
                            field)
        i = data.draw(st.integers(0, A.dim - 1))
        ei = [field.one if k == i else field.zero for k in range(A.dim)]
        z = draw_cancelling(data, lambda z: dense_product(A, ei, z), A.dim,
                            field)
        got = [(A.mul_vec(sparse(x), sparse(y)), dense_product(A, x, y)),
               (A.mul_vec(i, sparse(z)), dense_product(A, ei, z)),
               (A.mul_vec(sparse(z), i), dense_product(A, z, ei))]
    elif kernel == "matvec":
        M = data.draw(matrices(field=field))
        if not M.cols:
            return
        v = draw_cancelling(data, lambda v: dense_matvec(M.data, v, field),
                            M.cols, field)
        got = [(M.matvec(sparse(v)), dense_matvec(M.data, v, field))]
    elif kernel == "pair_mul":
        (_, A), (_, B) = (data.draw(st.sampled_from(small_corpus(field)))
                          for _ in range(2))
        T = tensor_algebra(A, B)
        u = data.draw(coordinates(field, T.dim))
        v = draw_cancelling(data, lambda v: dense_product(T, u, v), T.dim,
                            field)
        got = [(pair_mul(A, B, sparse(u), sparse(v)),
                dense_product(T, u, v))]
    elif kernel == "convolve":
        name, A = data.draw(st.sampled_from(small_corpus(field)))
        F, G = (Mat.from_cols(
            [sparse(data.draw(coordinates(field, A.dim)))
             for _ in range(data.draw(st.integers(1, 3)))], A.dim, field)
            for _ in range(2))

        def f(col):
            out = [field.zero] * A.dim
            for kl, c in enumerate(col):
                k, l = divmod(kl, G.cols)
                term = dense_product(A, dense(F.col(k), A.dim, field),
                                     dense(G.col(l), A.dim, field))
                out = [a + c * b for a, b in zip(out, term)]
            return out
        col = draw_cancelling(data, f, F.cols * G.cols, field)
        lift = Mat.from_cols([sparse(col)], F.cols * G.cols, field)
        got = [(A.convolve(F, G, lift).col(0), f(col))]
    elif kernel == "kron_cols":
        dims = [data.draw(st.integers(1, 3)) for _ in range(4)]
        A = data.draw(matrices(rows=dims[0], cols=dims[1], field=field))
        B = data.draw(matrices(rows=dims[2], cols=dims[3], field=field))
        K = [[a * b for a in arow for b in brow]
             for arow in A.data for brow in B.data]
        col = draw_cancelling(data, lambda v: dense_matvec(K, v, field),
                              dims[1] * dims[3], field)
        got = [(kron_cols(A, B, [sparse(col)])[0],
                dense_matvec(K, col, field))]
    else:
        n = data.draw(st.integers(1, 6))
        rels = data.draw(matrices(cols=n, field=field)).data
        q = quotient_by(n, [sparse(r) for r in rels], field)
        proj = ref_quotient(n, rels, field)[0].data
        v = draw_cancelling(data, lambda v: dense_matvec(proj, v, field), n,
                            field)
        got = [(q.project(sparse(v)), dense_matvec(proj, v, field))]
    for result, reference in got:
        assert zero_free(result), kernel
        assert result == sparse(reference), kernel


def test_cancelling_inputs_cancel():
    """The construction above does cancel: in kZ3, x = e_1 + e_2 and
    w = e_1 give x w = e_2 + e_0 and x e_0 = e_1 + e_2, so y = w - e_0,
    and the terms e_1 e_1 and -e_2 e_0 of x y cancel at e_2."""
    from halab.algebra import group_algebra
    from halab.zoo import cyclic_table
    A = group_algebra(cyclic_table(3))
    x = [QQ.zero, QQ.one, QQ.one]
    y = cancelling(lambda y: dense_product(A, x, y),
                   [QQ.zero, QQ.one, QQ.zero], 0, QQ)
    assert y == [-QQ.one, QQ.one, QQ.zero]
    assert dense_product(A, x, y) == [QQ.one, -QQ.one, QQ.zero]
    assert A.mul_vec(sparse(x), sparse(y)) == {0: QQ.one, 1: -QQ.one}


def test_every_built_column_is_zero_free(monkeypatch):
    """No Mat the library builds from columns holds a stored zero while the
    hopf corpus is built and checked and the shipped documents run through
    halab check."""
    original = Mat.from_cols.__func__
    built = []

    def checked(cls, cols_list, ambient_dim, field=QQ):
        cols_list = list(cols_list)
        for col in cols_list:
            assert isinstance(col, dict) and zero_free(col), col
        built.append(len(cols_list))
        return original(cls, cols_list, ambient_dim, field)

    monkeypatch.setattr(Mat, "from_cols", classmethod(checked))
    for name, Hd in hopf_instances():
        check_hopf_algebroid(Hd)
    paths = sorted(os.path.join(DOCS, n) for n in os.listdir(DOCS)
                   if n.endswith(".json"))
    assert len(paths) == 16
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", path, "--json"]) in (0, 1), path
    assert len(built) > 1000


def test_an_index_outside_the_range_is_a_shape_mismatch():
    """A vector index outside the range of the map or algebra it meets
    raises ShapeMismatch, never IndexError."""
    from halab.algebra import group_algebra
    from halab.linalg import ShapeMismatch
    from halab.zoo import cyclic_table
    A = group_algebra(cyclic_table(3))
    M = Mat.identity(3, QQ)
    q = quotient_by(3, [{0: QQ.one, 1: -QQ.one}], QQ)
    for call in (lambda: M.matvec({3: QQ.one}),
                 lambda: A.mul_vec({3: QQ.one}, {0: QQ.one}),
                 lambda: A.mul_vec(0, {3: QQ.one}),
                 lambda: A.mul_vec({0: QQ.one}, 3),
                 lambda: pair_mul(A, A, {9: QQ.one}, {0: QQ.one}),
                 lambda: q.project({3: QQ.one})):
        with pytest.raises(ShapeMismatch):
            call()


def test_a_negative_index_is_a_shape_mismatch():
    """A negative vector index would wrap in the lists behind matvec,
    mul_vec and pair_mul and select the last column or basis element; it
    raises ShapeMismatch instead."""
    from halab.algebra import group_algebra
    from halab.linalg import ShapeMismatch
    from halab.zoo import cyclic_table
    A = group_algebra(cyclic_table(3))
    for call in (lambda: Mat.from_cols([{0: 1}, {1: 2}], 2).matvec({-1: 1}),
                 lambda: A.mul_vec({-1: 1}, {0: 1}),
                 lambda: A.mul_vec({0: 1}, {-3: 1}),
                 lambda: A.mul_vec(-1, {0: 1}),
                 lambda: A.mul_vec(0, -1),
                 lambda: A.mul_vec({0: 1}, -1),
                 lambda: pair_mul(A, A, {-1: 1}, {0: 1}),
                 lambda: pair_mul(A, A, {0: 1}, {-9: 1})):
        with pytest.raises(ShapeMismatch):
            call()
    assert A.mul_vec({}, {}) == {} and pair_mul(A, A, {}, {0: 1}) == {}


def test_kron_cols_and_col_reject_an_index_outside_the_shape():
    """A negative row index of M would wrap in kron_cols' column lists and
    a negative j in Mat.col; both raise ShapeMismatch, and so does an
    index past the end."""
    from halab.linalg import ShapeMismatch
    I2 = Mat.identity(2, QQ)
    for call in (lambda: kron_cols(I2, I2, [{-1: 1}]),
                 lambda: kron_cols(I2, I2, [{0: 1}, {4: 1}]),
                 lambda: I2.col(-1),
                 lambda: I2.col(2)):
        with pytest.raises(ShapeMismatch):
            call()
    assert kron_cols(I2, I2, [{3: 1}]) == [{3: 1}] and I2.col(1) == {1: 1}
