import math
import random

from halab.fields import QQ
from halab.linalg import Mat, Subspace, kron, quotient_by
from halab.algebra import group_algebra
from halab.bimod import (tensor_over, check_takeuchi_closure, BaseMismatch,
                         TakeuchiSubspace)
from halab.hopfalgebroid import _coassociative
from halab.zoo import (cyclic_table, s3_table, indiscrete_groupoid,
                       function_algebroid, group_hopf_algebra, groupoid_algebra)

import pytest
from hypothesis import given, settings, strategies as st


def test_tensor_over_k_is_plain_tensor():
    # base k acting by scalars: no collapsing at all
    I3 = Mat.identity(3, QQ)
    I2 = Mat.identity(2, QQ)
    sq = tensor_over([3, 2], [([I3], [I2])], QQ)
    assert sq.dim == 6
    assert sq.apply(sq.section_cols) == Mat.identity(6, QQ)


def test_tensor_over_subalgebra_collapses():
    # kZ4 (x)_{k<h^2>} kZ4: 16 / 2
    B = group_algebra(cyclic_table(4))
    mid = [B.unit, B.basis_vec(2)]
    right_acts = [B.right_mult_matrix(a) for a in mid]
    left_acts = [B.left_mult_matrix(a) for a in mid]
    sq = tensor_over([4, 4], [(right_acts, left_acts)], QQ)
    assert sq.dim == 8
    # b h^2 (x) b'  ==  b (x) h^2 b'
    for b in range(4):
        for bp in range(4):
            u = {((b + 2) % 4) * 4 + bp: QQ.one}
            v = {b * 4 + (bp + 2) % 4: QQ.one}
            assert sq.project(u) == sq.project(v)


def test_base_dim_mismatch():
    I2 = Mat.identity(2, QQ)
    with pytest.raises(BaseMismatch):
        tensor_over([2, 2], [([I2], [I2, I2])], QQ)
    with pytest.raises(BaseMismatch):
        tensor_over([2, 2, 2], [([I2], [I2]), ([I2], [I2, I2])], QQ)


def test_square_dims():
    # over base k the square has the full dimension d^2
    Hd = group_hopf_algebra(cyclic_table(3))
    assert Hd.rightb.square().dim == 9
    assert Hd.leftb.square().dim == 9


def test_function_algebroid_square_counts_composable_pairs():
    G = indiscrete_groupoid(2)
    Hd = function_algebroid(G)
    sq = Hd.rightb.square()
    pairs = sum(1 for f in range(G.n_morphisms) for g in range(G.n_morphisms)
                if G.src[f] == G.tgt[g])
    assert sq.dim == pairs == 8


def test_triple_tensor_group_algebra():
    Hd = group_hopf_algebra(cyclic_table(2))
    L, R = Hd.leftb, Hd.rightb
    qp = tensor_over([2] * 3, [L.acts(), R.acts()], QQ)
    assert qp.dim == 8
    assert qp.apply(qp.section_cols) == Mat.identity(8, QQ)


def test_takeuchi_contains_coproduct_image():
    for Hd in (group_hopf_algebra(cyclic_table(4)),
               function_algebroid(indiscrete_groupoid(2))):
        H = Hd.total
        R = Hd.rightb
        sq = R.square()
        tk = R.takeuchi()
        for b in range(H.dim):
            q = sq.project(R.coproduct_lift.col(b))
            assert tk.space.contains(q)
        assert check_takeuchi_closure(H, tk).ok
        L = Hd.leftb
        sqL = L.square()
        tkL = L.takeuchi()
        for b in range(H.dim):
            assert tkL.space.contains(sqL.project(L.coproduct_lift.col(b)))


def test_takeuchi_closure_multiplies_factorwise():
    # over base k the square of kS3 is all of kS3 (x) kS3.  With x the sum
    # of the group elements, x (x) x spans a subspace closed under
    # factorwise products (x^2 = 6x) that misses e (x) e; g (x) e for g of
    # order 3 spans one that is not closed ((g (x) e)^2 = g^2 (x) e)
    table = s3_table()
    Hd = group_hopf_algebra(table)
    H, sq = Hd.total, Hd.rightb.square()
    d = H.dim
    assert sq.dim == d * d
    g = next(i for i in range(d) if table[i][i])
    closed = Subspace.from_spanning(sq.dim, [dict.fromkeys(range(sq.dim), 1)],
                                    QQ)
    assert check_takeuchi_closure(H, TakeuchiSubspace(sq, closed)).ok
    ge = {g * d: 1}
    rep = check_takeuchi_closure(
        H, TakeuchiSubspace(sq, Subspace.from_spanning(sq.dim, [ge], QQ)))
    assert [(e["tag"], e["indices"]) for e in rep.entries] == [
        ("takeuchi:closure", (0, 0))]


def test_takeuchi_proper_for_algebroid():
    # for the groupoid algebra the Takeuchi space is a proper subspace of
    # the square (only composable tails survive the centralizing condition)
    Hd = groupoid_algebra(indiscrete_groupoid(2))
    R = Hd.rightb
    tk = R.takeuchi()
    assert (tk.space.dim, R.square().dim) == (4, 8)


def _reference_tensor(dims, pairs, field):
    """Quotient by the columns of kron(Ra, I) - kron(I, La), padded by
    identities on the legs outside each pair."""
    cols = []
    for leg, (right_acts, left_acts) in enumerate(pairs):
        before = Mat.identity(math.prod(dims[:leg]), field)
        after = Mat.identity(math.prod(dims[leg + 2:]), field)
        for Ra, La in zip(right_acts, left_acts):
            D = (kron(Ra, Mat.identity(dims[leg + 1], field))
                 - kron(Mat.identity(dims[leg], field), La))
            M = kron(before, kron(D, after))
            cols.extend(M.col(c) for c in range(M.cols))
    return quotient_by(math.prod(dims), cols, field)


@pytest.mark.parametrize("name, Hd", [
    ("kZ4", group_hopf_algebra(cyclic_table(4))),
    ("indiscrete2 groupoid algebra", groupoid_algebra(indiscrete_groupoid(2))),
    ("indiscrete2 function algebroid",
     function_algebroid(indiscrete_groupoid(2))),
])
def test_tensor_over_matches_kron_reference(name, Hd):
    L, R = Hd.leftb, Hd.rightb
    d = Hd.total.dim
    for dims, pairs in (([d] * 2, [L.acts()]), ([d] * 2, [R.acts()]),
                        ([d] * 3, [L.acts(), R.acts()]),
                        ([d] * 3, [R.acts(), R.acts()])):
        got = tensor_over(dims, pairs, QQ)
        ref = _reference_tensor(dims, pairs, QQ)
        identity = Mat.identity(math.prod(dims), QQ)
        assert got.apply(identity) == ref.apply(identity), name
        assert got.section_cols == ref.section_cols, name


def _s_t_mutations(hopf_corpus, per_instance=2):
    """Seeded single-entry changes of s or t on either side: the actions
    they give need not make a bimodule."""
    from test_hopfalgebroid import remut
    rng = random.Random(7)
    out = []
    for name, Hd in hopf_corpus:
        if Hd.total.field != QQ or Hd.total.dim > 6:
            continue
        for _ in range(per_instance):
            which = rng.choice(["sL", "tL", "sR", "tR"])
            side = Hd.leftb if which[1] == "L" else Hd.rightb
            M = getattr(side, which[0])
            out.append(("%s %s" % (name, which),
                        remut(Hd, which, rng.randrange(M.rows),
                              rng.randrange(M.cols), QQ.one)))
    return out


def test_staged_triples_match_the_kron_reference(hopf_corpus):
    """Every 3-leg quotient of the Q corpus (dimension at most 6, where the
    dense reference stays cheap) in all four pair orders, and of seeded
    s/t mutations: the staged build has the canonical rows of the direct
    kron build, and coassociativity gets the same verdict in both."""
    instances = [(name, Hd) for name, Hd in hopf_corpus
                 if Hd.total.field == QQ and Hd.total.dim <= 6]
    checked = 0
    for name, Hd in instances + _s_t_mutations(hopf_corpus):
        L, R = Hd.leftb, Hd.rightb
        d = Hd.total.dim
        for first, second in ((L, R), (R, L), (L, L), (R, R)):
            pairs = [first.acts(), second.acts()]
            got = tensor_over([d] * 3, pairs, QQ)
            ref = _reference_tensor([d] * 3, pairs, QQ)
            assert (got.rows, got.index, got.dim) == \
                (ref.rows, ref.index, ref.dim), name
            assert (_coassociative(first, second, got)
                    == _coassociative(first, second, ref)), name
            checked += 1
    assert checked >= 4 * 40


@st.composite
def leg_actions(draw):
    """3 or 4 legs of dimension 1..3 and, for each neighbouring pair, one
    or two permutation matrices per side.  They make no bimodule, and the
    quotient is often neither zero nor the whole tensor product: a pivot
    of the first stage can then sit at any later leg index."""
    dims = draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))

    def perm(n):
        p = draw(st.permutations(range(n)))
        return Mat(n, n, [[QQ.one if p[j] == i else QQ.zero
                           for j in range(n)] for i in range(n)], QQ)
    pairs = []
    for a, b in zip(dims, dims[1:]):
        r = draw(st.integers(1, 2))
        pairs.append(([perm(a) for _ in range(r)],
                      [perm(b) for _ in range(r)]))
    return dims, pairs


@given(leg_actions())
@settings(max_examples=150, deadline=None)
def test_staged_build_matches_the_kron_reference_on_random_actions(legs):
    dims, pairs = legs
    got = tensor_over(dims, pairs, QQ)
    ref = _reference_tensor(dims, pairs, QQ)
    assert (got.rows, got.index, got.dim) == (ref.rows, ref.index, ref.dim)
