import random

import pytest

import halab.hopfalgebroid
from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat, kron, kron_cols, inverse, rank
from halab.algebra import product_field_algebra
from halab.bimod import tensor_over
from halab.hopfalgebroid import (BialgebroidData, HopfAlgebroidData,
                                 _coassociative, check_coring,
                                 check_bialgebroid, check_hopf_algebroid,
                                 solve_antipode, check_coupled,
                                 check_algebraic_morphism,
                                 check_geometric_morphism, NoAntipode,
                                 hopf_to_json, hopf_from_json)
from halab.zoo import (cyclic_table, s3_table, group_hopf_algebra,
                       groupoid_algebra, function_algebroid,
                       indiscrete_groupoid, monoid_bialgebra,
                       and_monoid_table, coupled_from_character,
                       smash_algebroid, direct_product_table)

from conftest import symmetric_table
from test_algebra import in_basis


def remut(Hd, which, i, j, delta):
    """Copy Hd with a single entry of one structure map perturbed."""
    L, R = Hd.leftb, Hd.rightb
    kw = {"sL": L.s, "tL": L.t, "dL": L.coproduct_lift, "epsL": L.counit,
          "sR": R.s, "tR": R.t, "dR": R.coproduct_lift, "epsR": R.counit,
          "S": Hd.antipode}
    M = kw[which].copy()
    M.data[i][j] = M.data[i][j] + delta
    kw[which] = M
    L2 = BialgebroidData(L.total, L.base, "left", kw["sL"], kw["tL"],
                         kw["dL"], kw["epsL"])
    R2 = BialgebroidData(R.total, R.base, "right", kw["sR"], kw["tR"],
                         kw["dR"], kw["epsR"])
    return HopfAlgebroidData(L2, R2, kw["S"])


class TestBialgebroid:
    def test_corpus_sides_pass(self):
        for Hd in (group_hopf_algebra(cyclic_table(3)),
                   groupoid_algebra(indiscrete_groupoid(2)),
                   function_algebroid(indiscrete_groupoid(2))):
            assert check_bialgebroid(Hd.leftb).ok
            assert check_bialgebroid(Hd.rightb).ok

    def test_broken_counit_is_tagged(self):
        Hd = group_hopf_algebra(cyclic_table(3))
        R = Hd.rightb
        eps = R.counit.copy()
        eps.data[0][1] = eps.data[0][1] + QQ.one
        bad = BialgebroidData(R.total, R.base, "right", R.s, R.t,
                              R.coproduct_lift, eps)
        tags = check_bialgebroid(bad).tags()
        assert any("counit" in t for t in tags)

    def test_monoid_bialgebra_passes(self):
        B = monoid_bialgebra(and_monoid_table(), 1)
        assert check_bialgebroid(B).ok


class TestAntipode:
    def test_kz3_antipode_is_inversion(self):
        Hd = group_hopf_algebra(cyclic_table(3))
        S = solve_antipode(Hd.rightb)
        swap = Mat.zero(3, 3, QQ)
        swap.data[0][0] = QQ.one
        swap.data[2][1] = QQ.one
        swap.data[1][2] = QQ.one
        assert S == swap == Hd.antipode

    def test_antipode_unique(self):
        Hd = group_hopf_algebra(s3_table())
        S, kern = solve_antipode(Hd.rightb, want_kernel=True)
        assert S == Hd.antipode
        assert not kern

    def test_monoid_has_no_antipode(self):
        B = monoid_bialgebra(and_monoid_table(), 1)
        with pytest.raises(NoAntipode):
            solve_antipode(B)


class TestHopfAlgebroid:
    def test_identity_antipode_fails_convolution(self):
        Hd = group_hopf_algebra(cyclic_table(3))
        bad = HopfAlgebroidData(Hd.leftb, Hd.rightb,
                                Mat.identity(3, QQ))
        rep = check_hopf_algebroid(bad, skip_bialgebroids=True)
        assert rep.tags() == ["hopf:(d)"]

    def test_gating_counit_mutation(self):
        # a counit broken on the unit breaks the triangles and suppresses
        # the dependent convolution checks
        Hd = group_hopf_algebra(cyclic_table(3))
        rep = check_hopf_algebroid(remut(Hd, "epsL", 0, 0, QQ.one),
                                   skip_bialgebroids=True)
        assert rep.tags() == ["hopf:(a)"]

    def test_gating_rank_deficient_antipode(self):
        Hd = group_hopf_algebra(cyclic_table(3))
        rep = check_hopf_algebroid(remut(Hd, "S", 0, 0, -QQ.one),
                                   skip_bialgebroids=True)
        assert rep.tags() == ["hopf:S-bijective"]


class TestCoupled:
    def test_self_coupled_by_antipode(self):
        Hd = group_hopf_algebra(cyclic_table(4))
        assert check_coupled(Hd.leftb, Hd.rightb, Hd.antipode).ok

    def test_character_twist(self):
        F4 = CyclotomicField(4)
        Hd = group_hopf_algebra(cyclic_table(4), F4)
        z = F4.zeta(1)
        H1, H2, C = coupled_from_character(Hd, [F4.one, z, z * z, z * z * z])
        assert check_coupled(H1, H2, C).ok
        # the twisted antipode sends g to zeta4 g^3
        expect = Mat.zero(4, 4, F4)
        expect.data[0][0] = F4.one
        expect.data[3][1] = z
        expect.data[2][2] = z * z
        expect.data[1][3] = z * z * z
        assert C == expect

    def test_zero_coupling_fails(self):
        Hd = group_hopf_algebra(cyclic_table(2))
        rep = check_coupled(Hd.leftb, Hd.rightb, Mat.zero(2, 2, QQ))
        assert not rep.ok


class TestMorphisms:
    def test_identity_pair(self):
        Hd = groupoid_algebra(indiscrete_groupoid(2))
        I = Mat.identity(Hd.total.dim, Hd.total.field)
        assert check_algebraic_morphism(I, I, Hd, Hd).ok

    def test_subgroup_inclusion(self):
        Hz2 = group_hopf_algebra(cyclic_table(2))
        Hz4 = group_hopf_algebra(cyclic_table(4))
        phi = Mat.zero(4, 2, QQ)
        phi.data[0][0] = QQ.one     # e -> e
        phi.data[2][1] = QQ.one     # g -> h^2
        assert check_algebraic_morphism(phi, phi, Hz2, Hz4).ok
        fbase = Mat.identity(1, QQ)
        assert check_geometric_morphism(fbase, phi, Hz2, Hz4).ok

    def test_order_mismatch_fails(self):
        Hz2 = group_hopf_algebra(cyclic_table(2))
        Hz4 = group_hopf_algebra(cyclic_table(4))
        bad = Mat.zero(4, 2, QQ)
        bad.data[0][0] = QQ.one
        bad.data[1][1] = QQ.one     # g -> h is not multiplicative
        assert not check_algebraic_morphism(bad, bad, Hz2, Hz4).ok


def test_hopf_json_round_trip():
    Hd = group_hopf_algebra(cyclic_table(3))
    doc = hopf_to_json(Hd)
    back = hopf_from_json(doc)
    assert check_hopf_algebroid(back).ok
    assert back.antipode == Hd.antipode
    assert back.leftb.coproduct_lift == Hd.leftb.coproduct_lift


def dense_coassociative(first, second, qp):
    """Coassociativity by the dense formula: proj times kron products."""
    I = Mat.identity(first.total.dim, first.total.field)
    F, S = first.coproduct_lift, second.coproduct_lift
    P = qp.apply(Mat.identity(qp.ambient_dim, qp.field))
    return P * (kron(F, I) * S) == P * (kron(I, S) * F)


def coassociativity_cases(Hd):
    """Both one-sided triples and both mixed squares of hopf:(b)."""
    L, R = Hd.leftb, Hd.rightb
    d = Hd.total.dim
    yield L, L, L.triple()
    yield R, R, R.triple()
    for first, second in ((L, R), (R, L)):
        yield first, second, tensor_over(
            [d] * 3, [first.acts(), second.acts()], Hd.total.field)


def test_coassociative_matches_dense_formula(hopf_corpus):
    """Every Q instance but kZ12 (whose 1728-dimensional triple has no
    relations), and one seeded single-entry mutation of a coproduct lift
    of each instance of dimension at most 8."""
    rng = random.Random(0)
    verdicts = []
    for n, (name, Hd) in enumerate(hopf_corpus):
        d = Hd.total.dim
        if Hd.total.field != QQ or d > 9:
            continue
        instances = [Hd]
        if d <= 8:
            instances.append(remut(Hd, "dL" if n % 2 else "dR",
                                   rng.randrange(d * d), rng.randrange(d),
                                   QQ.one))
        for H2 in instances:
            for first, second, qp in coassociativity_cases(H2):
                got = _coassociative(first, second, qp)
                assert got == dense_coassociative(first, second, qp), name
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_coring_and_takeuchi_form_no_kron_and_no_dense_product(monkeypatch):
    swap = Mat(2, 2, [[QQ.zero, QQ.one], [QQ.one, QQ.zero]], QQ)
    Hd = smash_algebroid(product_field_algebra(2), cyclic_table(2),
                         [Mat.identity(2, QQ), swap])

    def forbidden(*args):
        raise AssertionError("Kronecker or dense matrix product")
    monkeypatch.setattr(Mat, "__mul__", forbidden)
    monkeypatch.setattr(halab.hopfalgebroid, "kron", forbidden)
    for B in (Hd.leftb, Hd.rightb):
        assert check_coring(B).ok
        assert (B.square().dim, B.takeuchi().space.dim) == (32, 16)
    monkeypatch.undo()
    assert check_bialgebroid(Hd.leftb).ok and check_bialgebroid(Hd.rightb).ok


def test_reused_reports_and_shared_quotients_match_fresh_runs(
        hopf_corpus, monkeypatch):
    """The check stack of `halab check` merges each side's coring report
    into its bialgebroid report and builds one quotient for equal inputs
    (the sides' squares and triples, hopf:(b)'s triples).  Fresh runs, with
    every quotient rebuilt, give entry-for-entry the same reports on the
    corpus and on seeded s/t mutations, whose sides act differently."""
    from halab.cli import _checks_for_hopf
    from test_bimod import _s_t_mutations
    instances = list(hopf_corpus) + _s_t_mutations(hopf_corpus)
    # the triple quotient each coassociativity check is decided in
    used = []
    monkeypatch.setattr(halab.hopfalgebroid, "_coassociative",
                        lambda first, second, qp: used.append(
                            (first, second, qp)) or _coassociative(
                                first, second, qp))
    got = [[rep.entries for _, rep in _checks_for_hopf(Hd, 3)[1:]]
           for _, Hd in instances]
    monkeypatch.undo()
    monkeypatch.setattr(halab.hopfalgebroid, "tensor_over",
                        lambda dims, pairs, field, memo=None:
                        tensor_over(dims, pairs, field))
    for first, second, qp in used:
        fresh = tensor_over([first.total.dim] * 3,
                            [first.acts(), second.acts()], qp.field)
        assert (qp.rows, qp.dim) == (fresh.rows, fresh.dim)
    for (name, Hd), entries in zip(instances, got):
        L, R = Hd.leftb, Hd.rightb
        assert entries == [
            check_coring(L).merge(check_coring(R)).entries,
            check_bialgebroid(L).merge(check_bialgebroid(R)).entries,
            check_hopf_algebroid(Hd, skip_bialgebroids=True).entries], name
    assert any(any(e) for e in got), "no mutation was caught"


def test_ks4_times_z2_passes():
    """kS4 x Z2 (dimension 48, its triple over k 110,592-dimensional) is a
    Hopf algebroid: every projection and product stays sparse."""
    Hd = group_hopf_algebra(direct_product_table(symmetric_table(4),
                                                 cyclic_table(2)))
    rep = check_hopf_algebroid(Hd)
    assert rep.ok and rep.entries == []


def change_of_basis(Hd, P):
    """Hd with its total algebra written in the basis of the columns of the
    invertible P, the bases left as they are: mul' = P^-1 mul(P ., P .),
    unit' = P^-1 unit, s' = P^-1 s, t' = P^-1 t, Delta' = (P^-1 (x) P^-1)
    Delta P, eps' = eps P and S' = P^-1 S P."""
    H2, Pi = in_basis(Hd.total, P), inverse(P)
    d, field = H2.dim, H2.field

    def side(B):
        lift = kron_cols(Pi, Pi, B.coproduct_lift * P)
        return BialgebroidData(H2, B.base, B.side, Pi * B.s, Pi * B.t,
                               Mat.from_cols(lift, d * d, field),
                               B.counit * P)
    return HopfAlgebroidData(side(Hd.leftb), side(Hd.rightb),
                             Pi * Hd.antipode * P)


def random_basis(d, field, rng):
    """The identity plus d seeded entries from {-1, 1, 2}, redrawn until
    it is invertible."""
    while True:
        P = Mat.identity(d, field).copy()
        for _ in range(d):
            P.data[rng.randrange(d)][rng.randrange(d)] = \
                field.from_int(rng.choice([-1, 1, 2]))
        if rank(P) == d:
            return P


def test_verdicts_do_not_depend_on_the_basis(hopf_corpus):
    """Every corpus instance of dimension at most 6, and a seeded
    single-entry mutation of each (of Delta_R, eps_R, S or s_R), gets the
    same ok and the same tag set in a seeded general basis; the indices
    may differ."""
    rng = random.Random(10)
    checked = failing = 0
    for name, Hd in hopf_corpus:
        d = Hd.total.dim
        if d > 6:
            continue
        which = rng.choice(["dR", "epsR", "S", "sR"])
        M = {"dR": Hd.rightb.coproduct_lift, "epsR": Hd.rightb.counit,
             "S": Hd.antipode, "sR": Hd.rightb.s}[which]
        mutant = remut(Hd, which, rng.randrange(M.rows),
                       rng.randrange(M.cols), Hd.total.field.one)
        for label, inst in ((name, Hd), ("%s %s" % (name, which), mutant)):
            rep = check_hopf_algebroid(inst)
            P = random_basis(d, inst.total.field, rng)
            moved = check_hopf_algebroid(change_of_basis(inst, P))
            assert (moved.ok, moved.tags()) == (rep.ok, rep.tags()), label
            checked += 1
            failing += not rep.ok
    assert checked >= 50 and failing >= 20


def permute_bases(Hd, rng):
    """Hd with the basis of each side's base algebra permuted by a seeded
    permutation Q (new basis vector k = old basis vector perm[k]), carried
    through the base's structure constants and unit (base' = Q^-1 mul(Q .,
    Q .), unit' = Q^-1 unit) and through s' = s Q, t' = t Q and
    eps' = Q^-1 eps; the total algebra is left as it is."""
    def side(B):
        b, field = B.base.dim, B.base.field
        perm = list(range(b))
        rng.shuffle(perm)
        Q = Mat.from_cols([{perm[k]: field.one} for k in range(b)], b, field)
        return BialgebroidData(B.total, in_basis(B.base, Q), B.side,
                               B.s * Q, B.t * Q, B.coproduct_lift,
                               inverse(Q) * B.counit)
    return HopfAlgebroidData(side(Hd.leftb), side(Hd.rightb), Hd.antipode)


def test_verdicts_do_not_depend_on_the_base_basis(hopf_corpus):
    """Every corpus instance of dimension at most 6, and a seeded
    single-entry mutation of each (of a structure map that meets the base:
    s, t or eps on either side, or Delta_R, S), gets the same ok and the
    same tag set with the bases of both sides in a seeded permuted basis;
    the indices may differ."""
    rng = random.Random(14)
    checked = failing = moved_bases = 0
    for name, Hd in hopf_corpus:
        d = Hd.total.dim
        if d > 6:
            continue
        L, R = Hd.leftb, Hd.rightb
        maps = {"sL": L.s, "tL": L.t, "epsL": L.counit, "sR": R.s,
                "tR": R.t, "epsR": R.counit, "dR": R.coproduct_lift,
                "S": Hd.antipode}
        which = rng.choice(sorted(maps))
        M = maps[which]
        mutant = remut(Hd, which, rng.randrange(M.rows),
                       rng.randrange(M.cols), Hd.total.field.one)
        for label, inst in ((name, Hd), ("%s %s" % (name, which), mutant)):
            rep = check_hopf_algebroid(inst)
            moved = check_hopf_algebroid(permute_bases(inst, rng))
            assert (moved.ok, moved.tags()) == (rep.ok, rep.tags()), label
            checked += 1
            failing += not rep.ok
            moved_bases += inst.rightb.base.dim > 1
    assert checked >= 50 and failing >= 20 and moved_bases >= 20
