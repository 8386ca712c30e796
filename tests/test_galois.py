import glob
import itertools
import os
import random

import pytest

from halab import algebra, galois
from halab.fields import QQ, CyclotomicField
from halab.linalg import (Mat, rank, inverse, Subspace, ShapeMismatch,
                          kron_cols)
from halab.algebra import (FDAlgebra, product_field_algebra, direct_product,
                           central_idempotents_split, split_central_idempotent,
                           center, subalgebra_on_rows, NotSplit, Inconclusive)
from halab.hopfalgebroid import (HopfAlgebroidData, BialgebroidData,
                                 check_geometric_morphism)
from halab.bimod import tensor_over
from halab.galois import (ComoduleAlgebraData, regular_comodule,
                          trivial_comodule, check_comodule, coinvariants,
                          phi_map, galois_maps, check_gal_factorization,
                          check_covering, check_cleft,
                          AntipodeNotInvertible, validate_cocycle,
                          crossed_product, check_composition,
                          verify_topological_equiv, BimoduleWitness,
                          HopfBimoduleWitness, verify_morita_data,
                          _bimodule_tensor, normal_basis)
from halab.cli import (comodule_to_json, comodule_from_json, cocycle_to_json,
                       cocycle_from_json, composition_to_json,
                       composition_from_json, load, shaped_mat_from_json)
from halab.zoo import (cyclic_table, group_hopf_algebra, monoid_bialgebra,
                       and_monoid_table, classical_covering_instance,
                       disjoint_union_gset, regular_gset, groupoid_algebra,
                       indiscrete_groupoid, trivial_table,
                       coupled_from_character, nontransitive_control_instance)
from halab.reports import ViolationReport

from conftest import cocycle_instances, comodule_instances, sparse
from test_algebra import in_basis


DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "documents")
# B = Q(i) = Q[x]/(x^2 + 1): a field that does not split over Q
QI = FDAlgebra(2, [[{0: 1}, {1: 1}], [{1: 1}, {0: -1}]], {0: 1})


def shipped_comodules():
    """The comodule-algebra documents under documents/, by file name."""
    out = []
    for path in sorted(glob.glob(os.path.join(DOCS, "*.json"))):
        doc = load(path)
        if doc["kind"] == "comodule_algebra":
            out.append((os.path.basename(path),
                        comodule_from_json(doc["payload"],
                                           field=doc["field"])))
    return out


def free_z2_covering(points):
    """Functions on the free Z2-set of the given (even) number of points
    over functions on its orbits."""
    return classical_covering_instance(
        cyclic_table(2),
        disjoint_union_gset(regular_gset(cyclic_table(2)), points // 2))


def over_k(B):
    """B as the trivial comodule over k (a covering of a point)."""
    return trivial_comodule(group_hopf_algebra(cyclic_table(1), B.field), B)


def multiplication(A, sq):
    """The product of A on the lifts of the coordinates of the quotient sq
    of A (x) A."""
    I = Mat.identity(A.dim, A.field)
    return A.convolve(I, I, Mat.from_cols(sq.section_cols, sq.ambient_dim,
                                          A.field))


def monoid_control():
    """Regular coaction of the AND-monoid bialgebra on itself; the
    identity stands in for the (nonexistent) antipode and is never used
    by the Galois maps."""
    Bb = monoid_bialgebra(and_monoid_table(), 1)
    H = Bb.total
    leftb = BialgebroidData(H, Bb.base, "left", Bb.s, Bb.t,
                            Bb.coproduct_lift, Bb.counit)
    Hd = HopfAlgebroidData(leftb, Bb, Mat.identity(H.dim, QQ),
                           name="monoid control")
    return ComoduleAlgebraData(Hd, H, Mat.from_cols([H.unit], H.dim, QQ),
                               Bb.coproduct_lift, Bb.coproduct_lift,
                               name="monoid regular")


def sign_coaction():
    """kZ4 coacted on by kZ2 through the parity of the exponent."""
    Hz2 = group_hopf_algebra(cyclic_table(2))
    B4 = group_hopf_algebra(cyclic_table(4)).total
    rho = Mat.zero(8, 4, QQ)
    for i in range(4):
        rho.data[i * 2 + (i % 2)][i] = QQ.one
    inclA = Mat.zero(4, 2, QQ)
    inclA.data[0][0] = QQ.one
    inclA.data[2][1] = QQ.one
    return ComoduleAlgebraData(Hz2, B4, inclA, rho, rho,
                               name="parity coaction")


def z2_z4_chain():
    """k => kZ2 => kZ4 (the regular coverings), with kZ4 over kZ2 through
    the parity coaction: (D1, D, D2, phi, psi)."""
    Hz2 = group_hopf_algebra(cyclic_table(2))
    Hz4 = group_hopf_algebra(cyclic_table(4))
    phi = Mat.from_cols([{0: QQ.one}, {2: QQ.one}], 4, QQ)
    psi = Mat.from_cols([{i % 2: QQ.one} for i in range(4)], 2, QQ)
    rho2 = Mat.from_cols([{i * 2 + i % 2: QQ.one} for i in range(4)], 8, QQ)
    D2 = ComoduleAlgebraData(Hz2, Hz4.total, phi, rho2, rho2)
    return regular_comodule(Hz2), regular_comodule(Hz4), D2, phi, psi


def prop4_chain():
    """A chain whose outer symmetry, the coupled kZ2 sign pair, is not a
    Hopf algebra over k, so check_composition decides its factorization
    square through _prop4_square: k over k, then the regular comodule of
    the pair twice, with phi the unit and psi the identity."""
    D1 = trivial_comodule(group_hopf_algebra(trivial_table()),
                          product_field_algebra(1))
    D = regular_comodule(HopfAlgebroidData(*coupled_from_character(
        group_hopf_algebra(cyclic_table(2)), [1, -1])))
    return D1, D, D, Mat.from_cols([{0: QQ.one}], 2, QQ), \
        Mat.identity(2, QQ)


class TestComodules:
    def test_corpus_passes(self, comodule_corpus):
        for D in comodule_corpus:
            assert check_comodule(D).ok, D.name

    def test_broken_coaction_caught(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        rho = D.rhoR_lift.copy()
        rho.data[0][1] = rho.data[0][1] + QQ.one
        bad = ComoduleAlgebraData(D.H, D.B, D.inclusionA, rho, D.rhoL_lift)
        assert not check_comodule(bad).ok

    def test_a_coaction_lift_of_the_wrong_shape_is_rejected(self):
        """A coaction lift with one extra empty row is a ShapeMismatch
        where the lifts enter check_comodule, before any comparison."""
        D = regular_comodule(group_hopf_algebra(cyclic_table(3)))
        for which in ("rhoR_lift", "rhoL_lift"):
            rho = getattr(D, which)
            lifts = {"rhoR_lift": D.rhoR_lift, "rhoL_lift": D.rhoL_lift,
                     which: Mat.from_cols(rho.sparse_cols(), rho.rows + 1,
                                          QQ)}
            bad = ComoduleAlgebraData(D.H, D.B, D.inclusionA, name="bad",
                                      etaR=D.etaR, actL=D.actL, **lifts)
            with pytest.raises(ShapeMismatch):
                check_comodule(bad)

    def test_a_wrong_base_action_fails_module_compatibility(self):
        """A wrong entry of actL fails comodule:module-compat with the
        entries, in order, of a loop per side that builds the
        multiplications by t_L and s_R itself, where check_comodule reads
        them as L.acts()[0] and R.acts()[0]."""
        D = regular_comodule(groupoid_algebra(indiscrete_groupoid(2)))
        actL = list(D.actL)
        cols = actL[1].sparse_cols()
        actL[1] = Mat.from_cols([{**cols[0], 0: cols[0].get(0, 0) + 1}]
                                + cols[1:], actL[1].rows, QQ)
        bad = ComoduleAlgebraData(D.H, D.B, D.inclusionA, D.rhoR_lift,
                                  D.rhoL_lift, name="bad", etaR=D.etaR,
                                  actL=actL)
        H, R, L = bad.H.total, bad.H.rightb, bad.H.leftb
        I_B = Mat.identity(bad.B.dim, QQ)
        two_blocks = ViolationReport()
        for l in range(L.base.dim):
            tl = H.left_mult_matrix(L.t.col(l))
            two_blocks.require(bad.tensorRH().apply(bad.rhoR_lift * actL[l])
                               == bad.tensorRH().apply(
                                   kron_cols(I_B, tl, bad.rhoR_lift)),
                               "comodule:module-compat:R", (l,))
        for r in range(R.base.dim):
            sr = H.right_mult_matrix(R.s.col(r))
            two_blocks.require(bad.tensorLH().apply(bad.rhoL_lift
                                                    * bad.actR[r])
                               == bad.tensorLH().apply(
                                   kron_cols(I_B, sr, bad.rhoL_lift)),
                               "comodule:module-compat:L", (r,))
        assert not two_blocks.ok
        compat = [e for e in check_comodule(bad).to_json()
                  if e["tag"].startswith("comodule:module-compat:")]
        assert compat == two_blocks.to_json()

    def test_trivial_coaction_has_full_coinvariants(self):
        Hz2 = group_hopf_algebra(cyclic_table(2))
        B4 = group_hopf_algebra(cyclic_table(4)).total
        D = trivial_comodule(Hz2, B4)
        assert check_comodule(D).ok
        assert coinvariants(D, "R").dim == 4

    def test_regular_coinvariants_are_scalars(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(3)))
        cR = coinvariants(D, "R")
        assert cR.dim == 1
        assert cR.contains(D.B.unit)

    def test_parity_coinvariants_are_even_part(self):
        D = sign_coaction()
        assert check_comodule(D).ok
        cR = coinvariants(D, "R")
        expect = Subspace.from_spanning(4, [D.B.basis_vec(0),
                                            D.B.basis_vec(2)], QQ)
        assert cR == expect == coinvariants(D, "L")


class TestPhiAndGalois:
    def test_phi_mutually_inverse(self, comodule_corpus):
        for D in comodule_corpus:
            Phi, Psi = phi_map(D)
            n = Phi.rows
            assert Phi * Psi == Mat.identity(n, D.field), D.name
            assert Psi * Phi == Mat.identity(Psi.rows, D.field), D.name

    def test_phi_needs_invertible_antipode(self):
        with pytest.raises(AntipodeNotInvertible):
            D = monoid_control()
            bad = ComoduleAlgebraData(
                HopfAlgebroidData(D.H.leftb, D.H.rightb,
                                  Mat.zero(3, 3, QQ)),
                D.B, D.inclusionA, D.rhoR_lift, D.rhoL_lift)
            phi_map(bad)

    def test_factorization_on_corpus(self, comodule_corpus):
        for D in comodule_corpus:
            assert check_gal_factorization(D).ok, D.name

    def test_regular_galois_bijective(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        g = galois_maps(D)
        assert g["galR_bijective"] and g["galL_bijective"]
        assert g["galR"].rows == 4     # B (x)_A B on a 4-dim presentation

    def test_monoid_control_rank_deficient(self):
        D = monoid_control()
        assert check_comodule(D).ok
        g = galois_maps(D)
        assert not g["galR_bijective"]


class TestCovering:
    def test_uniform_point_covering(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(3)))
        v = check_covering(D)
        assert v.is_covering
        assert v.classification == "uniform"
        # kG over Q always contains the averaging idempotent, so the total
        # algebra is never connected
        assert v.centrally_connected is False

    def test_split_idempotent_decides_disconnected(self):
        """kZ_n over Q (n = 3..6) does not split, but x^n - 1 has the
        coprime factors x - 1, x + 1 when n is even, and their cofactor:
        one step returns their idempotents, the averaging and the sign
        idempotent and the rest, so not connected is exact."""
        for n in range(3, 7):
            H = group_hopf_algebra(cyclic_table(n)).total
            with pytest.raises(NotSplit):
                central_idempotents_split(H)
            zs = [H.basis_vec(i) for i in range(H.dim)]
            pieces = split_central_idempotent(H, zs, H.unit)
            roots = [{k: QQ.div(1, n) for k in range(n)}]
            if n % 2 == 0:
                roots.append({k: QQ.div((-1) ** k, n) for k in range(n)})
            assert len(pieces) == len(roots) + 1
            assert all(e in pieces for e in roots)
            total = {}
            for i, e in enumerate(pieces):
                assert H.mul_vec(e, e) == e and e != H.unit
                assert all(H.mul_vec(e, z) == H.mul_vec(z, e) for z in zs)
                assert all(not H.mul_vec(e, f) for f in pieces[i + 1:])
                for k, c in e.items():
                    total[k] = total.get(k, 0) + c
            assert {k: c for k, c in total.items() if c} == H.unit
            v = check_covering(regular_comodule(
                group_hopf_algebra(cyclic_table(n))))
            assert v.centrally_connected is False

    def test_unsplit_field_is_inconclusive(self):
        """B = Q(i) = Q[x]/(x^2 + 1), as the trivial comodule over k: its
        centre is a field that does not split over Q, so no two coprime
        factors are found and the check is inconclusive instead of not
        connected."""
        D = over_k(QI)
        with pytest.raises(NotSplit):
            central_idempotents_split(QI)
        with pytest.raises(NotSplit):
            algebra.coprime_factors(QI, range(QI.dim), QI.unit)
        with pytest.raises(Inconclusive, match="central connectedness"):
            check_covering(D)

    def test_a_split_does_not_depend_on_the_basis_order(self):
        """B = Q(i) (x) Q(i) is Q(i) x Q(i).  x (x) 1 and 1 (x) x have the
        minimal polynomial t^2 + 1, which does not split over Q, and
        x (x) x has t^2 - 1.  In either order of the centre's basis the
        one step returns (1 + x (x) x)/2 and (1 - x (x) x)/2, so B is
        not connected; Q(i) alone stays inconclusive."""
        B = algebra.tensor_algebra(QI, QI)
        half = QQ.one / 2
        expected = [{0: half, 3: -half}, {0: half, 3: half}]
        zs = [B.basis_vec(i) for i in range(B.dim)]   # 1, 1x, x1, xx
        for order in (zs, zs[::-1]):
            pieces = split_central_idempotent(B, order, B.unit)
            assert sorted(pieces, key=lambda e: e[3]) == expected
        assert check_covering(over_k(B)).centrally_connected is False
        with pytest.raises(NotSplit):
            split_central_idempotent(QI, [QI.basis_vec(0), QI.basis_vec(1)],
                                     QI.unit)
        with pytest.raises(Inconclusive, match="central connectedness"):
            check_covering(over_k(QI))

    def test_every_order_of_a_skew_basis_is_not_connected(self):
        """B = Q(i) x Q(sqrt 2) in the basis (1, 1), (i, sqrt 2),
        (i, -sqrt 2), (1 + i, 0).  The middle two have the minimal
        polynomial (t^2 + 1)(t^2 - 2), one factor with no rational root,
        and (1 + i, 0) has t (t^2 - 2t + 2), two coprime factors.  A split
        that gave up at the first polynomial that does not split was
        Inconclusive in 16 of the 24 orders; every order, and each of 12
        seeded bases of Q(i) x Q(sqrt 2), is decided as not connected."""
        QS2 = FDAlgebra(2, [[{0: 1}, {1: 1}], [{1: 1}, {0: 2}]], {0: 1})
        K = direct_product(QI, QS2)  # (1, 0), (i, 0), (0, 1), (0, sqrt 2)
        skew = in_basis(K, Mat.from_cols(
            [{0: 1, 2: 1}, {1: 1, 3: 1}, {1: 1, 3: -1}, {0: 1, 1: 1}],
            4, QQ))
        for order in itertools.permutations(range(4)):
            B = in_basis(skew, Mat.from_cols([{i: 1} for i in order], 4, QQ))
            assert check_covering(over_k(B)).centrally_connected is False
        rng, bases = random.Random(5), 0
        while bases < 12:
            P = Mat.from_cols([sparse([rng.choice([-1, 0, 0, 1, 2])
                                       for _ in range(4)])
                               for _ in range(4)], 4, QQ)
            if rank(P) == 4:
                bases += 1
                B = in_basis(K, P)
                assert check_covering(over_k(B)).centrally_connected is False

    def test_a_large_constant_is_split_at_once(self):
        """k^2 in the basis (1, 1), (0, N), as the trivial comodule over k:
        (0, N) has the minimal polynomial t (t - N), whose rational roots
        come from the divisors of N.  They are found up to sqrt(N), so
        N = 10^10 is decided as N = 10 is: not connected."""
        k2 = product_field_algebra(2)
        for N in (10, 10 ** 10):
            B = in_basis(k2, Mat.from_cols([{0: 1, 1: 1}, {1: N}], 2, QQ))
            assert check_covering(over_k(B)).centrally_connected is False

    def test_connectedness_builds_no_idempotent(self, monkeypatch):
        """Connectedness asks only whether the unit of Z(B) has two coprime
        factors: on regular kZ12 over Q(zeta_12) no CRT idempotent is
        built, where building the split took 12 extended gcds."""
        calls = []

        def counting(*args):
            calls.append(args)
            return ext_gcd(*args)
        ext_gcd = algebra._poly_ext_gcd
        monkeypatch.setattr(algebra, "_poly_ext_gcd", counting)
        D = regular_comodule(group_hopf_algebra(cyclic_table(12),
                                                CyclotomicField(12)))
        assert check_covering(D).centrally_connected is False
        assert calls == []

    def test_connectedness_matches_the_full_decomposition(
            self, comodule_corpus):
        """check_covering stops at the first split of the unit of Z(B);
        its verdict equals that of the full decomposition of Z(B).  Where
        the full decomposition raises NotSplit, it equals the verdict of
        coprime_factors over the reversed basis of the centre."""
        def reference(D):
            Zalg, _ = subalgebra_on_rows(D.B, center(D.B))
            try:
                return len(central_idempotents_split(Zalg)) == 1
            except NotSplit:
                pass
            try:
                return algebra.coprime_factors(
                    Zalg, range(Zalg.dim)[::-1], Zalg.unit) is None
            except NotSplit:
                return "inconclusive"

        def shipped(D):
            try:
                return check_covering(D).centrally_connected
            except Inconclusive as exc:
                assert "central connectedness" in str(exc)
                return "inconclusive"

        cases = [(D.name, D) for D in comodule_corpus] + shipped_comodules()
        cases += [("k^%d" % n, over_k(product_field_algebra(n)))
                  for n in range(1, 13)]
        cases += [("kZ%d/Q(zeta_%d)" % (n, n), regular_comodule(
            group_hopf_algebra(cyclic_table(n), CyclotomicField(n))))
            for n in (4, 6, 8, 12)]
        cases += [("free Z2-set of %d" % n, free_z2_covering(n))
                  for n in (4, 8, 12)]
        cases += [("Q(i)", over_k(QI)),
                  ("Q x Q(i)", over_k(direct_product(
                      product_field_algebra(1), QI)))]
        verdicts = {}
        for name, D in cases:
            verdicts[name] = shipped(D)
            assert verdicts[name] == reference(D), name
        assert verdicts["k^1"] is True
        assert verdicts["Q(i)"] == "inconclusive"
        # the unit of Q x Q(i) splits, and then the Q(i) piece does not
        QxQI = direct_product(product_field_algebra(1), QI)
        assert verdicts["Q x Q(i)"] is False
        with pytest.raises(NotSplit):
            central_idempotents_split(QxQI)
        assert len(split_central_idempotent(
            QxQI, [QxQI.basis_vec(i) for i in range(3)], QxQI.unit)) == 2

    @pytest.mark.parametrize("build, parent_calls", [
        (lambda: free_z2_covering(8), 28),
        (lambda: dict(shipped_comodules())["z2_covering.json"], 6)],
        ids=["free Z2-set of 8", "z2_covering.json"])
    def test_connectedness_takes_one_minimal_polynomial(
            self, monkeypatch, build, parent_calls):
        """One split of the unit decides connectedness; the full
        decomposition took parent_calls minimal polynomials here."""
        D, calls = build(), []

        def counting(*args):
            calls.append(args)
            return minimal_polynomial(*args)
        minimal_polynomial = algebra.minimal_polynomial
        monkeypatch.setattr(algebra, "minimal_polynomial", counting)
        assert check_covering(D).centrally_connected is False
        assert len(calls) == 1 < parent_calls

    def test_parity_instance_is_stratified(self):
        v = check_covering(sign_coaction())
        assert v.is_covering
        assert v.classification == "stratified"

    def test_verdict_serializes(self):
        v = check_covering(regular_comodule(
            group_hopf_algebra(cyclic_table(2))))
        doc = v.to_json()
        assert doc["classification"] == "uniform"
        assert set(doc) >= {"H_fgproj_over_base", "gal_R_bijective",
                            "gal_L_bijective", "coinvariants_equal_A",
                            "B_fgproj_over_A", "centrally_connected"}


class TestConvolutionAndCleft:
    def test_identity_is_neutral(self):
        """e = eta_R eps_R is neutral for the convolution over Delta_R."""
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        e = D.etaR * D.H.rightb.counit
        assert D.B.convolve(e, e, D.H.rightb.coproduct_lift) == e

    def test_regular_kz2_is_cleft(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        assert check_cleft(D, Mat.identity(2, QQ)).ok

    def test_wrong_witness_fails(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        assert not check_cleft(D, Mat.zero(2, 2, QQ)).ok


def _identity_witnesses():
    """kz2_cleft.json with its witness and each corpus comodule with the
    identity witness, as (name, D, c)."""
    payload = load(os.path.join(DOCS, "kz2_cleft.json"))["payload"]
    D = comodule_from_json(payload)
    c = shaped_mat_from_json(payload, "cleft_witness", D.B.dim,
                             D.H.total.dim, D.field)
    yield "kz2_cleft.json", D, c
    for D in comodule_instances():
        yield D.name, D, Mat.identity(D.B.dim, D.field)


# the corpus comodules whose identity witness fails cleft:bimodule and
# cleft:invertibility
NOT_CLEFT = {"regular function algebroid", "regular smash kZ2 # 1",
             "regular smash k2 # Z2 swap"}


class TestNormalBasis:
    """Theta(a (x) h) = a c(h) on A (x)_L H decides the normal basis."""

    def test_theta_is_a_normal_basis_where_the_witness_cleaves(self):
        cleft = 0
        for name, D, c in _identity_witnesses():
            answers = normal_basis(D, c)
            if name in NOT_CLEFT:
                assert not answers["descends"], name
                assert set(check_cleft(D, c).tags()) == {
                    "cleft:bimodule", "cleft:invertibility"}, name
            else:
                assert answers == {"descends": True, "colinear": True,
                                   "bijective": True}, name
                assert check_cleft(D, c).ok, name
                cleft += 1
        assert cleft == 8

    def test_a_theta_that_is_not_bijective_is_reported(self, monkeypatch):
        """Each false answer is one cleft:normal-basis entry naming it."""
        import halab.galois
        D, c = next(_identity_witnesses())[1:]
        monkeypatch.setattr(halab.galois, "normal_basis", lambda D, c: {
            "descends": True, "colinear": True, "bijective": False})
        rep = check_cleft(D, c)
        assert rep.to_json() == [{"tag": "cleft:normal-basis",
                                  "indices": None,
                                  "note": "Theta bijective: false"}]


class TestCocycles:
    def test_trivial_cocycle_gives_tensor_dimension(self):
        C = cocycle_instances()[0]
        X = crossed_product(C)
        assert X.dim == C.N.dim * C.BL.total.dim
        assert validate_cocycle(C).ok

    def test_sign_cocycle_twists_the_square(self):
        C = cocycle_instances()[1]      # Z2 with sigma(g, g) = -1
        X = crossed_product(C)
        # (1 # g)(1 # g) = sigma(g, g) 1 # e = -1
        gg = X.mul_vec(X.basis_vec(1), X.basis_vec(1))
        assert gg == {0: -QQ.one}


class TestComposition:
    def test_chain_passes(self):
        assert check_composition(*z2_z4_chain()).ok

    def test_prop4_square_is_reached(self, monkeypatch):
        """The coupled sign pair is no Hopf algebra over k, so the chain's
        factorization square is _prop4_square's: it holds for phi the
        unit, and phi = e_1 fails it on both sides."""
        calls = []
        square = galois._prop4_square

        def recording(*args):
            calls.append(args[1:])
            return square(*args)
        monkeypatch.setattr(galois, "_prop4_square", recording)
        D1, D, D2, phi, psi = prop4_chain()
        assert check_composition(D1, D, D2, phi, psi).ok
        assert len(calls) == 1
        e1 = Mat.from_cols([{1: QQ.one}], 2, QQ)
        tags = check_composition(D1, D, D2, e1, psi).tags()
        assert {"composition:prop4:R", "composition:prop4:L"} <= set(tags)
        assert len(calls) == 2

    def test_morita_self_equivalence(self):
        Hd = group_hopf_algebra(cyclic_table(2))
        D = regular_comodule(Hd)
        B, H = D.B, Hd.total
        lac = [B.left_mult_matrix(B.basis_vec(i)) for i in range(B.dim)]
        rac = [B.right_mult_matrix(B.basis_vec(i)) for i in range(B.dim)]
        X = BimoduleWitness(B, B, B.dim, lac, rac)
        Y = BimoduleWitness(B, B, B.dim, lac, rac)
        Hl = [H.left_mult_matrix(H.basis_vec(i)) for i in range(H.dim)]
        Hr = [H.right_mult_matrix(H.basis_vec(i)) for i in range(H.dim)]
        Ubi = BimoduleWitness(H, H, H.dim, Hl, Hr)
        dR = Hd.rightb.coproduct_lift
        U = HopfBimoduleWitness(Hd, Hd, Ubi, dR, dR)
        V = HopfBimoduleWitness(Hd, Hd, Ubi, dR, dR)
        sqXY = _bimodule_tensor(X, Y)
        isoXY = multiplication(B, sqXY)
        sqUV = _bimodule_tensor(Ubi, Ubi)
        isoUV = multiplication(H, sqUV)
        isos = {"XY": isoXY, "YX": isoXY,
                "Xcollapse": Mat.identity(B.dim, QQ),
                "Ycollapse": Mat.identity(B.dim, QQ),
                "UV": isoUV, "VU": isoUV,
                "Ucollapse": Mat.identity(H.dim, QQ),
                "Vcollapse": Mat.identity(H.dim, QQ)}
        assert verify_morita_data(D, D, X, Y, U, V, isos).ok

    def test_topological_self_equivalence(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        I2 = Mat.identity(2, QQ)
        assert verify_topological_equiv(D, D, I2, I2, I2).ok
        bad = Mat.zero(2, 2, QQ)
        bad.data[0][0] = QQ.one
        assert not verify_topological_equiv(D, D, bad, I2, I2).ok


class TestSerialization:
    def test_comodule_round_trip(self):
        D = sign_coaction()
        back = comodule_from_json(comodule_to_json(D))
        assert back.rhoR_lift == D.rhoR_lift
        assert back.inclusionA == D.inclusionA
        assert check_comodule(back).ok

    def test_cocycle_round_trip(self):
        C = cocycle_instances()[4]
        back = cocycle_from_json(cocycle_to_json(C))
        assert back.sigma == C.sigma
        assert validate_cocycle(back).ok

    def test_composition_round_trip(self):
        D1, D, D2, phi, psi = z2_z4_chain()
        doc = composition_to_json(D1, D, D2, phi, psi)
        E1, E, E2, p, q, f1, f = composition_from_json(doc)
        assert p == phi and q == psi
        # inner and outer carry equal kZ2 payloads: parsed once, one memo
        assert E1.H is E2.H and E1._quotients is E2._quotients
        assert E.H is not E1.H
        assert check_composition(E1, E, E2, p, q, f1, f).ok


# ---------------------------------------------------------------------------
# references: the Galois maps and Phi lifted at every ambient column, and
# the composition squares as products of projected maps

def reference_galois_pair(D):
    """(gal_R, gal_L) from the lifts of a (x) b at all dB^2 columns, built
    with multiplication matrices and kron_cols."""
    B, dB = D.B, D.B.dim
    I_H = Mat.identity(D.H.total.dim, D.field)
    sqAA = D.tensorAA()
    lift_R, lift_L = {}, {}
    for a in range(dB):
        for b, v in enumerate(kron_cols(B.left_mult_matrix(a), I_H,
                                        D.rhoR_lift)):
            lift_R[a * dB + b] = v
    for b in range(dB):
        for a, v in enumerate(kron_cols(B.right_mult_matrix(b), I_H,
                                        D.rhoL_lift)):
            lift_L[a * dB + b] = v
    return (D.tensorRH().apply([lift_R[c] for c in sqAA.index]),
            D.tensorLH().apply([lift_L[c] for c in sqAA.index]))


def reference_phi_map(D):
    """(Phi, Psi) from the lifts of m (x) h at all dB * dH columns."""
    H, S = D.H.total, D.H.antipode
    Sinv = inverse(S)
    I_B = Mat.identity(D.B.dim, D.field)
    phi_lift, psi_lift = {}, {}
    for h in range(H.dim):
        Rs = H.right_mult_matrix(S.col(h))
        Ls = H.left_mult_matrix(Sinv.col(h))
        for b, v in enumerate(kron_cols(I_B, Rs, D.rhoL_lift)):
            phi_lift[b * H.dim + h] = v
        for b, v in enumerate(kron_cols(I_B, Ls, D.rhoR_lift)):
            psi_lift[b * H.dim + h] = v
    sqR, sqL = D.tensorRH(), D.tensorLH()
    return (sqL.apply([phi_lift[c] for c in sqR.index]),
            sqR.apply([psi_lift[c] for c in sqL.index]))


def reference_composition(D1, D, D2, phi, psi):
    """check_composition with the Galois squares decided as products of
    the projected Galois maps of all three coverings, and the factorization
    square built per side and per column."""
    rep = ViolationReport()
    field = D.field
    iota = D2.inclusionA
    f1 = Mat.identity(D1.H.rightb.base.dim, field)
    f = Mat.identity(D.H.rightb.base.dim, field)
    rep.merge(check_geometric_morphism(f1, phi, D1.H, D.H))
    rep.merge(check_geometric_morphism(f, psi, D.H, D2.H))
    rep.require(rank(phi) == phi.cols, "composition:phi-injective")
    rep.require(rank(psi) == psi.rows, "composition:psi-surjective")
    I_B2 = Mat.identity(D.B.dim, field)
    g1, g, g2 = (dict(zip("RL", reference_galois_pair(E)))
                 for E in (D1, D, D2))
    Q1AA, QAA, Q2AA = D1.tensorAA(), D.tensorAA(), D2.tensorAA()
    for side in ("R", "L"):
        Q1BH, QBH, Q2BH = (E.tensorRH() if side == "R" else E.tensorLH()
                           for E in (D1, D, D2))
        lhs = QBH.apply(kron_cols(iota, phi, Q1BH.section_cols)) * g1[side]
        rhs = g[side] * QAA.apply(kron_cols(iota, iota, Q1AA.section_cols))
        rep.require(lhs == rhs, "composition:(i):%s" % side)
        surj = Q2AA.apply(QAA.section_cols)
        lhs = Q2BH.apply(kron_cols(I_B2, psi, QBH.section_cols)) * g[side]
        rep.require(lhs == g2[side] * surj, "composition:(ii):%s" % side)
    if (D1.H.rightb.base.dim == 1 and D2.H.rightb.base.dim == 1
            and galois._bialgebroids_coincide(D1.H)
            and galois._bialgebroids_coincide(D2.H)):
        rep.require(psi * phi == D2.H.rightb.s * D1.H.rightb.counit,
                    "composition:prop5")
        return rep
    B1, H2 = D1.B, D2.H.total
    for side in ("R", "L"):
        Q1BH = D1.tensorRH() if side == "R" else D1.tensorLH()
        H2b = D2.H.rightb if side == "R" else D2.H.leftb
        H1b = D1.H.rightb if side == "R" else D1.H.leftb
        right_acts = [B1.right_mult_matrix(b) for b in range(B1.dim)]
        left_acts = [H2.left_mult_matrix(H2b.s.col(b))
                     for b in range(B1.dim)]
        T = tensor_over([B1.dim, H2.dim], [(right_acts, left_acts)], field)
        se = H2b.s * (D1.etaR * H1b.counit)
        I_B1, lifts = Mat.identity(B1.dim, field), Q1BH.section_cols
        rep.require(T.apply(kron_cols(I_B1, psi * phi, lifts))
                    == T.apply(kron_cols(I_B1, se, lifts)),
                    "composition:prop4:%s" % side)
    return rep


def bumped(M, i, j):
    """M with 1 added to its entry (i, j)."""
    out = M.copy()
    out.data[i][j] = out.data[i][j] + out.field.one
    return out


def composition_cases():
    """Criterion 11's chain, the shipped chain documents and the prop4
    chain, each with its phi and psi bumped at two entries apiece."""
    chains = [("z2_z4", z2_z4_chain()), ("prop4", prop4_chain())]
    for name in ("chain_z2_z4.json", "mut_composition_psi.json"):
        doc = load(os.path.join(DOCS, name))
        chains.append((name, composition_from_json(doc["payload"],
                                                   field=doc["field"])[:5]))
    cases = []
    for name, (D1, D, D2, phi, psi) in chains:
        cases.append((name, (D1, D, D2, phi, psi)))
        for which, M in (("phi", phi), ("psi", psi)):
            for i, j in ((0, 0), (M.rows - 1, M.cols - 1)):
                args = [D1, D, D2, phi, psi]
                args[3 if which == "phi" else 4] = bumped(M, i, j)
                cases.append(("%s %s+e%d,%d" % (name, which, i, j), args))
    return cases


def galois_corpus(comodule_corpus):
    return (list(comodule_corpus) + [D for _, D in shipped_comodules()]
            + [sign_coaction(), monoid_control(), free_z2_covering(4),
               nontransitive_control_instance()])


class TestLiftsAgainstReferences:
    def test_galois_maps_match_the_all_columns_reference(self,
                                                         comodule_corpus):
        for D in galois_corpus(comodule_corpus):
            g = galois_maps(D)
            assert (g["galR"], g["galL"]) == reference_galois_pair(D), D.name

    def test_phi_map_matches_the_all_columns_reference(self,
                                                       comodule_corpus):
        for D in galois_corpus(comodule_corpus):
            assert phi_map(D) == reference_phi_map(D), D.name

    def test_lifts_are_built_at_the_section_columns_alone(
            self, comodule_corpus, monkeypatch):
        """galois_maps lifts each side once per coordinate of B (x)_A B,
        where the reference lifts all dB^2 columns."""
        calls = []
        lift = galois._gal_lift

        def counting(*args):
            calls.append(args[1])
            return lift(*args)
        monkeypatch.setattr(galois, "_gal_lift", counting)
        for D in comodule_corpus:
            del calls[:]
            galois_maps(D)
            n = D.tensorAA().dim
            assert calls == ["R"] * n + ["L"] * n, D.name

    def test_composition_reports_match_the_projected_squares(self):
        cases = composition_cases()
        assert len(cases) == 20
        reached = set()
        for name, args in cases:
            new = check_composition(*args).entries
            assert new == reference_composition(*args).entries, name
            reached.update(e["tag"] for e in new)
        # every square fails on some case, and is reported alike there
        assert {"composition:" + t for t in (
            "(i):R", "(i):L", "(ii):R", "(ii):L", "prop4:R", "prop4:L",
            "prop5")} <= reached
