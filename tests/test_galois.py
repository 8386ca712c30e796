import pytest

from halab.fields import QQ
from halab.linalg import Mat, rank, Subspace
from halab.algebra import product_field_algebra
from halab.hopfalgebroid import HopfAlgebroidData, BialgebroidData
from halab.galois import (ComoduleAlgebraData, regular_comodule,
                          trivial_comodule, check_comodule, coinvariants,
                          phi_map, galois_maps, check_gal_factorization,
                          check_covering, ConvMorphism, conv_identity,
                          convolution_compose, check_cleft, LabelMismatch,
                          AntipodeNotInvertible, validate_cocycle,
                          crossed_product, check_composition,
                          verify_topological_equiv, BimoduleWitness,
                          HopfBimoduleWitness, verify_morita_data,
                          _bimodule_tensor, comodule_to_json,
                          comodule_from_json, cocycle_to_json,
                          cocycle_from_json, composition_to_json,
                          composition_from_json)
from halab.zoo import (cyclic_table, group_hopf_algebra, monoid_bialgebra,
                       and_monoid_table)

from conftest import cocycle_instances


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
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        e = conv_identity(D, "R")
        assert convolution_compose(e, e).map == e.map

    def test_label_mismatch(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        f = ConvMorphism(D, "R", "L", Mat.identity(2, QQ))
        g = ConvMorphism(D, "R", "L", Mat.identity(2, QQ))
        with pytest.raises(LabelMismatch):
            convolution_compose(f, g)      # codomain L != domain R

    def test_regular_kz2_is_cleft(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        c = ConvMorphism(D, "R", "L", Mat.identity(2, QQ))
        assert check_cleft(D, c).ok

    def test_wrong_witness_fails(self):
        D = regular_comodule(group_hopf_algebra(cyclic_table(2)))
        c = ConvMorphism(D, "R", "L", Mat.zero(2, 2, QQ))
        assert not check_cleft(D, c).ok


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
        Hz2 = group_hopf_algebra(cyclic_table(2))
        Hz4 = group_hopf_algebra(cyclic_table(4))
        D1 = regular_comodule(Hz2)
        D = regular_comodule(Hz4)
        B4 = Hz4.total
        phi = Mat.zero(4, 2, QQ)
        phi.data[0][0] = QQ.one
        phi.data[2][1] = QQ.one
        psi = Mat.zero(2, 4, QQ)
        for i in range(4):
            psi.data[i % 2][i] = QQ.one
        rho2 = Mat.zero(8, 4, QQ)
        for i in range(4):
            rho2.data[i * 2 + (i % 2)][i] = QQ.one
        D2 = ComoduleAlgebraData(Hz2, B4, phi, rho2, rho2)
        assert check_composition(D1, D, D2, phi, psi).ok

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
        Hz2 = group_hopf_algebra(cyclic_table(2))
        Hz4 = group_hopf_algebra(cyclic_table(4))
        D1 = regular_comodule(Hz2)
        D = regular_comodule(Hz4)
        phi = Mat.zero(4, 2, QQ)
        phi.data[0][0] = QQ.one
        phi.data[2][1] = QQ.one
        psi = Mat.zero(2, 4, QQ)
        for i in range(4):
            psi.data[i % 2][i] = QQ.one
        rho2 = Mat.zero(8, 4, QQ)
        for i in range(4):
            rho2.data[i * 2 + (i % 2)][i] = QQ.one
        D2 = ComoduleAlgebraData(Hz2, Hz4.total, phi, rho2, rho2)
        doc = composition_to_json(D1, D, D2, phi, psi)
        E1, E, E2, p, q, f1, f = composition_from_json(doc)
        assert p == phi and q == psi
        # inner and outer carry equal kZ2 payloads: parsed once, one memo
        assert E1.H is E2.H and E1._quotients is E2._quotients
        assert E.H is not E1.H
        assert check_composition(E1, E, E2, p, q, f1, f).ok
