"""End-to-end acceptance battery.

Each test below is one verdict line of the release checklist: structure
checkers green on the whole constructor corpus, seeded mutations isolated
to the right axiom tag, coinvariant/Galois behaviour on every comodule
instance, the worked small examples with their frozen numerology, and the
quantum-torus battery with exact tolerances.
"""

import random
from fractions import Fraction

from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat, Subspace, rank
from halab.algebra import (center, jacobson_radical, wedderburn_shape,
                           validate_algebra)
from halab.hopfalgebroid import check_hopf_algebroid
from halab.galois import (check_covering, check_gal_factorization,
                          check_composition, coinvariants, phi_map,
                          galois_maps, validate_cocycle, crossed_product,
                          regular_comodule, ComoduleAlgebraData)
from halab.zoo import (cyclic_table, klein_table, s3_table,
                       direct_product_table,
                       indiscrete_groupoid, function_algebroid,
                       reconstruct_groupoid, group_hopf_algebra,
                       regular_gset, disjoint_union_gset,
                       classical_covering_instance,
                       nontransitive_control_instance,
                       twisted_group_algebra, theorem1_automorphisms)
from halab.torus import (qt_mul, recompose, decompose, chi_product,
                         random_qt, omega_matrix, fiber_matrices,
                         best_fiber_variant, torus_galois_matrix)

from conftest import groupoid_corpus, cocycle_instances, cocycle_mutations
from test_hopfalgebroid import remut
from test_galois import sign_coaction, monoid_control
from test_zoo import same_groupoid


def test_criterion_01_structure_checker_green_on_corpus(hopf_corpus):
    for name, Hd in hopf_corpus:
        rep = check_hopf_algebroid(Hd)
        assert rep.ok and len(rep.entries) == 0, name


def test_criterion_02_mutations_isolate_axiom_tags():
    Hd = function_algebroid(indiscrete_groupoid(2))
    mutations = {
        "hopf:(a)": ("epsL", 0, 0, QQ.one),
        "hopf:(b)": ("dL", 1, 0, QQ.one),
        "hopf:(c)": ("S", 0, 3, QQ.one),
        "hopf:(d)": ("S", 0, 0, QQ.one),
        "hopf:S-bijective": ("S", 0, 0, -QQ.one),
    }
    for tag, (which, i, j, delta) in mutations.items():
        rep = check_hopf_algebroid(remut(Hd, which, i, j, delta),
                                   skip_bialgebroids=True)
        tags = {e["tag"] for e in rep.entries}
        assert tags == {tag}, (tag, sorted(tags))


def test_criterion_03_coinvariants_coincide_and_phi_invertible(
        comodule_corpus):
    assert len(comodule_corpus) >= 10
    for D in comodule_corpus:
        assert coinvariants(D, "R") == coinvariants(D, "L"), D.name
        Phi, Psi = phi_map(D)
        assert Phi * Psi == Mat.identity(Phi.rows, D.field), D.name
        assert Psi * Phi == Mat.identity(Psi.rows, D.field), D.name


def test_criterion_04_galois_maps_factor_through_phi(comodule_corpus):
    instances = list(comodule_corpus)
    instances.append(sign_coaction())
    instances.append(classical_covering_instance(
        cyclic_table(2),
        disjoint_union_gset(regular_gset(cyclic_table(2)), 2)))
    for D in instances:
        assert check_gal_factorization(D).ok, D.name


def test_criterion_05_regular_group_instances_are_uniform_coverings():
    tables = [cyclic_table(2), cyclic_table(3), cyclic_table(4),
              klein_table(), s3_table()]
    for table in tables:
        v = check_covering(regular_comodule(group_hopf_algebra(table)))
        assert v.is_covering, len(table)
        assert v.classification == "uniform"
        assert all(v.flags[k] for k in ("H_fgproj_over_base",
                                        "gal_R_bijective",
                                        "gal_L_bijective",
                                        "coinvariants_equal_A",
                                        "B_fgproj_over_A"))
        # the averaging idempotent always splits kG over Q
        assert v.centrally_connected is False
    g = galois_maps(monoid_control())
    assert not g["galR_bijective"]


def test_criterion_06_reconstruction_and_classical_coverings():
    for name, G in groupoid_corpus():
        G2 = reconstruct_groupoid(function_algebroid(G))
        assert same_groupoid(G, G2), name
    D = classical_covering_instance(
        cyclic_table(2),
        disjoint_union_gset(regular_gset(cyclic_table(2)), 2))
    v = check_covering(D)
    assert v.is_covering and v.classification == "local"
    A = Subspace.from_spanning(
        D.B.dim, [D.inclusionA.col(j) for j in range(D.inclusionA.cols)],
        D.field)
    assert coinvariants(D, "R") == A
    g = galois_maps(nontransitive_control_instance())
    assert not (g["galR_bijective"] and g["galL_bijective"])


def test_criterion_07_cocycle_condition_matches_associativity():
    instances = cocycle_instances()
    mutations = cocycle_mutations()
    assert len(instances) >= 6 and len(mutations) >= 6
    disagreements = []
    for C in instances + mutations:
        valid = validate_cocycle(C).ok
        assoc = validate_algebra(crossed_product(C)).ok
        if valid != assoc:
            disagreements.append(C.name)
    assert disagreements == []
    assert all(validate_cocycle(C).ok for C in instances)
    assert not any(validate_cocycle(C).ok for C in mutations)


def test_criterion_08_twisted_plane_numerology():
    T = twisted_group_algebra(2, 1)
    assert jacobson_radical(T).dim == 0
    assert center(T).dim == 1
    assert wedderburn_shape(T) == (2,)
    assert wedderburn_shape(twisted_group_algebra(2, 0)) == (1, 1, 1, 1)


def test_criterion_09_regular_automorphisms_recover_the_group():
    # the last three are above the old exhaustive search's |G| <= 8 cap
    for table in (cyclic_table(2), cyclic_table(3), klein_table(),
                  s3_table(), cyclic_table(12),
                  direct_product_table(s3_table(), cyclic_table(2)),
                  direct_product_table(cyclic_table(4), cyclic_table(4))):
        n = len(table)
        out = theorem1_automorphisms(table)
        assert len(out["perms"]) == n
        w = out["witness"]
        assert sorted(w) == list(range(n))
        for g in range(n):
            for h in range(n):
                assert out["table"][w[g]][w[h]] == w[table[g][h]]


def test_criterion_10_torus_battery():
    # frozen translation displays
    assert omega_matrix(3, 0) == [[0, None, None],
                                  [None, None, 1],
                                  [None, 2, None]]
    assert omega_matrix(3, 1) == [[None, 0, None],
                                  [1, None, None],
                                  [None, None, 2]]
    assert omega_matrix(3, 2) == [[None, None, 0],
                                  [None, 1, None],
                                  [2, None, None]]
    # decomposition oracle for the product
    rng = random.Random(20260824)
    for n in (2, 3, 4):
        for _ in range(500):
            f = random_qt(n, 1, rng)
            g = random_qt(n, 1, rng)
            assert recompose(chi_product(decompose(f), decompose(g))) \
                == qt_mul(f, g)
    # fiber representations on a 5x5 grid of base points
    grid = [Fraction(i, 4) for i in range(5)]
    for (n, m) in ((1, 2), (1, 3), (2, 3)):
        best_exact = True
        printed_fails = False
        for x in grid:
            for y in grid:
                rep = fiber_matrices(n, m, x, y)
                name = best_fiber_variant(rep)
                assert name is None or name.startswith("uniform")
                best_exact = best_exact and name is not None
                printed = rep["variants"]["printed-sub"]
                printed_fails = printed_fails or not printed["V_power"]
        assert best_exact, (n, m)
        # the as-printed shift matrix misses V^m = e^{2 pi i y}
        assert printed_fails, (n, m)
    # Galois-style determinants are units
    assert torus_galois_matrix(1)["det"] == {0: Fraction(1)}
    assert torus_galois_matrix(2)["det"] == {1: Fraction(-4)}
    for n in (1, 2, 3, 4):
        assert torus_galois_matrix(n)["unit"], n


def test_criterion_11_chain_of_coverings():
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
    # the factorization square holds on the nose
    assert psi * phi == D2.H.rightb.s * D1.H.rightb.counit
    # seeded mutation of psi breaks the second commuting square
    bad = psi.copy()
    bad.data[1][1] = bad.data[1][1] - QQ.one
    rep = check_composition(D1, D, D2, phi, bad)
    assert not rep.ok
    tags = {e["tag"] for e in rep.entries}
    assert any(t.startswith("composition:(ii)") for t in tags)
