import hashlib
import json

import pytest

from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat, rank
from halab.algebra import (group_algebra, product_field_algebra,
                           validate_algebra, center, wedderburn_shape,
                           NotAGroup)
from halab.hopfalgebroid import check_hopf_algebroid, check_bialgebroid
from halab.zoo import (FiniteGroupoid, InvalidGroupoid, NotAnAction, NotFree,
                       NotACharacter, GSet, cyclic_table, klein_table,
                       trivial_table, group_groupoid, discrete_groupoid,
                       indiscrete_groupoid, action_groupoid, deck_groupoid,
                       regular_gset, disjoint_union_gset, groupoid_algebra,
                       function_algebroid, group_hopf_algebra,
                       monoid_bialgebra, and_monoid_table,
                       reconstruct_groupoid, coupled_from_character,
                       groupoid_weak_hopf, check_weak_hopf,
                       weak_hopf_to_algebroid, WeakHopfData, smash_algebroid,
                       twisted_group_algebra, classical_covering_instance,
                       nontransitive_control_instance,
                       theorem1_automorphisms, example7_extract,
                       s3_table)

from conftest import groupoid_corpus, group_tables, smash_instances


def _canonical(obj):
    """obj with every dict key and scalar written by str (so 2 and
    Fraction(2) agree) and every tuple as a list."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    return str(obj)


def _digest(obj):
    """The sha256 prefix of the canonical JSON of obj: dict keys sorted,
    so equal digests mean equal values whatever the insertion order."""
    text = json.dumps(_canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def same_groupoid(G1, G2):
    return (G1.objects == G2.objects and G1.src == G2.src
            and G1.tgt == G2.tgt and G1.compose == G2.compose
            and G1.units == G2.units and G1.inv == G2.inv)


class TestGroupoids:
    def test_corpus_validates(self):
        for name, G in groupoid_corpus():
            assert G.validate() is None or True  # validate raises on failure

    def test_invalid_groupoid_rejected(self):
        # unit with wrong endpoints
        G = FiniteGroupoid([0, 1], [0, 1], [0, 1], {}, [0, 0], [0, 1])
        with pytest.raises(InvalidGroupoid):
            G.validate()

    def test_indiscrete_counts(self):
        G = indiscrete_groupoid(3)
        assert (G.n_objects, G.n_morphisms) == (3, 9)

    def test_group_and_discrete_groupoids_are_pinned(self):
        """group_groupoid and discrete_groupoid are action groupoids (on one
        point, and of the trivial group); their fields, the insertion order
        of compose included, are those of the constructors they replaced."""
        def fields(G):
            return (G.objects, G.src, G.tgt, list(G.compose.items()),
                    G.units, G.inv)
        assert fields(group_groupoid(cyclic_table(3))) == (
            [0], [0, 0, 0], [0, 0, 0],
            [((0, 0), 0), ((0, 1), 1), ((0, 2), 2), ((1, 0), 1),
             ((1, 1), 2), ((1, 2), 0), ((2, 0), 2), ((2, 1), 0),
             ((2, 2), 1)], [0], [0, 2, 1])
        assert fields(discrete_groupoid(3)) == (
            [0, 1, 2], [0, 1, 2], [0, 1, 2],
            [((0, 0), 0), ((1, 1), 1), ((2, 2), 2)], [0, 1, 2], [0, 1, 2])
        assert fields(discrete_groupoid(0)) == ([], [], [], [], [], [])

    def test_constructed_groupoids_are_pinned(self):
        """Every field of the indiscrete, action and deck groupoids, compose
        compared as a dict, and the insertion order of compose for the deck
        groupoids and a non-abelian group groupoid, as recorded with the
        hand-written index loops of each constructor."""
        s3 = s3_table()
        free = disjoint_union_gset(regular_gset(cyclic_table(2)), 2)
        klein3 = disjoint_union_gset(regular_gset(klein_table()), 3)
        built = {"indiscrete%d" % n: indiscrete_groupoid(n) for n in range(5)}
        built.update({
            "Z2 swap": action_groupoid(cyclic_table(2), [[0, 1], [1, 0]]),
            "S3 regular": action_groupoid(s3, [list(row) for row in s3]),
            "deck free Z2 x 2": deck_groupoid(free),
            "deck Klein x 3": deck_groupoid(klein3)})
        fields = {name: _digest([G.objects, G.src, G.tgt,
                                 sorted(G.compose.items()), G.units, G.inv])
                  for name, G in built.items()}
        assert fields == GROUPOID_PINS
        orders = {name: _digest(list(built[name].compose))
                  for name in ("deck free Z2 x 2", "deck Klein x 3")}
        orders["S3 group"] = _digest(list(group_groupoid(s3).compose))
        assert orders == COMPOSE_ORDER_PINS

    def test_a_bad_table_is_not_a_group(self):
        with pytest.raises(NotAGroup):
            group_groupoid([[0, 0], [0, 1]])


# _digest of the fields of each groupoid, and of the keys of compose in
# insertion order, recorded with the hand-written constructors
GROUPOID_PINS = {
    "indiscrete0": "4eceefa0f0e75652", "indiscrete1": "28b2c7d3b9de4551",
    "indiscrete2": "ec36185d83120ff1", "indiscrete3": "8626ceff44ca8fff",
    "indiscrete4": "f1f5310dc63d7147", "Z2 swap": "aa114fd3e8de0ffa",
    "S3 regular": "e134e32c531769e2", "deck free Z2 x 2": "aba79a62b21e0881",
    "deck Klein x 3": "ebff50a67c0848c6"}
COMPOSE_ORDER_PINS = {
    "deck free Z2 x 2": "048da4de669a3d0a",
    "deck Klein x 3": "a09d7735ee36b94d", "S3 group": "bdaf05289c31dd55"}


class TestGSets:
    def test_regular_action_free(self):
        gs = regular_gset(cyclic_table(4))
        gs.validate()
        assert gs.is_free()
        assert gs.orbits() == [[0, 1, 2, 3]]

    def test_disjoint_union_orbits(self):
        gs = disjoint_union_gset(regular_gset(cyclic_table(2)), 2)
        gs.validate()
        assert len(gs.orbits()) == 2 and gs.n_points == 4

    def test_non_action_rejected(self):
        with pytest.raises(NotAnAction):
            GSet(cyclic_table(2), [[0, 1], [0, 0]]).validate()

    def test_deck_groupoid_shape(self):
        gs = disjoint_union_gset(regular_gset(cyclic_table(2)), 2)
        G = deck_groupoid(gs)
        assert (G.n_objects, G.n_morphisms) == (2, 4)
        with pytest.raises(NotFree):
            deck_groupoid(GSet(cyclic_table(2), [[0, 1], [0, 1]]))


class TestAlgebroidConstructors:
    def test_one_object_groupoid_gives_group_algebra(self):
        Hd1 = groupoid_algebra(group_groupoid(cyclic_table(3)))
        Hd2 = group_hopf_algebra(cyclic_table(3))
        assert Hd1.total.mul == Hd2.total.mul
        assert Hd1.antipode == Hd2.antipode
        assert Hd1.rightb.coproduct_lift == Hd2.rightb.coproduct_lift

    def test_discrete_groupoid_everything_identity(self):
        Hd = function_algebroid(discrete_groupoid(3))
        assert Hd.total.dim == 3 == Hd.rightb.base.dim
        assert Hd.antipode == Mat.identity(3, QQ)
        assert Hd.rightb.s == Mat.identity(3, QQ)

    def test_dual_pairing_is_perfect(self):
        # groupoid algebra and function algebroid carry dual bases
        for G in (indiscrete_groupoid(2), group_groupoid(klein_table())):
            A = groupoid_algebra(G)
            F = function_algebroid(G)
            assert A.total.dim == F.total.dim == G.n_morphisms
            # evaluation pairing in these bases is the identity Gram matrix
            gram = Mat.identity(G.n_morphisms, QQ)
            assert rank(gram) == G.n_morphisms

    def test_function_algebroid_is_commutative(self):
        H = function_algebroid(indiscrete_groupoid(3)).total
        for i in range(H.dim):
            for j in range(H.dim):
                assert H.mul[i][j] == H.mul[j][i]


class TestReconstruction:
    def test_round_trip_is_identity_labeling(self):
        for name, G in groupoid_corpus():
            G2 = reconstruct_groupoid(function_algebroid(G))
            assert same_groupoid(G, G2), name

    def test_point_base(self):
        G = reconstruct_groupoid(function_algebroid(group_groupoid(
            trivial_table())))
        assert (G.n_objects, G.n_morphisms) == (1, 1)


class TestWeakHopf:
    def test_groupoid_weak_hopf_passes(self):
        for G in (indiscrete_groupoid(2), group_groupoid(cyclic_table(3))):
            assert check_weak_hopf(groupoid_weak_hopf(G)).ok

    def test_perturbed_counit_fails(self):
        W = groupoid_weak_hopf(indiscrete_groupoid(2))
        eps = W.counit.copy()
        eps.data[0][1] = eps.data[0][1] + QQ.one
        bad = WeakHopfData(W.algebra, W.coproduct, eps, W.antipode)
        assert not check_weak_hopf(bad).ok

    def test_conversion_matches_groupoid_algebra(self):
        G = indiscrete_groupoid(2)
        Hd = weak_hopf_to_algebroid(groupoid_weak_hopf(G))
        direct = groupoid_algebra(G)
        assert Hd.total.mul == direct.total.mul
        assert Hd.rightb.base.dim == 2
        assert Hd.antipode == direct.antipode

    def test_hopf_algebra_conversion_has_point_base(self):
        Hd = weak_hopf_to_algebroid(groupoid_weak_hopf(
            group_groupoid(cyclic_table(3))))
        assert Hd.rightb.base.dim == 1
        assert check_hopf_algebroid(Hd).ok


class TestSmash:
    def test_trivial_coefficients_reduce_to_group_algebra(self):
        k1 = product_field_algebra(1)
        i1 = Mat.identity(1, QQ)
        Hd = smash_algebroid(k1, cyclic_table(3), [i1, i1, i1])
        kz3 = group_algebra(cyclic_table(3))
        assert Hd.total.dim == 3
        assert Hd.total.mul == kz3.mul

    def test_canonical_algebroid_dimension(self):
        kz2 = group_algebra(cyclic_table(2))
        Hd = smash_algebroid(kz2, trivial_table(), [Mat.identity(2, QQ)])
        assert Hd.total.dim == 4           # A (x) A^op
        assert Hd.rightb.base.dim == 2

    def test_structure_constants_are_pinned(self):
        """mul, both coproduct lifts and the antipode of the corpus smash
        algebroids and of kZ2 # Z2 by the sign automorphism, as values,
        recorded with the hand-written six-deep product loop."""
        kz2 = group_algebra(cyclic_table(2))
        sign = Mat.from_cols([{0: QQ.one}, {1: -QQ.one}], 2, QQ)
        instances = smash_instances() + [(
            "smash kZ2 # Z2 sign",
            smash_algebroid(kz2, cyclic_table(2), [Mat.identity(2, QQ), sign]))]
        got = {name: _digest([Hd.total.mul, Hd.total.unit,
                              Hd.rightb.coproduct_lift.sparse_cols(),
                              Hd.leftb.coproduct_lift.sparse_cols(),
                              Hd.antipode.sparse_cols()])
               for name, Hd in instances}
        assert got == SMASH_PINS

    def test_non_automorphism_rejected(self):
        k2 = product_field_algebra(2)
        bad = Mat(2, 2, [[QQ.one, QQ.one], [QQ.zero, QQ.zero]], QQ)
        with pytest.raises(NotAnAction):
            smash_algebroid(k2, cyclic_table(2), [Mat.identity(2, QQ), bad])


# _digest of mul, unit, both coproduct lifts and the antipode
SMASH_PINS = {
    "smash k # Z2": "fb54c994fad72e1d", "smash kZ2 # 1": "6ec4f8a88a97fae1",
    "smash k2 # Z2 swap": "a77986520dd19ca8",
    "smash kZ2 # Z2 sign": "d3c409de420f841e"}


class TestTwisted:
    def test_center_dimensions(self):
        assert center(twisted_group_algebra(2, 1)).dim == 1
        assert center(twisted_group_algebra(2, 0)).dim == 4
        assert center(twisted_group_algebra(3, 1)).dim == 1
        assert center(twisted_group_algebra(3, 2)).dim == 1
        assert center(twisted_group_algebra(3, 0)).dim == 9

    def test_twisted_is_associative(self):
        for n, t in ((2, 0), (2, 1), (3, 1), (4, 1)):
            assert validate_algebra(twisted_group_algebra(n, t)).ok


class TestCharacters:
    def test_non_character_rejected(self):
        Hd = group_hopf_algebra(cyclic_table(2))
        with pytest.raises(NotACharacter):
            coupled_from_character(Hd, [QQ.one, QQ.one + QQ.one])


def _rejection(build):
    """The type and message of the exception that build() raises."""
    try:
        build()
    except (NotAnAction, NotACharacter) as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError("no rejection")


def test_every_rejection_message_is_pinned():
    """Each NotAnAction branch of GSet.validate and smash_algebroid and
    each NotACharacter branch of coupled_from_character, with its exact
    message."""
    z2, z3, z4 = cyclic_table(2), cyclic_table(3), cyclic_table(4)
    k1, k2 = product_field_algebra(1), product_field_algebra(2)
    i1, i2 = Mat.identity(1, QQ), Mat.identity(2, QQ)
    one = QQ.one
    swap = Mat.from_cols([{1: one}, {0: one}], 2, QQ)
    kills = Mat.from_cols([{0: one}, {}], 2, QQ)
    both = Mat.from_cols([{0: one}, {0: one}], 2, QQ)
    square = Mat.from_cols([{0: 2 * one, 1: -one}, {0: -one, 1: 2 * one}],
                           2, QQ)
    cases = [
        (lambda: GSet(z2, [[0, 1]]).validate(),
         "one permutation per group element required"),
        (lambda: GSet(z2, [[0, 1], [0, 0]]).validate(),
         "element 1 does not act bijectively"),
        (lambda: GSet(z2, [[1, 0], [0, 1]]).validate(),
         "identity does not act as identity"),
        (lambda: GSet(z3, [[0, 1], [1, 0], [1, 0]]).validate(),
         "action fails at (1, 1, 0)"),
        (lambda: action_groupoid(z3, [[0, 1], [1, 0], [1, 0]]),
         "action fails at (1, 1, 0)"),
        (lambda: smash_algebroid(k1, z2, [i1]),
         "one automorphism per group element required"),
        (lambda: smash_algebroid(k1, z2, [i1, i2]),
         "automorphism 1 has wrong shape"),
        (lambda: smash_algebroid(k2, z2, [i2, kills]),
         "element 1 does not fix the unit"),
        (lambda: smash_algebroid(k2, z2, [i2, both]),
         "element 1 does not fix the unit"),
        (lambda: smash_algebroid(k2, z2, [square, i2]),
         "element 0 is not multiplicative"),
        (lambda: smash_algebroid(k2, z2, [i2, square]),
         "element 1 is not multiplicative"),
        (lambda: smash_algebroid(k2, z2, [swap, i2]),
         "identity must act as the identity"),
        (lambda: smash_algebroid(k2, z3, [i2, swap, swap]),
         "action is not a homomorphism at (1, 1)"),
    ]
    for table, sigma, message in (
            (z2, [0, 0], "sigma(1) != 1"),
            (z2, [0, 1], "sigma(1) != 1"),
            (z2, [1, 2], "sigma is not multiplicative at (1, 1)"),
            (z3, [1, 1, 2], "sigma is not multiplicative at (1, 1)"),
            (z4, [1, -1, 1, 1], "sigma is not multiplicative at (1, 2)")):
        Hd = group_hopf_algebra(table)
        cases.append((lambda Hd=Hd, sigma=sigma: coupled_from_character(
            Hd, [one * x for x in sigma]), message))
    for build, message in cases:
        kind = "NotACharacter" if message.startswith("sigma") \
            else "NotAnAction"
        assert _rejection(build) == (kind, message)


class TestCoveringInstances:
    def test_classical_instance_needs_freeness(self):
        with pytest.raises(NotFree):
            classical_covering_instance(cyclic_table(2),
                                        GSet(cyclic_table(2), [[0, 1], [0, 1]]))

    def test_control_instance_shape(self):
        D = nontransitive_control_instance()
        assert D.B.dim == 4 and D.dimA == 1

    def test_example7_regular_covering_gives_regular_action(self):
        # covering of a point: the regular Klein-four set
        gs = regular_gset(klein_table())
        D = classical_covering_instance(klein_table(), gs)
        out = example7_extract(D)
        assert out["order"] == 4 and out["closed"]
        assert out["free"] and out["transitive"]


def test_theorem1_small_groups():
    out = theorem1_automorphisms(cyclic_table(2))
    assert len(out["perms"]) == 2
    assert out["witness"] == [0, 1] or len(set(out["witness"])) == 2


# sha256 prefixes of json.dumps(theorem1_automorphisms(table),
# sort_keys=True) for the corpus tables of order <= 8, recorded with the
# exhaustive search over all n! permutations of the regular G-set
THEOREM1_PINS = {
    "Z2": "603231e4be58c24b", "Z3": "fbcb201634122657",
    "Z4": "4499bf3f899dd0cb", "Z5": "0e78f6827f424ccd",
    "Z6": "f952cde85211257f", "Klein": "44ba878eba724dcf",
    "S3": "18357188c50bd236", "Z2xZ4": "b7bd56225b631b45",
}


def test_theorem1_equals_the_exhaustive_search():
    small = {name: table for name, table in group_tables()
             if len(table) <= 8}
    assert sorted(small) == sorted(THEOREM1_PINS)
    for name, table in small.items():
        text = json.dumps(theorem1_automorphisms(table), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] \
            == THEOREM1_PINS[name], name
