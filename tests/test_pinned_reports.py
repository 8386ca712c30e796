"""Pinned reports and constructor outputs of the checks that no benchmark
workload runs: the weak Hopf, coupling, Hopf-bimodule and Morita checks on
seeded single-entry mutations of their inputs, and the Hopf algebroids
that assemble_hopf_algebroid, coupled_from_character and
weak_hopf_to_algebroid build for the corpus inputs.  Also pinned: the
outputs of the solves for an unknown linear map (solve_antipode and
_conv_inverse), the is_projective flags of the corpus modules and
check_cleft reports.  Numbering the unknowns of linalg.solve_map
column-major instead of row-major changes the solves' outputs.

Each case is recorded as (number of entries, digest), and each
projectivity case as (number of projective modules, the flags).  The
digest is the sha256 prefix of the canonical JSON of the report entries
(tag, indices, note) or of hopf_to_json; mat_to_json lists the nonzero
entries in a fixed order, so equal digests mean Mat == on every structure
map.  The values were recorded with the kron(...) * M and
multiplication-matrix forms that FDAlgebra.convolve and linalg.kron_cols
replaced, the solver cases with the hand-indexed systems that
linalg.solve_map replaced, and the check_cleft cases with the seeded
normal-basis search that galois.normal_basis replaced; they must not
change."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from halab.linalg import Mat, NoSolution
from halab.algebra import is_projective
from halab.hopfalgebroid import (BialgebroidData, HopfAlgebroidData,
                                 check_coupled, solve_antipode, NoAntipode)
from halab.galois import (BimoduleWitness, HopfBimoduleWitness,
                          regular_comodule, verify_morita_data,
                          _bimodule_tensor, ConvMorphism, _conv_inverse,
                          check_cleft, normal_basis)
from halab.cli import (mat_to_json, shaped_mat_from_json, hopf_to_json,
                       comodule_from_json)
from halab.zoo import (cyclic_table, s3_table, group_hopf_algebra,
                       groupoid_weak_hopf, check_weak_hopf, WeakHopfData,
                       indiscrete_groupoid, group_groupoid,
                       groupoid_algebra, function_algebroid,
                       coupled_from_character, monoid_bialgebra,
                       and_monoid_table)

from test_galois import multiplication
from conftest import (coupled_instances, weak_conversions, smash_instances,
                      groupoid_corpus, sign_character, hopf_instances,
                      comodule_instances, projective_modules)

DOCUMENTS = Path(__file__).resolve().parent.parent / "documents"


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pin(rep):
    return len(rep.entries), _digest(rep.to_json())


def _bumped(M, rng):
    """A copy of M with one seeded entry increased by one."""
    out = M.copy()
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    out.data[i][j] = out.data[i][j] + M.field.one
    return out


def _weak_cases():
    rng = random.Random(11)
    for name, G in (("indiscrete2", indiscrete_groupoid(2)),
                    ("Z3", group_groupoid(cyclic_table(3)))):
        W = groupoid_weak_hopf(G)
        for key in ("coproduct", "counit", "antipode"):
            maps = {"coproduct": W.coproduct, "counit": W.counit,
                    "antipode": W.antipode}
            maps[key] = _bumped(maps[key], rng)
            bad = WeakHopfData(W.algebra, maps["coproduct"], maps["counit"],
                               maps["antipode"])
            yield "weak %s %s" % (name, key), lambda bad=bad: _pin(
                check_weak_hopf(bad))


def _coupled_cases():
    rng = random.Random(12)
    Hz4 = group_hopf_algebra(cyclic_table(4))
    triples = [("coupled self kZ4", (Hz4.leftb, Hz4.rightb, Hz4.antipode))]
    triples += [(name, (Hd.leftb, Hd.rightb, Hd.antipode))
                for name, Hd in coupled_instances()]
    for name, (H1, H2, C) in triples:
        for key in ("coupling", "delta1", "delta2"):
            d1, d2 = H1.coproduct_lift, H2.coproduct_lift
            if key == "coupling":
                C2 = _bumped(C, rng)
            else:
                C2 = C
                if key == "delta1":
                    d1 = _bumped(d1, rng)
                else:
                    d2 = _bumped(d2, rng)
            A = BialgebroidData(H1.total, H1.base, H1.side, H1.s, H1.t, d1,
                                H1.counit)
            B = BialgebroidData(H2.total, H2.base, H2.side, H2.s, H2.t, d2,
                                H2.counit)
            yield "%s %s" % (name, key), \
                lambda A=A, B=B, C2=C2: _pin(check_coupled(A, B, C2))


def _regular_bimodule(A):
    return BimoduleWitness(
        A, A, A.dim, [A.left_mult_matrix(i) for i in range(A.dim)],
        [A.right_mult_matrix(i) for i in range(A.dim)])


def _hopf_bimodule_cases():
    rng = random.Random(13)
    for name, table in (("Z2", cyclic_table(2)), ("S3", s3_table())):
        Hd = group_hopf_algebra(table)
        H = Hd.total
        dR = Hd.rightb.coproduct_lift
        for key in ("lcoact", "rcoact", "left_act", "right_act"):
            bi = _regular_bimodule(H)
            lc, rc = dR, dR
            if key == "lcoact":
                lc = _bumped(dR, rng)
            elif key == "rcoact":
                rc = _bumped(dR, rng)
            else:
                acts = bi.left_acts if key == "left_act" else bi.right_acts
                k = rng.randrange(H.dim)
                acts[k] = _bumped(acts[k], rng)
            U = HopfBimoduleWitness(Hd, Hd, bi, lc, rc)
            yield "hopf-bimodule %s %s" % (name, key), \
                lambda U=U: _pin(U.check("U"))


def _morita_cases():
    rng = random.Random(14)
    for name, table in (("Z2", cyclic_table(2)), ("Z3", cyclic_table(3))):
        Hd = group_hopf_algebra(table)
        D = regular_comodule(Hd)
        B, H = D.B, Hd.total
        for key in ("Ucollapse", "Vcollapse", "Ycollapse", "UV", "rcoact"):
            X, Y = _regular_bimodule(B), _regular_bimodule(B)
            Ubi = _regular_bimodule(H)
            dR = Hd.rightb.coproduct_lift
            U = HopfBimoduleWitness(Hd, Hd, Ubi, dR, dR)
            V = HopfBimoduleWitness(Hd, Hd, Ubi, dR, dR)
            isoXY = multiplication(B, _bimodule_tensor(X, Y))
            isoUV = multiplication(H, _bimodule_tensor(Ubi, Ubi))
            isos = {"XY": isoXY, "YX": isoXY,
                    "Xcollapse": Mat.identity(B.dim, B.field),
                    "Ycollapse": Mat.identity(B.dim, B.field),
                    "UV": isoUV, "VU": isoUV,
                    "Ucollapse": Mat.identity(H.dim, H.field),
                    "Vcollapse": Mat.identity(H.dim, H.field)}
            if key in isos:
                isos[key] = _bumped(isos[key], rng)
            else:
                U = HopfBimoduleWitness(Hd, Hd, Ubi, dR, _bumped(dR, rng))
            yield "morita %s %s" % (name, key), \
                lambda a=(D, D, X, Y, U, V, isos): _pin(
                    verify_morita_data(*a))


def _constructor_cases():
    """Every corpus Hopf algebroid that assemble_hopf_algebroid,
    coupled_from_character or weak_hopf_to_algebroid builds."""
    built = []
    for name, G in groupoid_corpus():
        built.append(("groupoid algebra " + name, lambda G=G:
                      groupoid_algebra(G)))
        built.append(("function algebroid " + name, lambda G=G:
                      function_algebroid(G)))
    built += [(name, lambda Hd=Hd: Hd) for name, Hd in
              smash_instances() + coupled_instances() + weak_conversions()]
    for name, build in built:
        yield "built " + name, lambda build=build: (
            0, _digest(hopf_to_json(build())))
    # Delta_2 is (I x sig S x I)(Delta x I) Delta also where Delta is not
    # coassociative: a seeded mutation of Delta must give the same outputs
    rng = random.Random(15)
    for name, table, sigma in (("Z2", cyclic_table(2), [1, -1]),
                               ("S3", s3_table(), sign_character(s3_table()))):
        Hd = group_hopf_algebra(table)
        R = Hd.rightb
        bad = BialgebroidData(R.total, R.base, R.side, R.s, R.t,
                              _bumped(R.coproduct_lift, rng), R.counit)
        mutant = HopfAlgebroidData(Hd.leftb, bad, Hd.antipode)
        yield "built coupled k%s sign, mutated Delta" % name, \
            lambda mutant=mutant, sigma=sigma: (0, _digest([
                mat_to_json(M) for M in _coupled_maps(mutant, sigma)]))


def _coupled_maps(Hd, sigma):
    H1, H2, C = coupled_from_character(Hd, sigma)
    return H1.coproduct_lift, H2.coproduct_lift, H2.counit, C


def _flags(modules):
    """(number of projective modules, the flag of each)."""
    flags = [is_projective(M) for M in modules]
    return sum(flags), flags


def _projective_cases():
    """The flags of the corpus modules of conftest.projective_modules."""
    for name, modules in projective_modules():
        yield "projective " + name, lambda modules=modules: _flags(modules)


def _antipode(B):
    """(kernel size, digest of S and the kernel) or NoAntipode."""
    try:
        S, kern = solve_antipode(B, want_kernel=True)
    except NoAntipode:
        return 0, "NoAntipode"
    return len(kern), _digest([mat_to_json(M) for M in [S] + list(kern)])


def _antipode_cases():
    """Every side with a one-dimensional base, as it is and with one
    seeded entry of its coproduct bumped, and the AND monoid."""
    rng = random.Random(16)
    for name, Hd in hopf_instances():
        for side, B in (("left", Hd.leftb), ("right", Hd.rightb)):
            if B.base.dim != 1:
                continue
            bad = BialgebroidData(B.total, B.base, B.side, B.s, B.t,
                                  _bumped(B.coproduct_lift, rng), B.counit)
            yield "antipode %s %s" % (name, side), lambda B=B: _antipode(B)
            yield "antipode %s %s, mutated Delta" % (name, side), \
                lambda bad=bad: _antipode(bad)
    and_monoid = monoid_bialgebra(and_monoid_table(), 1)
    yield "antipode AND monoid", lambda: _antipode(and_monoid)


def _conv_inverse_pin(D, c):
    try:
        d = _conv_inverse(D, ConvMorphism(D, "R", "L", c))
    except NoSolution:
        return 0, "NoSolution"
    return 0, _digest(mat_to_json(d.map))


def _conv_inverse_witnesses():
    """Each corpus comodule with its identity witness and a seeded
    single-entry mutation of it."""
    rng = random.Random(17)
    for D in comodule_instances():
        I = Mat.identity(D.B.dim, D.field)
        yield D, I, _bumped(I, rng)


def _conv_inverse_cases():
    for D, I, bumped in _conv_inverse_witnesses():
        yield "conv-inverse " + D.name, lambda D=D, I=I: _conv_inverse_pin(
            D, I)
        yield "conv-inverse %s, mutated" % D.name, \
            lambda D=D, c=bumped: _conv_inverse_pin(D, c)


def _cleft_pin(D, c):
    return _pin(check_cleft(D, ConvMorphism(D, "R", "L", c)))


def _cleft_cases():
    doc = json.loads((DOCUMENTS / "kz2_cleft.json").read_text())
    payload = doc["payload"]
    D = comodule_from_json(payload)
    c = shaped_mat_from_json(payload, "cleft_witness", D.B.dim,
                             D.H.total.dim, D.field)
    instances = [("kz2_cleft.json", D, c)]
    for name, table in (("kZ2", cyclic_table(2)), ("kZ3", cyclic_table(3))):
        D = regular_comodule(group_hopf_algebra(table))
        instances.append(("regular " + name, D,
                          Mat.identity(D.B.dim, D.field)))
    for name, D, c in instances:
        yield "cleft " + name, lambda D=D, c=c: _cleft_pin(D, c)


CASES = [case for gen in (_weak_cases, _coupled_cases, _hopf_bimodule_cases,
                          _morita_cases, _constructor_cases,
                          _projective_cases, _antipode_cases,
                          _conv_inverse_cases, _cleft_cases)
         for case in gen()]


RECORDED = {
    "weak indiscrete2 coproduct": (19, "95feebd5bf355ac5"),
    "weak indiscrete2 counit": (16, "24c964ed04e67483"),
    "weak indiscrete2 antipode": (1, "630f4ce7616f2d39"),
    "weak Z3 coproduct": (35, "249a3e61fad6e339"),
    "weak Z3 counit": (34, "6b4e74daf8821ac5"),
    "weak Z3 antipode": (3, "e859d99bab6c99e2"),
    "coupled self kZ4 coupling": (2, "1b2a50f0b2966beb"),
    "coupled self kZ4 delta1": (3, "7abe155d56f169cc"),
    "coupled self kZ4 delta2": (2, "fa8b9e5bc8900c63"),
    "coupled kZ4 zeta4 coupling": (2, "1b2a50f0b2966beb"),
    "coupled kZ4 zeta4 delta1": (3, "7abe155d56f169cc"),
    "coupled kZ4 zeta4 delta2": (3, "e63fede487454df0"),
    "coupled kZ2 sign coupling": (2, "1b2a50f0b2966beb"),
    "coupled kZ2 sign delta1": (2, "b2fc8b45b92d0fe8"),
    "coupled kZ2 sign delta2": (2, "fa8b9e5bc8900c63"),
    "coupled kS3 sign coupling": (2, "1b2a50f0b2966beb"),
    "coupled kS3 sign delta1": (2, "b2fc8b45b92d0fe8"),
    "coupled kS3 sign delta2": (2, "fa8b9e5bc8900c63"),
    "hopf-bimodule Z2 lcoact": (4, "58c66cfb118f10e1"),
    "hopf-bimodule Z2 rcoact": (3, "ac1a30b22f9e0bdf"),
    "hopf-bimodule Z2 left_act": (6, "226601b409bba897"),
    "hopf-bimodule Z2 right_act": (6, "c1d532b728e7753d"),
    "hopf-bimodule S3 lcoact": (7, "e4b43115652b3598"),
    "hopf-bimodule S3 rcoact": (8, "cb2e809f76ddbe4d"),
    "hopf-bimodule S3 left_act": (19, "c38f16f5d54527b7"),
    "hopf-bimodule S3 right_act": (19, "1e4a1ea86d06d0ad"),
    "morita Z2 Ucollapse": (1, "90c83ed532c252c3"),
    "morita Z2 Vcollapse": (1, "6f2d02c049207fbb"),
    "morita Z2 Ycollapse": (1, "48b3b1f8548a1752"),
    "morita Z2 UV": (1, "9354ebada24673cd"),
    "morita Z2 rcoact": (4, "74ff0b1f9b4e95fb"),
    "morita Z3 Ucollapse": (3, "42bb67342fb470fd"),
    "morita Z3 Vcollapse": (3, "1ca8adb47af8795d"),
    "morita Z3 Ycollapse": (2, "16c20ff35ba4ec70"),
    "morita Z3 UV": (2, "e79323c7d03ca303"),
    "morita Z3 rcoact": (6, "60610d59b8bcb678"),
    "built groupoid algebra point": (0, "75c385f0c9b50a5c"),
    "built function algebroid point": (0, "dcc2a32914ff64be"),
    "built groupoid algebra Z3-one-object": (0, "c869a5db307b94d5"),
    "built function algebroid Z3-one-object": (0, "9a836a31071bc9b2"),
    "built groupoid algebra discrete3": (0, "659f9c961088f147"),
    "built function algebroid discrete3": (0, "5ee115040b92a3f2"),
    "built groupoid algebra indiscrete2": (0, "5f8e7db35d8167d9"),
    "built function algebroid indiscrete2": (0, "0b6b23e49b323485"),
    "built groupoid algebra indiscrete3": (0, "e32f9ceb311010c1"),
    "built function algebroid indiscrete3": (0, "7701d0bc55522d0d"),
    "built groupoid algebra Z2-swap-action": (0, "dfeea3d74e42b14f"),
    "built function algebroid Z2-swap-action": (0, "d33445628f549d0b"),
    "built groupoid algebra deck-free-Z2": (0, "bfef7aef416e3e55"),
    "built function algebroid deck-free-Z2": (0, "52c3df74e49d0518"),
    "built smash k # Z2": (0, "de71da36a3c6756d"),
    "built smash kZ2 # 1": (0, "0aa01ce5522431cd"),
    "built smash k2 # Z2 swap": (0, "21e76a34e20675b0"),
    "built coupled kZ4 zeta4": (0, "8939a1b40ae31e21"),
    "built coupled kZ2 sign": (0, "63c89ed825e213f0"),
    "built coupled kS3 sign": (0, "206b0771e34b538d"),
    "built weak indiscrete2": (0, "7675fc81efca45b6"),
    "built weak kZ3": (0, "8e3a402ddc08d21e"),
    "built coupled kZ2 sign, mutated Delta": (0, "65e468e0b81bab87"),
    "built coupled kS3 sign, mutated Delta": (0, "7382ad4ddb2cc298"),
    "projective kZ2": (4, [True, True, True, True]),
    "projective kZ3": (4, [True, True, True, True]),
    "projective kZ4": (4, [True, True, True, True]),
    "projective kZ5": (4, [True, True, True, True]),
    "projective kZ6": (4, [True, True, True, True]),
    "projective kKlein": (4, [True, True, True, True]),
    "projective kS3": (4, [True, True, True, True]),
    "projective kZ2xZ4": (4, [True, True, True, True]),
    "projective kZ12": (4, [True, True, True, True]),
    "projective groupoid algebra point": (4, [True, True, True, True]),
    "projective function algebroid point": (4, [True, True, True, True]),
    "projective groupoid algebra Z3-one-object": (4, [True, True, True, True]),
    "projective function algebroid Z3-one-object": (4, [True, True, True, True]),
    "projective groupoid algebra discrete3": (4, [True, True, True, True]),
    "projective function algebroid discrete3": (4, [True, True, True, True]),
    "projective groupoid algebra indiscrete2": (4, [True, True, True, True]),
    "projective function algebroid indiscrete2": (4, [True, True, True, True]),
    "projective groupoid algebra indiscrete3": (4, [True, True, True, True]),
    "projective function algebroid indiscrete3": (4, [True, True, True, True]),
    "projective groupoid algebra Z2-swap-action": (4, [True, True, True, True]),
    "projective function algebroid Z2-swap-action": (4, [True, True, True, True]),
    "projective groupoid algebra deck-free-Z2": (4, [True, True, True, True]),
    "projective function algebroid deck-free-Z2": (4, [True, True, True, True]),
    "projective smash k # Z2": (4, [True, True, True, True]),
    "projective smash kZ2 # 1": (4, [True, True, True, True]),
    "projective smash k2 # Z2 swap": (4, [True, True, True, True]),
    "projective coupled kZ4 zeta4": (4, [True, True, True, True]),
    "projective coupled kZ2 sign": (4, [True, True, True, True]),
    "projective coupled kS3 sign": (4, [True, True, True, True]),
    "projective weak indiscrete2": (4, [True, True, True, True]),
    "projective weak kZ3": (4, [True, True, True, True]),
    "projective dual numbers trivial": (0, [False]),
    "antipode kZ2 left": (0, "69fcbdaba1c27eae"),
    "antipode kZ2 left, mutated Delta": (0, "NoAntipode"),
    "antipode kZ2 right": (0, "69fcbdaba1c27eae"),
    "antipode kZ2 right, mutated Delta": (0, "3d0b22bc9176bfaf"),
    "antipode kZ3 left": (0, "79865376653fcb82"),
    "antipode kZ3 left, mutated Delta": (0, "NoAntipode"),
    "antipode kZ3 right": (0, "79865376653fcb82"),
    "antipode kZ3 right, mutated Delta": (0, "NoAntipode"),
    "antipode kZ4 left": (0, "ce3054eff3a9ab8c"),
    "antipode kZ4 left, mutated Delta": (0, "bfba466ba47265f3"),
    "antipode kZ4 right": (0, "ce3054eff3a9ab8c"),
    "antipode kZ4 right, mutated Delta": (0, "NoAntipode"),
    "antipode kZ5 left": (0, "8fbd4120778245de"),
    "antipode kZ5 left, mutated Delta": (0, "b8f794753b00a1e1"),
    "antipode kZ5 right": (0, "8fbd4120778245de"),
    "antipode kZ5 right, mutated Delta": (0, "NoAntipode"),
    "antipode kZ6 left": (0, "c9b200839756a3f2"),
    "antipode kZ6 left, mutated Delta": (0, "NoAntipode"),
    "antipode kZ6 right": (0, "c9b200839756a3f2"),
    "antipode kZ6 right, mutated Delta": (0, "NoAntipode"),
    "antipode kKlein left": (0, "bd9fa338371311e1"),
    "antipode kKlein left, mutated Delta": (0, "03988c3cc4a5f303"),
    "antipode kKlein right": (0, "bd9fa338371311e1"),
    "antipode kKlein right, mutated Delta": (0, "7cdb4b6cbccadf06"),
    "antipode kS3 left": (0, "a7457b6f7630f454"),
    "antipode kS3 left, mutated Delta": (0, "NoAntipode"),
    "antipode kS3 right": (0, "a7457b6f7630f454"),
    "antipode kS3 right, mutated Delta": (0, "NoAntipode"),
    "antipode kZ2xZ4 left": (0, "c78fb37042a95a7b"),
    "antipode kZ2xZ4 left, mutated Delta": (0, "NoAntipode"),
    "antipode kZ2xZ4 right": (0, "c78fb37042a95a7b"),
    "antipode kZ2xZ4 right, mutated Delta": (0, "NoAntipode"),
    "antipode kZ12 left": (0, "ed8a9ea030897836"),
    "antipode kZ12 left, mutated Delta": (0, "NoAntipode"),
    "antipode kZ12 right": (0, "ed8a9ea030897836"),
    "antipode kZ12 right, mutated Delta": (0, "NoAntipode"),
    "antipode groupoid algebra point left": (0, "aa865fe599ae9252"),
    "antipode groupoid algebra point left, mutated Delta":
        (0, "05ddcfcef4d4dfb0"),
    "antipode groupoid algebra point right": (0, "aa865fe599ae9252"),
    "antipode groupoid algebra point right, mutated Delta":
        (0, "05ddcfcef4d4dfb0"),
    "antipode function algebroid point left": (0, "aa865fe599ae9252"),
    "antipode function algebroid point left, mutated Delta":
        (0, "05ddcfcef4d4dfb0"),
    "antipode function algebroid point right": (0, "aa865fe599ae9252"),
    "antipode function algebroid point right, mutated Delta":
        (0, "05ddcfcef4d4dfb0"),
    "antipode groupoid algebra Z3-one-object left": (0, "79865376653fcb82"),
    "antipode groupoid algebra Z3-one-object left, mutated Delta":
        (0, "2068840fb748a20b"),
    "antipode groupoid algebra Z3-one-object right": (0, "79865376653fcb82"),
    "antipode groupoid algebra Z3-one-object right, mutated Delta":
        (0, "NoAntipode"),
    "antipode function algebroid Z3-one-object left": (0, "79865376653fcb82"),
    "antipode function algebroid Z3-one-object left, mutated Delta":
        (0, "79865376653fcb82"),
    "antipode function algebroid Z3-one-object right": (0, "79865376653fcb82"),
    "antipode function algebroid Z3-one-object right, mutated Delta":
        (0, "79865376653fcb82"),
    "antipode smash k # Z2 left": (0, "69fcbdaba1c27eae"),
    "antipode smash k # Z2 left, mutated Delta": (0, "3d0b22bc9176bfaf"),
    "antipode smash k # Z2 right": (0, "69fcbdaba1c27eae"),
    "antipode smash k # Z2 right, mutated Delta": (0, "912719c1347da42f"),
    "antipode coupled kZ4 zeta4 left": (0, "ce3054eff3a9ab8c"),
    "antipode coupled kZ4 zeta4 left, mutated Delta": (0, "d201a9251e16d1fd"),
    "antipode coupled kZ4 zeta4 right": (0, "2cfc13bf8f0ea352"),
    "antipode coupled kZ4 zeta4 right, mutated Delta": (0, "NoAntipode"),
    "antipode coupled kZ2 sign left": (0, "69fcbdaba1c27eae"),
    "antipode coupled kZ2 sign left, mutated Delta": (0, "09ec884a130f5e50"),
    "antipode coupled kZ2 sign right": (0, "69fcbdaba1c27eae"),
    "antipode coupled kZ2 sign right, mutated Delta": (0, "f6a7f202b477f548"),
    "antipode coupled kS3 sign left": (0, "a7457b6f7630f454"),
    "antipode coupled kS3 sign left, mutated Delta": (0, "NoAntipode"),
    "antipode coupled kS3 sign right": (0, "a7457b6f7630f454"),
    "antipode coupled kS3 sign right, mutated Delta": (0, "NoAntipode"),
    "antipode weak kZ3 left": (0, "79865376653fcb82"),
    "antipode weak kZ3 left, mutated Delta": (0, "NoAntipode"),
    "antipode weak kZ3 right": (0, "79865376653fcb82"),
    "antipode weak kZ3 right, mutated Delta": (0, "NoAntipode"),
    "antipode AND monoid": (0, "NoAntipode"),
    "conv-inverse regular kZ2": (0, "0ffcf1a05891f6a0"),
    "conv-inverse regular kZ2, mutated": (0, "8c02d5c7fd094e2a"),
    "conv-inverse regular kZ3": (0, "7b3ac501497cf4f6"),
    "conv-inverse regular kZ3, mutated": (0, "408cfe8ba66e1ed4"),
    "conv-inverse regular kZ4": (0, "e198fdd755b42788"),
    "conv-inverse regular kZ4, mutated": (0, "NoSolution"),
    "conv-inverse regular kZ5": (0, "318ccc65049d717a"),
    "conv-inverse regular kZ5, mutated": (0, "4f069397ad22bc14"),
    "conv-inverse regular kZ6": (0, "2eedf58377c1c71f"),
    "conv-inverse regular kZ6, mutated": (0, "cd24530177b8fcd1"),
    "conv-inverse regular groupoid algebra": (0, "500dd52a283ab6fd"),
    "conv-inverse regular groupoid algebra, mutated": (0, "NoSolution"),
    "conv-inverse regular function algebroid": (0, "NoSolution"),
    "conv-inverse regular function algebroid, mutated": (0, "NoSolution"),
    "conv-inverse regular weak conversion": (0, "500dd52a283ab6fd"),
    "conv-inverse regular weak conversion, mutated": (0, "NoSolution"),
    "conv-inverse regular smash kZ2 # 1": (0, "NoSolution"),
    "conv-inverse regular smash kZ2 # 1, mutated": (0, "NoSolution"),
    "conv-inverse regular smash k2 # Z2 swap": (0, "NoSolution"),
    "conv-inverse regular smash k2 # Z2 swap, mutated": (0, "NoSolution"),
    "cleft kz2_cleft.json": (0, "4f53cda18c2baa0c"),
    "cleft regular kZ2": (0, "4f53cda18c2baa0c"),
    "cleft regular kZ3": (0, "4f53cda18c2baa0c")}


def test_recorded_cases_are_the_generated_cases():
    assert sorted(RECORDED) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,run", CASES, ids=[name for name, _ in CASES])
def test_pinned(name, run):
    assert run() == RECORDED[name]


def test_check_cleft_reaches_a_verdict_on_every_witness():
    """check_cleft returns a report, and raises nothing, on the identity
    and the mutated witness of every corpus comodule; so does
    normal_basis, which check_cleft reaches only when the other cleft
    conditions hold.  Every answer is exact."""
    for D, I, bumped in _conv_inverse_witnesses():
        for c in (I, bumped):
            c = ConvMorphism(D, "R", "L", c)
            assert isinstance(check_cleft(D, c).ok, bool), D.name
            assert set(map(type, normal_basis(D, c).values())) == {bool}
