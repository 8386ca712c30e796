"""Shared corpus builders for the test suite.

Everything here is deterministic; the heavier collections are session
fixtures so the expensive instances are built once.
"""

import itertools

import pytest

from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat
from halab.algebra import group_algebra, product_field_algebra
from halab.hopfalgebroid import HopfAlgebroidData
from halab.galois import CocycleData, regular_comodule
from halab.zoo import (cyclic_table, klein_table, s3_table, trivial_table,
                       direct_product_table, group_groupoid,
                       discrete_groupoid, indiscrete_groupoid,
                       action_groupoid, deck_groupoid, regular_gset,
                       disjoint_union_gset, group_hopf_algebra,
                       groupoid_algebra, function_algebroid, smash_algebroid,
                       coupled_from_character, groupoid_weak_hopf,
                       weak_hopf_to_algebroid, check_group_table)


def sparse(vec):
    """The dict {index: value} of the nonzeros of a coordinate list."""
    return {c: x for c, x in enumerate(vec) if x}


def group_tables():
    return [
        ("Z2", cyclic_table(2)),
        ("Z3", cyclic_table(3)),
        ("Z4", cyclic_table(4)),
        ("Z5", cyclic_table(5)),
        ("Z6", cyclic_table(6)),
        ("Klein", klein_table()),
        ("S3", s3_table()),
        ("Z2xZ4", direct_product_table(cyclic_table(2), cyclic_table(4))),
        ("Z12", cyclic_table(12)),
    ]


def symmetric_table(n):
    """S_n on the permutation tuples in lexicographic order, product =
    composition (right factor first), as zoo.s3_table for n = 3."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
            for p in perms]


def groupoid_corpus():
    """All corpus groupoids; every entry has at most 12 morphisms."""
    free4 = disjoint_union_gset(regular_gset(cyclic_table(2)), 2)
    return [
        ("point", group_groupoid(trivial_table())),
        ("Z3-one-object", group_groupoid(cyclic_table(3))),
        ("discrete3", discrete_groupoid(3)),
        ("indiscrete2", indiscrete_groupoid(2)),
        ("indiscrete3", indiscrete_groupoid(3)),
        ("Z2-swap-action", action_groupoid(cyclic_table(2), [[0, 1], [1, 0]])),
        ("deck-free-Z2", deck_groupoid(free4)),
    ]


def sign_character(table):
    """The character sending elements of even order to -1 works for the
    groups used here: order-2 elements of S3 are the transpositions."""
    e, inv = check_group_table(table)
    n = len(table)
    sigma = []
    for g in range(n):
        k, x = 1, g
        while x != e:
            x = table[x][g]
            k += 1
        sigma.append(-QQ.one if k == 2 else QQ.one)
    return sigma


def smash_instances():
    k1 = product_field_algebra(1)
    kz2 = group_algebra(cyclic_table(2))
    k2 = product_field_algebra(2)
    swap = Mat(2, 2, [[QQ.zero, QQ.one], [QQ.one, QQ.zero]], QQ)
    i1 = Mat.identity(1, QQ)
    i2 = Mat.identity(2, QQ)
    return [
        ("smash k # Z2", smash_algebroid(k1, cyclic_table(2), [i1, i1])),
        ("smash kZ2 # 1", smash_algebroid(kz2, trivial_table(), [i2])),
        ("smash k2 # Z2 swap",
         smash_algebroid(k2, cyclic_table(2), [i2, swap])),
    ]


def coupled_instances():
    out = []
    F4 = CyclotomicField(4)
    Hd = group_hopf_algebra(cyclic_table(4), F4)
    z = F4.zeta(1)
    sigma = [F4.one, z, z * z, z * z * z]
    out.append(("coupled kZ4 zeta4",
                HopfAlgebroidData(*coupled_from_character(Hd, sigma))))
    Hd = group_hopf_algebra(cyclic_table(2))
    out.append(("coupled kZ2 sign",
                HopfAlgebroidData(*coupled_from_character(
                    Hd, [QQ.one, -QQ.one]))))
    Hd = group_hopf_algebra(s3_table())
    out.append(("coupled kS3 sign",
                HopfAlgebroidData(*coupled_from_character(
                    Hd, sign_character(s3_table())))))
    return out


def weak_conversions():
    return [
        ("weak indiscrete2",
         weak_hopf_to_algebroid(groupoid_weak_hopf(indiscrete_groupoid(2)))),
        ("weak kZ3",
         weak_hopf_to_algebroid(groupoid_weak_hopf(
             group_groupoid(cyclic_table(3))))),
    ]


def hopf_instances():
    """The corpus Hopf algebroids of dimension <= 12: group algebras,
    groupoid algebras, function algebroids, smash, coupled and weak."""
    out = []
    for name, table in group_tables():
        out.append(("k" + name, group_hopf_algebra(table)))
    for name, G in groupoid_corpus():
        out.append(("groupoid algebra " + name, groupoid_algebra(G)))
        out.append(("function algebroid " + name, function_algebroid(G)))
    out.extend(smash_instances())
    out.extend(coupled_instances())
    out.extend(weak_conversions())
    return out


@pytest.fixture(scope="session")
def hopf_corpus():
    """Every zoo constructor output covered by the soundness criterion."""
    out = hopf_instances()
    # larger than the benchmark mirror in bench/workloads.py (dim 16, 24)
    out.append(("groupoid algebra indiscrete4",
                groupoid_algebra(indiscrete_groupoid(4))))
    out.append(("function algebroid indiscrete4",
                function_algebroid(indiscrete_groupoid(4))))
    out.append(("kS4", group_hopf_algebra(symmetric_table(4))))
    return out


def comodule_instances():
    """Regular comodules over a spread of corpus algebroids (>= 10, all
    with bijective antipode)."""
    out = []
    for name, table in group_tables()[:5]:
        Hd = group_hopf_algebra(table)
        out.append(regular_comodule(Hd, name="regular k" + name))
    for ctor, tag in ((groupoid_algebra, "groupoid algebra"),
                      (function_algebroid, "function algebroid")):
        Hd = ctor(indiscrete_groupoid(2))
        out.append(regular_comodule(Hd, name="regular " + tag))
    Hd = weak_hopf_to_algebroid(groupoid_weak_hopf(indiscrete_groupoid(2)))
    out.append(regular_comodule(Hd, name="regular weak conversion"))
    for name, Hd in smash_instances()[1:]:
        out.append(regular_comodule(Hd, name="regular " + name))
    return out


@pytest.fixture(scope="session")
def comodule_corpus():
    return comodule_instances()


# ---------------------------------------------------------------------------
# cocycles on group algebras with a trivial target

def group_cocycle(table, vals, field=QQ, name=None):
    """CocycleData on kG with N = k, trivial measuring action and
    sigma(g_i, g_j) = vals[i][j]."""
    Hd = group_hopf_algebra(table, field)
    n = len(table)
    N = product_field_algebra(1, field)
    etaN = Mat.identity(1, field)
    action = Mat(1, n, [[field.one] * n], field)
    sigma = Mat(1, n * n,
                [[vals[i][j] for i in range(n) for j in range(n)]], field)
    return CocycleData(Hd.leftb, N, etaN, action, sigma, name=name)


def cocycle_instances():
    one, mone = QQ.one, -QQ.one

    def const(n):
        return [[one] * n for _ in range(n)]

    z4carry = [[mone if (i + j) >= 4 else one for j in range(4)]
               for i in range(4)]
    kv = [[mone if (i in (2, 3)) and (j in (1, 3)) else one
           for j in range(4)] for i in range(4)]
    return [
        group_cocycle(cyclic_table(2), const(2), name="Z2 trivial"),
        group_cocycle(cyclic_table(2), [[one, one], [one, mone]],
                      name="Z2 sign"),
        group_cocycle(cyclic_table(3), const(3), name="Z3 trivial"),
        group_cocycle(cyclic_table(4), const(4), name="Z4 trivial"),
        group_cocycle(cyclic_table(4), z4carry, name="Z4 carry"),
        group_cocycle(klein_table(), kv, name="Klein bilinear"),
    ]


def cocycle_mutations():
    """One seeded single-entry perturbation of each instance's sigma."""
    out = []
    for idx, C in enumerate(cocycle_instances()):
        n = C.BL.total.dim
        if n == 2:
            i, j = 0, 1          # breaks normality in sigma(e, g)
        else:
            i, j = 1 + idx % (n - 1), 1 + (idx * 5 + 3) % (n - 1)
        M = C.sigma.copy()
        M.data[0][i * n + j] = M.data[0][i * n + j] + QQ.one + QQ.one
        out.append(CocycleData(C.BL, C.N, C.etaN, C.action, M,
                               name=(C.name or "") + " mutated"))
    return out
