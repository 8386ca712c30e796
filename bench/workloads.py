"""The benchmark's workloads: seeded inputs, the call that yields each
verdict, and the known answer it is checked against.

The `corpus_q` and `cyclo` inputs are built here from the public
`halab.zoo` / `halab.galois` constructors; they mirror the corpus of the
test suite without importing it, so test edits cannot change them.  Every
halab function is looked up through its module at call time, so the
tracer's wrappers are seen.

A workload is a function `build(seed, expected)` returning a list of
`Item`s.  `Item.call()` is the timed call; `Item.verdict(result)` turns its
result into plain JSON data, compared with `Item.expected` outside the
timed region.
"""

import contextlib
import io
import json
import os
import random
from collections import namedtuple

from halab import (algebra, cli, fields, galois, hopfalgebroid, linalg,
                   torus, zoo)
from halab.fields import QQ

Item = namedtuple("Item", "name call verdict expected")

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
DOCUMENTS = "documents"

# the axiom tags that criterion 02 of the test suite isolates
MUTATION_TAGS = ("hopf:(a)", "hopf:(b)", "hopf:(c)", "hopf:(d)",
                 "hopf:S-bijective")


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _identity(result):
    return result


# ---------------------------------------------------------------------------
# corpus constructors (mirror tests/conftest.py)

def group_tables():
    return [
        ("Z2", zoo.cyclic_table(2)),
        ("Z3", zoo.cyclic_table(3)),
        ("Z4", zoo.cyclic_table(4)),
        ("Z5", zoo.cyclic_table(5)),
        ("Z6", zoo.cyclic_table(6)),
        ("Klein", zoo.klein_table()),
        ("S3", zoo.s3_table()),
        ("Z2xZ4", zoo.direct_product_table(zoo.cyclic_table(2),
                                           zoo.cyclic_table(4))),
        ("Z12", zoo.cyclic_table(12)),
    ]


def groupoid_corpus():
    free4 = zoo.disjoint_union_gset(zoo.regular_gset(zoo.cyclic_table(2)), 2)
    return [
        ("point", zoo.group_groupoid(zoo.trivial_table())),
        ("Z3-one-object", zoo.group_groupoid(zoo.cyclic_table(3))),
        ("discrete3", zoo.discrete_groupoid(3)),
        ("indiscrete2", zoo.indiscrete_groupoid(2)),
        ("indiscrete3", zoo.indiscrete_groupoid(3)),
        ("Z2-swap-action",
         zoo.action_groupoid(zoo.cyclic_table(2), [[0, 1], [1, 0]])),
        ("deck-free-Z2", zoo.deck_groupoid(free4)),
    ]


def sign_character(table):
    """-1 on elements of order 2, +1 elsewhere (a character of S3)."""
    e, _ = algebra.check_group_table(table)
    sigma = []
    for g in range(len(table)):
        k, x = 1, g
        while x != e:
            x = table[x][g]
            k += 1
        sigma.append(-QQ.one if k == 2 else QQ.one)
    return sigma


def smash_instances():
    k1 = algebra.product_field_algebra(1)
    kz2 = algebra.group_algebra(zoo.cyclic_table(2))
    k2 = algebra.product_field_algebra(2)
    swap = linalg.Mat(2, 2, [[QQ.zero, QQ.one], [QQ.one, QQ.zero]], QQ)
    i1 = linalg.Mat.identity(1, QQ)
    i2 = linalg.Mat.identity(2, QQ)
    return [
        ("smash k # Z2", zoo.smash_algebroid(k1, zoo.cyclic_table(2),
                                             [i1, i1])),
        ("smash kZ2 # 1", zoo.smash_algebroid(kz2, zoo.trivial_table(),
                                              [i2])),
        ("smash k2 # Z2 swap",
         zoo.smash_algebroid(k2, zoo.cyclic_table(2), [i2, swap])),
    ]


def coupled_instances():
    HAD = hopfalgebroid.HopfAlgebroidData
    F4 = fields.CyclotomicField(4)
    Hd = zoo.group_hopf_algebra(zoo.cyclic_table(4), F4)
    z = F4.zeta(1)
    out = [("coupled kZ4 zeta4",
            HAD(*zoo.coupled_from_character(Hd, [F4.one, z, z * z,
                                                 z * z * z])))]
    Hd = zoo.group_hopf_algebra(zoo.cyclic_table(2))
    out.append(("coupled kZ2 sign",
                HAD(*zoo.coupled_from_character(Hd, [QQ.one, -QQ.one]))))
    Hd = zoo.group_hopf_algebra(zoo.s3_table())
    out.append(("coupled kS3 sign",
                HAD(*zoo.coupled_from_character(
                    Hd, sign_character(zoo.s3_table())))))
    return out


def weak_conversions():
    return [
        ("weak indiscrete2",
         zoo.weak_hopf_to_algebroid(zoo.groupoid_weak_hopf(
             zoo.indiscrete_groupoid(2)))),
        ("weak kZ3",
         zoo.weak_hopf_to_algebroid(zoo.groupoid_weak_hopf(
             zoo.group_groupoid(zoo.cyclic_table(3))))),
    ]


def hopf_corpus():
    """The 31 constructor outputs of the soundness criterion, over Q."""
    out = []
    for name, table in group_tables():
        out.append(("k" + name, zoo.group_hopf_algebra(table)))
    for name, G in groupoid_corpus():
        out.append(("groupoid algebra " + name, zoo.groupoid_algebra(G)))
        out.append(("function algebroid " + name, zoo.function_algebroid(G)))
    out.extend(smash_instances())
    out.extend(coupled_instances())
    out.extend(weak_conversions())
    return out


def comodule_corpus():
    """The 10 regular comodules (all with bijective antipode)."""
    out = []
    for name, table in group_tables()[:5]:
        out.append(galois.regular_comodule(zoo.group_hopf_algebra(table),
                                           name="regular k" + name))
    for ctor, tag in ((zoo.groupoid_algebra, "groupoid algebra"),
                      (zoo.function_algebroid, "function algebroid")):
        out.append(galois.regular_comodule(ctor(zoo.indiscrete_groupoid(2)),
                                           name="regular " + tag))
    Hd = zoo.weak_hopf_to_algebroid(zoo.groupoid_weak_hopf(
        zoo.indiscrete_groupoid(2)))
    out.append(galois.regular_comodule(Hd, name="regular weak conversion"))
    for name, Hd in smash_instances()[1:]:
        out.append(galois.regular_comodule(Hd, name="regular " + name))
    return out


def cyclo_corpus():
    """Group Hopf algebras over cyclotomic fields."""
    return [
        ("kZ4/Q(zeta_4)", zoo.group_hopf_algebra(
            zoo.cyclic_table(4), fields.CyclotomicField(4))),
        ("kZ6/Q(zeta_3)", zoo.group_hopf_algebra(
            zoo.cyclic_table(6), fields.CyclotomicField(3))),
        ("kZ8/Q(zeta_8)", zoo.group_hopf_algebra(
            zoo.cyclic_table(8), fields.CyclotomicField(8))),
    ]


def mutation_base():
    return zoo.function_algebroid(zoo.indiscrete_groupoid(2))


def remut(Hd, which, i, j, delta):
    """Copy Hd with one entry of one structure map perturbed by delta."""
    BD = hopfalgebroid.BialgebroidData
    L, R = Hd.leftb, Hd.rightb
    kw = {"sL": L.s, "tL": L.t, "dL": L.coproduct_lift, "epsL": L.counit,
          "sR": R.s, "tR": R.t, "dR": R.coproduct_lift, "epsR": R.counit,
          "S": Hd.antipode}
    M = kw[which].copy()
    M.data[i][j] = M.data[i][j] + QQ.from_int(delta)
    kw[which] = M
    L2 = BD(L.total, L.base, "left", kw["sL"], kw["tL"], kw["dL"], kw["epsL"])
    R2 = BD(R.total, R.base, "right", kw["sR"], kw["tR"], kw["dR"],
            kw["epsR"])
    return hopfalgebroid.HopfAlgebroidData(L2, R2, kw["S"])


# ---------------------------------------------------------------------------
# verdicts

def _hopf_call(Hd, **kw):
    return lambda: hopfalgebroid.check_hopf_algebroid(Hd, **kw)


def report_verdict(rep):
    return {"ok": rep.ok, "entries": len(rep.entries)}


def _tags_verdict(rep):
    return {"tags": sorted({e["tag"] for e in rep.entries})}


def _covering_call(D):
    return lambda: galois.check_covering(D)


def _covering_verdict(v):
    return v.to_json()


def doc_call(path):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", path, "--json"])
        return code, out.getvalue()
    return call


def doc_verdict(result):
    code, text = result
    tags = set()
    for chk in json.loads(text)["checks"]:
        tags.update(v["tag"] for v in chk["violations"])
    return {"exit": code, "tags": sorted(tags), "json": text}


def _det_json(det):
    return {str(k): str(v) for k, v in sorted(det.items())}


def galois_matrix_verdict(g):
    return {"unit": g["unit"], "det": _det_json(g["det"])}


def _oracle_call(f, g):
    return lambda: torus.recompose(torus.chi_product(
        torus.decompose(f), torus.decompose(g))) == torus.qt_mul(f, g)


# ---------------------------------------------------------------------------
# workloads

def document_paths():
    return sorted(os.path.join(DOCUMENTS, name)
                  for name in os.listdir(DOCUMENTS) if name.endswith(".json"))


def build_docs(seed, expected):
    """Every shipped document through `halab check --json`, in-process."""
    paths = document_paths()
    for path in paths:            # reading the documents is the set-up
        with open(path, "rb") as fh:
            fh.read()
    random.Random(seed).shuffle(paths)
    exp = expected["docs"]
    return [Item(os.path.basename(p), doc_call(p), doc_verdict,
                 exp.get(os.path.basename(p))) for p in paths]


def pick_mutations(seed, candidates):
    """One recorded single-entry mutation per target tag, chosen by seed."""
    rng = random.Random(seed)
    return [rng.choice(candidates[tag]) for tag in MUTATION_TAGS]


def build_corpus_q(seed, expected):
    """The Hopf-algebroid corpus over Q, seeded mutations, coverings."""
    exp = expected["corpus_q"]
    rng = random.Random(seed)
    groups = [[Item(name, _hopf_call(Hd), report_verdict,
                    exp["hopf"].get(name))]
              for name, Hd in hopf_corpus()]
    base = mutation_base()
    for m in pick_mutations(seed, exp["mutations"]):
        name = "mutation %s[%d][%d]%+d" % (m["which"], m["i"], m["j"],
                                           m["delta"])
        Hd = remut(base, m["which"], m["i"], m["j"], m["delta"])
        groups.append([Item(name, _hopf_call(Hd, skip_bialgebroids=True),
                            _tags_verdict, {"tags": m["tags"]})])
    for D in comodule_corpus():
        groups.append([Item("covering " + D.name, _covering_call(D),
                            _covering_verdict, exp["coverings"].get(D.name))])
    rng.shuffle(groups)
    return [item for group in groups for item in group]


def build_cyclo(seed, expected):
    """Hopf check, then covering of the regular comodule, over Q(zeta_N)."""
    exp = expected["cyclo"]
    groups = []
    for name, Hd in cyclo_corpus():
        groups.append([
            Item("hopf " + name, _hopf_call(Hd), report_verdict,
                 exp["hopf"].get(name)),
            Item("covering " + name,
                 lambda Hd=Hd: galois.check_covering(
                     galois.regular_comodule(Hd)),
                 _covering_verdict, exp["coverings"].get(name)),
        ])
    random.Random(seed).shuffle(groups)
    return [item for group in groups for item in group]


TORUS_PAIRS = 500


def build_torus(seed, expected):
    """Criterion 10's product oracle on seeded pairs, then the Galois-style
    determinants."""
    exp = expected["torus"]
    rng = random.Random(seed)
    items = []
    for n in (2, 3, 4):
        for k in range(TORUS_PAIRS):
            f = torus.random_qt(n, 1, rng)
            g = torus.random_qt(n, 1, rng)
            items.append(Item("oracle n=%d #%d" % (n, k), _oracle_call(f, g),
                              _identity, True))
    for n in (1, 2, 3, 4):
        items.append(Item("galois matrix n=%d" % n,
                          lambda n=n: torus.torus_galois_matrix(n),
                          galois_matrix_verdict,
                          exp["galois_matrix"].get(str(n))))
    return items


WORKLOADS = {
    "docs": build_docs,
    "corpus_q": build_corpus_q,
    "cyclo": build_cyclo,
    "torus": build_torus,
}
