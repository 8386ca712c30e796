"""Command-line front end and the document format: read and write instance
documents, run the cumulative check stack, drive the constructors, and run
the quantum-torus battery.

Documents are UTF-8 JSON with a {"kind", "field", "payload"} envelope and
an optional "level"; a constructor input may be a plain payload.  Only
this module knows the format.  Its readers take a JSON node and its path
(a tuple of keys and indices) and raise DocumentError(path, message),
printed as "payload.left.s.entries[3].r: message".  Nothing is coerced: a
count or index is a JSON integer in range, a scalar a string literal, and
every nested algebra is over the envelope's field (or the first algebra's).
An entry loop re-reads an entry through the checked readers only once the
entry has failed, so a good entry costs its type checks alone.

Exit codes: 0 all checks pass, 1 violations found, 2 input or schema error,
3 a check that could not reach a verdict (Inconclusive)."""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .fields import QQ, CyclotomicField
from .algebra import FDAlgebra, validate_algebra, NotAGroup, Inconclusive
from .linalg import Mat, ShapeMismatch
from .hopfalgebroid import (BialgebroidData, HopfAlgebroidData, check_coring,
                            check_bialgebroid, check_hopf_algebroid)
from .reports import ViolationReport
from . import zoo
from . import galois
from . import torus as torusmod


LEVELS = ["algebra", "coring", "bialgebroid", "hopf-algebroid",
          "comodule", "covering", "cleft", "composition"]

# the levels each kind is checked at, the last its default: the Hopf-
# algebroid and comodule-algebra checks are stacks that stop at any level
# up to theirs, and every other kind has one check
KIND_LEVELS = {
    "algebra": ["algebra"],
    "groupoid": ["algebra"],
    "gset": ["algebra"],
    "hopf_algebroid": LEVELS[:LEVELS.index("hopf-algebroid") + 1],
    "comodule_algebra": LEVELS[:LEVELS.index("cleft") + 1],
    "composition": ["composition"],
    "cocycle": ["algebra"],
    "torus_params": ["algebra"],
}


# ---------------------------------------------------------------------------
# the document format

PAYLOAD = ("payload",)
# the JSON name of each Python type that json.load returns
_JSON = {"dict": "an object", "list": "an array", "str": "a string",
         "int": "an integer", "float": "a number", "bool": "a boolean",
         "NoneType": "null"}
# what a malformed record raises in an entry loop: a missing key, a record
# or literal of the wrong type, a bad literal
_FAST_ERRORS = (KeyError, TypeError, AttributeError, ValueError)


class DocumentError(Exception):
    """DocumentError(path, message): a malformed document or command line
    (exit 2); path is the tuple of keys and indices of the node at fault."""

    def __str__(self):
        path, message = self.args
        dotted = "".join("[%d]" % p if type(p) is int else "." + p
                         for p in path)
        return "%s: %s" % (dotted[1:], message) if path else message


def _label(path):           # the nearest key on path: a matrix or array name
    return repr(next(p for p in reversed(path) if type(p) is str))


def _get(node, path, key, kind=None, length=None):
    """node[key] (a key of an object or an index of an array), of JSON type
    kind and, when length is given, an array of length entries."""
    try:
        value = node[key]
    except KeyError:
        raise DocumentError(path, "missing key %r" % (key,)) from None
    if kind is not None and type(value) is not kind:
        raise DocumentError(path + (key,), "must be %s, not %s" % (
            _JSON[kind.__name__], _JSON.get(type(value).__name__, "?")))
    if length is not None and len(value) != length:
        raise DocumentError(path + (key,), "%s has %d entries, must have %d"
                            % (_label(path + (key,)), len(value), length))
    return value


def _int(node, path, key, lo=0, hi=None):
    """node[key]: a JSON integer (not a bool or a float), >= lo unless lo is
    None, and in range(hi) when hi is given.  The message names the bound
    that x crossed."""
    x = _get(node, path, key, int)
    if lo is not None and x < lo:
        raise DocumentError(path + (key,), "is %d, must be >= %d" % (x, lo))
    if hi is not None and x >= hi:
        raise DocumentError(path + (key,), "is %d, must be in range(%s)" % (
            x, "%d, %d" % (lo, hi) if lo else hi))
    return x


def _each(node, path, key, length, read, *args):
    """node[key]: an array (of length entries, when length is not None)
    whose entries read(array, path, index, *args) reads."""
    arr, p = _get(node, path, key, list, length), path + (key,)
    return [read(arr, p, n, *args) for n in range(len(arr))]


def _scalar(node, path, key, field):
    """node[key]: a scalar literal of field, which is a JSON string."""
    try:
        return field.parse(_get(node, path, key, str))
    except ValueError as exc:
        raise DocumentError(path + (key,), str(exc)) from None


def _reject(records, path, n, int_keys, bounds, scalar_key, field):
    """Raise the DocumentError for records[n] (integer keys, each in range
    of its bound, and a scalar literal), which an entry loop rejected."""
    record, p = _get(records, path, n, dict), path + (n,)
    for key, bound in zip(int_keys, bounds):
        _int(record, p, key, 0, bound)
    _scalar(record, p, scalar_key, field)
    raise DocumentError(p, "malformed entry")


# the largest cyclotomic order a document may name: CyclotomicField(N)
# tabulates z^t mod Phi_N for t < N when built, about 4x the time per
# doubling of N (0.02 s at N = 1000, 0.07 s at the prime 997, 2-vCPU host)
MAX_CYCLOTOMIC_ORDER = 1000


def parse_field(desc, path=("field",)):
    """The field of a JSON descriptor: "Q" or {"cyclotomic": N} with
    1 <= N <= MAX_CYCLOTOMIC_ORDER."""
    if desc == "Q":
        return QQ
    if type(desc) is dict and list(desc) == ["cyclotomic"]:
        return CyclotomicField(_int(desc, path, "cyclotomic", 1,
                                    MAX_CYCLOTOMIC_ORDER + 1))
    raise DocumentError(path, "unknown field descriptor: %r" % (desc,))


def field_to_json(field):
    if field == QQ:
        return "Q"
    return {"cyclotomic": field.order}


def mat_from_json(doc, field=QQ, path=("matrix",), rows=None, cols=None):
    """The matrix {"rows", "cols", "entries": [{"r", "c", "v"}]}, omitted
    entries zero; rows x cols when rows is given (cols None: at most rows
    columns, as independent columns are), checked before any entry is
    read."""
    nrows, ncols = _int(doc, path, "rows"), _int(doc, path, "cols")
    if rows is not None and (nrows != rows or (
            ncols > rows if cols is None else ncols != cols)):
        raise DocumentError(path, "%s is %dx%d, must be %dx%s" % (
            _label(path), nrows, ncols, rows,
            "n, n <= %d" % rows if cols is None else cols))
    out = [{} for _ in range(ncols)]
    parse, entries = field.parse, _get(doc, path, "entries", list)
    for n, e in enumerate(entries):
        try:
            r, c, x = e["r"], e["c"], parse(e["v"])
            ok = type(r) is int and type(c) is int \
                and 0 <= r < nrows and 0 <= c < ncols
        except _FAST_ERRORS:
            ok = False
        if not ok:
            _reject(entries, path + ("entries",), n, "rc", (nrows, ncols),
                    "v", field)
        if x:
            out[c][r] = x
        else:
            out[c].pop(r, None)
    return Mat.from_cols(out, nrows, field)


def shaped_mat_from_json(doc, key, rows, cols, field=QQ, path=PAYLOAD,
                         optional=False):
    """The rows x cols matrix doc[key] (cols None: at most rows columns);
    None when optional and the key is absent or null."""
    if optional and doc.get(key) is None:
        return None
    return _mat(doc, path, key, rows, cols, field)


def _mat(node, path, key, rows, cols, field):
    return mat_from_json(_get(node, path, key, dict), field, path + (key,),
                         rows, cols)


def mat_to_json(M):
    """Sparse matrix form, entries in row-major order: omitted entries are
    zero."""
    entries = sorted((i, j, x) for j, col in enumerate(M.sparse_cols())
                     for i, x in col.items())
    return {"rows": M.rows, "cols": M.cols,
            "entries": [{"r": i, "c": j, "v": M.field.format(x)}
                        for i, j, x in entries]}


def algebra_from_json(doc, field=None, path=PAYLOAD):
    """The FDAlgebra of doc, which must be over field when one is given."""
    F = parse_field(_get(doc, path, "field"), path + ("field",))
    if field is not None and F != field:
        raise DocumentError(path + ("field",),
                            "%r, but the document is over %r" % (F, field))
    dim = _int(doc, path, "dim")
    unit = _each(doc, path, "unit", dim, _scalar, F)
    mul = [[{} for _ in range(dim)] for _ in range(dim)]
    parse, triples = F.parse, _get(doc, path, "mul", list)
    for n, t in enumerate(triples):
        try:
            i, j, k, c = t["i"], t["j"], t["k"], parse(t["c"])
            ok = type(i) is int and type(j) is int and type(k) is int \
                and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim
        except _FAST_ERRORS:
            ok = False
        if not ok:
            _reject(triples, path + ("mul",), n, "ijk", (dim,) * 3, "c", F)
        if c:
            mul[i][j][k] = c
        else:
            mul[i][j].pop(k, None)
    return FDAlgebra(dim, mul, unit, F)


def _algebra(doc, path, key, field):
    return algebra_from_json(_get(doc, path, key, dict), field, path + (key,))


def algebra_to_json(A):
    F = A.field
    return {"field": field_to_json(F), "dim": A.dim,
            "unit": [F.format(A.unit.get(k, F.zero)) for k in range(A.dim)],
            "mul": [{"i": i, "j": j, "k": k, "c": F.format(c)}
                    for i in range(A.dim) for j in range(A.dim)
                    for k, c in sorted(A.mul[i][j].items())]}


def bialgebroid_from_json(doc, total, path=PAYLOAD):
    """The bialgebroid of doc, on the total algebra already read."""
    F, H = total.field, total.dim
    base, side = _algebra(doc, path, "base", F), _get(doc, path, "side", str)
    if side not in ("left", "right"):
        raise DocumentError(path + ("side",), "must be 'left' or 'right'")
    maps = [shaped_mat_from_json(doc, key, rows, cols, F, path)
            for key, rows, cols in (("s", H, base.dim), ("t", H, base.dim),
                                    ("delta_lift", H * H, H),
                                    ("counit", base.dim, H))]
    return BialgebroidData(total, base, side, *maps)


def bialgebroid_to_json(B):
    return {"base": algebra_to_json(B.base),
            "side": B.side,
            "s": mat_to_json(B.s),
            "t": mat_to_json(B.t),
            "delta_lift": mat_to_json(B.coproduct_lift),
            "counit": mat_to_json(B.counit)}


def hopf_from_json(doc, field=None, path=PAYLOAD):
    total = _algebra(doc, path, "total", field)
    leftb, rightb = (bialgebroid_from_json(_get(doc, path, key, dict), total,
                                           path + (key,))
                     for key in ("left", "right"))
    return HopfAlgebroidData(leftb, rightb, shaped_mat_from_json(
        doc, "antipode", total.dim, total.dim, total.field, path),
        name=doc.get("name"))


def hopf_to_json(Hd):
    return {"total": algebra_to_json(Hd.total),
            "left": bialgebroid_to_json(Hd.leftb),
            "right": bialgebroid_to_json(Hd.rightb),
            "antipode": mat_to_json(Hd.antipode),
            "name": Hd.name}


def comodule_from_json(doc, H=None, field=None, path=PAYLOAD):
    """The comodule algebra of doc; H, when given, is the Hopf algebroid
    already read from doc["hopf_algebroid"]."""
    if H is None:
        H = hopf_from_json(_get(doc, path, "hopf_algebroid", dict), field,
                           path + ("hopf_algebroid",))
    B = _algebra(doc, path, "B", H.total.field)
    F, dB, dH = B.field, B.dim, H.total.dim
    maps = [shaped_mat_from_json(doc, key, rows, cols, F, path)
            for key, rows, cols in (("inclusionA", dB, None),
                                    ("rhoR_lift", dB * dH, dB),
                                    ("rhoL_lift", dB * dH, dB))]
    etaR = shaped_mat_from_json(doc, "etaR", dB, H.rightb.base.dim, F, path,
                                optional=True)
    actL = None if doc.get("actL") is None else _each(
        doc, path, "actL", H.leftb.base.dim, _mat, dB, dB, F)
    try:
        return galois.ComoduleAlgebraData(H, B, *maps, etaR=etaR, actL=actL,
                                          name=doc.get("name"))
    except ShapeMismatch as exc:
        raise DocumentError(path, str(exc)) from None


def comodule_to_json(D):
    return {"hopf_algebroid": hopf_to_json(D.H),
            "B": algebra_to_json(D.B),
            "inclusionA": mat_to_json(D.inclusionA),
            "rhoR_lift": mat_to_json(D.rhoR_lift),
            "rhoL_lift": mat_to_json(D.rhoL_lift),
            "etaR": mat_to_json(D.etaR),
            "actL": [mat_to_json(a) for a in D.actL],
            "name": D.name}


def cocycle_from_json(doc, field=None, path=PAYLOAD):
    total = _algebra(doc, path, "total", field)
    BL = bialgebroid_from_json(_get(doc, path, "bialgebroid", dict), total,
                               path + ("bialgebroid",))
    N = _algebra(doc, path, "N", total.field)
    F, dN, dB = N.field, N.dim, total.dim
    maps = [shaped_mat_from_json(doc, key, dN, cols, F, path)
            for key, cols in (("etaN", BL.base.dim), ("action", dB * dN),
                              ("sigma", dB * dB))]
    return galois.CocycleData(BL, N, *maps, name=doc.get("name"))


def cocycle_to_json(C):
    return {"total": algebra_to_json(C.BL.total),
            "bialgebroid": bialgebroid_to_json(C.BL),
            "N": algebra_to_json(C.N),
            "etaN": mat_to_json(C.etaN),
            "action": mat_to_json(C.action),
            "sigma": mat_to_json(C.sigma),
            "name": C.name}


def composition_from_json(doc, field=None, path=PAYLOAD):
    """The composition of doc, as (D1, D, D2, phi, psi, f1, f), every part
    over the inner part's field.  Equal hopf_algebroid payloads (as JSON
    text, where 2 and 2.0 differ) are read once, so their comodule
    algebras share one H and its quotients."""
    parsed, parts = {}, []
    for key in ("inner", "middle", "outer"):
        part, p = _get(doc, path, key, dict), path + (key,)
        payload = _get(part, p, "hopf_algebroid", dict)
        text = json.dumps(payload, sort_keys=True)
        if text not in parsed:
            parsed[text] = hopf_from_json(payload, field,
                                          p + ("hopf_algebroid",))
        parts.append(comodule_from_json(part, parsed[text], field, p))
        field = parts[0].field
    (h1, h, h2), (b1, b, b2) = zip(*((E.H.total.dim, E.H.rightb.base.dim)
                                     for E in parts))
    return (*parts, shaped_mat_from_json(doc, "phi", h, h1, field, path),
            shaped_mat_from_json(doc, "psi", h2, h, field, path),
            shaped_mat_from_json(doc, "f1", b, b1, field, path, optional=True),
            shaped_mat_from_json(doc, "f", b2, b, field, path, optional=True))


def composition_to_json(D1, D, D2, phi, psi, f1=None, f=None):
    out = {"inner": comodule_to_json(D1),
           "middle": comodule_to_json(D),
           "outer": comodule_to_json(D2),
           "phi": mat_to_json(phi),
           "psi": mat_to_json(psi)}
    if f1 is not None:
        out["f1"] = mat_to_json(f1)
    if f is not None:
        out["f"] = mat_to_json(f)
    return out


def groupoid_from_json(doc, path=PAYLOAD):
    """The FiniteGroupoid of doc, with every id, end, composite, inverse and
    unit in range; the groupoid laws are FiniteGroupoid.validate's."""
    objects = _get(doc, path, "objects", list)
    morphs, p = _get(doc, path, "morphisms", list), path + ("morphisms",)
    m, n = len(objects), len(morphs)
    src, tgt = [None] * n, [None] * n
    for k in range(n):
        entry, q = _get(morphs, p, k, dict), p + (k,)
        f = _int(entry, q, "id", 0, n)
        if src[f] is not None:
            raise DocumentError(q + ("id",), "morphism %d is listed twice" % f)
        src[f], tgt[f] = _int(entry, q, "src", 0, m), _int(entry, q, "tgt",
                                                           0, m)
    compose = {(f, g): h for f, g, h in _each(doc, path, "compose", None,
                                              _ints, n, 3)}
    inv = dict(_each(doc, path, "inv", None, _ints, n, 2))
    if len(inv) != n:
        raise DocumentError(path + ("inv",), "morphism %d has no inverse"
                            % min(set(range(n)) - set(inv)))
    return zoo.FiniteGroupoid(objects, src, tgt, compose,
                              _ints(doc, path, "units", n, m),
                              [inv[f] for f in range(n)])


def _ints(node, path, key, bound, length=None):
    """node[key]: an array (of length entries) of integers in range(bound)."""
    return _each(node, path, key, length, _int, 0, bound)


def _table(doc, path):
    """doc["table"]: an n x n array of integers in range(n)."""
    n = len(_get(doc, path, "table", list))
    return _each(doc, path, "table", n, _ints, n, n)


def gset_from_json(doc, path=PAYLOAD):
    """The GSet of doc: a group table and a row of points per element, every
    entry in range; the group and action laws are GSet.validate's."""
    table = _table(doc, path)
    act = _get(doc, path, "act", list, len(table))
    points = len(act[0]) if act and type(act[0]) is list else 0
    return zoo.GSet(table, _each(doc, path, "act", None, _ints, points,
                                 points))


def load(path):
    """The document at path as a dict of its kind (None for a plain
    constructor payload, read as the payload of a kindless envelope),
    field (parsed, or None), level, payload and the JSON path of the
    payload (() for a plain payload)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError((), "cannot read %s: %s" % (path, exc.strerror))
    except (ValueError, RecursionError) as exc:  # e.g. JSONDecodeError
        raise DocumentError((), "%s: invalid JSON: %s" % (path, exc))
    if type(doc) is not dict:
        raise DocumentError((), "%s: must be a JSON object" % path)
    at = PAYLOAD if "kind" in doc else ()
    if not at:
        doc = {"kind": None, "field": doc.get("field"), "payload": doc}
    for key, known in (("kind", KIND_LEVELS), ("level", LEVELS)):
        value = doc.get(key)
        if value is not None and not (type(value) is str and value in known):
            raise DocumentError((key,), "unknown %s %r" % (key, value))
    field = doc.get("field")
    return {"kind": doc["kind"], "level": doc.get("level"), "path": at,
            "payload": _get(doc, (), "payload", dict),
            "field": None if field is None else parse_field(field)}


def write(path, kind, field, payload):
    doc = {"kind": kind, "field": field_to_json(field), "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# check

def _checks_for_hopf(Hd, upto):
    """The algebra check and, only when it holds, the coring, bialgebroid
    and Hopf-algebroid checks up to level index upto: their axioms are
    stated through products that assume associative algebras."""
    rep = ViolationReport()
    for A in (Hd.total, Hd.leftb.base, Hd.rightb.base):
        rep.merge(validate_algebra(A))
    checks = [("algebra", rep)]
    if not rep.ok:
        return checks
    sides = (Hd.leftb, Hd.rightb)
    if upto >= 1:
        corings = [check_coring(b) for b in sides]
        checks.append(("coring", ViolationReport().merge(corings[0])
                       .merge(corings[1])))
    if upto >= 2:
        rep = ViolationReport()
        for b, coring in zip(sides, corings):
            rep.merge(check_bialgebroid(b, coring))
        checks.append(("bialgebroid", rep))
    if upto >= 3:
        checks.append(("hopf-algebroid",
                       check_hopf_algebroid(Hd, skip_bialgebroids=True)))
    return checks


def _run_check(doc, level, path):
    kind, field, payload = doc["kind"], doc["field"], doc["payload"]
    upto = LEVELS.index(level)
    checks = []
    verdicts = {}
    if kind == "algebra":
        A = algebra_from_json(payload, field)
        checks.append(("algebra", validate_algebra(A)))
    elif kind in ("groupoid", "gset"):
        read = groupoid_from_json if kind == "groupoid" else gset_from_json
        structure = read(payload)            # every index is in range
        rep = ViolationReport()
        try:
            structure.validate()
        except (zoo.InvalidGroupoid, zoo.NotAnAction, NotAGroup) as exc:
            rep.require(False, kind + ":structure", note=str(exc))
        checks.append((kind, rep))
    elif kind == "hopf_algebroid":
        Hd = hopf_from_json(payload, field)
        checks.extend(_checks_for_hopf(Hd, upto))
    elif kind == "comodule_algebra":
        D = comodule_from_json(payload, field=field)
        hopf = _checks_for_hopf(D.H, min(upto, 3))
        checks.extend(hopf)
        checks.append(("B-algebra", validate_algebra(D.B)))
        # the comodule, covering and cleft axioms assume associative H, B
        if not (hopf[0][1].ok and checks[-1][1].ok):
            upto = LEVELS.index("hopf-algebroid")
        if upto >= 4:
            checks.append(("comodule", galois.check_comodule(D)))
        if upto >= 5:
            verdict = galois.check_covering(D)
            verdicts["covering"] = verdict.to_json()
            rep = ViolationReport()
            rep.require(verdict.is_covering, "covering:verdict",
                        note=json.dumps(verdict.to_json(), sort_keys=True))
            checks.append(("covering", rep))
        if upto >= 6:
            c = shaped_mat_from_json(payload, "cleft_witness", D.B.dim,
                                     D.H.total.dim, D.field)
            checks.append(("cleft", galois.check_cleft(D, c)))
    elif kind == "composition":
        D1, D, D2, phi, psi, f1, f = composition_from_json(payload, field)
        checks.append(("composition",
                       galois.check_composition(D1, D, D2, phi, psi,
                                                f1=f1, f=f)))
    elif kind == "cocycle":
        C = cocycle_from_json(payload, field)
        checks.append(("cocycle", galois.validate_cocycle(C)))
    elif kind == "torus_params":
        for key in payload:
            if key not in ("n", "m", "name"):
                raise DocumentError(PAYLOAD + (key,), "unknown key")
        code, report = _torus_battery(*_torus_params(payload, PAYLOAD))
        verdicts["torus"] = report
        rep = ViolationReport()
        rep.require(code == 0, "torus:battery")
        checks.append(("torus", rep))
    report = {
        "instance": payload.get("name") or os.path.basename(path),
        "kind": kind,
        "level": level,
        "checks": [{"name": name, "ok": rep.ok,
                    "violations": rep.to_json()} for name, rep in checks],
        "verdicts": verdicts,
    }
    ok = all(rep.ok for _, rep in checks)
    return (0 if ok else 1), report


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print("%s [%s] level %s" % (report["instance"], report["kind"],
                                report["level"]))
    for chk in report["checks"]:
        status = "ok" if chk["ok"] else "FAIL"
        print("  %-16s %s" % (chk["name"], status))
        for v in chk["violations"]:
            note = " (%s)" % v["note"] if v.get("note") else ""
            print("      tag %s indices %r%s" % (v["tag"], v["indices"],
                                                 note))
    for key, val in report.get("verdicts", {}).items():
        print("  %s: %s" % (key, json.dumps(val, sort_keys=True)))


def cmd_check(args):
    doc = load(args.path)
    kind = doc["kind"]
    if kind is None:
        raise DocumentError((), "missing key 'kind'")
    level = args.level or doc["level"] or KIND_LEVELS[kind][-1]
    if level not in KIND_LEVELS[kind]:
        raise DocumentError((), "level %s not applicable to kind %s"
                            % (level, kind))
    code, report = _run_check(doc, level, args.path)
    _print_report(report, args.json)
    return code


# ---------------------------------------------------------------------------
# build

def cmd_build(args):
    what = args.what
    out = args.output
    if what == "twisted":
        if args.n is None or args.t is None:
            raise DocumentError((), "build twisted needs --n and --t")
        A = zoo.twisted_group_algebra(args.n, args.t)
        from .algebra import wedderburn_shape
        shape = wedderburn_shape(A)
        write(out, "algebra", A.field, algebra_to_json(A))
        print("wedderburn shape: %s" % (tuple(shape),))
        return 0
    if args.input is None:
        raise DocumentError((), "build %s needs an input document" % what)
    doc = load(args.input)
    payload, at = doc["payload"], doc["path"]
    need = "gset" if what == "classical-covering" else "groupoid"
    if what not in ("smash", "coupled") and doc["kind"] != need:
        raise DocumentError((), "build %s needs a %s document" % (what, need))
    if what == "classical-covering":
        gs = gset_from_json(payload, at)
        D = zoo.classical_covering_instance(gs.table, gs)
        write(out, "comodule_algebra", D.field, comodule_to_json(D))
        verdict = galois.check_covering(D)
        print("covering verdict: %s"
              % json.dumps(verdict.to_json(), sort_keys=True))
        return 0
    if what == "smash":
        A = _algebra(payload, at, "A", doc["field"])
        table = _table(payload, at)
        Hd = zoo.smash_algebroid(A, table, _each(
            payload, at, "action", len(table), _mat, A.dim, A.dim, A.field))
    elif what == "coupled":
        field = doc["field"] or QQ
        table = _table(payload, at)
        H1, H2, C = zoo.coupled_from_character(
            zoo.group_hopf_algebra(table, field),
            _each(payload, at, "character", len(table), _scalar, field))
        Hd = HopfAlgebroidData(H1, H2, C, name="coupled pair")
    else:
        G = groupoid_from_json(payload, at)
        G.validate()
        if what == "groupoid-algebra":
            Hd = zoo.groupoid_algebra(G)
        elif what == "function-algebroid":
            Hd = zoo.function_algebroid(G)
        else:
            Hd = zoo.weak_hopf_to_algebroid(zoo.groupoid_weak_hopf(G))
    write(out, "hopf_algebroid", Hd.total.field, hopf_to_json(Hd))
    return 0


# ---------------------------------------------------------------------------
# torus battery

# the largest n and m of the torus battery, so that the slowest battery
# accepted runs in a few seconds (2.3 s at n = m = 10 on a 2-vCPU host):
# the product oracle makes 2 (nm)^2 n term products over Q(zeta_nm), the
# Galois determinant grows about as n^6, the coaction check as n^4 and
# the fibers, over Q(zeta_4m), as m^4; n * m and 4 * m stay within
# MAX_CYCLOTOMIC_ORDER
MAX_TORUS_N = 10
MAX_TORUS_M = 10


def _torus_params(node, path, prefix=""):
    """n and m of the battery, each node[prefix + key] read in
    [1, MAX_TORUS_N] or [1, MAX_TORUS_M] by _int, or 1 when missing or
    null."""
    return [1 if node.get(prefix + key) is None
            else _int(node, path, prefix + key, 1, top + 1)
            for key, top in (("n", MAX_TORUS_N), ("m", MAX_TORUS_M))]


def _torus_battery(n, m):
    """The exact battery: every verdict is decided on residues or at fixed
    points (see the torus module), so none depends on a seed."""
    grid = [Fraction(i, 4) for i in range(5)]
    report = {
        "n": n, "m": m,
        "oracle_mismatches": torusmod.oracle_mismatches(n, m),
        "fiber_exact": all(
            torusmod.best_fiber_variant(torusmod.fiber_matrices(n, m, x, y))
            is not None for x in grid for y in grid),
        "coaction": torusmod.torus_coaction_check(n),
        "galois_unit": torusmod.torus_galois_matrix(n)["unit"]}
    coact = report["coaction"]
    ok = (report["oracle_mismatches"] == 0 and report["fiber_exact"]
          and all(coact[k] for k in ("action_multiplicative",
                                     "invariance_exact", "coassociative"))
          and report["galois_unit"])
    return (0 if ok else 1), report


def cmd_torus(args):
    flags = {"--" + key: value for key, value in vars(args).items()}
    code, report = _torus_battery(*_torus_params(flags, (), "--"))
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for key, val in sorted(report.items()):
            print("%s: %s" % (key, val))
        print("result: %s" % ("pass" if code == 0 else "FAIL"))
    return code


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on the first main call and then reused."""
    parser = argparse.ArgumentParser(
        prog="halab",
        description="Exact checks for Hopf algebroids, comodule algebras "
                    "and noncommutative coverings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the check stack on a document")
    p.add_argument("path")
    p.add_argument("--level", choices=LEVELS, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="run a constructor and write the result")
    p.add_argument("what", choices=["groupoid-algebra", "function-algebroid",
                                    "smash", "coupled", "weak-to-algebroid",
                                    "twisted", "classical-covering"])
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "torus", help="decide the quantum-torus battery exactly",
        description="Decide the quantum-torus battery at q = zeta_nm: the "
                    "product oracle and the Z/n coaction on every residue "
                    "class of exponents, the fiber relations at 25 fixed "
                    "points (the quarters of [0, 1]^2) and the Galois "
                    "determinant.  No verdict depends on a seed.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_torus)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyError as exc:
        print("error: malformed document: missing key %r" % (exc.args[0],),
              file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print("error: malformed document: %r" % (exc,), file=sys.stderr)
        return 2
    except Inconclusive as exc:
        print("error: inconclusive: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
