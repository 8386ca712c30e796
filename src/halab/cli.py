"""Command-line front end: parse instance documents, run the cumulative
check stack, drive the constructors, and run the quantum-torus battery.

Documents are UTF-8 JSON with a {"kind", "field", "payload"} envelope;
exit codes: 0 all checks pass, 1 violations found, 2 input or schema
error, 3 a check that could not reach a verdict (Inconclusive)."""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .fields import parse_field, field_to_json
from .algebra import FDAlgebra, validate_algebra, NotAGroup, Inconclusive
from .hopfalgebroid import (HopfAlgebroidData, check_coring,
                            check_bialgebroid, check_hopf_algebroid,
                            hopf_to_json, hopf_from_json)
from .reports import ViolationReport
from .linalg import mat_from_json, shaped_mat_from_json
from . import zoo
from . import galois
from . import torus as torusmod


LEVELS = ["algebra", "coring", "bialgebroid", "hopf-algebroid",
          "comodule", "covering", "cleft", "composition"]

KIND_MAX_LEVEL = {
    "algebra": "algebra",
    "groupoid": "algebra",
    "gset": "algebra",
    "hopf_algebroid": "hopf-algebroid",
    "comodule_algebra": "cleft",
    "composition": "composition",
    "cocycle": "algebra",
    "torus_params": "algebra",
}


class DocumentError(Exception):
    """Schema or input problems: exit code 2."""


def _load(path, field_flag=None):
    if not os.path.exists(path):
        raise DocumentError("no such file: %s" % path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError("%s: invalid JSON: %s" % (path, exc))
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError("%s: missing 'kind' in envelope" % path)
    if doc["kind"] not in KIND_MAX_LEVEL:
        raise DocumentError("%s: unknown kind %r" % (path, doc["kind"]))
    if field_flag is not None and doc.get("field") is not None:
        raise DocumentError(
            "%s declares its own field; --field is not allowed" % path)
    if "payload" not in doc:
        raise DocumentError("%s: missing 'payload'" % path)
    if doc.get("field") is not None:
        _check_fields(path, parse_field(doc["field"]), doc["payload"])
    return doc


def _check_fields(path, declared, payload):
    """Every algebra in the payload (a dict with a 'field') must be over
    the field the envelope declares.  Only the JSON objects and arrays are
    pushed, so the scalars of the matrices are never visited."""
    stack = [payload] if type(payload) in (dict, list) else []
    while stack:
        node = stack.pop()
        if type(node) is dict:
            if "field" in node and parse_field(node["field"]) != declared:
                raise DocumentError(
                    "%s: envelope field %r but payload algebra over %r"
                    % (path, declared, parse_field(node["field"])))
            node = node.values()
        for v in node:
            if type(v) is dict or type(v) is list:
                stack.append(v)


def _level_index(level):
    if level not in LEVELS:
        raise DocumentError("unknown level %r" % level)
    return LEVELS.index(level)


def _checks_for_hopf(Hd, upto):
    checks = []
    if upto >= 0:
        rep = ViolationReport()
        rep.merge(validate_algebra(Hd.total))
        rep.merge(validate_algebra(Hd.leftb.base))
        rep.merge(validate_algebra(Hd.rightb.base))
        checks.append(("algebra", rep))
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


def _run_check(doc, level, path, seed):
    kind = doc["kind"]
    payload = doc["payload"]
    upto = _level_index(level)
    checks = []
    verdicts = {}
    if kind == "algebra":
        A = FDAlgebra.from_json(payload)
        checks.append(("algebra", validate_algebra(A)))
    elif kind == "groupoid":
        rep = ViolationReport()
        try:
            zoo.FiniteGroupoid.from_json(payload).validate()
        except (zoo.InvalidGroupoid, KeyError, IndexError) as exc:
            rep.require(False, "groupoid:structure", note=str(exc))
        checks.append(("groupoid", rep))
    elif kind == "gset":
        rep = ViolationReport()
        try:
            zoo.GSet(payload["table"], payload["act"]).validate()
        except (zoo.NotAnAction, NotAGroup) as exc:
            rep.require(False, "gset:structure", note=str(exc))
        checks.append(("gset", rep))
    elif kind == "hopf_algebroid":
        Hd = hopf_from_json(payload)
        checks.extend(_checks_for_hopf(Hd, upto))
    elif kind == "comodule_algebra":
        D = galois.comodule_from_json(payload)
        checks.extend(_checks_for_hopf(D.H, min(upto, 3)))
        if upto >= 0:
            checks.append(("B-algebra", validate_algebra(D.B)))
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
            if "cleft_witness" not in payload:
                raise DocumentError(
                    "%s: level cleft needs payload.cleft_witness" % path)
            c = galois.ConvMorphism(D, "R", "L", shaped_mat_from_json(
                payload, "cleft_witness", D.B.dim, D.H.total.dim, D.field))
            checks.append(("cleft", galois.check_cleft(D, c, seed)))
    elif kind == "composition":
        D1, D, D2, phi, psi, f1, f = galois.composition_from_json(payload)
        checks.append(("composition",
                       galois.check_composition(D1, D, D2, phi, psi,
                                                f1=f1, f=f)))
    elif kind == "cocycle":
        C = galois.cocycle_from_json(payload)
        checks.append(("cocycle", galois.validate_cocycle(C)))
    elif kind == "torus_params":
        code, report = _torus_battery(
            payload.get("n", 1), payload.get("m", 1),
            payload.get("samples", 100), payload.get("radius", None),
            payload.get("seed", seed))
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
    doc = _load(args.path, args.field)
    level = args.level or doc.get("level") or KIND_MAX_LEVEL[doc["kind"]]
    if _level_index(level) > _level_index(KIND_MAX_LEVEL[doc["kind"]]):
        raise DocumentError("level %s not applicable to kind %s"
                            % (level, doc["kind"]))
    code, report = _run_check(doc, level, args.path, args.seed)
    _print_report(report, args.json)
    return code


# ---------------------------------------------------------------------------
# build

def _write_doc(path, kind, field, payload):
    doc = {"kind": kind, "field": field, "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_build(args):
    what = args.what
    out = args.output
    if what == "twisted":
        if args.n is None or args.t is None:
            raise DocumentError("build twisted needs --n and --t")
        A = zoo.twisted_group_algebra(args.n, args.t)
        from .algebra import wedderburn_shape
        shape = wedderburn_shape(A)
        _write_doc(out, "algebra", field_to_json(A.field), A.to_json())
        print("wedderburn shape: %s" % (tuple(shape),))
        return 0
    if args.input is None:
        raise DocumentError("build %s needs an input document" % what)
    if not os.path.exists(args.input):
        raise DocumentError("no such file: %s" % args.input)
    try:
        with open(args.input, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError("%s: invalid JSON: %s" % (args.input, exc))
    if "kind" in doc:
        payload = doc.get("payload")
        if payload is None:
            raise DocumentError("%s: missing 'payload'" % args.input)
    else:
        # constructor inputs without a checkable kind are plain payloads
        payload = doc
        doc = {"kind": None, "field": doc.get("field"), "payload": payload}
    if what in ("groupoid-algebra", "function-algebroid",
                "weak-to-algebroid"):
        if doc["kind"] != "groupoid":
            raise DocumentError("build %s needs a groupoid document" % what)
        G = zoo.FiniteGroupoid.from_json(payload)
        G.validate()
        if what == "groupoid-algebra":
            Hd = zoo.groupoid_algebra(G)
        elif what == "function-algebroid":
            Hd = zoo.function_algebroid(G)
        else:
            Hd = zoo.weak_hopf_to_algebroid(zoo.groupoid_weak_hopf(G))
        _write_doc(out, "hopf_algebroid", field_to_json(Hd.total.field),
                   hopf_to_json(Hd))
        return 0
    if what == "smash":
        A = FDAlgebra.from_json(payload["A"])
        action = [mat_from_json(m, A.field) for m in payload["action"]]
        Hd = zoo.smash_algebroid(A, payload["table"], action)
        _write_doc(out, "hopf_algebroid", field_to_json(Hd.total.field),
                   hopf_to_json(Hd))
        return 0
    if what == "coupled":
        field = parse_field(doc.get("field") or "Q")
        Hd = zoo.group_hopf_algebra(payload["table"], field)
        sigma = [field.parse(v) for v in payload["character"]]
        H1, H2, C = zoo.coupled_from_character(Hd, sigma)
        out_hd = HopfAlgebroidData(H1, H2, C, name="coupled pair")
        _write_doc(out, "hopf_algebroid", field_to_json(field),
                   hopf_to_json(out_hd))
        return 0
    if what == "classical-covering":
        if doc["kind"] != "gset":
            raise DocumentError("build classical-covering needs a gset "
                                "document")
        gs = zoo.GSet(payload["table"], payload["act"])
        D = zoo.classical_covering_instance(payload["table"], gs)
        _write_doc(out, "comodule_algebra", field_to_json(D.field),
                   galois.comodule_to_json(D))
        verdict = galois.check_covering(D)
        print("covering verdict: %s"
              % json.dumps(verdict.to_json(), sort_keys=True))
        return 0
    raise DocumentError("unknown constructor %r" % what)


# ---------------------------------------------------------------------------
# torus battery

def _torus_battery(n, m, samples, radius, seed):
    import random as _random
    if n < 1 or m < 1:
        raise DocumentError("torus parameters must be positive")
    rng = _random.Random(seed)
    report = {"n": n, "m": m, "samples": samples, "seed": seed}
    mismatches = 0
    for _ in range(samples):
        f = torusmod.random_qt(n, m, rng)
        g = torusmod.random_qt(n, m, rng)
        lhs = torusmod.recompose(
            torusmod.chi_product(torusmod.decompose(f), torusmod.decompose(g)))
        if lhs != torusmod.qt_mul(f, g):
            mismatches += 1
    report["oracle_mismatches"] = mismatches
    grid = [Fraction(i, 4) for i in range(5)]
    report["fiber_exact"] = all(
        torusmod.best_fiber_variant(torusmod.fiber_matrices(n, m, x, y))
        is not None for x in grid for y in grid)
    rad = radius if radius is not None else max(n, 3)
    coact = torusmod.torus_coaction_check(n, rad, seed=seed)
    report["coaction"] = coact
    report["galois_unit"] = torusmod.torus_galois_matrix(n)["unit"]
    ok = (mismatches == 0 and report["fiber_exact"]
          and all(coact[k] for k in ("action_multiplicative",
                                     "invariance_exact", "coassociative"))
          and report["galois_unit"])
    return (0 if ok else 1), report


def cmd_torus(args):
    code, report = _torus_battery(args.n, args.m, args.samples, args.radius,
                                  args.seed)
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
    p.add_argument("--field", default=None,
                   help="field for documents that do not declare one")
    p.add_argument("--seed", type=int, default=None)
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

    p = sub.add_parser("torus", help="run the quantum-torus battery")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_torus)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            seed = os.environ.get("HALAB_SEED", "0")
            try:
                args.seed = int(seed)
            except ValueError:
                raise DocumentError(
                    "HALAB_SEED must be an integer, not %r" % seed) from None
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
