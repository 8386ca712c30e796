"""The document format (halab.cli): every shipped document survives a
write after a read byte for byte, every malformed document exits 2 with a
message that names its JSON path, and no value is coerced.

The property test draws a seeded sample of single-field mutations of every
shipped document, one class at a time: drop a key, an index out of range
(-1 and the bound it indexes), a wrong dim, a float or a string for an
integer, a number for a scalar literal, a bad literal and a field swap.
Each mutant may exit 0, 1, 2 or 3 and must not raise; exit 2 must name a
JSON path."""

import json
import os
import random
import re

import pytest

from halab.cli import (main, algebra_from_json, algebra_to_json,
                       hopf_from_json, hopf_to_json, comodule_from_json,
                       comodule_to_json, cocycle_from_json, cocycle_to_json,
                       composition_from_json, composition_to_json,
                       mat_to_json, shaped_mat_from_json, MAX_TORUS_N,
                       MAX_TORUS_M)

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "documents")
SHIPPED = sorted(n for n in os.listdir(DOCS) if n.endswith(".json"))


def _read(name):
    with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
        return json.load(fh)


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=1)


def _round_trip(kind, payload):
    if kind == "algebra":
        return algebra_to_json(algebra_from_json(payload))
    if kind == "hopf_algebroid":
        return hopf_to_json(hopf_from_json(payload))
    if kind == "comodule_algebra":
        D = comodule_from_json(payload)
        out = comodule_to_json(D)
        if "cleft_witness" in payload:
            out["cleft_witness"] = mat_to_json(shaped_mat_from_json(
                payload, "cleft_witness", D.B.dim, D.H.total.dim, D.field))
        return out
    if kind == "cocycle":
        return cocycle_to_json(cocycle_from_json(payload))
    assert kind == "composition"
    return composition_to_json(*composition_from_json(payload))


STRUCTURED = [n for n in SHIPPED
              if _read(n)["kind"] not in ("groupoid", "gset")]


def test_fourteen_structured_documents():
    assert len(STRUCTURED) == 14


@pytest.mark.parametrize("name", STRUCTURED)
def test_write_after_read_gives_the_payload_back(name):
    doc = _read(name)
    assert _dumps(_round_trip(doc["kind"], doc["payload"])) \
        == _dumps(doc["payload"])


# ---------------------------------------------------------------------------
# single-field mutations

def _sites(node, path=(), bounds=None):
    """(path, value, bound) of every node below node; bound is the range
    an integer leaf indexes (None when it indexes nothing), looked up by
    the nearest key on its path."""
    bounds = dict(bounds or {})
    if isinstance(node, dict):
        keys = set(node)
        if {"rows", "cols", "entries"} <= keys:
            bounds.update(r=node["rows"], c=node["cols"])
        elif {"dim", "mul"} <= keys:
            bounds.update(dict.fromkeys("ijk", node["dim"]))
        elif {"morphisms", "objects"} <= keys:
            n, m = len(node["morphisms"]), len(node["objects"])
            bounds.update(id=n, src=m, tgt=m, compose=n, inv=n, units=n)
        elif {"table", "act"} <= keys:
            bounds.update(table=len(node["table"]), act=len(node["act"][0]))
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        where = path + (key,)
        named = next(k for k in reversed(where) if isinstance(k, str))
        yield where, value, bounds.get(named)
        yield from _sites(value, where, bounds)


DROP = object()                 # the new value that deletes the key
LITERAL_KEYS = ("v", "c", "unit", "character")


def _is_literal(path):
    return any(key in LITERAL_KEYS for key in path[-2:]
               if isinstance(key, str))


def mutations(doc):
    """(class, path, new value or DROP) of every single-field mutation."""
    out = []
    for path, value, bound in _sites(doc):
        key = path[-1]
        if isinstance(key, str) and key != "kind":
            out.append(("drop", path, DROP))
        if type(value) is int and bound is not None:
            out += [("index", path, -1), ("index", path, bound)]
        if type(value) is int and key in ("dim", "rows", "cols"):
            out += [("dim", path, value + 1), ("dim", path, value - 1)]
        if type(value) is int:
            out += [("type", path, value + 0.0), ("type", path, str(value))]
        if type(value) is str and _is_literal(path):
            out += [("number", path, 1), ("number", path, 0.5),
                    ("literal", path, "1/0"), ("literal", path, "x"),
                    ("literal", path, "")]
        if key == "field":
            out += [("field", path, swap) for swap in
                    ("Q", {"cyclotomic": 3}, "Q(zeta_3)", None)
                    if swap != value]
    return out


def _mutant(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


CLASSES = ("drop", "index", "dim", "type", "number", "literal", "field")
SAMPLES = 16            # mutants drawn per class and document

# a JSON path as printed (payload.left.s.entries[3].r, field, ...) or a
# missing key of the envelope itself
NAMES_A_PATH = re.compile(
    r"error: ((payload|field|kind|level)(\.\w+|\[\d+\])*: "
    r"|missing key '\w+'$)")


def test_single_field_mutations_never_raise(tmp_path, capsys):
    rng = random.Random(15)
    path = str(tmp_path / "mutant.json")
    seen = dict.fromkeys(CLASSES, 0)
    for name in SHIPPED:
        doc = _read(name)
        by_class = {}
        for m in mutations(doc):
            by_class.setdefault(m[0], []).append(m)
        for cls, ms in sorted(by_class.items()):
            for _, where, value in rng.sample(ms, min(SAMPLES, len(ms))):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(_mutant(doc, where, value), fh)
                code = main(["check", path, "--json"])
                out, err = capsys.readouterr()
                case = (name, cls, where, value)
                assert code in (0, 1, 2, 3), case
                if code == 2:
                    assert NAMES_A_PATH.match(err.strip()), (case, err)
                    assert not out, case
                seen[cls] += 1
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# the malformed documents named in the format's history


def _dotted(where):
    return "".join("[%d]" % k if isinstance(k, int) else "." + k
                   for k in where).lstrip(".")


def _check_mutant(tmp_path, capsys, name, where, value):
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(_mutant(_read(name), where, value)))
    code = main(["check", str(p)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("where, value, named", [
    (("payload", "total", "unit", 0), 1, "payload.total.unit[0]"),
    (("payload", "left", "s", "entries", 0, "v"), 1,
     "payload.left.s.entries[0].v"),
])
def test_a_numeric_scalar_names_its_path(tmp_path, capsys, where, value,
                                         named):
    code, captured = _check_mutant(tmp_path, capsys, "kz3_hopf.json", where,
                                   value)
    assert code == 2
    assert captured.err.startswith("error: %s: must be a string" % named)


@pytest.mark.parametrize("text", ["{not json", "[" * 100000, "\udcff",
                                  "[1, 2]"])
def test_a_file_that_is_no_json_object_exits_2(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: %s: " % p)


@pytest.mark.parametrize("what, name, where, value, message", [
    ("coupled", "z4_character.json", ("character",), [1, 1, 1, 1],
     "character[0]: must be a string, not an integer"),
    ("smash", "smash_swap_input.json", ("action", 1, "entries", 0, "v"), 1,
     "action[1].entries[0].v: must be a string, not an integer"),
    ("smash", "smash_swap_input.json", ("action", 1, "rows"), 3,
     "action[1]: 'action' is 3x2, must be 2x2"),
    ("smash", "smash_swap_input.json", ("table", 1, 0), 2,
     "table[1][0]: is 2, must be in range(2)"),
])
def test_a_plain_build_input_names_its_path(tmp_path, capsys, what, name,
                                            where, value, message):
    """A constructor input without an envelope is its own root: the path
    starts at its top-level key."""
    src = tmp_path / "input.json"
    src.write_text(json.dumps(_mutant(_read(os.path.join("inputs", name)),
                                      where, value)))
    out = tmp_path / "out.json"
    assert main(["build", what, str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("where, value", [
    (("payload", "total", "dim"), "3"),
    (("payload", "total", "dim"), 3.9),
    (("payload", "total", "dim"), 3.0),
    (("payload", "antipode", "rows"), 3.2),
    (("payload", "left", "s", "entries", 0, "r"), 1.5),
    (("payload", "left", "s", "entries", 0, "r"), True),
    (("payload", "total", "mul"), {}),
    (("payload", "total", "mul", 0, "k"), False),
])
def test_no_value_is_coerced(tmp_path, capsys, where, value):
    """A string, a float or a bool for an integer and an object for an
    array are input errors, never coerced into a verdict."""
    code, captured = _check_mutant(tmp_path, capsys, "kz3_hopf.json", where,
                                   value)
    assert code == 2 and captured.err.startswith("error: " + _dotted(where)), \
        captured.err


def test_inclusion_has_at_most_as_many_columns_as_rows(tmp_path, capsys):
    """inclusionA's columns are independent, so it has no more columns than
    B has dimensions; a wider declared shape exits 2 before any column is
    allocated (so a width of 10**12 cannot exhaust memory)."""
    where = ("payload", "inclusionA", "cols")
    code, captured = _check_mutant(tmp_path, capsys, "kz2_cleft.json", where,
                                   3)
    assert code == 2
    assert captured.err == ("error: payload.inclusionA: 'inclusionA' is 2x3, "
                            "must be 2xn, n <= 2\n")


def test_a_shared_hopf_algebroid_is_read_for_every_part(tmp_path, capsys):
    """The outer part of chain_z2_z4.json repeats the inner part's Hopf
    algebroid; a float dim there is read and rejected, not matched to the
    inner part's payload because 2.0 == 2."""
    doc = _read("chain_z2_z4.json")["payload"]
    assert doc["outer"]["hopf_algebroid"] == doc["inner"]["hopf_algebroid"]
    where = ("payload", "outer", "hopf_algebroid", "total", "dim")
    code, captured = _check_mutant(tmp_path, capsys, "chain_z2_z4.json",
                                   where, 2.0)
    assert code == 2 and captured.err.startswith("error: " + _dotted(where))


@pytest.mark.parametrize("key, value, message", [
    ("m", "10", "payload.m: must be an integer, not a string"),
    ("m", -3, "payload.m: is -3, must be >= 1"),
    ("n", True, "payload.n: must be an integer, not a boolean"),
    ("n", 2.25, "payload.n: must be an integer, not a number"),
])
def test_torus_parameters_are_not_coerced(tmp_path, capsys, key, value,
                                          message):
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"kind": "torus_params", "field": None,
                             "payload": {"n": 1, key: value}}))
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("payload, key", [
    ({"n": 2, "M": 3, "samples": 5}, "M"),
    ({"n": 2, "samples": 100}, "samples"),
    ({"n": 2, "radius": 60}, "radius"),
    ({"n": 2, "seed": 0}, "seed"),
])
def test_torus_parameters_reject_unknown_keys(tmp_path, capsys, payload,
                                              key):
    """A torus_params payload holds n, m and name alone: a misspelt key or
    one of the removed samples, radius and seed keys exits 2 and names
    the first such key, before any of the battery runs."""
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"kind": "torus_params", "field": None,
                             "payload": payload}))
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: payload.%s: unknown key\n" % key


def test_torus_parameters_take_a_name(tmp_path, capsys):
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"kind": "torus_params", "field": None,
                             "payload": {"name": "torus", "n": 2, "m": 1}}))
    assert main(["check", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["instance"] == "torus"


_TORUS_BOUNDS = [("n", 1, MAX_TORUS_N), ("m", 1, MAX_TORUS_M)]


def _torus_range(lo, top):
    return "range(%d, %d)" % (lo, top + 1)


@pytest.mark.parametrize("key, lo, top", _TORUS_BOUNDS)
def test_torus_parameters_are_bounded(tmp_path, capsys, key, lo, top):
    """A torus_params value past its bound exits 2 and names its key,
    before any of the battery runs; so does the matching halab torus
    flag."""
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"kind": "torus_params", "field": None,
                             "payload": {"n": 1, key: top + 1}}))
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == "error: payload.%s: is %d, must be " \
        "in %s\n" % (key, top + 1, _torus_range(lo, top))
    args = {"n": "1", key: str(top + 1)}
    assert main(["torus"] + ["--%s=%s" % item for item in args.items()]) == 2
    assert capsys.readouterr().err == "error: --%s: is %d, must be in %s\n" \
        % (key, top + 1, _torus_range(lo, top))
    assert main(["torus", "--n=1", "--%s=%d" % (key, lo - 1)]) == 2
    assert capsys.readouterr().err == "error: --%s: is %d, must be >= %d\n" \
        % (key, lo - 1, lo)


@pytest.mark.parametrize("key, lo, top", _TORUS_BOUNDS)
def test_torus_bounds_are_accepted(tmp_path, capsys, key, lo, top):
    """Each bound itself is accepted, the others kept small."""
    params = {"n": 1, key: top}
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"kind": "torus_params", "field": None,
                             "payload": params}))
    assert main(["check", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["torus"][
        key] == top
    assert main(["torus"] + ["--%s=%d" % item
                             for item in params.items()]) == 0


@pytest.mark.parametrize("where, value", [
    (("payload", "morphisms", 2, "id"), -1),
    (("payload", "morphisms", 2, "id"), 3),
    (("payload", "morphisms", 2, "id"), 1),
    (("payload", "morphisms", 0, "src"), -1),
    (("payload", "morphisms", 0, "tgt"), 1),
    (("payload", "compose", 4, 2), -1),
    (("payload", "inv", 2, 0), -1),
    (("payload", "inv", 2, 1), 3),
    (("payload", "units", 0), -1),
])
def test_groupoid_indices_are_range_checked(tmp_path, capsys, where, value):
    """A negative or too large morphism or object index does not wrap
    around, and no morphism is listed twice: check and build both exit 2
    and name the index."""
    dotted = _dotted(where)
    code, captured = _check_mutant(tmp_path, capsys, "z3_groupoid.json",
                                   where, value)
    assert code == 2 and captured.err.startswith("error: " + dotted)
    src, out = tmp_path / "mutant.json", tmp_path / "built.json"
    assert main(["build", "groupoid-algebra", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: " + dotted)
    assert not out.exists()
