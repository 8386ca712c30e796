import json
import os
import random

import pytest

from halab.cli import main

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "documents")


def doc_paths():
    out = []
    for name in sorted(os.listdir(DOCS)):
        if name.endswith(".json"):
            out.append(os.path.join(DOCS, name))
    return out


EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "expected.json")


class TestCheckDocuments:
    def test_shipped_documents(self, capsys):
        assert doc_paths(), "document corpus missing"
        with open(EXPECTED, encoding="utf-8") as fh:
            golden = json.load(fh)["docs"]
        assert sorted(golden) == sorted(map(os.path.basename, doc_paths()))
        for path in doc_paths():
            expected = 1 if os.path.basename(path).startswith("mut_") else 0
            code = main(["check", path])
            capsys.readouterr()
            assert code == expected, path
            # exit code and --json bytes as recorded in bench/expected.json
            recorded = golden[os.path.basename(path)]
            assert main(["check", path, "--json"]) == recorded["exit"], path
            assert capsys.readouterr().out == recorded["json"], path

    def test_bialgebroid_level_builds_each_triple_once(self, monkeypatch,
                                                       capsys):
        import halab.bimod
        ambient_dims = []
        original = halab.bimod.quotient_by

        def counting(ambient_dim, relation_vectors, field):
            ambient_dims.append(ambient_dim)
            return original(ambient_dim, relation_vectors, field)

        monkeypatch.setattr(halab.bimod, "quotient_by", counting)
        path = os.path.join(DOCS, "kz3_hopf.json")
        assert main(["check", path, "--level", "bialgebroid"]) == 0
        capsys.readouterr()
        # one H (x)_base H (x)_base H, shared by the coring and bialgebroid
        # levels and, since kZ3's two sides act alike, by both sides
        assert ambient_dims.count(3 ** 3) == 1
        # smash_swap's sides act differently: one triple each
        ambient_dims.clear()
        path = os.path.join(DOCS, "smash_swap.json")
        assert main(["check", path, "--level", "bialgebroid"]) == 0
        capsys.readouterr()
        assert ambient_dims.count(8 ** 3) == 2

    def test_documents_twice_in_shuffled_order(self, capsys):
        """No state of one call leaks into the next: every shipped document,
        twice in one process and in a shuffled order, gives the exit code
        and --json bytes recorded in bench/expected.json both times."""
        with open(EXPECTED, encoding="utf-8") as fh:
            golden = json.load(fh)["docs"]
        paths = doc_paths() * 2
        random.Random(5).shuffle(paths)
        for path in paths:
            recorded = golden[os.path.basename(path)]
            assert main(["check", path, "--json"]) == recorded["exit"], path
            assert capsys.readouterr().out == recorded["json"], path

    def test_mutation_reports_name_the_tag(self, capsys):
        path = os.path.join(DOCS, "mut_broken_counit.json")
        assert main(["check", path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        text = json.dumps(report)
        assert "counit" in text

    def test_json_output_is_deterministic(self, capsys):
        path = os.path.join(DOCS, "kz3_hopf.json")
        assert main(["check", path, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["check", path, "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_scalar_extension_keeps_every_report(self, tmp_path, capsys):
        """Q(zeta_3) contains Q and a rational document keeps its basis
        there, so every document over Q, read over Q(zeta_3) instead,
        gives the same exit code and the same --json bytes."""
        def over_q_zeta_3(node):
            if isinstance(node, dict):
                return {k: {"cyclotomic": 3} if k == "field"
                        else over_q_zeta_3(v) for k, v in node.items()}
            if isinstance(node, list):
                return [over_q_zeta_3(v) for v in node]
            return node
        extended = 0
        for path in doc_paths():
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("field") not in (None, "Q"):
                continue
            doc = over_q_zeta_3(doc)
            doc["field"] = {"cyclotomic": 3}
            p = tmp_path / os.path.basename(path)
            p.write_text(json.dumps(doc))
            code = main(["check", path, "--json", "--seed", "1"])
            over_q = capsys.readouterr().out
            assert main(["check", str(p), "--json", "--seed", "1"]) == code
            assert capsys.readouterr().out == over_q, path
            extended += 1
        assert extended == 15

    def test_level_override(self, capsys):
        path = os.path.join(DOCS, "kz3_hopf.json")
        assert main(["check", path, "--level", "algebra"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_inconclusive_exits_3(self, monkeypatch, capsys, flags):
        """A check that cannot reach a verdict is neither a failure (exit
        1) nor a traceback: it prints the reason and exits 3."""
        import halab.algebra
        import halab.galois

        def exhausted(*args):
            raise halab.algebra.Inconclusive("normal-basis search exhausted")

        monkeypatch.setattr(halab.galois, "check_cleft", exhausted)
        path = os.path.join(DOCS, "kz2_cleft.json")
        assert main(["check", path] + flags) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: inconclusive: normal-basis search exhausted\n"


class TestSchemaErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "no-such-file.json"]) == 2
        capsys.readouterr()

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["check", str(p)]) == 2
        capsys.readouterr()

    def test_unknown_kind(self, tmp_path, capsys):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"kind": "mystery", "field": None,
                                 "payload": {}}))
        assert main(["check", str(p)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name, key, value", [
        ("kz3_hopf.json", "v", "1/0"),
        ("kz3_hopf.json", "r", 99),
        ("kz3_hopf.json", "c", -1),
        ("z4_coupled.json", "v", "1/0 + z"),
    ])
    def test_bad_matrix_entry(self, tmp_path, capsys, name, key, value):
        """A zero denominator or an out-of-range index is an input error
        (exit 2 with a message), not a failed check."""
        with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        stack = [doc]
        while not (isinstance(stack[-1], dict) and "entries" in stack[-1]
                   and stack[-1]["entries"]):
            node = stack.pop()
            stack.extend(node.values() if isinstance(node, dict) else
                         node if isinstance(node, list) else [])
        stack[-1]["entries"][0][key] = value
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [-1, 0, 2])
    def test_bad_base_dim(self, tmp_path, capsys, dim):
        with open(os.path.join(DOCS, "kz3_hopf.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["payload"]["left"]["base"]["dim"] = dim
        p = tmp_path / "bad_dim.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key, value", [
        (("left", "s"), "rows", 4),
        (("right", "t"), "cols", 2),
        (("left", "delta_lift"), "rows", 10),
        (("right", "counit"), "rows", 2),
        (("antipode",), "cols", 4),
    ])
    def test_structure_map_shape(self, tmp_path, capsys, where, key, value):
        with open(os.path.join(DOCS, "kz3_hopf.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        node = doc["payload"]
        for step in where:
            node = node[step]
        node[key] = value
        p = tmp_path / "bad_shape.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert where[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("key, attr, value", [
        ("inclusionA", "rows", 3),
        ("etaR", "cols", 3),
        ("rhoR_lift", "rows", 6),
        ("rhoL_lift", "cols", 3),
        ("actL", "rows", 3),
        ("cleft_witness", "cols", 3),
    ])
    def test_comodule_map_shape(self, tmp_path, capsys, key, attr, value):
        """A comodule-algebra map of the wrong shape exits 2 and names its
        key, at whatever level the check would first use it."""
        with open(os.path.join(DOCS, "kz2_cleft.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        node = doc["payload"][key]
        (node[0] if key == "actL" else node)[attr] = value
        p = tmp_path / "bad_shape.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_comodule_action_count(self, tmp_path, capsys):
        with open(os.path.join(DOCS, "kz2_cleft.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["payload"]["actL"].append(doc["payload"]["actL"][0])
        p = tmp_path / "two_actions.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert "'actL'" in capsys.readouterr().err

    @staticmethod
    def _composition_with_base_maps():
        """chain_z2_z4.json with the identity base maps f1 and f written
        out, which check_composition otherwise assumes."""
        from halab.galois import composition_from_json
        from halab.linalg import Mat, mat_to_json
        with open(os.path.join(DOCS, "chain_z2_z4.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        D1, D, D2 = composition_from_json(doc["payload"])[:3]
        for key, E in (("f1", D1), ("f", D)):
            doc["payload"][key] = mat_to_json(Mat.identity(
                E.H.rightb.base.dim, E.field))
        return doc

    @pytest.mark.parametrize("name, key", [
        ("klein_cocycle.json", "etaN"), ("klein_cocycle.json", "action"),
        ("klein_cocycle.json", "sigma"), ("chain_z2_z4.json", "phi"),
        ("chain_z2_z4.json", "psi"), ("chain_z2_z4.json", "f1"),
        ("chain_z2_z4.json", "f")])
    @pytest.mark.parametrize("attr, delta", [("rows", 1), ("rows", -1),
                                             ("cols", 1), ("cols", -1)])
    def test_cocycle_and_composition_map_shape(self, tmp_path, capsys, name,
                                               key, attr, delta):
        """A cocycle or composition matrix one row or column too many or
        too few exits 2 with a message that names its key: never a
        verdict, a failed check or a traceback."""
        if name == "chain_z2_z4.json":
            doc = self._composition_with_base_maps()
            p = tmp_path / "base_maps.json"
            p.write_text(json.dumps(doc))
            assert main(["check", str(p)]) == 0
            capsys.readouterr()
        else:
            with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["payload"][key][attr] += delta
        p = tmp_path / "bad_shape.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p), "--json"]) == 2
        captured = capsys.readouterr()
        assert repr(key) in captured.err and not captured.out

    @pytest.mark.parametrize("name", ["mut_cocycle.json",
                                      "mut_composition_psi.json"])
    def test_shaped_mutations_still_fail_their_checks(self, capsys, name):
        """The mutated cocycle and composition documents, whose matrices
        have the right shapes, still exit 1 with the tags recorded in
        bench/expected.json."""
        with open(EXPECTED, encoding="utf-8") as fh:
            tags = json.load(fh)["docs"][name]["tags"]
        assert tags
        assert main(["check", os.path.join(DOCS, name), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert sorted({v["tag"] for chk in report["checks"]
                       for v in chk["violations"]}) == tags

    def test_missing_key_names_itself(self, tmp_path, capsys):
        with open(os.path.join(DOCS, "kz3_hopf.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["payload"]["antipode"]
        p = tmp_path / "no_antipode.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert "missing key 'antipode'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [{"cyclotomic": 5}, "Q(zeta_5)"])
    def test_envelope_field_must_match_payload(self, tmp_path, capsys,
                                               field):
        with open(os.path.join(DOCS, "kz3_hopf.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["field"] = field
        p = tmp_path / "field_swap.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert "Q(zeta_5)" in capsys.readouterr().err

    def test_field_flag_conflicts_with_declared_field(self, capsys):
        path = os.path.join(DOCS, "kz3_hopf.json")
        with open(path, encoding="utf-8") as fh:
            declared = json.load(fh)["field"]
        assert declared is not None
        assert main(["check", path, "--field", "Q"]) == 2
        capsys.readouterr()


class TestBuild:
    def test_groupoid_algebra_round_trip(self, tmp_path, capsys):
        out = tmp_path / "built.json"
        src = os.path.join(DOCS, "z3_groupoid.json")
        assert main(["build", "groupoid-algebra", src, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        capsys.readouterr()

    def test_function_algebroid_round_trip(self, tmp_path, capsys):
        out = tmp_path / "func.json"
        src = os.path.join(DOCS, "z3_groupoid.json")
        assert main(["build", "function-algebroid", src, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out), "--level", "hopf-algebroid"]) == 0
        capsys.readouterr()

    def test_twisted_build(self, tmp_path, capsys):
        out = tmp_path / "twisted.json"
        assert main(["build", "twisted", "--n", "2", "--t", "1",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["kind"] == "algebra"

    def test_classical_covering_build(self, tmp_path, capsys):
        out = tmp_path / "cover.json"
        src = os.path.join(DOCS, "regular_z2_gset.json")
        assert main(["build", "classical-covering", src,
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out), "--level", "covering"]) == 0
        capsys.readouterr()

    def test_coupled_build_from_raw_payload(self, tmp_path, capsys):
        out = tmp_path / "coupled.json"
        src = os.path.join(DOCS, "inputs", "z4_character.json")
        assert main(["build", "coupled", src, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        capsys.readouterr()


def test_torus_battery(capsys):
    assert main(["torus", "--n", "2", "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def _torus_doc(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"kind": "torus_params", "field": None,
                             "payload": {"n": 2, "samples": 5}}))
    return str(p)


def test_seed_reaches_torus_params(tmp_path, capsys):
    assert main(["check", _torus_doc(tmp_path), "--json", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["torus"]["seed"] == 7


def test_each_call_reads_its_own_seed(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; HALAB_SEED is read on every
    call that has no --seed."""
    path = _torus_doc(tmp_path)
    for seed in (3, 11):
        monkeypatch.setenv("HALAB_SEED", str(seed))
        assert main(["check", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["torus"]["seed"] == seed


def test_bad_seed_variable_exits_2(monkeypatch, capsys):
    """A HALAB_SEED that is not an integer is an input error (exit 2, a
    message naming the variable), not a failed check or a traceback."""
    monkeypatch.setenv("HALAB_SEED", "abc")
    path = os.path.join(DOCS, "kz3_hopf.json")
    assert main(["check", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "HALAB_SEED" in err
    # an explicit --seed never reads the variable
    assert main(["check", path, "--seed", "1"]) == 0
    capsys.readouterr()


def test_main_works_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--level", "no-such-level", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["check", os.path.join(DOCS, "kz3_hopf.json")]) == 0
    capsys.readouterr()
