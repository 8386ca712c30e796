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

    def test_triples_are_built_only_for_lifts_that_differ(
            self, monkeypatch, capsys, tmp_path):
        """A 3-leg quotient is built only when coassociativity's two lifts
        differ as vectors.  kz3_hopf and smash_swap have equal lifts, so
        --level bialgebroid builds no triple.  A smash_swap with one
        entry of its left coproduct lift changed has lifts that differ:
        the left triple and both mixed triples of hopf:(b) are built, each
        once, and their stages are the two squares, also built once."""
        import halab.bimod
        ambient_dims = []
        original = halab.bimod.quotient_by

        def counting(ambient_dim, relation_vectors, field):
            ambient_dims.append(ambient_dim)
            return original(ambient_dim, relation_vectors, field)

        monkeypatch.setattr(halab.bimod, "quotient_by", counting)
        for name, d in (("kz3_hopf.json", 3), ("smash_swap.json", 8)):
            ambient_dims.clear()
            path = os.path.join(DOCS, name)
            assert main(["check", path, "--level", "bialgebroid"]) == 0
            capsys.readouterr()
            assert ambient_dims.count(d ** 3) == 0, name
        with open(os.path.join(DOCS, "smash_swap.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["payload"]["left"]["delta_lift"]["entries"][0]["v"] = "2"
        path = tmp_path / "smash_swap_delta.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ambient_dims.clear()
        assert main(["check", str(path), "--level", "bialgebroid"]) == 1
        capsys.readouterr()
        assert sorted(ambient_dims) == [8 ** 2, 8 ** 2, 8 ** 3]
        ambient_dims.clear()
        assert main(["check", str(path)]) == 1
        report = capsys.readouterr().out
        assert "left:coassociativity" in report and "hopf:(b)" in report
        assert sorted(ambient_dims) == [8 ** 2] * 2 + [8 ** 3] * 3

    def test_quotient_builds_per_document(self, monkeypatch, capsys):
        """check --json on each shipped document builds these tensor
        quotients, and none for the Takeuchi corestriction or the counit
        action, which compare lifts and read tables: kz3_hopf, z3_weak,
        z4_coupled, cz3_func and mut_broken_counit built one square each
        when the Takeuchi subspace was a kernel over it (22 in all).  No
        Takeuchi kernel exists: bimod and hopfalgebroid have no kernel.
        kz2_cleft's cleft level builds A (x)_L H alone: it built a triple
        quotient as well when it searched for a normal basis.  The
        composition squares compare lifts, so chain_z2_z4 builds its two
        B (x)_A B quotients alone and mut_composition_psi one B2 (x) H2
        more, where its (ii) lifts differ: each built 4 when the squares
        multiplied the projected Galois maps of all three coverings."""
        import halab.bimod
        import halab.hopfalgebroid
        builds = []
        original = halab.bimod.quotient_by

        def counting(ambient_dim, relation_vectors, field):
            builds[-1][1] += 1
            return original(ambient_dim, relation_vectors, field)
        monkeypatch.setattr(halab.bimod, "quotient_by", counting)
        for path in doc_paths():
            builds.append([os.path.basename(path), 0])
            main(["check", path, "--json"])
            capsys.readouterr()
        assert dict(builds) == {
            "chain_z2_z4.json": 2, "cz3_func.json": 0,
            "klein_cocycle.json": 0, "kz2_cleft.json": 2,
            "kz3_hopf.json": 0, "mut_broken_counit.json": 0,
            "mut_cocycle.json": 0, "mut_composition_psi.json": 3,
            "mut_nontransitive_covering.json": 2,
            "regular_z2_gset.json": 0, "smash_swap.json": 2,
            "twisted_m2.json": 0, "z2_covering.json": 1,
            "z3_groupoid.json": 0, "z3_weak.json": 0, "z4_coupled.json": 0}
        assert sum(n for _, n in builds) == 12
        assert not hasattr(halab.bimod, "kernel")
        assert not hasattr(halab.hopfalgebroid, "kernel")

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
            code = main(["check", path, "--json"])
            over_q = capsys.readouterr().out
            assert main(["check", str(p), "--json"]) == code
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
        1) nor a traceback: it prints the reason and exits 3.
        check_covering is the one check that raises Inconclusive."""
        import halab.algebra
        import halab.galois

        def unsplit(*args):
            raise halab.algebra.Inconclusive("central connectedness: "
                                             "no idempotent found")

        monkeypatch.setattr(halab.galois, "check_covering", unsplit)
        path = os.path.join(DOCS, "kz2_cleft.json")
        assert main(["check", path] + flags) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: inconclusive: central connectedness: " \
            "no idempotent found\n"

    def test_unsplit_centre_exits_3(self, tmp_path, capsys):
        """Q(i) = Q[x]/(x^2 + 1) as the trivial comodule over k: its centre
        does not split over Q and has no nontrivial idempotent, so the
        covering level is inconclusive, not a covering that is not
        connected."""
        from halab.algebra import FDAlgebra
        from halab.cli import comodule_to_json, write
        from halab.galois import trivial_comodule
        from halab.zoo import cyclic_table, group_hopf_algebra
        Qi = FDAlgebra(2, [[{0: 1}, {1: 1}], [{1: 1}, {0: -1}]], {0: 1})
        D = trivial_comodule(group_hopf_algebra(cyclic_table(1)), Qi)
        p = tmp_path / "gaussian.json"
        write(str(p), "comodule_algebra", D.field, comodule_to_json(D))
        assert main(["check", str(p), "--level", "comodule"]) == 0
        capsys.readouterr()
        assert main(["check", str(p), "--json"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: inconclusive: central connectedness: minimal "
            "polynomial does not split: [1, 0, 1]\n")


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

    @pytest.mark.parametrize("name, value, where", [
        ("kz3_hopf.json", "1e800000", "antipode.entries[0].v"),
        ("kz3_hopf.json", "-2E3", "total.mul[0].c"),
        ("z4_coupled.json", "1e800000 + z", "antipode.entries[0].v"),
        ("z4_coupled.json", "z + 1e800000", "total.mul[0].c")])
    def test_exponent_literal_exits_2(self, tmp_path, capsys, name, value,
                                      where):
        """A scalar literal with an exponent is rejected before it is
        evaluated (1e800000 would build 10^800000), naming its path."""
        with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        payload = doc["payload"]
        if where.startswith("antipode"):
            payload["antipode"]["entries"][0]["v"] = value
        else:
            payload["total"]["mul"][0]["c"] = value
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: payload.%s: " % where), err

    @pytest.mark.parametrize("order", [1001, 1000000])
    def test_cyclotomic_order_is_bounded(self, tmp_path, capsys, order):
        """{"cyclotomic": N} above MAX_CYCLOTOMIC_ORDER exits 2 naming
        field.cyclotomic, before Q(zeta_N) is built."""
        with open(os.path.join(DOCS, "z4_coupled.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["field"] = {"cyclotomic": order}
        p = tmp_path / "big_order.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: field.cyclotomic: is %d, must be in range(1, 1001)\n"
            % order)

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
        from halab.cli import composition_from_json, mat_to_json
        from halab.linalg import Mat
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
    assert main(["torus", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def _torus_doc(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(json.dumps({"kind": "torus_params", "field": None,
                             "payload": {"n": 3, "m": 2}}))
    return str(p)


def test_torus_output_does_not_depend_on_the_seed(tmp_path, monkeypatch,
                                                  capsys):
    """Every verdict of the battery is decided on residues or at fixed
    points: halab torus --json and halab check of a torus_params document
    print the same bytes under every HALAB_SEED."""
    path = _torus_doc(tmp_path)
    outputs = set()
    for seed in ("0", "1", "7"):
        monkeypatch.setenv("HALAB_SEED", seed)
        assert main(["torus", "--n", "3", "--m", "2", "--json"]) == 0
        torus_out = capsys.readouterr().out
        assert main(["check", path, "--json"]) == 0
        outputs.add((torus_out, capsys.readouterr().out))
    assert len(outputs) == 1
    (torus_out, check_out), = outputs
    report = json.loads(torus_out)
    assert report["oracle_mismatches"] == 0
    assert "seed" not in report and "samples" not in report
    assert json.loads(check_out)["verdicts"]["torus"] == report


def test_failed_algebra_check_stops_the_stack(tmp_path, capsys):
    """A Hopf algebroid whose total algebra is not associative gets the
    algebra check alone: the coring, bialgebroid and Hopf-algebroid
    axioms are read through its products and are not run."""
    with open(os.path.join(DOCS, "kz3_hopf.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    mul = doc["payload"]["total"]["mul"]
    entry = next(t for t in mul if (t["i"], t["j"]) == (1, 1))
    entry["k"] = (entry["k"] + 1) % doc["payload"]["total"]["dim"]
    p = tmp_path / "nonassociative.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == ["algebra"]
    assert not report["checks"][0]["ok"]
    assert {v["tag"] for v in report["checks"][0]["violations"]} \
        == {"associativity"}


def test_failed_algebra_check_stops_the_comodule_stack(tmp_path, capsys):
    """A comodule algebra whose Hopf algebroid's total algebra is not
    associative gets its algebra checks alone: the comodule, covering and
    cleft axioms are read through its products and are not run."""
    with open(os.path.join(DOCS, "kz2_cleft.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    mul = doc["payload"]["hopf_algebroid"]["total"]["mul"]
    entry = next(t for t in mul if (t["i"], t["j"]) == (0, 1))
    entry["c"] = "2"
    p = tmp_path / "nonassociative.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == ["algebra", "B-algebra"]
    assert not report["checks"][0]["ok"] and report["checks"][1]["ok"]
    assert {v["tag"] for c in report["checks"] for v in c["violations"]} \
        <= {"unit", "associativity"}
    assert report["verdicts"] == {}


def test_seed_is_not_an_option(capsys):
    """No verdict of halab check depends on a seed, and it takes none."""
    with pytest.raises(SystemExit) as exc:
        main(["check", os.path.join(DOCS, "kz2_cleft.json"), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_main_works_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--level", "no-such-level", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["check", os.path.join(DOCS, "kz3_hopf.json")]) == 0
    capsys.readouterr()
