"""Record the benchmark's known answers into bench/expected.json.

Run from the repository root, once, on the commit whose behaviour is the
reference:

    python3 bench/record_expected.py

Recording again overwrites the answers every later run is checked
against, so do it only for a change that is meant to alter verdicts or
`--json` output, and say so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from halab import galois, hopfalgebroid, torus  # noqa: E402

# Mutation search space: structure maps of the mutation base and deltas.
SEARCH_MAPS = ("epsL", "dL", "S")
SEARCH_DELTAS = (1, -1, 2)
CANDIDATES_PER_TAG = 4


def record_docs():
    out = {}
    for seed in ("0", "1"):
        os.environ["HALAB_SEED"] = seed
        for path in wl.document_paths():
            v = wl.doc_verdict(wl.doc_call(path)())
            name = os.path.basename(path)
            if name in out and out[name] != v:
                raise SystemExit("%s: answer depends on HALAB_SEED" % name)
            out[name] = v
    return out


def record_mutations():
    base = wl.mutation_base()
    shapes = {"epsL": base.leftb.counit, "dL": base.leftb.coproduct_lift,
              "S": base.antipode}
    found = {tag: [] for tag in wl.MUTATION_TAGS}
    for which in SEARCH_MAPS:
        M = shapes[which]
        for i in range(M.rows):
            for j in range(M.cols):
                for delta in SEARCH_DELTAS:
                    rep = hopfalgebroid.check_hopf_algebroid(
                        wl.remut(base, which, i, j, delta),
                        skip_bialgebroids=True)
                    tags = sorted({e["tag"] for e in rep.entries})
                    if len(tags) == 1 and tags[0] in found \
                            and len(found[tags[0]]) < CANDIDATES_PER_TAG:
                        found[tags[0]].append({"which": which, "i": i,
                                               "j": j, "delta": delta,
                                               "tags": tags})
    missing = [tag for tag, c in found.items() if not c]
    if missing:
        raise SystemExit("no single-entry mutation isolates %s" % missing)
    return found


def main():
    os.chdir(ROOT)
    os.environ["HALAB_SEED"] = "0"
    corpus_q = {
        "hopf": {name: wl.report_verdict(
            hopfalgebroid.check_hopf_algebroid(Hd))
            for name, Hd in wl.hopf_corpus()},
        "coverings": {D.name: galois.check_covering(D).to_json()
                      for D in wl.comodule_corpus()},
        "mutations": record_mutations(),
    }
    cyclo = {"hopf": {}, "coverings": {}}
    for name, Hd in wl.cyclo_corpus():
        cyclo["hopf"][name] = wl.report_verdict(
            hopfalgebroid.check_hopf_algebroid(Hd))
        cyclo["coverings"][name] = galois.check_covering(
            galois.regular_comodule(Hd)).to_json()
    expected = {
        "docs": record_docs(),
        "corpus_q": corpus_q,
        "cyclo": cyclo,
        "torus": {"galois_matrix": {
            str(n): wl.galois_matrix_verdict(torus.torus_galois_matrix(n))
            for n in (1, 2, 3, 4)}},
    }
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(wl.EXPECTED_PATH, ROOT))


if __name__ == "__main__":
    main()
