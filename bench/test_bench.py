"""Tests of the benchmark itself: pinned inputs, known answers, tracer."""

import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from halab import hopfalgebroid, linalg  # noqa: E402
from halab.fields import QQ  # noqa: E402

# (name, dim H, dim base) of the corpus_q Hopf-algebroid instances
HOPF_CORPUS = [
    ("kZ2", 2, 1), ("kZ3", 3, 1), ("kZ4", 4, 1), ("kZ5", 5, 1),
    ("kZ6", 6, 1), ("kKlein", 4, 1), ("kS3", 6, 1), ("kZ2xZ4", 8, 1),
    ("kZ12", 12, 1),
    ("groupoid algebra point", 1, 1), ("function algebroid point", 1, 1),
    ("groupoid algebra Z3-one-object", 3, 1),
    ("function algebroid Z3-one-object", 3, 1),
    ("groupoid algebra discrete3", 3, 3),
    ("function algebroid discrete3", 3, 3),
    ("groupoid algebra indiscrete2", 4, 2),
    ("function algebroid indiscrete2", 4, 2),
    ("groupoid algebra indiscrete3", 9, 3),
    ("function algebroid indiscrete3", 9, 3),
    ("groupoid algebra Z2-swap-action", 4, 2),
    ("function algebroid Z2-swap-action", 4, 2),
    ("groupoid algebra deck-free-Z2", 4, 2),
    ("function algebroid deck-free-Z2", 4, 2),
    ("smash k # Z2", 2, 1), ("smash kZ2 # 1", 4, 2),
    ("smash k2 # Z2 swap", 8, 2),
    ("coupled kZ4 zeta4", 4, 1), ("coupled kZ2 sign", 2, 1),
    ("coupled kS3 sign", 6, 1),
    ("weak indiscrete2", 4, 2), ("weak kZ3", 3, 1),
]

# (name, dim B) of the regular comodules
COMODULES = [
    ("regular kZ2", 2), ("regular kZ3", 3), ("regular kZ4", 4),
    ("regular kZ5", 5), ("regular kZ6", 6),
    ("regular groupoid algebra", 4), ("regular function algebroid", 4),
    ("regular weak conversion", 4), ("regular smash kZ2 # 1", 4),
    ("regular smash k2 # Z2 swap", 8),
]

# (name, dim H, cyclotomic order)
CYCLO = [("kZ4/Q(zeta_4)", 4, 4), ("kZ6/Q(zeta_3)", 6, 3),
         ("kZ8/Q(zeta_8)", 8, 8)]


def test_corpus_names_and_dimensions_are_pinned():
    assert [(n, H.total.dim, H.leftb.base.dim)
            for n, H in wl.hopf_corpus()] == HOPF_CORPUS
    assert [(D.name, D.B.dim) for D in wl.comodule_corpus()] == COMODULES
    assert [(n, H.total.dim, H.total.field.order)
            for n, H in wl.cyclo_corpus()] == CYCLO


def test_every_item_has_a_known_answer(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = wl.load_expected()
    counts = {"docs": 16, "corpus_q": 31 + 5 + 10, "cyclo": 6,
              "torus": 3 * wl.TORUS_PAIRS + 4}
    for name, build in wl.WORKLOADS.items():
        for seed in (0, 7):
            items = build(seed, expected)
            assert len(items) == counts[name], name
            assert len({i.name for i in items}) == len(items), name
            assert all(i.expected is not None for i in items), name
    mutants = [i for i in wl.build_corpus_q(3, expected)
               if i.name.startswith("mutation")]
    assert sorted(i.expected["tags"][0] for i in mutants) \
        == sorted(wl.MUTATION_TAGS)
    assert expected["torus"]["galois_matrix"]["1"]["det"] == {"0": "1"}
    assert expected["torus"]["galois_matrix"]["2"]["det"] == {"1": "-4"}
    assert sorted(v["exit"] for v in expected["docs"].values()) \
        == [0] * 12 + [1] * 4


def test_same_seed_same_inputs():
    a = wl.build_torus(5, wl.load_expected())
    b = wl.build_torus(5, wl.load_expected())
    assert [i.call() for i in a[:20]] == [True] * 20
    assert [i.name for i in a] == [i.name for i in b]


def test_reference_calls_are_not_in_the_pass_time():
    items = [wl.Item("nap %d" % k, lambda: time.sleep(0.05), wl._identity,
                     None) for k in range(3)]
    refs = []
    pass_s, times, _, _ = worker.run_pass(items, refs=refs)
    assert len(refs) == 2          # before the first item and after the last
    (r0, _, first), (r1, span, end) = refs
    assert min(r0, r1) > 0.005
    assert abs(pass_s - span) < 0.1 * r0
    assert abs(pass_s - sum(times)) < 0.1 * r0
    assert (first, end) == (0, 3)
    assert worker.in_reference_units(refs) == span / ((r0 + r1) / 2)
    assert worker.items_in_reference_units(times, refs) \
        == [x / ((r0 + r1) / 2) for x in times]


def test_tracer_wraps_imported_names_and_restores_them():
    original = hopfalgebroid.kron
    tr = tracer.Tracer()
    tr.install()
    try:
        assert hopfalgebroid.kron is not original
        assert linalg.kron is hopfalgebroid.kron
        A = linalg.Mat(2, 3, [[QQ.one] * 3] * 2)
        B = linalg.Mat(3, 2, [[QQ.one, QQ.zero]] * 3)
        tr.item = 0
        first = tr.mark()
        C = A * B
        linalg.rank(C)
        last = tr.mark()
    finally:
        left = tr.uninstall()
    assert left == []
    assert hopfalgebroid.kron is original
    s = tr.summary(first, last)
    assert s["linalg.matmul_calls"] == 1
    assert s["linalg.matmul_cells"] == 2 * 3 * 2
    assert s["linalg.matmul_out_density"] == 0.5
    assert s["linalg.elim_calls"] == 1          # rank's inner rref is nested
    assert s["linalg.elim_cells"] == 4
    assert abs(s["_self_sum_s"] - s["_root_s"]) < 1e-9


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
