"""One fresh benchmark process: import halab, build one workload's inputs,
and (unless only set-up is measured) run timed passes over its items.

    python3 bench/worker.py setup|run|trace WORKLOAD SEED SECONDS

Started by bench/run.py with HALAB_SEED set in its environment and the
repository root as working directory.  Prints one JSON object as its last
line of output.

setup  times the import of every halab module plus one input build.
run    then repeats passes for about SECONDS: it stops once less than
       half a pass is left.  Each pass builds fresh inputs (untimed, so
       no object caches carry over) and times every item's call; every
       verdict is checked against its known answer.  Before, after and
       every REF_EVERY_S seconds within each pass it also times one call
       of `reference()`, a fixed pure-Python workload that does not use
       halab; dividing each stretch of the pass by the reference times
       around it gives the pass time in reference units, which cancels
       most of the shared host's speed swings.
trace  alternates an untraced pass and a traced pass for about SECONDS
       (at least two traced passes), then reports the per-layer metrics
       of the traced passes and the trace self-checks.
"""

import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_halab():
    """Import every halab module from this checkout's src/."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import halab
    here = os.path.realpath(os.path.join(ROOT, "src", "halab"))
    if [os.path.realpath(p) for p in halab.__path__] != [here]:
        raise SystemExit("halab was not imported from %s" % here)
    import tracer
    tracer.halab_modules()


REF_EVERY_S = 0.25       # longest stretch of items between reference calls
_POOL = []               # the reference's scattered objects


def build_reference_pool():
    """The 100000 Fractions, in shuffled order, that `reference()` walks."""
    pool = [Fraction(i, 7) for i in range(100000)]
    random.Random(1).shuffle(pool)
    _POOL[:] = pool


def reference():
    """A fixed pure-Python workload that never touches halab, so its time
    measures only how fast the host runs Python at that moment (about
    50 ms).  About half of it is arithmetic shaped like halab's hot loops
    (a zero-skipping Fraction matrix product, polynomial products reduced
    modulo x^12 + 1); the rest walks 65000 Fractions of a 100000-entry
    pool in shuffled order, so that, like halab's larger items, it also
    waits on memory.  The mix follows the host's speed swings more
    closely than either part alone (bench/README.md)."""
    if not _POOL:
        build_reference_pool()
    n = 10
    a = [[Fraction((i * j) % 7 - 3, 1 + (i + j) % 5) for j in range(n)]
         for i in range(n)]
    for _ in range(3):
        prod = [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(a):
            out = prod[i]
            for k, x in enumerate(row):
                if x:
                    for j, y in enumerate(a[k]):
                        out[j] += x * y
    p = [Fraction(k % 5 - 2, 3) for k in range(12)]
    for _ in range(20):
        r = [Fraction(0)] * 24
        for i, x in enumerate(p):
            if x:
                for j, y in enumerate(p):
                    r[i + j] += x * y
        reduced = {i: r[i] - r[i + 12] for i in range(12)}
    total = 0
    for x in _POOL[:50000]:
        total += x.numerator
    buckets = {}
    for x in _POOL[50000:65000]:
        buckets[x.numerator & 1023] = x
    return prod, reduced, total, buckets


def run_pass(items, tracer=None, refs=None):
    """Time every item's call; return (pass seconds, item seconds,
    verdicts, failures).

    If `refs` is a list, `reference()` is also called before the first
    item, after the last one, and between items whenever REF_EVERY_S
    seconds of the pass have gone by since the last call.  Each call
    appends (reference seconds, pass seconds since the previous call,
    items timed so far) to `refs`.  Reference calls are not part of the
    pass time."""
    times, verdicts, failures = [], [], []
    clock = time.perf_counter
    ref_spent = 0.0
    mark = None            # end of the last reference call

    def ref_call():
        nonlocal ref_spent, mark
        r0 = clock()
        reference()
        r1 = clock()
        refs.append((r1 - r0, 0.0 if mark is None else r0 - mark,
                     len(times)))
        ref_spent += r1 - r0
        mark = r1

    start = clock()
    for idx, item in enumerate(items):
        if refs is not None and (mark is None
                                 or clock() - mark >= REF_EVERY_S):
            ref_call()
        if tracer is not None:
            tracer.item = idx
        t0 = clock()
        try:
            result = item.call()
        except Exception as exc:      # a raise is a wrong answer, not a crash
            times.append(clock() - t0)
            verdicts.append(None)
            failures.append((item.name, "raised %r" % (exc,)))
            continue
        times.append(clock() - t0)
        verdict = item.verdict(result)
        verdicts.append(verdict)
        if item.expected is None:
            failures.append((item.name, "no recorded answer"))
        elif verdict != item.expected:
            failures.append((item.name, _diff(verdict, item.expected)))
    if refs is not None:
        ref_call()
    if tracer is not None:
        tracer.item = -1
    return clock() - start - ref_spent, times, verdicts, failures


def in_reference_units(refs):
    """A pass's time in reference units: each stretch of the pass between
    two reference calls, divided by the mean time of those two calls."""
    return sum(span / ((r0 + r1) / 2)
               for (r0, _, _), (r1, span, _) in zip(refs, refs[1:]))


def items_in_reference_units(times, refs):
    """Each item time divided by the mean time of the two reference calls
    around it."""
    out = []
    for (r0, _, first), (r1, _, end) in zip(refs, refs[1:]):
        out.extend(t / ((r0 + r1) / 2) for t in times[first:end])
    return out


def _diff(got, want):
    if isinstance(got, dict) and isinstance(want, dict):
        keys = sorted(k for k in set(got) | set(want)
                      if got.get(k) != want.get(k))
        return "differs in %s: got %s" % (
            keys, json.dumps({k: got.get(k) for k in keys})[:200])
    return "got %r, expected %r" % (got, want)


def measure(build, seconds):
    samples = {"pass_s": [], "item_s": [], "ref_s": [], "pass_refs": [],
               "item_refs": []}
    attempted, failures = 0, []
    t_end = time.perf_counter() + seconds
    while True:
        items = build()
        gc.collect()
        refs = []
        pass_s, times, _, fails = run_pass(items, refs=refs)
        samples["pass_s"].append(pass_s)
        samples["item_s"].extend(times)
        samples["ref_s"].extend(r for r, _, _ in refs)
        samples["pass_refs"].append(in_reference_units(refs))
        samples["item_refs"].extend(items_in_reference_units(times, refs))
        attempted += len(items)
        failures.extend(fails)
        # stop once less than half a typical pass is left, so that a run
        # measures SECONDS on average
        half_pass = statistics.median(samples["pass_s"]) / 2
        if time.perf_counter() + half_pass >= t_end:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"samples": samples, "attempted": attempted,
            "failures": failures, "peak_rss_mb": rss_kib / 1024.0}


def measure_traced(build, seconds, tracer_mod):
    tr = tracer_mod.Tracer()
    wrapped = 0
    untraced, traced, summaries = [], [], []
    attempted, failures, checks = 0, [], []
    t_end = time.perf_counter() + seconds
    while True:
        items = build()
        pass_s, _, plain, fails = run_pass(items)
        untraced.append(pass_s)
        attempted += len(items)
        failures.extend(fails)

        tr.install()
        wrapped = tr.n_wrapped
        b0 = tr.mark()
        items = build()
        b1 = tr.mark()
        pass_s, _, verdicts, fails = run_pass(items, tr)
        p1 = tr.mark()
        left = tr.uninstall()
        traced.append(pass_s)
        attempted += len(items)
        failures.extend(fails)
        if left:
            checks.append("wrapped names left after restore: %s" % left[:5])
        if verdicts != plain:
            checks.append("traced verdicts differ from untraced verdicts")
        summary = tr.summary(b1, p1)
        summary["zoo.build_s"] = tr.summary(b0, b1)["zoo.build_s"]
        summary["trace.residue_s"] = pass_s - summary.pop("_root_s")
        total = summary.pop("_self_sum_s") + summary["trace.residue_s"]
        negative = [k for k, v in summary.items()
                    if k.endswith("_s") and v < -1e-9]
        if negative:
            checks.append("negative self time: %s" % negative)
        if abs(total - pass_s) > 1e-6 * max(pass_s, 1.0) \
                or summary["trace.residue_s"] < 0:
            checks.append("layer self times + residue = %.6f s, traced "
                          "pass = %.6f s" % (total, pass_s))
        summaries.append(summary)
        half_round = (untraced[-1] + traced[-1]) / 2
        if len(summaries) >= 2 and time.perf_counter() + half_round >= t_end:
            break
    for name in tracer_mod.COUNT_METRICS:
        values = {s[name] for s in summaries if name in s}
        if len(values) > 1:
            checks.append("%s differs between traced passes: %s"
                          % (name, sorted(values)))
    metrics = []
    for name, unit in tracer_mod.METRICS:
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(untraced)
        else:
            value = statistics.median(s[name] for s in summaries)
        metrics.append((name, value, unit))
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "checks": checks,
            "traced_passes": len(traced), "untraced_passes": len(untraced),
            "wrapped": wrapped}


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), \
        float(argv[3])
    os.chdir(ROOT)
    if mode == "run":
        # Build the reference's pool before halab exists and move it out
        # of the collector's sight, so that halab's garbage collections
        # in the measured passes do not walk the benchmark's objects.
        build_reference_pool()
        gc.freeze()
    t0 = time.perf_counter()
    import_halab()
    import workloads
    import tracer as tracer_mod
    expected = workloads.load_expected()
    make_items = workloads.WORKLOADS[workload]

    def build():
        return make_items(seed, expected)
    build()
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        out = {"setup_s": setup_s}
    elif mode == "run":
        out = measure(build, seconds)
        out["setup_s"] = setup_s
    elif mode == "trace":
        out = measure_traced(build, seconds, tracer_mod)
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
