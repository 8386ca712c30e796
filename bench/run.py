"""halab benchmark: one closed loop, one caller, one workload per run.

    python3 bench/run.py --workload docs|corpus_q|cyclo|torus \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh child
processes (bench/worker.py) with HALAB_SEED set to the seed.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a traced run.  Every verdict is checked
against bench/expected.json.  The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.  See
bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("docs", "corpus_q", "cyclo", "torus")
SETUP_PROBES = 8          # fresh processes that only import and build
DEADLINE_S = 170          # the whole run, children included
MAX_REPORTED = 20         # mismatching items printed by name
# The end-to-end metrics in the JSON line, the ones BENCHMARK.json bounds.
# The table also prints the raw times, which follow the shared host's
# speed swings (see bench/README.md), and error_rate, which the JSON
# carries as "failed".
GATED = ("pass_refs", "verdict_refs_p50", "verdict_refs_p90", "setup_s",
         "peak_rss_mb")


class BenchError(Exception):
    pass


def child(mode, args, deadline):
    env = dict(os.environ, HALAB_SEED=str(args.seed), PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed),
           str(args.seconds)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before %s child" % mode)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("%s child exceeded the %d s deadline"
                         % (mode, DEADLINE_S))
    if proc.returncode != 0:
        raise BenchError("%s child exited %d:\n%s"
                         % (mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    # half the set-up probes before the measuring process, half after,
    # so that their median spans the whole run
    setups = [child("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_PROBES // 2)]
    out = child("run", args, deadline)
    setups.append(out["setup_s"])
    setups += [child("setup", args, deadline)["setup_s"]
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    samples = out["samples"]
    passes, items = samples["pass_s"], samples["item_s"]
    item_refs = samples["item_refs"]
    attempted = out["attempted"]
    failed = len(out["failures"])
    rows = [
        ("pass_refs", statistics.median(samples["pass_refs"]), "refs",
         len(passes)),
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mb", out["peak_rss_mb"], "MiB", 1),
        ("verdict_refs_p50", statistics.median(item_refs), "refs",
         len(item_refs)),
        ("verdict_refs_p90", p90(item_refs), "refs", len(item_refs)),
        ("pass_s", statistics.median(passes), "s", len(passes)),
        ("verdict_ms_p50", 1000 * statistics.median(items), "ms", len(items)),
        ("verdict_ms_p90", 1000 * p90(items), "ms", len(items)),
        ("ref_ms", 1000 * statistics.median(samples["ref_s"]), "ms",
         len(samples["ref_s"])),
        ("error_rate", failed / attempted, "ratio", attempted),
    ]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in GATED}
    return rows, metrics, attempted, out["failures"], []


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(args, deadline):
    out = child("trace", args, deadline)
    rows = [(name, value, unit, out["traced_passes"])
            for name, value, unit in out["metrics"]]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows}
    rows.append(("wrapped_names", out["wrapped"], "count", 1))
    rows.append(("untraced_passes", out["untraced_passes"], "count", 1))
    return rows, metrics, out["attempted"], out["failures"], out["checks"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in ("src/halab/cli.py", "documents"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("error: %s not found under %s; run from a halab checkout"
                  % (need, ROOT), file=sys.stderr)
            return 2
    deadline = time.monotonic() + DEADLINE_S
    print("halab bench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host=%s machine=%s python=%s nproc=%s HALAB_SEED=%d"
          % (platform.node(), platform.machine(), platform.python_version(),
             os.cpu_count(), args.seed))
    try:
        measure = per_layer if args.trace else end_to_end
        rows, metrics, attempted, failures, checks = measure(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("%-32s %16s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, value, unit, n in rows:
        print("%-32s %16.6g %-6s %d" % (name, value, unit, n))
    seen = set()
    for name, why in failures:
        if name not in seen and len(seen) < MAX_REPORTED:
            seen.add(name)
            print("MISMATCH %s: %s" % (name, why))
    for check in checks:
        print("TRACE CHECK FAILED: %s" % check)
    print(json.dumps({"correct": not failures and not checks,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
