#!/usr/bin/env python3
"""Repository benchmark for UniKV.

Builds the workload program (perfbench/src, linked against the engine in
src/) from source, runs one workload, checks its results and prints every
metric by name with its unit; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload read_heavy --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a run whose window alternates traced and untraced
200 ms periods). The build goes to $CARGO_TARGET_DIR (default .bench_build)
under the checkout root; the store lives there during the run and is
removed after it.

A run loads the store (setup_s is the median of several loads), runs a
fixed number of calls (5 to 20 s at --seconds 10 on a 4-core box, as its
host's load varies) cut into ten slices of equal count, then settles with
CompactAll (settle_s).
Throughput and p50 latencies are medians over slices; p99 latencies are
taken over the whole window, since background jobs make slices' tails
differ by design. write_amp is device bytes written in the window and
the settle per user byte written in the window.

Each result is stamped with the build and the window's CPU steal: the
share of CPU time the host gave to other guests while a virtual CPU here
wanted to run. On a shared host steal comes in episodes of minutes that
slow whole runs, single-client scans most (they wait on cross-thread
wake-ups), so read a slow run together with its steal.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170  # For the unikv_perfbench run, the build excluded.
JOBS = ("flush", "merge", "scan_merge", "gc", "split")
FILE_KINDS = ("wal", "sst", "vlog", "manifest", "anchors", "other")
MULTIGET_KEYS = 16


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures and builds unikv_perfbench; returns the binary's path."""
    src = os.path.join(ROOT, "perfbench")
    cmds = [
        ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    return os.path.join(out, "unikv_perfbench")


def ratio(num, den):
    return num / den if den else 0.0


def counters(metrics):
    return metrics["engine"]["counters"]


def db_stats(text):
    """Parses the engine's `db.stats` line of name=number pairs."""
    return {k: float(v) for k, v in (kv.split("=") for kv in text.split())}


def end_to_end(raw):
    ops = raw["ops"]
    written = sum(cell["write_bytes"] for kind in raw["io"].values()
                  for cell in kind.values())
    m = {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_ops_s": statistics.median(
            n / s for n, s in zip(raw["slice_ops"], raw["slice_s"])),
        "settle_s": raw["settle_s"],
        "write_amp": ratio(written, raw["user_bytes_written"]),
        "space_amp": ratio(raw["disk_bytes"], raw["live_user_bytes"]),
    }
    for op, name in (("get", "get"), ("mget", "mget"), ("put", "put"),
                     ("scan", "scan")):
        m[name + "_p50_us"] = ops[op]["p50_us"]
        m[name + "_p99_us"] = ops[op]["p99_us"]
    return m


def per_layer(raw):
    c0 = counters(raw["metrics_start"])
    cw = counters(raw["metrics_window"])
    ce = counters(raw["metrics_end"])

    def dw(name):  # Calls' counters: the window.
        return cw.get(name, 0) - c0.get(name, 0)

    def de(name):  # Background counters: the window plus the settle.
        return ce.get(name, 0) - c0.get(name, 0)

    # Denominators are the benchmark's own call counts.
    ops = raw["ops"]
    lookups = ops["get"]["count"] + MULTIGET_KEYS * ops["mget"]["count"]
    scans = ops["scan"]["count"]
    user = raw["user_bytes_written"]
    io, io_w = raw["io"], raw["io_window"]
    tr = raw["trace_summary"]
    m = {}

    for op in ("get", "mget", "put", "scan"):
        t = tr["ops"][op]
        m["core.%s_self_us" % op] = ratio(t["span_us"] - t["child_io_us"],
                                          t["count"])

    m["mem.hit_ratio"] = ratio(dw("memtable_hits"), lookups)
    m["mem.insert_us_per_write"] = ratio(dw("memtable_micros_total"),
                                         ops["put"]["count"])

    m["wal.append_us_per_write"] = ratio(dw("wal_micros_total"),
                                         ops["put"]["count"])
    m["wal.bytes_per_user_byte"] = ratio(
        sum(c["write_bytes"] for c in io["wal"].values()), user)
    m["wal.syncs"] = sum(c["syncs"] for c in io["wal"].values())

    m["index.lookups_per_get"] = ratio(dw("hash_index_lookups"), lookups)
    m["index.probes_per_lookup"] = ratio(dw("hash_index_probes"),
                                         dw("hash_index_lookups"))
    m["index.candidates_per_lookup"] = ratio(dw("hash_index_candidates"),
                                             dw("hash_index_lookups"))
    m["index.bytes"] = raw["hash_index_bytes"]

    m["table.block_cache_hit_ratio"] = ratio(
        dw("block_cache_hits"), dw("block_cache_hits") + dw("block_cache_misses"))
    m["table.block_reads_per_get"] = ratio(dw("block_reads"), lookups)
    m["table.unsorted_probes_per_get"] = ratio(dw("unsorted_tables_probed"),
                                               lookups)
    m["table.sorted_seeks_per_get"] = ratio(dw("sorted_seeks"), lookups)
    m["table.table_cache_hit_ratio"] = ratio(
        dw("table_cache_hits"), dw("table_cache_hits") + dw("table_cache_misses"))
    m["table.bloom_false_positive_ratio"] = ratio(dw("bloom_false_positives"),
                                                  dw("bloom_checks"))

    vlog_w = io_w["vlog"].values()
    zero_copy = sum(c["zero_copy_reads"] for c in vlog_w)
    m["vlog.reads_per_get"] = ratio(dw("vlog_reads"), lookups)
    m["vlog.span_reads_per_scan"] = ratio(dw("vlog_span_reads"), scans)
    m["vlog.read_bytes_per_scan_entry"] = ratio(dw("vlog_read_bytes"),
                                                dw("scan_entries"))
    m["vlog.mmap_read_share"] = ratio(
        zero_copy, zero_copy + sum(c["copy_reads"] for c in vlog_w))

    m["anchor_view.scan_hit_ratio"] = ratio(
        dw("scan_anchor_hits"), scans * raw["partitions"])
    m["anchor_view.builds"] = de("anchor_view_builds")

    # Busy and stall times are given as shares of the time they fall in
    # (job-seconds per second of window and settle; stalled seconds per
    # second of window), since several jobs run at once.
    span_s = raw["window_s"] + raw["settle_s"]
    for job in JOBS:
        evs = [e for e in raw["events"] if e["event"] == job]
        m["compaction.%s.count" % job] = len(evs)
        m["compaction.%s.busy_share" % job] = ratio(
            sum(e["duration_micros"] for e in evs) / 1e6, span_s)
        m["compaction.%s.bytes_written" % job] = sum(
            e.get("bytes_written", 0) for e in evs)
    s0, se = db_stats(raw["stats_start"]), db_stats(raw["stats_end"])
    m["compaction.stall_count"] = se["write_stalls"] - s0["write_stalls"]
    m["compaction.stall_share"] = ratio(
        (se["stall_micros"] - s0["stall_micros"]) / 1e6, raw["window_s"])
    m["compaction.gc_bytes_per_user_byte"] = ratio(
        m["compaction.gc.bytes_written"], user)
    m["compaction.vlog_garbage_bytes"] = sum(
        p["vlog_garbage_bytes"] for p in raw["metrics_window"]["partitions"])

    for kind in FILE_KINDS:
        cells = io[kind].values()
        for field in ("read_bytes", "write_bytes", "syncs"):
            m["env.%s.%s" % (kind, field)] = sum(c[field] for c in cells)
    fg_us = sum(io_w[k]["client"]["io_us"] for k in FILE_KINDS)
    m["env.fg_io_us_per_op"] = ratio(fg_us, tr["ops_traced"])
    m["env.bg_io_us"] = sum(io_w[k]["engine"]["io_us"] for k in FILE_KINDS)

    untraced = ratio(tr["ops_untraced"], tr["untraced_s"])
    traced = ratio(tr["ops_traced"], tr["traced_s"])
    m["trace.throughput_overhead"] = 1.0 - ratio(traced, untraced)
    return m


def check_environment(env):
    if env["sanitizer"] != "none" or not env["optimized"] or \
            env["build_type"] not in ("Release", "RelWithDebInfo"):
        raise SystemExit("refusing to report numbers from build %r" % env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="key-count scale (self-test only)")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="plant one wrong value (self-test only)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(os.path.join(out, "perfbench"))
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)
    db_dir = os.path.join(run_dir, "db-" + args.workload)
    raw_path = os.path.join(run_dir, "%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", db_dir, "--out", raw_path, "--scale", str(args.scale),
           "--inject-wrong", "1" if args.inject_wrong else "0"]
    shutil.rmtree(db_dir, ignore_errors=True)
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("unikv_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(db_dir, ignore_errors=True)
    if r.returncode != 0:
        raise SystemExit("unikv_perfbench failed with code %d" % r.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    check_environment(raw["environment"])

    computed = per_layer(raw) if args.trace else end_to_end(raw)
    metrics = {}
    for spec_m in wanted:
        v = computed[spec_m["name"]]
        if not math.isfinite(v):
            raise SystemExit("metric %s is not finite" % spec_m["name"])
        metrics[spec_m["name"]] = {"value": v, "unit": spec_m["unit"]}

    bad = raw["failed"] + raw["wrong"]
    correct = bad == 0 and raw["trace_summary"]["nest_violations"] == 0
    env = raw["environment"]
    print("workload %s seed %d: %d keys, %d client(s), %.2f s window "
          "(%.1f%% CPU steal); nproc %d, %s build, compiler %s, "
          "sanitizer %s" %
          (args.workload, args.seed, raw["keys"], raw["clients"],
           raw["window_s"], 100 * raw["cpu_window"]["steal"],
           env["nproc"], env["build_type"], env["compiler"],
           env["sanitizer"]))
    for op, o in raw["ops"].items():
        print("  %-5s %9d calls  mean %10.3f us" % (op, o["count"], o["mean_us"]))
    if bad:
        print("  first error: " + raw["first_error"])
    # Printed with the metrics, but not in BENCHMARK.json: op_error_ratio
    # is 0 whenever the program is correct (the JSON line carries it as
    # failed/attempted), and anonymous memory varies from run to run with
    # allocator fragmentation (IQR/median up to 0.36 over ten runs), more
    # than a 0.25 bound allows.
    print("  %-36s %16.6g %s" % ("op_error_ratio", ratio(bad, raw["attempted"]),
                                 "ratio"))
    print("  %-36s %16.6g %s" % ("mem_anon_mib", raw["rss_anon_live_kib"] / 1024,
                                 "MiB"))
    print("  %-36s %16.6g %s" % ("mem_anon_peak_mib",
                                 raw["rss_anon_max_kib"] / 1024, "MiB"))
    for name, m in metrics.items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    in_window = {}
    for e in raw["events"]:
        if e["ts_micros"] <= raw["wall_window_end_us"]:
            in_window[e["event"]] = in_window.get(e["event"], 0) + 1
    print("  background jobs finished inside the window: " +
          json.dumps(in_window, sort_keys=True))
    if args.trace:
        tr = raw["trace_summary"]
        get = tr["ops"]["get"]
        print("  traced gets: %d; self %.3f us + env %.3f us per get, against "
              "a mean get latency of %.3f us over the window; nest "
              "violations %d; spans in %s" %
              (get["count"],
               ratio(get["span_us"] - get["child_io_us"], get["count"]),
               ratio(get["child_io_us"], get["count"]),
               raw["ops"]["get"]["mean_us"], tr["nest_violations"],
               tr["spans_file"]))
        print("  background env time by job (us): " +
              json.dumps(tr["bg_io_us_by_job"]))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": bad, "metrics": metrics}))


if __name__ == "__main__":
    main()
