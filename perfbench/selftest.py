#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about ten seconds).

    python3 perfbench/selftest.py

Checks, on every workload, that each metric named in BENCHMARK.json is
printed by name with its unit (untraced and traced), that results verify,
that traced child spans nest inside their parent spans and that value-log
reads take the zero-copy path; and, on read_heavy, that one planted wrong
value makes op_error_ratio > 0 and the run incorrect.
"""
import csv
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = "0.03"
SECONDS = "30"  # Sized by --scale: a few hundred ms of calls per run.
SEED = 7


def bench(workload, trace, inject=False):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
           "--trace", str(trace), "--scale", SCALE]
    if inject:
        cmd.append("--inject-wrong")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise AssertionError("%s trace=%d exited %d" % (workload, trace,
                                                        r.returncode))
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed_value(lines, name, unit):
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == name and parts[2] == unit:
            return float(parts[1])
    raise AssertionError("%s [%s] not printed" % (name, unit))


def check_metrics(lines, result, wanted):
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        sorted(set(result["metrics"]) ^ {m["name"] for m in wanted})
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        printed_value(lines, m["name"], m["unit"])


def check_spans(workload):
    """Every child span lies inside its parent op span."""
    raw_path = os.path.join(run.build_dir(), "run",
                            "%s-seed%d-trace1.json" % (workload, SEED))
    with open(raw_path) as f:
        summary = json.load(f)["trace_summary"]
    assert summary["nest_violations"] == 0, summary
    assert summary["ops_traced"] > 0 and summary["ops_untraced"] > 0, summary
    spans = {}
    children = 0
    with open(summary["spans_file"]) as f:
        for row in csv.DictReader(f, delimiter="\t"):
            start, dur = int(row["start_ns"]), int(row["dur_ns"])
            spans[(row["thread"], row["index"])] = (start, start + dur)
            if row["parent"] != "-1":
                parent = spans[(row["thread"], row["parent"])]
                assert parent[0] <= start and start + dur <= parent[1], row
                children += 1
    assert children > 0, "no child spans recorded for " + workload


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        lines, result = bench(name, 0)
        check_metrics(lines, result, spec["end_to_end"])
        assert result["correct"] and result["failed"] == 0, result
        assert printed_value(lines, "op_error_ratio", "ratio") == 0
        lines, result = bench(name, 1)
        check_metrics(lines, result, spec["per_layer"])
        assert result["correct"] and result["failed"] == 0, result
        assert result["metrics"]["vlog.mmap_read_share"]["value"] > 0, name
        check_spans(name)
        print("ok   %s: %d end-to-end and %d per-layer metrics, spans nest" %
              (name, len(spec["end_to_end"]), len(spec["per_layer"])))

    lines, result = bench("read_heavy", 0, inject=True)
    assert not result["correct"] and result["failed"] > 0, result
    assert printed_value(lines, "op_error_ratio", "ratio") > 0
    print("ok   a planted wrong value gives op_error_ratio %.3g" %
          printed_value(lines, "op_error_ratio", "ratio"))


if __name__ == "__main__":
    main()
