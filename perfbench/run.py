#!/usr/bin/env python3
"""Repository benchmark: host cost per committed transaction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/main.exe with dune, then starts one fresh process per
repetition (so peak heap is measured from process start) until
S seconds are used, and reports medians over the repetitions.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 it alternates
untraced and traced repetitions and reports the per-layer metrics, including
the tracing overhead against the untraced cost.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The metric names and units are
the ones BENCHMARK.json lists.  NOTES.md explains the workloads and every
metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["verified-run", "hot-audited", "durable-crash", "dynamic-phased"]


# Per-layer metrics taken from the untraced repetitions: the sliced growth
# probe is meaningful without tracing, and tracing would distort it.
def from_untraced(name):
    return name.startswith("sim.slice") or name.endswith("_growth")


MIN_REPS = 3
REP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def metric_units():
    """(end-to-end, per-layer) metric names with their units, as
    BENCHMARK.json at the root of the checkout lists them."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        return tuple({m["name"]: m["unit"] for m in spec[key]}
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metrics from BENCHMARK.json: {e}")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout (dune-project and lib/ needed)")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def rep(workload, seed, traced, spans):
    """One fresh process; its JSON result, or None if it did not give one."""
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition timed out: {cmd}", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: repetition exited {proc.returncode}: {cmd}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: unreadable result: {lines[-1]!r}", file=sys.stderr)
        return None


def agree(results):
    """Repetitions of one seed and mode must agree exactly in the digest,
    in every count, and in allocated words (exact in a fresh process)."""
    first = results[0]
    keys = first["counts"] + ["alloc_words_per_commit"]
    return all(r["digest"] == first["digest"]
               and all(r["metrics"][k] == first["metrics"][k] for k in keys)
               for r in results[1:])


def median_of(results, name):
    if any(name not in r["metrics"] for r in results):
        fail(f"main.exe reports no metric {name}")
    return statistics.median(r["metrics"][name] for r in results)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    end_to_end, per_layer = metric_units()
    build()
    spans = None
    if args.trace:
        os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
        spans = os.path.join(
            "perfbench", "out", f"spans-{args.workload}-{args.seed}.json")

    # Repetitions until the time is used: never start one that would not
    # finish in time by the median length so far, but make at least MIN_REPS.
    plain, traced, broken = [], [], 0
    start = time.monotonic()
    lengths = []
    while True:
        elapsed = time.monotonic() - start
        count = len(plain) + len(traced) + broken
        if (count >= MIN_REPS
                and elapsed + statistics.median(lengths) > args.seconds):
            break
        # with tracing, alternate so both modes see the same host conditions
        as_traced = bool(args.trace) and count % 2 == 1
        t0 = time.monotonic()
        r = rep(args.workload, args.seed, as_traced, spans)
        lengths.append(time.monotonic() - t0)
        if r is None:
            broken += 1
            if broken >= MIN_REPS:
                break
        else:
            (traced if as_traced else plain).append(r)

    results = plain + traced
    groups = [g for g in (plain, traced) if g]
    complete = (broken == 0 and bool(plain)
                and (not args.trace or bool(traced)))
    deterministic = (complete and all(agree(g) for g in groups)
                     and len({r["digest"] for r in results}) == 1)
    # Every repetition runs the same inputs, so each of their transactions
    # counts once however many repetitions the host's speed allowed.  A
    # repetition that gave no result fails them all.
    attempted = results[0]["attempted"] if results else 1
    failed = (attempted if broken or not results
              else max(r["failed"] for r in results))

    metrics = {}
    if complete:
        if args.trace:
            for name, unit in per_layer.items():
                if name == "trace.overhead":
                    value = (median_of(traced, "us_per_commit")
                             / median_of(plain, "us_per_commit") - 1.0)
                else:
                    value = median_of(plain if from_untraced(name)
                                      else traced, name)
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, unit in end_to_end.items():
                metrics[name] = {"value": median_of(plain, name), "unit": unit}

    # Human-readable report first; the JSON result must be the last line.
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(plain)} untraced + {len(traced)} traced"
          f" + {broken} broken")
    if results:
        env = results[0]["env"]
        print(f"environment: nproc {os.cpu_count()}, "
              f"Domain.recommended_domain_count {env['recommended_domains']}, "
              f"OCaml {env['ocaml']}")
        print(f"digest {results[0]['digest']}  deterministic {deterministic}")
        print(f"failed txns {failed} of {attempted} "
              f"({failed / max(attempted, 1):.4%})  "
              f"by kind {results[0]['failures']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:16.6f} {m['unit']}")
    print(json.dumps({"correct": deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
