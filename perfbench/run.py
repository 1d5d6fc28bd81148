#!/usr/bin/env python3
"""The wittcoh benchmark: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload rigidity|deform|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the runner repeats whole passes over the workload's cases
while another pass fits in S seconds (at least one pass) and reports the
end-to-end metrics.  With --trace 1 it runs every case untraced and then
traced, and reports the per-layer metrics of the traced calls plus the
tracing overhead.  Every verdict is checked against its known answer; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full record (answers, commit,
interpreter, CPU count, seed, spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7


def _import_package():
    """Import wittcoh from this checkout's src/, or exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "wittcoh", "__init__.py")):
        print(f"error: no wittcoh package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import wittcoh

    if not os.path.abspath(wittcoh.__file__).startswith(SRC + os.sep):
        print(f"error: imported wittcoh from {wittcoh.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _environment(seed):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "wittcoh")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}


def _git_commit():
    """HEAD of the checkout read from .git directly, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(cases, ctx):
    """Run every case once; returns (wall seconds, verdict records)."""
    records = []
    start = perf_counter()
    for case in cases:
        t0 = perf_counter()
        try:
            answer, error = case.run(ctx), None
        except Exception as exc:  # a crashed verdict counts as failed
            answer, error = {}, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        ok = error is None and all(answer.get(k) == v for k, v in case.expect.items())
        records.append({"case": case.label, "seconds": seconds, "ok": ok,
                        "answer": answer, "expect": case.expect, "error": error})
    return perf_counter() - start, records


def measure_setup(workload, seed):
    """Median seconds of a fresh interpreter importing wittcoh and building the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)], check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times), times


def peak_rss_mib():
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def end_to_end(cases, ctx, seconds, setup_s):
    passes = []
    start = perf_counter()
    while True:
        wall, records = run_pass(cases, ctx)
        passes.append({"wall_s": wall, "verdicts": records})
        if perf_counter() - start + wall > seconds:
            break
    times = [r["seconds"] for p in passes for r in p["verdicts"]]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    notes = {"wall_s": f"median of {len(passes)} pass(es) of {len(cases)} verdicts",
             "verdict_p50_s": f"{len(times)} samples"}
    return passes, metrics, notes


def traced(cases, ctx_plain):
    """Each case once untraced, then at once traced, so both see the same machine state."""
    import tracing
    from workloads import Context

    tracer = tracing.Tracer()
    ctx = Context(None, os.path.join(OUT, "children"))
    os.makedirs(ctx.trace_dir, exist_ok=True)
    plain_records, records = [], []
    for case in cases:
        plain_records += run_pass([case], ctx_plain)[1]
        inst = tracing.install(tracer)
        ctx.resolve = inst.resolve
        try:
            records += run_pass([case], ctx)[1]
        finally:
            inst.remove()
    wall_plain = sum(r["seconds"] for r in plain_records)
    wall_traced = sum(r["seconds"] for r in records)
    span_sets = [tracer.spans] + [child["spans"] for child in ctx.child_traces]
    counts = dict(tracer.counts)
    failures = set(tracer.hook_failures)
    for child in ctx.child_traces:
        failures.update(child["hook_failures"])
        for k, v in child["counts"].items():
            counts[k] = counts.get(k, 0) + v
    metrics, root_s = tracing.summarize(span_sets, counts)
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    passes = [{"wall_s": wall_plain, "traced": False, "verdicts": plain_records},
              {"wall_s": wall_traced, "traced": True, "verdicts": records,
               "root_span_s": root_s, "absent": inst.absent(),
               "unreadable": tracing.unreadable(failures)}]
    notes = {"trace.overhead_frac": f"traced {wall_traced:.3f} s / untraced {wall_plain:.3f} s"}
    return passes, metrics, notes, span_sets


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("rigidity", "deform", "certify"))
    parser.add_argument("--seed", type=int, default=909, help="input seed (default 909)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, Context, plain_resolve

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        return 0

    cases = WORKLOADS[args.workload](args.seed)
    ctx = Context(plain_resolve)
    span_sets, setup_samples = None, []
    if args.trace:
        passes, metrics, notes, span_sets = traced(cases, ctx)
    else:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
        passes, metrics, notes = end_to_end(cases, ctx, args.seconds, setup_s)
        notes["setup_s"] = f"median of {len(setup_samples)} fresh interpreters"

    verdicts = [r for p in passes for r in p["verdicts"]]
    failed = sum(not r["ok"] for r in verdicts)
    metrics_out = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
    result = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
              "metrics": metrics_out}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"workload": args.workload, "environment": _environment(args.seed),
              "seconds": args.seconds, "setup_samples_s": setup_samples,
              "fail_frac": failed / len(verdicts), "passes": passes, "result": result}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    if span_sets is not None:
        with gzip.open(stem + "-spans.json.gz", "wt", encoding="utf-8") as handle:
            json.dump(span_sets, handle)

    for r in verdicts:
        if not r["ok"]:
            print(f"FAILED {r['case']}: answer {r['answer']} expected {r['expect']}"
                  f"{' error ' + r['error'] if r['error'] else ''}")
    for name, (v, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:28s} {v:14.6f} {unit:6s}{'  (' + note + ')' if note else ''}")
    if span_sets is not None:
        print(f"absent: {', '.join(passes[-1]['absent']) or 'none'}")
        print(f"unreadable: {', '.join(passes[-1]['unreadable']) or 'none'}")
    print(f"{'fail_frac':28s} {failed / len(verdicts):14.6f}        ({failed} of {len(verdicts)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
