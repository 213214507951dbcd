"""cantorq benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
The whole run stays on one CPU.  It is split into segments.  Each segment
is a fresh set-up process (bench/worker.py) whose set-up time is measured
from before it is started until it reports ready, and which then runs
forked rounds until the segment's share of --seconds is used.  Times are
scaled to a reference speed by the reference loop of bench/speed.py, timed
next to them.  Afterwards this process checks every distinct round output
(bench/checks.py) and prints, as the last line of stdout, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of the traced rounds with
--trace 1.  Details go to bench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEGMENTS = 8
WORKER_TIMEOUT_S = 170

PER_LAYER = (
    "cli.self_s", "cli.stdout_bytes",
    "closedform.self_s", "closedform.distortion_closed_form.time_s",
    "closedform.a_term.time_s", "closedform.build_alpha.time_s",
    "closedform.quantization_error.calls", "closedform.cache_entries",
    "measure.cache_entries",
    "oracle.dp_optimal.time_s", "oracle.dp_optimal.calls",
    "oracle.self_s", "oracle.exact_distortion.time_s", "oracle.lloyd_step.time_s",
    "oracle.cell_measures.time_s", "oracle.errors",
    "measure.self_s", "measure.centroid_numerators.time_s", "measure.centroid.calls",
    "constraint.self_s", "constraint.u_inverse.calls", "constraint.PointSet.calls",
    "asymptotics.self_s", "asymptotics.sample_at.time_s",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def _parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _worker(args, out_dir, extra):
    """Start a set-up process; return its set-up time, the reference loop
    time just before it started, and its summary."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", out_dir, *extra]
    loop = speed.loop_s()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker timed out: {' '.join(cmd)}")
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("READY "):
        raise SystemExit(f"worker failed with exit {proc.returncode}: {' '.join(cmd)}")
    return float(lines[0].split()[1]) - start, loop, json.loads(lines[-1])


def _quantiles(values, n):
    if len(values) == 1:
        return values * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def _loops(rounds):
    return [t for r in rounds for t in r["loops_s"]]


def _round_s(rounds) -> float:
    """Mean round time, scaled by the mean reference loop time of the same
    rounds (speed.py)."""
    return speed.scaled(statistics.fmean(r["work_s"] for r in rounds),
                        statistics.fmean(_loops(rounds)))


def _check_payloads(ops, digests, out_dir):
    """Check each distinct round output once; return digest -> (failed, problems)."""
    refs, verdicts = checks.References(), {}
    for digest in digests:
        path = os.path.join(out_dir, f"payload-{digest}.json")
        with open(path) as f:
            results = json.load(f)
        os.remove(path)
        failed, problems = 0, []
        if len(results) != len(ops):
            problems.append(f"{len(results)} results for {len(ops)} operations")
        for op, res in zip(ops, results):
            if not res["ok"]:
                failed += 1
                if op["fault"] is None:
                    problems.append(f"{op['id']} failed: {res['error']}")
                continue
            try:
                workloads.check_result(op, res, refs)
            except (checks.CheckError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{op['id']}: {type(exc).__name__}: {exc}")
        verdicts[digest] = (failed, problems)
    return verdicts


def main() -> int:
    args = _parse()
    if not os.path.isfile(os.path.join(ROOT, "src", "cantorq", "__init__.py")):
        print(f"error: no cantorq package under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)

    # the reference loop must see the speed of the CPU the rounds run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    redraws = {}
    if args.workload == "descent":
        redraws = _worker(args, out_dir, ["--screen"])[2]["redraws"]
    ops = workloads.build_ops(args.workload, args.seed, redraws)

    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    start = time.monotonic()
    setups, rounds = [], []
    for i in range(SEGMENTS):
        extra = ["--redraws", json.dumps(redraws), "--trace", str(args.trace),
                 "--deadline", repr(start + args.seconds * (i + 1) / SEGMENTS)]
        if args.trace and i == 0:
            extra += ["--dump-trace", trace_path]
        setup, loop, summary = _worker(args, out_dir, extra)
        setups.append({"setup_s": setup, "loops_s": [loop, summary["setup_loop_s"]]})
        rounds.extend(summary["rounds"])

    verdicts = _check_payloads(ops, {r["digest"] for r in rounds if "digest" in r}, out_dir)
    problems = sorted({p for _, ps in verdicts.values() for p in ps})
    failed = 0
    for r in rounds:
        if r["exit"] != 0:
            failed += len(ops)
            problems.append(f"a round exited with {r['exit']}")
        else:
            failed += verdicts[r["digest"]][0]
    correct = not problems

    timed = [r for r in rounds if not r.get("dump_round") and "work_s" in r]
    plain = [r for r in timed if not r["traced"]]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "segments": SEGMENTS, "setups": setups,
              "reference_s": speed.REFERENCE_S, "redraws": redraws,
              "operations": [op["id"] for op in ops], "problems": problems,
              "rounds": rounds}
    if not plain:
        print("error: the run has no untraced round to report", file=sys.stderr)
        return 1
    round_s = _round_s(plain)
    if args.trace:
        traced = [r for r in timed if r["traced"]]
        layers = [r["layers"] for r in rounds if "layers" in r]
        if not layers or not traced:
            print("error: the run has no traced round to report", file=sys.stderr)
            return 1
        metrics = {name: {"value": statistics.median(l.get(name, 0) for l in layers),
                          "unit": _unit(name)}
                   for name in PER_LAYER}
        metrics["trace.round_s"] = {"value": _round_s(traced), "unit": "s"}
        metrics["trace.overhead"] = {"value": _round_s(traced) / round_s, "unit": "ratio"}
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        detail["untraced_round_s"] = round_s
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                speed.scaled(s["setup_s"], statistics.fmean(s["loops_s"])) for s in setups),
                "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in timed) / 1024,
                            "unit": "MB"},
        }
        q = _quantiles([r["work_s"] for r in plain], 4)
        print(f"{args.workload} seed {args.seed}: {len(plain)} rounds; unscaled round "
              f"time q1 {q[0]:.4f} s, median {q[1]:.4f} s, q3 {q[2]:.4f} s; mean "
              f"reference loop {statistics.fmean(_loops(plain)) * 1e3:.3f} ms")
    detail["metrics"] = metrics
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(detail, f, indent=1)
    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(rounds) * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
