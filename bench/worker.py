"""Set-up process of one segment of a benchmark run.

Imports cantorq from the checkout's `src`, builds the round's inputs from
the seed and prints `READY <monotonic time>`.  Then, until the deadline, it
forks one child per round and times it from fork to exit.  Only one child
runs at a time.  Each child starts with the package caches as empty as a
fresh `cantorq` process has them, and times the reference loop of speed.py
between its operations; the loop times are taken out of the round's time
and reported with it.  The child writes its outputs to a file; this process keeps the file
only when its digest is new and leaves the checks to run.py, so the memory
of this process, which every child inherits, does not grow from round to
round.  The last line on stdout is a JSON summary of the rounds.

With --screen it runs the round once per pass, untimed, and prints which
descent starts hit an oracle error (see README, "Seeds and inputs").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import time
import traceback

from speed import Sampler, loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROUND_LIMIT_S = 120
MAX_REDRAWS = 20


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--redraws", default="{}")
    p.add_argument("--deadline", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--dump-trace", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--screen", action="store_true")
    return p.parse_args()


def _import_cantorq(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cantorq
    import cantorq.cli  # noqa: F401  (the package __init__ does not import it)
    if not os.path.abspath(cantorq.__file__).startswith(src + os.sep):
        raise SystemExit(f"cantorq imported from {cantorq.__file__}, not {src}")


class Rounds:
    """Forks rounds one at a time and keeps each distinct output once."""

    def __init__(self, out_dir, tag):
        self.out_dir, self.tag = out_dir, tag
        self.buf = bytearray(1 << 20)   # digest buffer, allocated before any fork
        self.seen: set[str] = set()

    def fork_round(self, ops, traced=False, dump_path="") -> dict:
        """Run ops in a forked child; return the round's record."""
        payload = os.path.join(self.out_dir, f"round-{self.tag}.json")
        r, w = os.pipe()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                signal.alarm(ROUND_LIMIT_S)
                code = _child(ops, payload, w, traced, dump_path)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r, "rb") as f:
            note = f.read()
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        rec = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
               "traced": traced, "exit": os.waitstatus_to_exitcode(status)}
        if note:
            rec.update(json.loads(note))
            rec["work_s"] = wall - sum(rec["loops_s"])
        if rec["exit"] == 0:
            rec["digest"] = self._digest(payload)
            kept = os.path.join(self.out_dir, f"payload-{rec['digest']}.json")
            if rec["digest"] in self.seen or os.path.exists(kept):
                os.remove(payload)
            else:
                os.replace(payload, kept)
            self.seen.add(rec["digest"])
        return rec

    def _digest(self, path: str) -> str:
        h = hashlib.sha256()
        view = memoryview(self.buf)
        with open(path, "rb", buffering=0) as f:
            while True:
                k = f.readinto(view)
                if not k:
                    break
                h.update(view[:k])
        return h.hexdigest()[:24]


def _child(ops, payload, note_fd, traced, dump_path) -> int:
    import workloads
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = Sampler()
    results = workloads.run_round(ops, sampler.tick)
    sampler.tick(force=True)
    note = {"loops_s": sampler.samples}
    if tracer is not None:
        note["layers"] = tracer.metrics()
        note["layers"]["cli.stdout_bytes"] = sum(
            len(r["stdout"].encode()) for r in results if "stdout" in r)
        if dump_path:
            tracer.dump(dump_path)
    with open(payload, "w") as f:
        json.dump(results, f)
    os.write(note_fd, json.dumps(note).encode())
    os.close(note_fd)
    return 0


def _screen(args, ops, rounds, redraws) -> dict:
    """Redraw every descent start that hits an oracle error until none does."""
    import workloads
    todo = ops
    while True:
        rec = rounds.fork_round(todo)
        if rec["exit"] != 0:
            raise SystemExit(f"screening round exited with {rec['exit']}")
        path = os.path.join(rounds.out_dir, f"payload-{rec['digest']}.json")
        with open(path) as f:
            results = json.load(f)
        os.remove(path)
        rounds.seen.discard(rec["digest"])
        cells = [op["cell"] for op, res in zip(todo, results)
                 if op.get("cell") and not res["ok"] and res.get("oracle_error")
                 and redraws.get(op["cell"], 0) < MAX_REDRAWS]
        if not cells:
            return redraws
        for cell in cells:
            redraws[cell] = redraws.get(cell, 0) + 1
        todo = [op for op in workloads.build_ops(args.workload, args.seed, redraws)
                if op.get("cell") in cells]


def main() -> None:
    args = _parse()
    root = os.path.dirname(HERE)
    _import_cantorq(root)
    import workloads
    redraws = json.loads(args.redraws)
    ops = workloads.build_ops(args.workload, args.seed, redraws)
    rounds = Rounds(args.out, f"{args.workload}-{args.seed}-{os.getpid()}")
    print(f"READY {time.monotonic()!r}", flush=True)
    setup_loop_s = loop_s()

    if args.screen:
        print(json.dumps({"redraws": _screen(args, ops, rounds, redraws)}), flush=True)
        return
    # in a traced run, traced and untraced rounds alternate, and every
    # segment has at least one of each after the round that dumps the spans
    dump = args.dump_trace
    traced = bool(dump)
    records = []
    while True:
        rec = rounds.fork_round(ops, traced, dump)
        if dump:
            rec["dump_round"] = True   # writing the spans makes it slow
            dump = ""
        records.append(rec)
        if args.trace:
            traced = not traced
        kinds = {r["traced"] for r in records if not r.get("dump_round")}
        if (time.monotonic() + rec["wall_s"] > args.deadline
                and len(kinds) == 1 + args.trace):
            break
    print(json.dumps({"rounds": records, "setup_loop_s": setup_loop_s}), flush=True)


if __name__ == "__main__":
    main()
