"""Benchmark for relabel: three workloads, every answer checked.

Usage:
    python3 bench/run.py --workload {certify,queries,cli} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src/``.  One client, one thread, a closed loop: each workload runs its
fixed list of operations in whole rounds until S seconds of operations
have been timed.  Every answer is checked outside the timed region (see
``checks.py``); an operation that raises or fails its check counts as
failed.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, taken by wrapping the program's public functions
(``tracing.py``).  Lines before it give the answer digest, the percentile
``op_tail_ms`` stands for, and the run's shape.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import build
from checks import CheckError, bfs
from tracing import Tracer
from workloads import WORKLOADS, python_env

BENCH = Path(__file__).resolve().parent
SRC = str(BENCH.parent / "src")
SETUP_READINGS = 11         # fresh processes per setup_s reading; it reports their median
TAIL_BEYOND = 10            # op_tail_ms leaves exactly this many samples above it
# The machine's speed drifts by up to half between phases of tens of seconds,
# so every operation time is also scaled to a reference speed: the time of a
# fixed kernel (the benchmark's own BFS over the 720 labelings of P_6, best of
# three) just before and just after the operation, against this constant.
REFERENCE_KERNEL_S = 0.002
KERNEL_EDGES = [(i, i + 1) for i in range(5)]


def kernel_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        bfs(KERNEL_EDGES, range(6))
        best = min(best, perf_counter() - t0)
    return best


def plain(obj):
    """A JSON-able form of an answer, with dicts and sets sorted."""
    if isinstance(obj, dict):
        return sorted([plain(k), plain(v)] for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return sorted(plain(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        flat = not obj or isinstance(obj[0], (int, str, type(None)))
        return list(obj) if flat else [plain(x) for x in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if hasattr(obj, "edges") and hasattr(obj, "n"):          # relabel.graph.Graph
        return {"n": obj.n, "edges": plain(obj.edges)}
    return obj


def freeze(obj):
    """A hashable form of an answer, to compare later rounds with the first."""
    if isinstance(obj, dict):
        return frozenset((k, freeze(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(x) if isinstance(x, (list, dict, set)) else x for x in obj)
    if isinstance(obj, set):
        return frozenset(obj)
    return obj


class Round:
    """Runs the operations and judges each answer."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)        # fingerprint of each round-1 answer
        self.verdict = [None] * len(ops)      # round-1 failure message, or None
        self.digest = hashlib.sha256()
        self.samples: list[float] = []        # seconds per operation, as measured
        self.scaled: list[float] = []         # the same at the reference speed
        self.failed = 0
        self.failures: dict[str, str] = {}    # operation -> first failure message

    def run(self, number: int) -> float:
        """Run every operation once; return the seconds they took."""
        total = 0.0
        before = kernel_seconds()
        for i, op in enumerate(self.ops):
            gc.collect()
            t0 = perf_counter()
            try:
                answer, error = op.run(), None
            except Exception as exc:          # the operation failed; judged below
                answer, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            after = kernel_seconds()
            total += dt
            self.samples.append(dt)
            self.scaled.append(dt * REFERENCE_KERNEL_S / ((before + after) / 2))
            before = after
            self.judge(i, op, answer, error, number)
        return total

    def judge(self, i, op, answer, error, number) -> None:
        # a request's stderr names paths of the checkout: leave it out
        kept = answer[:2] if op.argv is not None else answer
        fingerprint = hash(freeze(kept if error is None else error))
        if number == 0:
            self.first[i] = fingerprint
            self.verdict[i] = error or self.check(op, answer)
            self.digest.update(json.dumps([op.name, plain(kept), error]).encode())
            message = self.verdict[i]
        elif fingerprint == self.first[i]:
            message = self.verdict[i]
        else:
            message = error or self.check(op, answer) or \
                "answer differs from the first round's answer"
        if message is not None:
            self.failed += 1
            self.failures.setdefault(op.name, message)

    @staticmethod
    def check(op, answer) -> str | None:
        try:
            op.check(answer)
        except CheckError as exc:
            return str(exc)
        except Exception as exc:              # an answer of the wrong shape
            return f"check raised {type(exc).__name__}: {exc}"
        return None


def setup_seconds(workload: str, spec) -> tuple[float, float]:
    """Median over fresh processes of the program's own set-up time, at the
    reference speed and as measured."""
    env = python_env(SRC)
    readings, scaled = [], []
    before = kernel_seconds()
    for _ in range(SETUP_READINGS):
        if workload == "cli":
            # a fresh interpreter importing the command-line front end
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import relabel.cli"], env=env,
                           check=True, timeout=120)
            readings.append(perf_counter() - t0)
        else:
            out = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload,
                                  json.dumps(spec), SRC],
                                 env=env, check=True, timeout=120, capture_output=True,
                                 text=True).stdout
            readings.append(float(out))
        after = kernel_seconds()
        scaled.append(readings[-1] * REFERENCE_KERNEL_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(readings)


def tail(samples: list[float]) -> tuple[float, float]:
    """The sample with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_plain(rounds: Round, seconds: float) -> tuple[int, float]:
    timed, number = 0.0, 0
    while number == 0 or timed < seconds:
        timed += rounds.run(number)
        number += 1
    return number, timed


def run_traced(name: str, workload, env, rounds: Round, seconds: float):
    """Alternate untraced and traced rounds; per-layer metrics per traced round."""
    tracer = Tracer()
    R = env["R"]
    plain_s, traced_s, process_s, main_s = [], [], [], []
    timed, number = 0.0, 0
    while number < 2 or timed < seconds:
        if name == "cli":
            # subprocess round for the process time, then relabel.cli.main in
            # this process, untraced and traced, on the same requests
            start = len(rounds.samples)
            timed += rounds.run(number)
            process_s += rounds.samples[start:]
            times = [workload.run_in_process(R, op) for op in rounds.ops]
            main_s += times
            plain_s.append(sum(times))
            tracer.install()
            try:
                traced_s.append(sum(workload.run_in_process(R, op) for op in rounds.ops))
            finally:
                tracer.remove()
        elif number % 2 == 0:
            plain_s.append(rounds.run(number))
            timed += plain_s[-1]
        else:
            tracer.install()
            try:
                traced_s.append(rounds.run(number))
            finally:
                tracer.remove()
            timed += traced_s[-1]
        number += 1
    metrics = tracer.metrics(len(traced_s))
    main_ms = statistics.median(main_s) * 1e3 if main_s else 0.0
    startup_ms = statistics.median(process_s) * 1e3 - main_ms if process_s else 0.0
    metrics["cli.main_ms"] = (main_ms, "ms")
    metrics["cli.startup_ms"] = (startup_ms, "ms")
    metrics["trace.overhead_s"] = (statistics.fmean(traced_s) - statistics.fmean(plain_s), "s")
    return number, timed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not Path(SRC, "relabel", "__init__.py").is_file():
        print(f"error: no relabel package under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    spec = workload.spec(args.seed)
    setup_s, setup_raw = setup_seconds(args.workload, spec) if not args.trace else (0, 0)
    env = getattr(build, args.workload)(spec, SRC)
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    if args.workload == "cli":
        workdir.mkdir(parents=True)
        env.update(workdir=workdir, src=SRC)
    try:
        rounds = Round(workload.operations(env, args.seed))
        gc.freeze()     # inputs and references stay out of every later collection
        if args.trace:
            number, timed, metrics = run_traced(args.workload, workload, env, rounds,
                                                args.seconds)
        else:
            number, timed = run_plain(rounds, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = rounds.samples
    if not args.trace:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        scaled = rounds.scaled
        tail_s, pct = tail(scaled)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        }
        print(f"op_tail_ms is p{pct:.2f}: {TAIL_BEYOND} of {len(samples)} samples lie above it")
        print(f"as measured: setup_s {setup_raw:.6f}, ops_per_s {len(samples) / timed:.4f}, op_p50_ms "
              f"{statistics.median(samples) * 1e3:.4f}, op_tail_ms {tail(samples)[0] * 1e3:.4f}")
    print(f"{args.workload} seed {args.seed}: {number} rounds of {len(rounds.ops)} operations, "
          f"{timed:.3f} s timed")
    print(f"digest {args.workload} seed {args.seed} {rounds.digest.hexdigest()}")

    known = {op.name: op.known_fault for op in rounds.ops if op.known_fault}
    for op_name, message in rounds.failures.items():
        why = f" (known fault: {known[op_name]})" if op_name in known else ""
        print(f"FAILED {op_name}: {message}{why}", file=sys.stderr)
    correct = set(rounds.failures) <= set(known)
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
