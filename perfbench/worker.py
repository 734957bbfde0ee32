"""One measured benchmark run, in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --dir RUN --workload W --seconds S --trace 0|1 [--stub URL]

RUN holds a tree written by generate.py. The phases run in-process through
``logaudit.cli.main``, exactly as the ``logaudit`` command runs them, with
``gc.collect()`` before each timed phase and the phases' own output kept
off stdout. Work is done in whole rounds while the next round, taking as
long as the last one did, still fits in S seconds (at least one round). The
last stdout line is the result object; ``RUN/result.json`` keeps every
sample.

Each run starts with an untimed ingest, forge and set-up pass, so costs
paid once per process (lazy imports, allocator growth) stay out of the
samples.

Untraced rounds (``--trace 0``) run the phase sequence ``ROUNDS`` gives. A
set-up pass is a detect invocation stopped as its first user audit starts,
so set-up time is sampled several times per round without auditing every
user. The only instrumentation is a clock around ``pipeline.detect_user``.
Each metric is the median of its samples in the run; a user's audit time is
its median over the run's detects, and the latency p50 and tail are taken
over users.

Traced rounds (``--trace 1``) run ingest, forge and detect untraced, then
every phase once more under the tracer; the per-layer metrics come from
the traced pass, and ``trace.overhead_s`` is its detect time minus the
untraced one. Correctness checks run on every round's outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import urllib.request
from pathlib import Path

import checks
from tracer import Tracer, layer_metrics

# Phase invocations of one untraced round, in order. "setup" is a detect
# stopped as its first user audit starts. Sub-second phases sit between the
# detects, so their samples spread over the whole run.
ROUNDS = {
    "fleet-history": ["ingest", "forge", "setup", "detect", "evaluate",
                      "ingest", "forge", "setup", "evaluate"],
    "live-latency": ["ingest", "forge", "setup", "detect", "evaluate", "ingest", "forge",
                     "setup", "evaluate", "ingest", "setup", "evaluate"],
}
# The highest percentile of per-user audit latency with at least ten users
# of one detect beyond it (200 users: p95; 50 users: p80).
TAIL_PERCENTILE = {"fleet-history": 95, "live-latency": 80}
# live-latency overlaps backend waits; never more threads than cores.
PARALLELISM = {"live-latency": min(2, os.cpu_count() or 1)}
DEADLINE_S = 150.0

# Metric names and units: end-to-end for untraced runs, per-layer for traced.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))


class SetupDone(Exception):
    """Stops a set-up pass when its first user audit starts."""


class UserClock:
    """Times every ``pipeline.detect_user`` call of one detect invocation."""

    def __init__(self, pipeline) -> None:
        self._original = pipeline.detect_user
        pipeline.detect_user = self._timed
        self.stop_at_first = False
        self.reset()

    def reset(self) -> None:
        self.starts: list[float] = []
        self.audits: list[tuple[float, float, bool]] = []
        self.users: list[str] = []

    def _timed(self, user, ctx):
        start = time.perf_counter()
        self.starts.append(start)
        if self.stop_at_first:
            raise SetupDone
        try:
            result = self._original(user, ctx)
        except Exception:
            self.audits.append((start, time.perf_counter(), False))
            self.users.append(user.user)
            raise
        self.audits.append((start, time.perf_counter(), True))
        self.users.append(user.user)
        return result


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        from logaudit import cli, pipeline

        src = (Path.cwd() / "src").resolve()
        if not Path(cli.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"logaudit imported from {cli.__file__}, not from {src}")
        self.cli = cli
        self.pipeline = pipeline
        self.dir = Path(args.dir)
        self.out = self.dir / "out"
        self.config = str(self.dir / "config.json")
        self.workload = args.workload
        self.expected = json.loads((self.dir / "expected.json").read_text(encoding="utf-8"))
        self.n_debate = json.loads(Path(self.config).read_text(encoding="utf-8"))["n_debate"]
        self.stub = args.stub
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.started = 0.0  # when the last phase entered cli.main
        self.latencies: dict[str, list[float]] = {}

    # -- phases --

    def phase(self, name: str, clock: UserClock | None = None) -> float | None:
        """Run one CLI phase; returns its wall time, None if it failed.

        On live-latency, a forge or full detect is also checked: the
        completions the stub served equal the records in its cost ledger.
        """
        check_stub = (self.stub is not None and name in ("forge", "detect")
                      and not (clock is not None and clock.stop_at_first))
        before = self.served() if check_stub else 0
        argv = [name, "--config", self.config]
        if name == "detect" and self.workload in PARALLELISM:
            argv += ["--parallelism", str(PARALLELISM[self.workload])]
        self.attempted += 1
        if clock is not None:
            clock.reset()
        gc.collect()
        sink = io.StringIO()
        start = self.started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
        except SetupDone:
            code = 0
        except Exception as exc:  # a crash of the program is a failed phase
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if clock is not None:
            self.attempted += len(clock.audits)
            self.failed += sum(1 for *_t, ok in clock.audits if not ok)
        if code != 0:
            self.failed += 1
            self.errors.append(f"{name} failed: {code}")
            return None
        if check_stub:
            self.errors += checks.served_equals_ledger(self.served() - before, self.out, name)
        return elapsed

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def served(self) -> int:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{self.stub}/stats", timeout=10) as response:
            return json.loads(response.read())["served"]

    # -- checks --

    def check_detect(self) -> None:
        self.errors += checks.conclusions(self.out, self.expected)
        if self.expected["contested"]:
            self.errors += checks.debate(self.out, self.expected, self.n_debate)

    def check_forge(self) -> None:
        if self.expected["forge"]:
            self.errors += checks.registry(self.out, self.expected)

    # -- rounds --

    def timed(self, name: str, clock: UserClock) -> bool:
        """One untraced phase invocation of a round, sampled and checked."""
        if name == "setup":
            clock.stop_at_first = True
            ok = self.phase("detect", clock) is not None and bool(clock.starts)
            clock.stop_at_first = False
            if ok:
                self.sample("setup_s", clock.starts[0] - self.started)
            return ok
        elapsed = self.phase(name, clock if name == "detect" else None)
        if elapsed is None:
            return False
        self.sample(f"{name}_s", elapsed)
        if name == "ingest":
            self.sample("snapshot_mb", (self.out / "store.json").stat().st_size / 2**20)
            self.errors += checks.snapshot(self.out, self.expected)
        elif name == "forge":
            self.check_forge()
        elif name == "detect":
            self.sample("setup_s", min(clock.starts) - self.started)
            span = max(end for _b, end, _ok in clock.audits) - min(clock.starts)
            self.sample("audit_users_per_s", len(clock.audits) / span)
            for (begin, end, _ok), user in zip(clock.audits, clock.users):
                self.latencies.setdefault(user, []).append(end - begin)
            records = checks.read_ledger(self.out / "costs-detect.jsonl")
            self.sample("llm_calls_per_user", len(records) / len(clock.audits))
            self.sample("prompt_tokens_per_user",
                        sum(r["prompt_tokens"] for r in records) / len(clock.audits))
            self.check_detect()
        return True

    def untraced_round(self, clock: UserClock) -> bool:
        return all(self.timed(name, clock) for name in ROUNDS[self.workload])

    def warm_up(self, clock: UserClock) -> bool:
        """Untimed ingest, forge and set-up pass: first-call costs of the
        process (lazy imports, allocator growth) stay out of the samples."""
        samples = {k: list(v) for k, v in self.samples.items()}
        ok = all(self.timed(name, clock) for name in ("ingest", "forge", "setup"))
        self.samples = samples
        return ok

    def user_latency_metrics(self) -> None:
        """Each user's audit time is its median over the run's detects; the
        p50 and tail are taken over users."""
        if not self.latencies:
            return
        per_user = [statistics.median(v) for v in self.latencies.values()]
        self.sample("user_audit_p50_ms", 1000 * statistics.median(per_user))
        self.sample("user_audit_tail_ms",
                    1000 * percentile(per_user, TAIL_PERCENTILE[self.workload]))

    def traced_round(self, tracer: Tracer, clock: UserClock) -> bool:
        for name in ("ingest", "forge"):
            if self.phase(name) is None:
                return False
        untraced = self.phase("detect", clock)
        if untraced is None:
            return False
        first = len(tracer.spans)
        tracer.install()
        try:
            for name in ("ingest", "forge", "detect", "evaluate"):
                tracer.phase = name
                elapsed = self.phase(name, clock if name == "detect" else None)
                if elapsed is None:
                    return False
                if name == "detect":
                    traced = elapsed
        finally:
            tracer.uninstall()
        self.check_forge()
        self.check_detect()
        for metric, value in layer_metrics(tracer.spans, first, tracer.missing).items():
            self.sample(metric, value)
        self.sample("trace.overhead_s", traced - untraced)
        return True

    def loop(self, seconds: float, one_round) -> int:
        start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            if not one_round():
                break
            rounds += 1
            # Start another round only if one as long as the last still fits,
            # so a run never measures much longer than asked.
            now = time.perf_counter()
            if self.errors or now - start + (now - round_start) > min(seconds, DEADLINE_S):
                break
        return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark run")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stub", default=None, help="base URL of the live-latency stub")
    args = parser.parse_args(argv)

    run = Run(args)
    clock = UserClock(run.pipeline)
    if args.trace:
        tracer = Tracer()
        rounds = 0
        if run.warm_up(clock):
            rounds = run.loop(args.seconds, lambda: run.traced_round(tracer, clock))
        tracer.write(run.dir / "trace-spans.jsonl")
    else:
        rounds = 0
        if run.warm_up(clock):
            rounds = run.loop(args.seconds, lambda: run.untraced_round(clock))
        run.user_latency_metrics()
        run.sample("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    metrics = {}
    for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        values = [v for v in run.samples.get(name, []) if v is not None]
        metrics[name] = {"value": statistics.median(values) if values else None, "unit": unit}
    result = {"correct": not run.errors and rounds > 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (run.dir / "result.json").write_text(json.dumps(
        {**result, "rounds": rounds, "errors": run.errors[:50], "samples": run.samples},
        indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
