"""Steadiness check: runs the benchmark in sets of seeds and compares.

    python3 perfbench/spread.py

Each of two sets runs ``run.py`` once per seed, ten seeds a set (set k uses
seeds 1000*k+1 ... 1000*k+10), on every workload in BENCHMARK.json,
untraced, for its ``run_seconds``. For each end-to-end metric it prints each
set's median and its spread, the distance between the first and third
quartile over the median, against the metric's bound and a third of it, and
how much worse the second set's median is than the first's. It also prints
each set's share of failed operations. Every result is saved under ``.perfbench/spread/``. Run from the root of a
checkout; exits 1 if any spread or shift is over its bound, or the failed
shares differ.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]

    out = Path(".perfbench/spread")
    out.mkdir(parents=True, exist_ok=True)
    saved = out / f"{time.strftime('%Y%m%d-%H%M%S')}.json"
    results: dict[str, list[list[dict]]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = []
        for k in range(1, SETS + 1):
            runs: list[dict] = []
            results[workload].append(runs)
            for i in range(1, RUNS + 1):
                started = time.monotonic()
                runs.append(run_once(workload, 1000 * k + i, bench["run_seconds"]))
                saved.write_text(json.dumps(results, indent=1))
                print(f"{workload} set {k} seed {1000 * k + i}: correct={runs[-1]['correct']} "
                      f"{time.monotonic() - started:.1f}s", file=sys.stderr, flush=True)

    ok = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        wrong = sum(1 for runs in sets for r in runs if not r["correct"])
        print(f"  failed share per set {shares}; runs with a failed check: {wrong}")
        ok &= len(set(shares)) == 1 and wrong == 0
        for m in metrics:
            name, bound = m["name"], m["bound"]
            columns = []
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                s = spread(values)
                columns.append(f"{medians[-1]:.5g} ±{s:.3f}")
                ok &= s <= bound
                flag = "" if s <= bound / 3 else (" (>1/3 bound)" if s <= bound else " (OVER)")
                columns[-1] += flag
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[-1] - medians[0]) / medians[0]
            ok &= worse <= bound
            print(f"  {name:24s} bound {bound:<5} | " + " | ".join(columns)
                  + f" | worse {worse:+.3f}" + (" OVER" if worse > bound else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
