"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload fleet-history --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed under
``.perfbench/<workload>/``, starts the HTTP stub for live-latency, and
measures in a fresh interpreter (``worker.py``) with a fixed
``PYTHONHASHSEED`` and the checkout's ``src/`` on the path. The last line of
stdout is the result object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Exits non-zero, printing no result, when the checkout has no
program or the worker does not finish; exits 1 after the result when a
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402

WORKLOADS = sorted(generate.WORKLOADS)
WORKER_TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_stub(rundir: Path) -> tuple[subprocess.Popen, str]:
    port_file = rundir / "stub.port"
    with (rundir / "stub.stderr").open("w") as stderr:
        stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--replies", str(rundir / "replies.json"),
             "--port-file", str(port_file)],
            stdout=subprocess.DEVNULL, stderr=stderr)
    deadline = time.monotonic() + 20
    while not port_file.exists():
        if stub.poll() is not None or time.monotonic() > deadline:
            stop(stub)
            raise RuntimeError("the stub did not start")
        time.sleep(0.02)
    url = f"http://127.0.0.1:{int(port_file.read_text())}"
    config_path = rundir / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["backend"]["endpoint"] = f"{url}/v1/chat/completions"
    config_path.write_text(json.dumps(config, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return stub, url


def stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="logaudit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the worker and the stub (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "logaudit" / "cli.py").is_file():
        return fail(f"no program here: {root}/src/logaudit/cli.py is missing")
    rundir = root / ".perfbench" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    generate.generate(args.workload, args.seed, rundir)

    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(root / "src"),
           "NO_PROXY": "127.0.0.1,localhost", "no_proxy": "127.0.0.1,localhost"}
    command = [sys.executable, str(HERE / "worker.py"), "--dir", str(rundir),
               "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    stub = None
    try:
        if generate.WORKLOADS[args.workload]["backend"] == "http":
            stub, url = start_stub(rundir)
            command += ["--stub", url]
        with (rundir / "worker.stderr").open("w") as stderr:
            worker = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                                    stderr=stderr, text=True, timeout=WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        if stub is not None:
            stop(stub)
    lines = worker.stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        tail = (rundir / "worker.stderr").read_text(encoding="utf-8")[-2000:]
        return fail(f"worker exited {worker.returncode}\n{tail}")
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
