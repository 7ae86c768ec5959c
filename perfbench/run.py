"""Benchmark entry point: one workload run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload assign-day --seed 1 --seconds 24 --trace 0

The run happens in a fresh child process (``child.py``) so that its peak
RSS is its own.  This parent waits for the child, kills and reaps it on
timeout or interrupt, then walks ``/proc`` and exits non-zero if any
process it started is still alive.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Workloads
and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Same names as ``workloads.WORKLOADS``; this file imports nothing from
#: ``repro`` so that it can refuse cleanly where the sources are missing.
WORKLOADS = ("assign-day", "stream-week", "stream-burst")

#: Whole-run limit: a run must end well within 180 seconds.
TIMEOUT_S = 170.0


def process_table() -> dict[int, tuple[int, int, str]]:
    """``pid -> (ppid, session, state)`` for every process in ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # the process ended while we looked
            continue
        # The command name is parenthesised and may hold spaces or parens.
        fields = stat[stat.rindex(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), int(fields[3]), fields[0])
    return table


def survivors(root: int, session: int | None) -> list[int]:
    """Live descendants of ``root``, plus every process still in the child's
    ``session`` (which also catches anything re-parented to init)."""
    table = process_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    found = set()
    pending = list(children.get(root, ()))
    while pending:
        pid = pending.pop()
        if pid not in found:
            found.add(pid)
            pending.extend(children.get(pid, ()))
    if session is not None:
        found.update(pid for pid, (_, sid, _) in table.items() if sid == session)
    found.discard(root)
    return sorted(found)


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def supervise(command: list[str], env: dict, timeout: float) -> tuple[int, str]:
    """Run ``command`` to completion; ``(exit code, stdout)``.

    The child leads its own session.  Whatever ends the wait (return,
    timeout, interrupt), the finally block kills the session and reaps the
    child, and the leftover check runs afterwards.
    """
    child = None
    try:
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
            start_new_session=True,
        )
        print(f"perfbench: child pid {child.pid}", file=sys.stderr, flush=True)
        try:
            stdout, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {timeout:.0f} s; killed",
                  file=sys.stderr)
            return 1, ""
        return child.returncode, stdout
    finally:
        if child is not None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
            leftover = survivors(os.getpid(), child.pid)
            for pid in leftover:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if leftover:
                print(f"perfbench: processes outlived the run: {leftover}",
                      file=sys.stderr)
                raise SystemExit(3)


def child_environment() -> dict:
    """The child's environment: ``src`` importable, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # One BLAS thread: on a 2-core machine threaded BLAS made the LDA fit's
    # time swing by a fifth between identical runs without making it faster.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def child_command(workload: str, seed: int, seconds: float, trace: int,
                  smoke: bool, out: Path) -> list[str]:
    """The command line of one run's child process."""
    return [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ] + (["--smoke"] if smoke else [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: all workloads in seconds (tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _raise_exit)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    command = child_command(args.workload, args.seed, args.seconds, args.trace,
                            args.smoke, out)
    started = time.monotonic()
    code, stdout = supervise(command, child_environment(), TIMEOUT_S)
    if code != 0:
        print(f"perfbench: run failed with exit code {code}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if not lines:
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(f"perfbench: {args.workload} seed {args.seed}: {result['repeats']} "
          f"repeats in {time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
