"""CI smoke: scrape /metrics from a live stream CLI run, validate the trace.

Launches ``python -m repro stream`` as a real subprocess with
``--metrics-port 0`` and ``--trace``, polls the advertised /metrics URL
while the run is in flight, and validates both artifacts with the repo's
own validators (``repro.obs.validate_exposition`` /
``repro.obs.validate_trace_events``).  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.obs import validate_exposition, validate_trace_events

TRACE = Path("obs_smoke_trace.json")


def main() -> int:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "stream",
            "--scale", "0.05", "--seed", "5", "--no-influence",
            "--shards", "2", "--max-rounds", "4", "--show-rounds", "0",
            "--metrics-port", "0", "--trace", str(TRACE),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    url = None
    bodies: list[str] = []
    lines: list[str] = []
    for line in proc.stdout:
        lines.append(line)
        if url is None and line.startswith("metrics: "):
            url = line.split(" ", 1)[1].strip()
        if url is not None:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    bodies.append(response.read().decode("utf-8"))
            except OSError:
                pass  # server already closed; the run is finishing
    returncode = proc.wait(timeout=120)
    output = "".join(lines)
    if returncode != 0:
        print(output)
        print(f"FAIL: stream CLI exited with {returncode}", file=sys.stderr)
        return 1
    if url is None:
        print(output)
        print("FAIL: CLI never advertised a metrics URL", file=sys.stderr)
        return 1
    if not bodies:
        print("FAIL: no /metrics scrape succeeded during the run", file=sys.stderr)
        return 1
    for body in bodies:
        validate_exposition(body)
    if "repro_stream_rounds_total" not in bodies[-1]:
        print("FAIL: scrape is missing repro_stream_rounds_total", file=sys.stderr)
        return 1
    payload = json.loads(TRACE.read_text(encoding="utf-8"))
    validate_trace_events(payload)
    names = {event.get("name") for event in payload["traceEvents"]}
    missing = {
        "round", "round.drain", "shard.prepare", "shard.solve", "round.merge",
    } - names
    if missing:
        print(f"FAIL: trace is missing spans {sorted(missing)}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(bodies)} live scrape(s) validated, "
        f"trace has {len(payload['traceEvents'])} events"
    )
    return 0


if __name__ == "__main__":
    start = time.monotonic()
    status = main()
    print(f"elapsed: {time.monotonic() - start:.1f}s")
    sys.exit(status)
