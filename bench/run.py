"""lcalab benchmark: one workload, answer-checked, printed as one JSON line.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Workloads: classify, classify-ungraded, verify (see bench/README.md).
The workload runs in a child process (bench/child.py), one at a time.
With ``--trace 0`` the last line carries the end-to-end metrics
(wall_s, setup_s, peak_rss_mb, pass_ratio); with ``--trace 1`` it carries
the per-layer metrics of a traced run.  The exit status is 0 only when
every case's answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

# Set-up is timed in this many extra set-up-only children, besides the
# measuring child, and reported as the median.
SETUP_PROBES = 8

# A run must end within 180 s; a child still running after this is killed.
CHILD_TIMEOUT_S = 160


def start_child(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start the child and wait for its "ready"; return it and the set-up time."""
    # A fixed hash seed keeps set iteration order, and so the order of the
    # work, the same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
        raise RuntimeError(f"child failed during set-up (exit {proc.returncode})")
    return proc, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="classify, classify-ungraded or verify")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lcalab" / "__init__.py").is_file():
        print(f"bench: no lcalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, setup = start_child(child_argv + ["--setup-only"])
                probe.stdout.close()
                probe.wait(timeout=CHILD_TIMEOUT_S)
                setups.append(setup)
        proc, setup = start_child(child_argv)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: child still running after {CHILD_TIMEOUT_S} s, killed",
              file=sys.stderr)
        return 2
    try:
        child = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench: child printed no result (exit {proc.returncode})", file=sys.stderr)
        return 2

    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        values = child["layers"]
    else:
        values = {
            "wall_s": statistics.median(child["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "pass_ratio": (attempted - failed) / attempted,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
