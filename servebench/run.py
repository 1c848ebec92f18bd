"""The serving benchmark: one workload per run, every metric by name.

    python3 servebench/run.py --workload lone --seed 1 --seconds 20 --trace 0

Runs the workload in a child process under a wall-clock bound, sweeps
whatever the child left behind (shard worker processes, ``repro-*``
shared-memory segments), prints a table of every metric with its unit
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` a traced run's per-layer metrics, residual row included.
The workloads and what each one measures are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHM_DIR = Path("/dev/shm")
SEGMENT_PREFIX = "repro-"
#: a run, set-up included, must be over well inside three minutes
WALL_BOUND_S = 165.0

#: end-to-end figures in table order: (name, unit, in the JSON metrics).
#: The JSON carries those steady enough to gate (README.md says why the
#: others are printed only); a figure a workload lacks prints as n/a.
END_TO_END = (("p50_ms", "ms", True), ("p99_ms", "ms", False),
              ("throughput_qps", "q/s", False),
              ("cpu_ms_per_query", "ms", True), ("goodput_qps", "q/s", False),
              ("max_rate_qps", "q/s", False), ("peak_rss_mb", "MB", True),
              ("setup_s", "s", True), ("failed_share", "ratio", False),
              ("degraded_share", "ratio", False), ("mrr", "ratio", False),
              ("hits3", "ratio", False))


def _segments() -> set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir()
                if p.name.startswith(SEGMENT_PREFIX)}
    except OSError:
        return set()


def _group_members(pgid: int) -> dict[int, str]:
    """Live processes of process group ``pgid``: pid -> command line."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return {}
    members = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            command = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members[int(entry.name)] = command.replace(b"\0", b" ").decode(
                errors="replace")
    return members


def _sweep(pgid: int, segments_before: set[str]) -> tuple[int, int]:
    """Count and clean up what the exited child left behind.

    Segments still present now were never unlinked by the program.
    Orphaned workers are killed; multiprocessing's resource tracker is
    left to unlink what it tracked once the last worker is gone, and is
    killed only if it lingers.  Returns ``(orphaned processes, leaked
    segments)``.
    """
    leaked = _segments() - segments_before
    orphans = [pid for pid, command in _group_members(pgid).items()
               if "resource_tracker" not in command]
    for pid in orphans:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _group_members(pgid):
        os.killpg(pgid, signal.SIGKILL)
        while _group_members(pgid):
            time.sleep(0.05)
    for name in _segments() - segments_before:
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass
    return len(orphans), len(leaked)


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """The workload's result dict (None if it produced none) and sweep.

    The child reports on a pipe of its own: shard workers inherit its
    standard streams, and a stuck worker must not hold the result back.
    """
    before = _segments()
    read_end, write_end = os.pipe()
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--result-fd", str(write_end)]
    child = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr.fileno(),
                             pass_fds=(write_end,), start_new_session=True)
    os.close(write_end)
    chunks: list[bytes] = []

    def drain() -> None:
        with os.fdopen(read_end, "rb") as pipe:
            chunks.extend(iter(lambda: pipe.read(65536), b""))

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    timed_out = False
    try:
        child.wait(timeout=WALL_BOUND_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    reader.join()
    orphans, leaked = _sweep(child.pid, before)
    result = None
    if child.returncode == 0 and not timed_out:
        try:
            result = json.loads(b"".join(chunks))
        except json.JSONDecodeError:
            result = None
    sweep = {"timed_out": timed_out, "returncode": child.returncode,
             "orphaned_processes": orphans, "leaked_segments": leaked}
    return result, sweep


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(result: dict, sweep: dict, trace: int) -> dict:
    """Print the human-readable tables; return the metrics object."""
    figures = result["figures"]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} requests, {result['failed']} failed, "
          f"correct={result['correct']}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    print(f"  sweep: {sweep['orphaned_processes']} orphaned processes, "
          f"{sweep['leaked_segments']} leaked segments removed")
    metrics = {}
    if not trace:
        print(f"  {'metric':<26} {'value':>12}  unit")
        for name, unit, gated in END_TO_END:
            value = figures.get(name)
            extra = ""
            if name == "p99_ms":
                samples = figures.get("latency_samples", 0)
                extra = f"  ({samples} samples, " \
                    f"{int(samples * 0.01)} beyond p99"
                if "segment_samples" in figures:
                    extra += ("; median of per-segment values, each "
                              f"over >= {figures['segment_samples']}")
                extra += ")"
            print(f"  {name:<26} {_fmt(value):>12}  {unit}{extra}")
            if value is not None and gated:
                metrics[name] = {"value": value, "unit": unit}
        for rate, row in figures.get("rates", {}).items():
            print(f"  rate {rate:<8} {row['rate_qps']:7.2f} q/s: "
                  f"p50 {_fmt(row.get('p50_ms'))} ms, "
                  f"p99 {_fmt(row.get('p99_ms'))} ms over "
                  f"{row['latency_samples']} samples, {row['failed']} "
                  f"failed ({row['shed']} shed), backlog {row['backlog']}")
        if "generator_late_p99_ms" in figures:
            print(f"  generator lateness p99: "
                  f"{figures['generator_late_p99_ms']:.3f} ms")
        return metrics
    from layers import PER_LAYER
    layers = dict(result["layers"])
    layers["dist.leaked_segments"] = sweep["leaked_segments"] \
        + sweep["orphaned_processes"]
    print(f"  {'layer metric':<34} {'value':>12}  unit")
    for name, unit, _ in PER_LAYER:
        value = float(layers.get(name, 0.0))
        print(f"  {name:<34} {_fmt(value):>12}  {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, sweep = run_child(args.workload, args.seed, args.seconds,
                              args.trace)
    if result is None:
        print(f"error: workload {args.workload} produced no result "
              f"(exit code {sweep['returncode']}, timed out: "
              f"{sweep['timed_out']})", file=sys.stderr)
        return 1
    metrics = report(result, sweep, args.trace)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
