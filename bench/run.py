"""Graph500 pipeline benchmark — the one command behind BENCHMARK.json.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] [--out FILE]
    python3 bench/run.py --update-digests [--workload NAME]
    python3 bench/run.py --compare A.json B.json

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: The process environment every measurement runs in.  One thread per
#: process, fixed before numpy loads its BLAS; and a C allocator that
#: serves large arrays from the heap and never gives the heap back, so
#: that a run pays this VM's first-touch page-fault cost (bimodal, and
#: half of an untuned validation) once in the warm-up, not at random.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="one of the workloads of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=2022, help="seeds the graph and the roots")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 10 / 4 roots, every workload unless one is named; "
                             "numbers are never comparable")
    parser.add_argument("--out", type=Path, help="add this run's document to the set in FILE")
    parser.add_argument("--update-digests", action="store_true",
                        help="rewrite bench/expected_digests.json at the default seed")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="compare two --out sets against each metric's bound")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)

    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        # The allocator reads its settings when the process image starts:
        # start it again, same process id, with the environment pinned.
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import numpy  # noqa: F401  (so that import_s below is the program's own import)

    start = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - start

    import driver
    from pipeline import WORKLOADS, smoke

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"bench/run.py: unknown workload {args.workload!r}; "
              f"options: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    chosen = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    if args.update_digests:
        driver.update_digests(chosen)
        return 0
    if not args.smoke and args.workload is None:
        print("bench/run.py: --workload is required (or --smoke for all)", file=sys.stderr)
        return 2

    declared = driver.declared_metrics()
    for workload in chosen:
        try:
            doc = driver.run_workload(
                smoke(workload) if args.smoke else workload,
                seed=args.seed,
                seconds=0.0 if args.smoke else args.seconds,
                traced=bool(args.trace),
                import_s=import_s,
                expected=None if args.smoke else driver.expected_digests(workload, args.seed),
                coverage_scale=8 if args.smoke else driver.probes.COVERAGE_SCALE,
            )
        except ValueError as exc:
            print(f"bench/run.py: {exc}", file=sys.stderr)
            return 2
        print(driver.render(doc, declared))
        if doc["spans"] is not None:
            print(f"spans: {driver.write_spans(doc, BENCH_DIR / 'out')}")
        if args.out:
            driver.append_run(doc, args.out)
        print(json.dumps(driver.result_line(doc, declared)), flush=True)
    return 0


def child_pids() -> list[int]:
    """Live and unreaped children of this process, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                # "pid (comm) state ppid ...": comm may hold spaces and brackets.
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def reap(pid: int, patience_s: float) -> bool:
    """Wait up to ``patience_s`` for child ``pid`` to end; True once it is reaped."""
    deadline = time.monotonic() + patience_s
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return True
        except ChildProcessError:  # reaped by its owner already
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children() -> None:
    """Leave no process behind: stop and reap everything this run started.

    The program closes its own workers, but the process backend's shared
    memory starts multiprocessing's resource tracker, which lives until its
    parent is gone and so outlives the run by a moment.  It ends when its
    pipe closes; anything else still alive here is stuck and is killed.
    """
    def end(pid: int, signals: tuple, patience_s: float) -> None:
        for sig in signals:
            if reap(pid, patience_s):
                return
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                return
        reap(pid, 5.0)

    tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker_pid = getattr(getattr(tracker, "_resource_tracker", None), "_pid", None)
    for pid in child_pids():
        if pid != tracker_pid:
            end(pid, (signal.SIGTERM, signal.SIGKILL), 2.0)
    try:
        tracker._resource_tracker._stop()  # closes the pipe and waits for the exit
    except Exception:
        pass  # not started, or the stdlib's internals moved: the sweep below ends it
    for pid in child_pids():
        end(pid, (signal.SIGKILL,), 2.0)


def _terminated(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally below


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
