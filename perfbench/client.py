"""One measured client: a fresh interpreter running one workload once.

    python3 perfbench/client.py --workload NAME --seed N --mode MODE --scratch DIR

The client imports the workload's modules, builds its settings and
cache directory and, for a warm workload, fills the cache cold. Those
steps are set-up. It then stamps CLOCK_MONOTONIC, runs the timed
section, stamps again, checks its outputs and prints one JSON record as
its last line of standard output. ``run.py`` stamps the same clock just
before it starts the interpreter, so set-up includes interpreter start.

Modes: ``plain`` (serial executor, untraced, timed against the host-speed
probe of ``probe.py`` from the start of ``main`` to the end of the timed
section), ``traced`` (the layer tracer wraps every entry point) and
``pool`` (a 2-worker spawn pool).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import sys
import tempfile
from pathlib import Path

import probe
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON text of a study result."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS would use, if one is loaded."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """The interpreter conditions a timing depends on."""
    import os

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "src_pyc_files": sum(1 for _ in (ROOT / "src").rglob("*.pyc")),
    }


def section_record(section, events: int) -> dict:
    """Per-layer totals and counters of one traced section."""
    layers = {name: {"self_s": s, "calls": c} for name, (s, c) in section.layers.items()}
    gets = section.layers.get("exec.cache.get", [0.0, 0])[1]
    return {
        "layers": layers,
        "events": events,
        "cache_bytes": section.cache_bytes,
        "cache_hit_ratio": section.cache_hits / gets if gets else 0.0,
        "ctl_applied_per_step": (
            section.ctl_applied / section.ctl_steps if section.ctl_steps else 0.0
        ),
        "fault_retries": section.fault_retries,
    }


def verified_per_scored(doc: dict | None) -> float:
    """D9 prefilter trust: verified candidates per scored candidate."""
    rows = (doc or {}).get("rows")
    if not isinstance(rows, dict):
        return 0.0
    scored = sum(row["scored"] for row in rows.values())
    verified = sum(row["verified"] for row in rows.values())
    return verified / scored if scored else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "pool"), default="plain")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    # Traced and pool clients run without the probe: its time would land
    # in the traced layers, and a pool's work runs in other processes.
    speed = SpeedProbe()
    if args.mode == "plain":
        speed.start()
    probe_start = speed.mark()

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.load()
    from repro.exec import ResultCache, SweepExecutor, SweepFailure

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        missing_entry_points = tracer.install()
        study = tracer.wrap("core.study", workload.study)
        setup_section = tracer.section()
    else:
        study = workload.study

    settings = workload.settings(args.seed)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.scratch)
    workers = 2 if args.mode == "pool" else 1
    executors: list = []
    errors: list[str] = []

    def run_study(max_workers: int):
        executor = SweepExecutor(max_workers=max_workers, cache=ResultCache(cache_dir))
        executors.append(executor)
        with executor:
            try:
                return study(settings, executor)
            except SweepFailure as exc:
                errors.append(str(exc.error))
                return None

    fill_events = 0
    reference = None
    if workload.warm:
        reference = run_study(1)
        fill_events = executors[0].stats.events_processed
    fill_executors = len(executors)
    if tracer is not None:
        timed_section = tracer.section()

    modules_before = set(sys.modules)
    started = speed.mark()
    results = [run_study(workers) for _ in range(workload.passes)]
    ended = speed.mark()
    speed.stop()
    late_imports = sorted(set(sys.modules) - modules_before)

    timed = executors[fill_executors:]
    timed_events = sum(ex.stats.events_processed for ex in timed)
    docs = [None if result is None else workload.doc(result) for result in results]
    checks: dict[str, bool] = {}
    if workload.warm:
        result_doc = None if reference is None else workload.doc(reference)
        for index, (executor, doc) in enumerate(zip(timed, docs)):
            checks[f"pass{index}.executes_zero"] = executor.stats.executed == 0
            checks[f"pass{index}.same_json"] = doc is not None and doc == result_doc
    else:
        result_doc = docs[0]

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "timed_start": started[0],
        "timed_end": ended[0],
        "probed": {
            "setup": probe.section(probe_start, started),
            "timed": probe.section(started, ended),
        },
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(result_doc) if result_doc is not None else None,
        "events": fill_events if workload.warm else timed_events,
        "timed_events": timed_events,
        "submissions": sum(
            ex.stats.executed + ex.stats.cached + ex.stats.deduped + ex.stats.failed
            for ex in executors
        ),
        "sweep_failures": sum(ex.stats.failed for ex in executors),
        "errors": errors,
        "checks": checks,
        "late_imports": late_imports,
        "env": environment(),
    }
    if workload.name == "table1-cold" and result_doc is not None:
        record["paper_cells"] = sum(result_doc["matches_paper"].values())
        record["paper_cells_total"] = 4 * len(result_doc["matches_paper"])
    if args.mode == "pool":
        record["pool_util"] = timed[0].stats.utilization
    if tracer is not None:
        record["missing_entry_points"] = missing_entry_points
        record["sections"] = {
            "setup": dict(
                section_record(setup_section, fill_events),
                verified_per_scored=verified_per_scored(result_doc if workload.warm else None),
            ),
            "timed": dict(
                section_record(timed_section, timed_events),
                verified_per_scored=verified_per_scored(result_doc),
            ),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
