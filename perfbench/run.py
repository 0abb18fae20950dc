"""isol-bench performance benchmark: what a user waits for, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each measured client is a fresh
interpreter (``client.py``) started one after another, so the load is a
closed loop with one client. Clients are started for about ``--seconds``
of wall time, at least three. ``wall_s``, ``setup_s`` and
``peak_rss_mib`` are medians over the clients. The two times are
normalized to a nominal host speed by the probe of ``probe.py``.
``--trace 1`` adds one traced client and, for
``table1-cold``, one client on a 2-worker spawn pool, and reports
per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
start with ``perfbench:`` and describe each client, the interpreter
conditions and the checks. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402  (after the bytecode switch)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The studies' own default seed; expected.json pins its results.
DEFAULT_SEED = 42
MIN_CLIENTS = 3
MAX_CLIENTS = 10
#: Wall-clock budget of one invocation, seconds; clients that would not
#: fit are not started, and a client still running at the end is killed.
BUDGET_S = 170.0

#: Layers reported with ``.self_s`` and ``.calls``, in both the timed
#: section and (prefixed ``setup.``) the warm workloads' cold fill.
LAYERS = (
    "workloads",
    "cpu",
    "iocontrol.throttle",
    "iocontrol.dispatch",
    "ssd",
    "metrics",
    "core.host",
    "ctl",
    "obs",
    "faults",
    "other",
    "exec.summarize",
    "exec.cache.put",
    "exec.cache.get",
    "exec.summary_read",
    "exec.key",
    "core.study",
    "tune.search",
    "surrogate.features",
    "surrogate.fit",
    "surrogate.predict",
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def say(text: str) -> None:
    print(f"perfbench: {text}", flush=True)


def client_env() -> dict:
    """The same interpreter conditions for every client."""
    env = dict(os.environ)
    for name in ("ISOLBENCH_ENGINE", "ISOLBENCH_CACHE_DIR"):
        env.pop(name, None)
    env.update(
        # Every client compiles its imports; none leaves bytecode behind.
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        # No thread pool under the timed section, BLAS's included.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def launch(args, mode: str, scratch: Path, deadline: float) -> dict | None:
    """Run one client to completion; its record, or None if it failed."""
    command = [
        sys.executable,
        str(HERE / "client.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--scratch", str(scratch),
    ]
    launched = monotonic()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=client_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        out = ""
        say(f"{mode} client exceeded the time budget; killed")
    finally:
        # The client's whole session, spawn-pool workers included.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        record = json.loads(out.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        record = None
    if record is None:
        say(f"{mode} client failed (exit {proc.returncode})")
        return None
    setup, timed = record["probed"]["setup"], record["probed"]["timed"]
    record["raw_setup_s"] = record["timed_start"] - launched
    # The set-up section's slowdown also stands for interpreter start,
    # before the probe ran.
    record["setup_s"] = (record["raw_setup_s"] - setup["probe_s"]) / setup["slowdown"]
    record["wall_s"] = timed["norm_s"]
    record["raw_wall_s"] = timed["raw_s"]
    record["work_wall_s"] = timed["work_s"]
    record["slowdown"] = timed["slowdown"]
    return record


def describe(record: dict) -> str:
    return (
        f"{record['mode']} client: setup_s={record['setup_s']:.4f} "
        f"wall_s={record['wall_s']:.4f} (raw {record['raw_setup_s']:.4f} / "
        f"{record['raw_wall_s']:.4f}, slowdown {record['slowdown']:.3f}) "
        f"peak_rss_mib={record['peak_rss_mib']:.1f} "
        f"submissions={record['submissions']} events={record['timed_events']} "
        f"digest={(record['digest'] or 'none')[:16]}"
        + (f" late_imports={record['late_imports']}" if record["late_imports"] else "")
    )


def layer_metrics(
    sections: dict, wall: float, untraced_work: float, traced_wall: float, pool: dict | None
) -> dict:
    """The per-layer metrics of a traced run, named as in BENCHMARK.json."""
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for section_name, prefix in (("timed", ""), ("setup", "setup.")):
        section = sections[section_name]
        layers = section["layers"]
        sim = layers.get("sim", {"self_s": 0.0})
        put(f"{prefix}sim.self_s", sim["self_s"], "s")
        put(f"{prefix}sim.events", section["events"], "count")
        for layer in LAYERS:
            totals = layers.get(layer, {"self_s": 0.0, "calls": 0})
            put(f"{prefix}{layer}.self_s", totals["self_s"], "s")
            put(f"{prefix}{layer}.calls", totals["calls"], "count")
        put(f"{prefix}ctl.applied_per_step", section["ctl_applied_per_step"], "ratio")
        put(f"{prefix}faults.retries", section["fault_retries"], "count")
        put(f"{prefix}exec.cache.bytes", section["cache_bytes"], "bytes")
        put(f"{prefix}exec.cache.hit_ratio", section["cache_hit_ratio"], "ratio")
        put(f"{prefix}surrogate.verified_per_scored", section["verified_per_scored"], "ratio")
    events = sections["timed"]["events"]
    put("sim.us_per_event", wall * 1e6 / events if events else 0.0, "us")
    put("trace.overhead", traced_wall / untraced_work, "ratio")
    put("exec.pool.wall_s", pool["wall_s"] if pool else 0.0, "s")
    put("exec.pool.util", pool["pool_util"] if pool else 0.0, "ratio")
    return metrics


def layer_table(sections: dict) -> list[str]:
    """Exclusive time per layer, largest first, per section."""
    lines = []
    for section_name in ("setup", "timed"):
        layers = sections[section_name]["layers"]
        total = sum(stats["self_s"] for stats in layers.values())
        if not total:
            continue
        lines.append(f"{section_name} section, exclusive time per layer ({total:.3f} s traced):")
        for name, stats in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
            lines.append(
                f"  {name:<20s} {stats['self_s']:9.4f} s {stats['self_s'] / total:6.1%} "
                f"{stats['calls']:>10d} calls"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = monotonic()
    deadline = started + BUDGET_S
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        return measure(args, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path, deadline: float) -> int:
    checks: dict[str, bool] = {}
    records: list[dict] = []
    failed_clients = 0
    started = monotonic()
    durations: list[float] = []
    while len(records) + failed_clients < MAX_CLIENTS:
        now = monotonic()
        mean = statistics.fmean(durations) if durations else 0.0
        # Clients are started while the last one is expected to end
        # within --seconds: the run then samples the machine over the
        # same span whatever its speed. Traced and pool clients run
        # slower than plain ones, so a traced run keeps room for them.
        enough = len(records) >= MIN_CLIENTS and (
            args.trace or now - started + mean > args.seconds
        )
        if enough or now + max(durations, default=0.0) * (5 if args.trace else 1) > deadline:
            break
        record = launch(args, "plain", scratch, deadline)
        durations.append(monotonic() - now)
        if record is None:
            failed_clients += 1
            continue
        records.append(record)
        say(describe(record))
    if not records:
        print("perfbench: no client completed", file=sys.stderr)
        return 1

    first = records[0]
    say("env " + " ".join(f"{key}={value}" for key, value in first["env"].items()))
    say(f"{len(records)} client(s), {failed_clients} failed; digest={first['digest']} events={first['events']}")
    for index, record in enumerate(records[1:], start=1):
        checks[f"client{index}.same_result"] = (
            record["digest"] == first["digest"] and record["events"] == first["events"]
        )
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    if args.seed == DEFAULT_SEED:
        checks["pinned.digest"] = first["digest"] == expected["digest"]
        checks["pinned.events"] = first["events"] == expected["events"]
        say(f"pinned result (seed {DEFAULT_SEED}): digest={expected['digest']} events={expected['events']}")
    else:
        say(f"seed {args.seed} is not the pinned seed {DEFAULT_SEED}; result digest reported, not checked")
    if "paper_cells" in first:
        say(f"Table I cells matching the paper: {first['paper_cells']}/{first['paper_cells_total']}")

    wall = statistics.median(r["wall_s"] for r in records)
    # The traced client runs without the probe; compare it with the
    # plain clients' probe-free time, not normalized.
    untraced_work = statistics.median(r["work_wall_s"] for r in records)
    # Every client counts towards attempted/failed; only plain ones
    # feed the end-to-end metrics.
    clients = list(records)
    metrics: dict[str, dict] = {}
    if args.trace:
        traced = launch(args, "traced", scratch, deadline)
        pool = None
        if traced is not None and args.workload == "table1-cold":
            pool = launch(args, "pool", scratch, deadline)
            if pool is None:
                failed_clients += 1
            else:
                clients.append(pool)
                checks["pool.same_result"] = (
                    pool["digest"] == first["digest"] and pool["events"] == first["events"]
                )
                say(describe(pool) + f" util={pool['pool_util']:.3f}")
        if traced is None:
            failed_clients += 1
        else:
            clients.append(traced)
            say(describe(traced))
            checks["traced.same_result"] = (
                traced["digest"] == first["digest"] and traced["events"] == first["events"]
            )
            for line in layer_table(traced["sections"]):
                say(line)
            metrics = layer_metrics(traced["sections"], wall, untraced_work, traced["raw_wall_s"], pool)
            trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(
                json.dumps({"untraced_wall_s": wall, "untraced_work_s": untraced_work, **traced}, indent=1)
            )
            say(f"trace written to {trace_path.relative_to(ROOT)}")
        if not metrics:
            print("perfbench: the traced client did not complete", file=sys.stderr)
            return 1
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in records), "unit": "s"},
            "peak_rss_mib": {
                "value": statistics.median(r["peak_rss_mib"] for r in records),
                "unit": "MiB",
            },
        }

    for index, record in enumerate(clients):
        for name, ok in record["checks"].items():
            checks[f"{record['mode']}{index}.{name}"] = ok
        for error in record["errors"]:
            say(f"sweep error: {error}")
    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    for name in failed_checks:
        say(f"check failed: {name}")
    sweep_failures = sum(r["sweep_failures"] for r in clients)
    attempted = sum(r["submissions"] for r in clients) + len(checks) + failed_clients
    failed = sweep_failures + len(failed_checks) + failed_clients
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
