"""isol-bench command-line interface.

Subcommands mirror the benchmark suite::

    isol-bench describe-device [flash|optane] [--json]
    isol-bench coef-gen [flash|optane]       # io.cost model generation
    isol-bench run --knob io.cost ...        # one ad-hoc scenario
    isol-bench run --faults gc-storm ...     # ... on a degraded device
    isol-bench run --prof ...                # ... with the self-profiler on
    isol-bench trace --knob io.cost --out t.json   # traced run -> timeline
    isol-bench table1 [--quick] [--workers N] [--no-cache]  # Table I
    isol-bench d5 [--quick|--mini] [--faults a,b]  # robustness ranking
    isol-bench tune --slo ... [--knob auto] [--budget N]  # SLO autotuner
    isol-bench tune --surrogate[=auto|off|path] [--verify-top-k N]  # wider search
    isol-bench place [--fleet spec.json] [--strategy serifos]  # fleet placement
    isol-bench ctl [--mini] [--trace-out d.jsonl]  # D8 online control matrix
    isol-bench d9 [--mini] [--json out.json]  # D9 surrogate-vs-pure study
    isol-bench surrogate fit|eval|report     # model from the result cache
    isol-bench bench [--mini] [--compare]    # pinned perf suite + trajectory
    isol-bench cache stats|path|clear        # result-cache maintenance

``table1`` fans its scenario sweeps over worker processes and caches
summaries content-addressed under ``.isolbench-cache/`` (see
:mod:`repro.exec`); a re-run with unchanged scenarios executes nothing.
All output is plain text; heavy lifting lives in :mod:`repro.core`.
Every workload-running subcommand ends with a uniform machine-parseable
footer: ``perf: events=<n> elapsed=<s>s events/sec=<r> engine=batched``.
"""

from __future__ import annotations

import argparse
import sys

from repro import KIB
from repro.core.config import (
    BfqKnob,
    IoCostKnob,
    IoLatencyKnob,
    IoMaxKnob,
    MqDeadlineKnob,
    NoneKnob,
    Scenario,
)
from repro.core.runner import run_scenario
from repro.faults import FAULT_CLASSES, get_fault_plan
from repro.obs import (
    TraceConfig,
    write_chrome_trace,
    write_jsonl,
    write_samples_csv,
    write_spans_csv,
)
from repro.ssd.model import describe_model, describe_model_dict
from repro.ssd.presets import get_preset
from repro.tools.iocost_coef_gen import derive_model, format_model_line
from repro.workloads.apps import batch_app, lc_app


def _cmd_describe_device(args: argparse.Namespace) -> int:
    model = get_preset(args.device)
    if args.json:
        import json

        print(json.dumps(describe_model_dict(model), indent=2, sort_keys=True))
    else:
        print(describe_model(model))
    return 0


def _cmd_coef_gen(args: argparse.Namespace) -> int:
    ssd = get_preset(args.device)
    model = derive_model(ssd, conservatism=args.conservatism)
    print(format_model_line("259:0", model))
    return 0


def _make_knob(name: str):
    knobs = {
        "none": NoneKnob,
        "mq-deadline": MqDeadlineKnob,
        "bfq": BfqKnob,
        "io.max": IoMaxKnob,
        "io.latency": IoLatencyKnob,
        "io.cost": IoCostKnob,
    }
    if name not in knobs:
        raise SystemExit(f"unknown knob {name!r}; options: {sorted(knobs)}")
    return knobs[name]()


def _perf_line(events: int | float, elapsed: float) -> str:
    """The uniform machine-parseable perf footer every subcommand prints."""
    events = int(events)
    rate = events / elapsed if elapsed > 0 else 0.0
    return (
        f"perf: events={events} elapsed={elapsed:.3f}s "
        f"events/sec={rate:.0f} engine=batched"
    )


def _scenario_from_args(
    args: argparse.Namespace, name: str, trace=None, prof=None
) -> Scenario:
    apps = []
    for i in range(args.batch_apps):
        apps.append(
            batch_app(f"batch{i}", f"/tenants/batch{i}", size=args.size * KIB)
        )
    for i in range(args.lc_apps):
        apps.append(lc_app(f"lc{i}", f"/tenants/lc{i}"))
    if not apps:
        raise SystemExit("need at least one app (--batch-apps/--lc-apps)")
    return Scenario(
        name=name,
        knob=_make_knob(args.knob),
        apps=apps,
        ssd_model=get_preset(args.device),
        num_devices=args.devices,
        cores=args.cores,
        duration_s=args.duration,
        warmup_s=args.duration * 0.25,
        device_scale=args.device_scale,
        seed=args.seed,
        trace=trace,
        faults=get_fault_plan(args.faults) if args.faults else None,
        prof=prof,
    )


def _print_fault_counters(result) -> None:
    """The failure-accounting block of run/trace output."""
    counters = result.fault_counters
    if not counters:
        return
    print(f"\nfault injection ({result.scenario.faults.label}):")
    for key in sorted(counters):
        print(f"  {key:<28s} {counters[key]:,.0f}")


def _cmd_run(args: argparse.Namespace) -> int:
    prof = None
    if args.prof or args.prof_out:
        from repro.prof import ProfConfig

        prof = ProfConfig(timeline_bucket_us=args.prof_bucket_us)
    result = run_scenario(_scenario_from_args(args, "cli-run", prof=prof))
    print(result.describe())
    _print_fault_counters(result)
    if prof is not None:
        from repro.prof import format_phase_table, write_pstats
        from repro.prof import write_chrome_trace as write_prof_chrome

        profile = result.profile
        print(f"\nengine phase breakdown:\n{format_phase_table(profile)}")
        if args.prof_out:
            if args.prof_format == "json":
                import json

                with open(args.prof_out, "w", encoding="utf-8") as handle:
                    json.dump(
                        profile.to_json_dict(), handle, indent=2, sort_keys=True
                    )
            elif args.prof_format == "pstats":
                write_pstats(profile, args.prof_out)
            else:  # chrome
                write_prof_chrome(profile, args.prof_out)
            print(f"wrote {args.prof_format} profile: {args.prof_out}")
    print(_perf_line(result.events_processed, result.wall_seconds))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    config = TraceConfig(sample_period_us=args.sample_period_us)
    scenario = _scenario_from_args(args, "cli-trace", trace=config)
    result = run_scenario(scenario)
    trace = result.trace
    assert trace is not None

    if args.format == "chrome":
        write_chrome_trace(trace, args.out)
        written = [args.out]
    elif args.format == "jsonl":
        write_jsonl(trace, args.out)
        written = [args.out]
    else:  # csv: two flat tables next to each other
        spans_path = args.out + ".spans.csv"
        samples_path = args.out + ".samples.csv"
        write_spans_csv(trace, spans_path)
        write_samples_csv(trace, samples_path)
        written = [spans_path, samples_path]

    print(result.describe())
    print(
        f"\ntraced {len(trace.spans)} request spans"
        + (f" ({trace.dropped_spans} dropped)" if trace.dropped_spans else "")
        + f", {len(trace.samples)} sampler rows "
        f"(period {config.sample_period_us:g} us)"
    )
    print("\nlatency attribution (mean us per request):")
    header = f"  {'app':<12s} {'ios':>9s} {'held':>10s} {'queued':>10s} {'service':>10s} {'end-to-end':>11s}"
    print(header)
    for name, attr in result.trace.attribution().items():
        print(
            f"  {name:<12s} {attr.ios:>9d} {attr.mean_held_us:>10.1f} "
            f"{attr.mean_queued_us:>10.1f} {attr.mean_service_us:>10.1f} "
            f"{attr.mean_latency_us:>11.1f}"
        )
    # "held" above is throttle wait; the block below is fault-induced
    # slowness (retries/timeouts) — together they attribute tail latency.
    _print_fault_counters(result)
    for path in written:
        print(f"\nwrote {args.format} trace: {path}")
    if args.format == "chrome":
        print("open in https://ui.perfetto.dev or chrome://tracing")
    print(_perf_line(result.events_processed, result.wall_seconds))
    return 0


def _progress_printer(stream):
    """Per-sweep ``k/n done, m cached, events/sec`` lines on one tty row."""

    def emit(progress) -> None:
        end = "\n" if progress.done == progress.total else "\r"
        print(f"  {progress}", end=end, file=stream, flush=True)

    return emit


def _build_executor(args: argparse.Namespace):
    from pathlib import Path

    from repro.exec import ResultCache, SweepExecutor, default_cache_dir

    if args.no_cache:
        cache = None
    else:
        root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        cache = ResultCache(root)
    progress = None if args.quiet else _progress_printer(sys.stderr)
    return SweepExecutor(
        max_workers=args.workers, cache=cache, progress=progress
    )


def _sweep_stats_line(executor) -> str:
    """Machine-checkable sweep-stats footer (CI greps ``executed=``/``cached=``)."""
    stats = executor.stats
    cache_line = (
        f", cache: {executor.cache.stats}" if executor.cache is not None else ""
    )
    return (
        f"sweep stats: executed={stats.executed} cached={stats.cached} "
        f"deduped={stats.deduped} failed={stats.failed} sweeps={stats.sweeps} "
        f"busy={stats.busy_seconds:.1f}s idle={stats.idle_seconds:.1f}s "
        f"util={stats.utilization:.0%}{cache_line}"
    )


def _add_executor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per sweep (default: cpu_count - 1; 1 = serial)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="always execute; do not read or write the result cache",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $ISOLBENCH_CACHE_DIR or .isolbench-cache/)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-sweep progress lines"
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.core.table_one import (
        TableOneSettings,
        evaluate_table_one,
        quick_settings,
    )

    settings = quick_settings() if args.quick else TableOneSettings()
    with _build_executor(args) as executor:
        table = evaluate_table_one(settings, executor=executor)
        stats = executor.stats
    print(table.render())
    matches = table.matches_paper()
    total = sum(matches.values())
    print(f"\ncells matching the paper: {total}/{4 * len(matches)}")
    # Machine-checkable summary (CI asserts executed=0 on a warm cache).
    print(_sweep_stats_line(executor))
    print(_perf_line(stats.events_processed, stats.elapsed_seconds))
    return 0


def _cmd_d5(args: argparse.Namespace) -> int:
    from repro.core.d5_robustness import (
        RobustnessSettings,
        evaluate_robustness,
        mini_settings,
        quick_settings,
    )

    if args.mini:
        settings = mini_settings()
    elif args.quick:
        settings = quick_settings()
    else:
        settings = RobustnessSettings()
    if args.faults:
        names = tuple(name.strip() for name in args.faults.split(",") if name.strip())
        for name in names:
            get_fault_plan(name)  # fail fast on typos, with the options list
        settings.fault_classes = names

    with _build_executor(args) as executor:
        table = evaluate_robustness(settings, executor=executor)
        stats = executor.stats
    print(table.render())
    best = table.rank()[0]
    print(
        f"\nmost robust knob: {best.knob} "
        f"(mean p99 degradation {best.mean_p99_ratio:.2f}x across "
        f"{len(table.fault_classes)} fault classes)"
    )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(table.to_json_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote ranking JSON: {args.json}")
    print(_sweep_stats_line(executor))
    print(_perf_line(stats.events_processed, stats.elapsed_seconds))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.d6_autotune import (
        AutotuneSettings,
        evaluate_autotune,
        mini_settings,
        quick_settings,
        resolve_slo,
    )
    from repro.tune.advisor import write_decision_trace
    from repro.tune.space import TUNABLE_KNOBS

    if args.mini:
        settings = mini_settings()
    elif args.quick:
        settings = quick_settings()
    else:
        settings = AutotuneSettings()
    if args.knob != "auto":
        names = tuple(name.strip() for name in args.knob.split(",") if name.strip())
        unknown = set(names) - set(TUNABLE_KNOBS)
        if unknown:
            raise SystemExit(
                f"unknown knob(s) {sorted(unknown)}; options: auto,{','.join(TUNABLE_KNOBS)}"
            )
        settings.knobs = names
    if args.budget is not None:
        settings.budget = args.budget
    settings.strategy = args.strategy
    if args.faults:
        get_fault_plan(args.faults)  # fail fast on typos, with the options list
        settings.fault_class = args.faults
    settings.surrogate = args.surrogate
    if settings.surrogate not in ("auto", "off"):
        _load_surrogate_model(settings.surrogate)  # fail fast, clean message
    if args.verify_top_k is not None:
        settings.verify_top_k = args.verify_top_k
    slo = resolve_slo(args.slo)

    with _build_executor(args) as executor:
        report = evaluate_autotune(settings, slo=slo, executor=executor)
        stats = executor.stats
    print(report.render())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote advisor JSON: {args.json}")
    if args.trace_out:
        write_decision_trace(report, args.trace_out)
        print(f"wrote decision trace: {args.trace_out}")
    print(_sweep_stats_line(executor))
    print(_perf_line(stats.events_processed, stats.elapsed_seconds))
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.core.d7_placement import (
        compare_placements,
        mini_settings,
        quick_settings,
    )
    from repro.fleet.placement import STRATEGIES
    from repro.fleet.report import PlacementSettings
    from repro.fleet.spec import apply_slo_overrides, demo_fleet, load_fleet
    from repro.tune.slo import parse_slo

    if args.mini:
        settings = mini_settings()
    elif args.quick:
        settings = quick_settings()
    else:
        settings = PlacementSettings()
    if args.budget is not None:
        settings = replace(settings, budget=args.budget)
    try:
        fleet = load_fleet(args.fleet) if args.fleet else demo_fleet()
        if args.slo:
            fleet = apply_slo_overrides(fleet, parse_slo(args.slo))
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    strategies = STRATEGIES if args.strategy == "all" else (args.strategy,)

    with _build_executor(args) as executor:
        comparison = compare_placements(
            fleet,
            strategies=strategies,
            settings=settings,
            seed=args.seed,
            executor=executor,
        )
        stats = executor.stats
    print(comparison.render())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(comparison.to_json_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote placement JSON: {args.json}")
    print(_sweep_stats_line(executor))
    print(_perf_line(stats.events_processed, stats.elapsed_seconds))
    return 0


def _cmd_ctl(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.core.d8_online import (
        CTL_KNOBS,
        DEFAULT_PATTERNS,
        ONLINE,
        OnlineControlSettings,
        build_scenarios,
        evaluate_online_control,
        mini_settings,
        quick_settings,
    )

    if args.mini:
        settings = mini_settings()
    elif args.quick:
        settings = quick_settings()
    else:
        settings = OnlineControlSettings()
    if args.knobs:
        settings.knobs = tuple(
            name.strip() for name in args.knobs.split(",") if name.strip()
        )
    if args.patterns:
        settings.patterns = tuple(
            name.strip() for name in args.patterns.split(",") if name.strip()
        )
    unknown = set(settings.knobs) - set(CTL_KNOBS)
    if unknown:
        raise SystemExit(
            f"unknown knobs: {sorted(unknown)}; options: {list(CTL_KNOBS)}"
        )
    unknown = set(settings.patterns) - set(DEFAULT_PATTERNS)
    if unknown:
        raise SystemExit(
            f"unknown patterns: {sorted(unknown)}; "
            f"options: {list(DEFAULT_PATTERNS)}"
        )

    with _build_executor(args) as executor:
        table = evaluate_online_control(settings, executor=executor)
        stats = executor.stats
    print(table.render())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(table.to_json_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote control matrix JSON: {args.json}")
    if args.trace_out or args.prof:
        # The sweep only returns summaries; the decision trace and the
        # profile live on the Host, so re-run the requested online cell
        # locally (cheap: one scenario out of the matrix).
        knob, _, pattern = args.cell.partition("/")
        try:
            narrowed = dataclasses.replace(
                settings, knobs=(knob,), patterns=(pattern,)
            )
        except ValueError as exc:
            raise SystemExit(f"--cell: {exc}") from None
        scenarios, labels = build_scenarios(narrowed)
        online = next(
            scenario
            for scenario, label in zip(scenarios, labels)
            if label[2] == ONLINE
        )
        if args.prof:
            from repro.prof import ProfConfig

            online = dataclasses.replace(online, prof=ProfConfig())
        result = run_scenario(online)
        if args.trace_out:
            from repro.ctl import write_ctl_trace

            count = write_ctl_trace(result.ctl_trace, args.trace_out)
            print(
                f"wrote decision trace ({count} records, "
                f"{knob}/{pattern} online): {args.trace_out}"
            )
        if args.prof:
            from repro.prof import format_phase_table

            print(f"\nengine phase breakdown ({knob}/{pattern} online):")
            print(format_phase_table(result.profile))
    print(_sweep_stats_line(executor))
    print(_perf_line(stats.events_processed, stats.elapsed_seconds))
    return 0


def _cmd_d9(args: argparse.Namespace) -> int:
    from repro.core.d9_surrogate import (
        SurrogateStudySettings,
        evaluate_surrogate_study,
        mini_settings,
        quick_settings,
    )
    from repro.tune.space import TUNABLE_KNOBS

    if args.mini:
        settings = mini_settings()
    elif args.quick:
        settings = quick_settings()
    else:
        settings = SurrogateStudySettings()
    if args.knobs:
        names = tuple(name.strip() for name in args.knobs.split(",") if name.strip())
        unknown = set(names) - set(TUNABLE_KNOBS)
        if unknown:
            raise SystemExit(
                f"unknown knobs: {sorted(unknown)}; options: {list(TUNABLE_KNOBS)}"
            )
        settings.knobs = names
    if args.budget is not None:
        settings.budget = args.budget
    if args.train_budget is not None:
        settings.train_budget = args.train_budget

    with _build_executor(args) as executor:
        report = evaluate_surrogate_study(settings, executor=executor)
        stats = executor.stats
    print(report.render())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote study JSON: {args.json}")
    print(_sweep_stats_line(executor))
    print(_perf_line(stats.events_processed, stats.elapsed_seconds))
    return 0


def _load_surrogate_model(path: str):
    """A saved surrogate model fit on the current feature schema, or exit 1."""
    from repro.surrogate import SurrogateModel

    try:
        model = SurrogateModel.load(path)
        model.check_feature_schema()
    except (OSError, ValueError) as exc:
        raise SystemExit(f"surrogate model {path}: {exc}") from None
    return model


def _cmd_surrogate(args: argparse.Namespace) -> int:
    from repro.core.report import render_table
    from repro.surrogate import (
        MIN_CORPUS_ROWS,
        evaluate_model,
        fit_from_corpus,
        holdout_split,
        load_corpus,
    )

    corpus = load_corpus(args.cache_dir)
    print(f"corpus: {corpus.stats} ({corpus.n_rows} rows)")

    def _fit_metrics_table(model, corpus_for_eval, title: str) -> str:
        X, y = corpus_for_eval.matrices()
        metrics = evaluate_model(model, X, y)
        rows = [
            (target, f"{m['mae']:.3f}", f"{m['spearman']:.2f}")
            for target, m in metrics.items()
        ]
        return render_table((title, "MAE", "spearman"), rows)

    if args.action == "fit":
        min_rows = args.min_rows if args.min_rows is not None else MIN_CORPUS_ROWS
        if corpus.n_rows < min_rows:
            raise SystemExit(
                f"corpus has {corpus.n_rows} rows (< {min_rows} required); "
                "run some sweeps first (e.g. isol-bench tune --mini)"
            )
        model = fit_from_corpus(corpus, seed=args.seed)
        model.save(args.out)
        print(f"fitted on {model.n_rows} rows; wrote model: {args.out}")
        print(_fit_metrics_table(model, corpus, "train target"))
        return 0

    if args.action == "eval":
        if args.model:
            model = _load_surrogate_model(args.model)
            print(f"loaded model: {args.model} ({model.n_rows} training rows)")
            print(_fit_metrics_table(model, corpus, "corpus target"))
            return 0
        train, held = holdout_split(corpus, every=args.holdout_every)
        if not held.rows or train.n_rows < 2:
            raise SystemExit(
                f"corpus has {corpus.n_rows} rows -- too few for a "
                f"1-in-{args.holdout_every} held-out split"
            )
        model = fit_from_corpus(train, seed=args.seed)
        print(
            f"held-out eval: fit on {train.n_rows} rows, "
            f"scored on {held.n_rows} held-out rows "
            f"(every {args.holdout_every}th)"
        )
        print(_fit_metrics_table(model, held, "held-out target"))
        return 0

    # report: corpus provenance plus the saved model's shape, no fitting.
    print(f"corpus digest: {corpus.digest()}")
    print(
        f"feature schema: v{corpus.feature_schema_version} "
        f"({len(corpus.feature_names)} features)"
    )
    if args.model:
        model = _load_surrogate_model(args.model)
        config = model.config
        print(
            f"model: {args.model} rows={model.n_rows} "
            f"targets={','.join(model.target_names)} "
            f"members={config.n_members} rounds={config.n_rounds} "
            f"depth={config.max_depth} lr={config.learning_rate}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.prof import bench

    cases = None
    if args.cases:
        cases = tuple(name.strip() for name in args.cases.split(",") if name.strip())

    directory = args.dir
    baseline_path = args.baseline or bench.latest_bench_path(directory)

    if args.candidate:
        record = bench.load_bench(args.candidate)
        elapsed = 0.0
        print(f"loaded candidate bench record: {args.candidate}")
    else:
        started = time.perf_counter()
        record = bench.run_bench(
            repeats=args.repeats,
            mini=args.mini,
            cases=cases,
            workers=args.workers,
            label=args.label,
        )
        elapsed = time.perf_counter() - started

    for name, entry in record["cases"].items():
        line = (
            f"case {name:<14s} events={entry['events']:>9,d} "
            f"events/sec={entry['median_rate']:>9,.0f} "
            f"normalized={entry['median_normalized']:.3f}"
        )
        if entry["kind"] == "profiled" and "coverage" in entry:
            line += f" coverage={entry['coverage']:.1%}"
        elif entry["kind"] == "executor" and "executor" in entry:
            line += (
                f" util={entry['executor']['utilization']:.0%} "
                f"cache-hits={entry['cache']['hits']}"
            )
        print(line)

    if not args.no_write and not args.candidate:
        path = bench.write_bench(record, directory)
        print(f"wrote bench record: {path}")

    status = 0
    if args.compare:
        if baseline_path is None:
            raise SystemExit(
                f"bench --compare: no baseline record under {directory} "
                "(pass --baseline or commit one first)"
            )
        baseline = bench.load_bench(baseline_path)
        threshold = (
            args.threshold if args.threshold is not None else bench.DEFAULT_THRESHOLD
        )
        report = bench.compare_benches(baseline, record, threshold=threshold)
        print(f"\ncompare vs {baseline_path}:")
        print(report.render())
        status = 0 if report.ok else 1

    total_events = sum(entry["events"] for entry in record["cases"].values())
    print(_perf_line(total_events, elapsed))
    return status


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec.cache import main as cache_main

    argv = []
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    argv.append(args.action)
    return cache_main(argv)


def _add_scenario_args(p: argparse.ArgumentParser, default_lc_apps: int = 0) -> None:
    p.add_argument("--knob", default="none")
    p.add_argument("--device", default="flash", choices=("flash", "optane"))
    p.add_argument("--devices", type=int, default=1)
    p.add_argument("--cores", type=int, default=10)
    p.add_argument("--batch-apps", type=int, default=2)
    p.add_argument("--lc-apps", type=int, default=default_lc_apps)
    p.add_argument("--size", type=int, default=4, help="request size in KiB")
    p.add_argument("--duration", type=float, default=0.5)
    p.add_argument("--device-scale", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--faults",
        default=None,
        choices=sorted(FAULT_CLASSES),
        help="inject a named fault class (repro.faults preset)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isol-bench",
        description="Storage performance-isolation benchmark (IISWC'25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe-device", help="print a device preset's saturation points")
    p.add_argument("device", nargs="?", default="flash", choices=("flash", "optane"))
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable saturation document (the tune.space source of truth)",
    )
    p.set_defaults(fn=_cmd_describe_device)

    p = sub.add_parser("coef-gen", help="generate an io.cost.model line")
    p.add_argument("device", nargs="?", default="flash", choices=("flash", "optane"))
    p.add_argument("--conservatism", type=float, default=0.78)
    p.set_defaults(fn=_cmd_coef_gen)

    p = sub.add_parser("run", help="run one ad-hoc scenario")
    _add_scenario_args(p)
    p.add_argument(
        "--prof",
        action="store_true",
        help="run with the self-profiler on and print the phase breakdown",
    )
    p.add_argument(
        "--prof-out",
        default=None,
        help="also write the profile to this path (implies --prof)",
    )
    p.add_argument(
        "--prof-format",
        default="json",
        choices=("json", "pstats", "chrome"),
        help="profile export format for --prof-out (default: json)",
    )
    p.add_argument(
        "--prof-bucket-us",
        type=float,
        default=0.0,
        help="timeline bucket width in simulated us (0 = totals only)",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "trace",
        help="run a traced scenario and export a browsable timeline",
    )
    _add_scenario_args(p, default_lc_apps=1)
    p.add_argument(
        "--out",
        default="/tmp/isol-bench-trace.json",
        help="output path (csv format appends .spans.csv/.samples.csv)",
    )
    p.add_argument(
        "--format",
        default="chrome",
        choices=("chrome", "jsonl", "csv"),
        help="chrome = Perfetto/chrome://tracing JSON (default)",
    )
    p.add_argument(
        "--sample-period-us",
        type=float,
        default=5_000.0,
        help="stack sampler period in simulated us (0 disables sampling)",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("table1", help="reproduce the paper's Table I")
    p.add_argument("--quick", action="store_true")
    _add_executor_args(p)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser(
        "d5", help="rank the knobs under fault injection (robustness)"
    )
    p.add_argument("--quick", action="store_true", help="reduced effort level")
    p.add_argument(
        "--mini", action="store_true", help="smoke effort level (CI; seconds)"
    )
    p.add_argument(
        "--faults",
        default=None,
        help="comma-separated fault classes (default: latency-spike,"
        "gc-storm,transient-error; options: " + ",".join(sorted(FAULT_CLASSES)) + ")",
    )
    p.add_argument("--json", default=None, help="also write the ranking as JSON")
    _add_executor_args(p)
    p.set_defaults(fn=_cmd_d5)

    p = sub.add_parser(
        "tune", help="search knob configurations against a tenant SLO"
    )
    p.add_argument(
        "--slo",
        default=None,
        help="SLO spec, e.g. '/tenants/prio:p99<=100,bw>=40;util>=0.25' "
        "(default: a calibrated demo SLO for the D5 workload)",
    )
    p.add_argument(
        "--knob",
        default="auto",
        help="comma-separated knobs to search, or 'auto' for all five",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="evaluations per knob search"
    )
    p.add_argument(
        "--strategy",
        default="auto",
        choices=("auto", "binary", "coordinate", "random", "grid"),
        help="search strategy (auto: each knob's declared default)",
    )
    p.add_argument(
        "--faults",
        default=None,
        choices=sorted(FAULT_CLASSES),
        help="tune under a fault class (robustness-aware recommendations)",
    )
    p.add_argument(
        "--surrogate",
        nargs="?",
        const="auto",
        default="off",
        help="surrogate-prefiltered search: 'auto' fits on the result cache "
        "(falls back to pure search when the corpus is too small), a path "
        "loads a saved model, 'off' disables (bare --surrogate means auto)",
    )
    p.add_argument(
        "--verify-top-k",
        type=int,
        default=None,
        help="simulator verifications per knob when the surrogate is on "
        "(default: the budget)",
    )
    p.add_argument("--quick", action="store_true", help="reduced effort level")
    p.add_argument(
        "--mini", action="store_true", help="smoke effort level (CI; seconds)"
    )
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.add_argument(
        "--trace-out", default=None, help="write the decision trace as JSONL"
    )
    _add_executor_args(p)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser(
        "place",
        help="place fleet tenants on devices and compare strategies",
    )
    p.add_argument(
        "--fleet",
        default=None,
        help="fleet spec JSON (default: the pinned demo fleet)",
    )
    p.add_argument(
        "--slo",
        default=None,
        help="override tenant SLOs, e.g. '/tenants/lc-api:p99<=100;"
        "/tenants/batch-etl:bw>=1000' (cgroups must name fleet tenants)",
    )
    p.add_argument(
        "--strategy",
        default="all",
        choices=("all", "random", "binpack", "serifos"),
        help="placement strategy to run (default: all three, compared)",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="advisor evaluations per knob per device"
    )
    p.add_argument("--seed", type=int, default=42, help="random-strategy seed")
    p.add_argument("--quick", action="store_true", help="reduced effort level")
    p.add_argument(
        "--mini", action="store_true", help="smoke effort level (CI; seconds)"
    )
    p.add_argument("--json", default=None, help="also write the comparison as JSON")
    _add_executor_args(p)
    p.set_defaults(fn=_cmd_place)

    p = sub.add_parser(
        "ctl",
        help="D8: online knob control vs static tuning across arrival patterns",
    )
    p.add_argument(
        "--quick", action="store_true", help="longer-run effort level"
    )
    p.add_argument(
        "--mini", action="store_true", help="smoke effort level (CI; the default)"
    )
    p.add_argument(
        "--knobs",
        default=None,
        help="comma-separated knob filter (default: io.max,io.cost,io.latency)",
    )
    p.add_argument(
        "--patterns",
        default=None,
        help="comma-separated arrival-pattern filter (default: all five)",
    )
    p.add_argument("--json", default=None, help="also write the matrix as JSON")
    p.add_argument(
        "--trace-out",
        default=None,
        help="re-run the --cell online scenario and write its decision trace JSONL",
    )
    p.add_argument(
        "--cell",
        default="io.max/flash-crowd",
        help="knob/pattern cell for --trace-out/--prof (default: io.max/flash-crowd)",
    )
    p.add_argument(
        "--prof",
        action="store_true",
        help="self-profile the --cell online scenario and print the phase table",
    )
    _add_executor_args(p)
    p.set_defaults(fn=_cmd_ctl)

    p = sub.add_parser(
        "d9",
        help="D9: surrogate-prefiltered vs pure search, budget for budget",
    )
    p.add_argument("--quick", action="store_true", help="reduced effort level")
    p.add_argument(
        "--mini", action="store_true", help="smoke effort level (CI; seconds)"
    )
    p.add_argument(
        "--knobs",
        default=None,
        help="comma-separated knob filter (default: effort level's set)",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="simulator calls per arm per knob"
    )
    p.add_argument(
        "--train-budget",
        type=int,
        default=None,
        help="simulator calls spent training the surrogate per knob",
    )
    p.add_argument("--json", default=None, help="also write the study as JSON")
    _add_executor_args(p)
    p.set_defaults(fn=_cmd_d9)

    p = sub.add_parser(
        "surrogate",
        help="fit, evaluate, or describe a surrogate model from the cache",
    )
    p.add_argument(
        "action",
        choices=("fit", "eval", "report"),
        help="fit: train+save; eval: held-out (or saved-model) error; "
        "report: corpus/model provenance",
    )
    p.add_argument(
        "--out",
        default="surrogate_model.json",
        help="model output path for fit (default: surrogate_model.json)",
    )
    p.add_argument(
        "--model",
        default=None,
        help="saved model to evaluate/describe instead of fitting fresh",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="corpus source (default: $ISOLBENCH_CACHE_DIR or .isolbench-cache/)",
    )
    p.add_argument("--seed", type=int, default=42, help="fit seed")
    p.add_argument(
        "--min-rows",
        type=int,
        default=None,
        help="fewest corpus rows fit will accept (default: the auto threshold)",
    )
    p.add_argument(
        "--holdout-every",
        type=int,
        default=4,
        help="eval holds out every Nth corpus row (default 4)",
    )
    p.set_defaults(fn=_cmd_surrogate)

    p = sub.add_parser(
        "bench",
        help="run the pinned perf suite; compare against the trajectory",
    )
    p.add_argument(
        "--mini", action="store_true", help="single repeat (CI; same case content)"
    )
    p.add_argument(
        "--repeats", type=int, default=3, help="paired repeats per case (default 3)"
    )
    p.add_argument(
        "--cases",
        default=None,
        help="comma-separated case filter (default: the full suite)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker-pool size for the executor case (default 2)",
    )
    p.add_argument("--label", default=None, help="free-form label stored in the record")
    p.add_argument(
        "--dir",
        default="benchmarks/trajectory",
        help="trajectory directory of BENCH_<n>.json records",
    )
    p.add_argument(
        "--no-write", action="store_true", help="do not write a BENCH_<n>.json record"
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="diff against the baseline; exit 1 on regression",
    )
    p.add_argument(
        "--baseline",
        default=None,
        help="baseline record path (default: latest BENCH_<n>.json in --dir)",
    )
    p.add_argument(
        "--candidate",
        default=None,
        help="compare a pre-recorded candidate instead of running the suite",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="slowdown factor that counts as a regression (default 1.3)",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", choices=("stats", "path", "clear"))
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
