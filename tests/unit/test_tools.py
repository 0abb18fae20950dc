"""Unit tests for iocost_coef_gen, report rendering, and the CLI."""

import re

import pytest

from repro.core.report import render_series, render_table
from repro.iorequest import GIB, KIB, OpType, Pattern
from repro.ssd.presets import intel_optane_like, samsung_980pro_like
from repro.tools.cli import build_parser, main
from repro.tools.iocost_coef_gen import (
    DEFAULT_CONSERVATISM,
    derive_model,
    format_model_line,
)


class TestDeriveModel:
    def test_read_saturation_matches_paper_ratio(self):
        ssd = samsung_980pro_like()
        model = derive_model(ssd)
        nominal = ssd.saturation_iops(OpType.READ, Pattern.RANDOM, 4 * KIB)
        assert model.rrandiops == pytest.approx(nominal * DEFAULT_CONSERVATISM)

    def test_paper_read_saturation_point(self):
        # The paper's generated model had a 2.3 GiB/s read saturation.
        model = derive_model(samsung_980pro_like())
        assert 2.0 * GIB < model.rrandiops * 4 * KIB < 2.6 * GIB

    def test_write_params_include_waf(self):
        ssd = samsung_980pro_like()
        model = derive_model(ssd)
        nominal_write = ssd.saturation_iops(OpType.WRITE, Pattern.RANDOM, 4 * KIB)
        expected = nominal_write * DEFAULT_CONSERVATISM / ssd.gc.write_amplification
        assert model.wrandiops == pytest.approx(expected)

    def test_optane_has_no_waf_discount(self):
        ssd = intel_optane_like()
        model = derive_model(ssd)
        nominal = ssd.saturation_iops(OpType.WRITE, Pattern.RANDOM, 4 * KIB)
        assert model.wrandiops == pytest.approx(nominal * DEFAULT_CONSERVATISM)

    def test_conservatism_validated(self):
        with pytest.raises(ValueError):
            derive_model(samsung_980pro_like(), conservatism=0.0)

    def test_format_model_line_parses_back(self):
        from repro.cgroups.knobs import parse_io_cost_model_line

        model = derive_model(samsung_980pro_like())
        line = format_model_line("259:0", model)
        device, parsed = parse_io_cost_model_line(line)
        assert device == "259:0"
        assert parsed.rbps == pytest.approx(model.rbps, abs=1.0)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            ["knob", "value"], [["none", 1.0], ["io.cost", 2.5]], title="T"
        )
        assert "T" in text
        assert "io.cost" in text
        assert "2.500" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_series(self):
        text = render_series(
            "Fig X", {"none": [(1.0, 2.0)]}, x_label="apps", y_label="GiB/s"
        )
        assert "Fig X" in text
        assert "none" in text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_device(self, capsys):
        assert main(["describe-device", "flash"]) == 0
        assert "GiB/s" in capsys.readouterr().out

    def test_describe_device_json_matches_model_dict(self, capsys):
        import json

        from repro.ssd.model import describe_model_dict
        from repro.ssd.presets import get_preset

        assert main(["describe-device", "flash", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The CLI document IS the tune.space source of truth.
        assert doc == describe_model_dict(get_preset("flash"))
        assert set(doc["cases"]) == {
            "rand-read-4k",
            "rand-write-4k",
            "rand-read-64k",
            "seq-read-256k",
        }
        case = doc["cases"]["rand-read-4k"]
        assert case["bandwidth_bps"] == case["iops"] * case["size_bytes"]

    def test_tune_unknown_knob(self):
        with pytest.raises(SystemExit, match="unknown knob"):
            main(["tune", "--mini", "--knob", "io.imaginary"])

    def test_coef_gen(self, capsys):
        assert main(["coef-gen", "optane"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("259:0 ctrl=user model=linear")

    def test_run_quick_scenario(self, capsys):
        code = main(
            [
                "run",
                "--knob",
                "none",
                "--batch-apps",
                "1",
                "--duration",
                "0.05",
                "--device-scale",
                "16",
            ]
        )
        assert code == 0
        assert "aggregate bandwidth" in capsys.readouterr().out

    def test_run_unknown_knob(self):
        with pytest.raises(SystemExit):
            main(["run", "--knob", "cfq", "--batch-apps", "1"])

    def test_run_without_apps(self):
        with pytest.raises(SystemExit):
            main(["run", "--batch-apps", "0", "--lc-apps", "0"])


#: Every workload-running subcommand ends with this machine-parseable line.
PERF_LINE_RE = re.compile(
    r"^perf: events=\d+ elapsed=\d+\.\d{3}s events/sec=\d+ engine=batched$"
)

QUICK_RUN_ARGS = [
    "--batch-apps",
    "1",
    "--duration",
    "0.05",
    "--device-scale",
    "16",
]


class TestPerfFooter:
    def test_run_ends_with_perf_line(self, capsys):
        assert main(["run", *QUICK_RUN_ARGS]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert PERF_LINE_RE.match(last), last

    def test_trace_ends_with_perf_line(self, capsys, tmp_path):
        out_path = str(tmp_path / "trace.jsonl")
        code = main(
            ["trace", *QUICK_RUN_ARGS, "--format", "jsonl", "--out", out_path]
        )
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert PERF_LINE_RE.match(last), last

    def test_run_prof_prints_breakdown_then_perf_line(self, capsys, tmp_path):
        out_path = str(tmp_path / "profile.pstats")
        code = main(
            [
                "run",
                *QUICK_RUN_ARGS,
                "--prof",
                "--prof-out",
                out_path,
                "--prof-format",
                "pstats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine phase breakdown:" in out
        assert "loop total" in out
        import pstats

        assert pstats.Stats(out_path).stats  # loadable by the stdlib
        last = out.strip().splitlines()[-1]
        assert PERF_LINE_RE.match(last), last


@pytest.fixture
def no_scenarios(monkeypatch):
    """Fail the test if any sweep runs a scenario."""
    from repro.exec import SweepExecutor

    def refuse(self, scenarios):
        raise AssertionError(f"a sweep ran {len(scenarios)} scenario(s)")

    monkeypatch.setattr(SweepExecutor, "run", refuse)


class TestStudyFlagValidation:
    """A bad study flag exits 1 with one line before any scenario runs."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in (
                (["d5", "--mini", "--faults", ","], "d5: need at least one fault class"),
                (["d5", "--faults", "gc-strom"], "d5: unknown fault classes ['gc-strom']"),
                (["tune", "--mini", "--knob", "io.max", "--budget", "0"], "tune: budget"),
                (["tune", "--mini", "--slo", "garbage"], "tune: cannot parse SLO"),
                (["place", "--mini", "--budget", "0"], "place: budget must be >= 1"),
                (["ctl", "--mini", "--knobs", ","], "ctl: need at least one knob"),
                (["ctl", "--mini", "--patterns", ","], "ctl: need at least one arrival"),
                (
                    ["ctl", "--mini", "--prof", "--cell", "io.max/bogus"],
                    "ctl: --cell: unknown patterns: ['bogus']",
                ),
                (["d9", "--mini", "--knobs", ","], "d9: need at least one knob"),
                (
                    ["d9", "--mini", "--knobs", "io.max", "--budget", "0"],
                    "d9: budget must be >= 1",
                ),
            )
        ],
    )
    def test_bad_flag_exits_before_any_scenario(self, argv, message, no_scenarios):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--no-cache", "--quiet"])
        text = str(exit_info.value.code)
        assert text.startswith(message) and "\n" not in text, text

    @pytest.mark.parametrize("name", ["table1", "d5", "tune", "place", "ctl", "d9"])
    def test_zero_workers_exits_before_any_scenario(self, name, no_scenarios):
        with pytest.raises(SystemExit, match="max_workers must be >= 1"):
            main([name, "--workers", "0", "--no-cache"])

    def test_surrogate_eval_rejects_holdout_every_one(self, tmp_path, monkeypatch):
        import repro.surrogate

        def refuse(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(repro.surrogate, "fit_from_corpus", refuse)
        argv = ["surrogate", "eval", "--holdout-every", "1"]
        with pytest.raises(SystemExit, match="--holdout-every: every must be >= 2"):
            main([*argv, "--cache-dir", str(tmp_path)])


def _store(default=None, choices=None, type_name=None, nargs=None, const=None):
    return ("Store", default, choices, nargs, const, type_name)


_FLAG = ("StoreTrue", False, None, 0, True, None)
_HELP = ("Help", "==SUPPRESS==", None, 0, None, None)
_EXECUTOR_FLAGS = {
    "-h": _HELP,
    "--help": _HELP,
    "--workers": _store(type_name="int"),
    "--no-cache": _FLAG,
    "--cache-dir": _store(),
    "--quiet": _FLAG,
}
_LEVEL_FLAGS = {"--quick": _FLAG, "--mini": _FLAG, "--json": _store()}
_FAULT_CLASSES = [
    "gc-storm", "latency-spike", "slowdown", "timeout-storm", "transient-error"
]

#: Every study subcommand's flags: option -> (action, default, choices,
#: nargs, const, type). Generating the parser from the study registry
#: must neither drop nor add one (there is no ``table1 --mini`` or
#: ``table1 --json``).
STUDY_FLAGS = {
    "table1": {**_EXECUTOR_FLAGS, "--quick": _FLAG},
    "d5": {**_EXECUTOR_FLAGS, **_LEVEL_FLAGS, "--faults": _store()},
    "tune": {
        **_EXECUTOR_FLAGS,
        **_LEVEL_FLAGS,
        "--slo": _store(),
        "--knob": _store("auto"),
        "--budget": _store(type_name="int"),
        "--strategy": _store(
            "auto", ["auto", "binary", "coordinate", "random", "grid"]
        ),
        "--faults": _store(choices=_FAULT_CLASSES),
        "--surrogate": _store("off", nargs="?", const="auto"),
        "--verify-top-k": _store(type_name="int"),
        "--trace-out": _store(),
    },
    "place": {
        **_EXECUTOR_FLAGS,
        **_LEVEL_FLAGS,
        "--fleet": _store(),
        "--slo": _store(),
        "--strategy": _store("all", ["all", "random", "binpack", "serifos"]),
        "--budget": _store(type_name="int"),
        "--seed": _store(42, type_name="int"),
    },
    "ctl": {
        **_EXECUTOR_FLAGS,
        **_LEVEL_FLAGS,
        "--knobs": _store(),
        "--patterns": _store(),
        "--trace-out": _store(),
        "--cell": _store("io.max/flash-crowd"),
        "--prof": _FLAG,
    },
    "d9": {
        **_EXECUTOR_FLAGS,
        **_LEVEL_FLAGS,
        "--knobs": _store(),
        "--budget": _store(type_name="int"),
        "--train-budget": _store(type_name="int"),
    },
}


@pytest.mark.parametrize("name", sorted(STUDY_FLAGS))
def test_study_flag_surface_is_pinned(name):
    import argparse

    parser = build_parser()
    sub = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {}
    for action in sub.choices[name]._actions:
        assert action.option_strings, f"{name}: positional {action.dest!r}"
        for option in action.option_strings:
            surface[option] = (
                type(action).__name__.strip("_").removesuffix("Action"),
                action.default,
                list(action.choices) if action.choices is not None else None,
                action.nargs,
                action.const,
                getattr(action.type, "__name__", None),
            )
    assert surface == STUDY_FLAGS[name]
