"""Cache-key canonicalization: equality, sensitivity, stability.

A content-addressed cache is only correct if the key function is
*total* over scenario content: equal scenarios must collide, any field
perturbation must not, and the key must not leak process-local state
(``id()``, dict insertion order, ``PYTHONHASHSEED``). Each class below
pins one of those properties.
"""

import dataclasses
import enum
import math
import subprocess
import sys

import pytest

from repro.core.config import (
    BfqKnob,
    IoMaxKnob,
    MqDeadlineKnob,
    NoneKnob,
    Scenario,
)
from repro.ctl import CtlConfig, IoMaxCtlParams, PidParams
from repro.exec.cachekey import (
    SCHEMA_VERSION,
    canonical_text,
    decode_canonical,
    scenario_key,
)
from repro.exec.executor import SweepExecutor
from repro.faults import get_fault_plan
from repro.ssd.presets import samsung_980pro_like
from repro.tune.slo import GroupSlo, SloSpec
from repro.workloads.apps import batch_app, lc_app
from repro.workloads.spec import ArrivalPhase, JobSpec


def _ctl(**iomax_overrides) -> CtlConfig:
    """A control-plane config anchored to the base scenario's LC group."""
    return CtlConfig(
        slo=SloSpec(groups=(GroupSlo("/tenants/b", p99_latency_us=300.0),)),
        iomax=IoMaxCtlParams(**iomax_overrides),
    )


def _phased_app(rate_iops: float = 1000.0) -> JobSpec:
    """An open-loop job with a time-varying arrival timeline."""
    return JobSpec(
        name="phased",
        cgroup_path="/tenants/a",
        arrival_phases=(ArrivalPhase(0.0, 50_000.0, rate_iops),),
    )


def base_scenario(**overrides) -> Scenario:
    fields = dict(
        name="key-test",
        knob=BfqKnob(weights={"/tenants/a": 100, "/tenants/b": 200}),
        apps=[batch_app("batch0", "/tenants/a"), lc_app("lc0", "/tenants/b")],
        ssd_model=samsung_980pro_like(),
        duration_s=0.1,
        warmup_s=0.02,
        seed=42,
        cores=4,
        num_devices=1,
        device_scale=8.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestCanonicalText:
    def test_dict_order_invariance(self):
        assert canonical_text({"a": 1, "b": 2}) == canonical_text({"b": 2, "a": 1})

    def test_float_rendering(self):
        assert repr(0.1) in canonical_text(0.1)
        assert canonical_text(math.inf) != canonical_text(-math.inf)
        assert canonical_text(math.nan) == canonical_text(math.nan)
        # bool is not int here: True and 1 must not collide.
        assert canonical_text(True) != canonical_text(1)

    def test_enum_by_identity_not_value(self):
        class A(enum.Enum):
            X = 1

        class B(enum.Enum):
            X = 1

        assert canonical_text(A.X) != canonical_text(B.X)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_text(lambda: None)

    def test_nested_containers(self):
        assert canonical_text([1, (2, 3)]) == canonical_text([1, (2, 3)])
        assert canonical_text([1, 2]) != canonical_text([2, 1])


class TestScenarioKey:
    def test_independent_constructions_collide(self):
        assert scenario_key(base_scenario()) == scenario_key(base_scenario())

    def test_key_is_hex_sha256(self):
        key = scenario_key(base_scenario())
        assert len(key) == 64
        int(key, 16)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": "other"},
            {"seed": 43},
            {"duration_s": 0.2},
            {"warmup_s": 0.03},
            {"cores": 5},
            {"num_devices": 2},
            {"device_scale": 4.0},
            {"preconditioned": True},
            {"knob": NoneKnob()},
            {"knob": BfqKnob(weights={"/tenants/a": 100, "/tenants/b": 201})},
            {"knob": MqDeadlineKnob(classes={"/tenants/a": "realtime"})},
            {"knob": IoMaxKnob(limits={"/tenants/a": {"rbps": 1e9}})},
            {"faults": get_fault_plan("latency-spike")},
            {"faults": get_fault_plan("transient-error")},
            {"apps": [batch_app("batch0", "/tenants/a")]},
            {"apps": [batch_app("batch0", "/tenants/a", queue_depth=8),
                      lc_app("lc0", "/tenants/b")]},
            {"ctl": _ctl()},
            {"ctl": _ctl(deadband_fraction=0.03)},
            {"apps": [_phased_app(), lc_app("lc0", "/tenants/b")]},
            {"apps": [_phased_app(rate_iops=2000.0), lc_app("lc0", "/tenants/b")]},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_any_perturbation_changes_key(self, overrides):
        assert scenario_key(base_scenario(**overrides)) != scenario_key(
            base_scenario()
        )

    def test_nested_ctl_params_perturb_key(self):
        """Two control planes differing only in a nested PID gain or a
        rate-limit fraction must not share a cache entry — the whole
        CtlConfig tree renders into the key."""
        base = scenario_key(base_scenario(ctl=_ctl()))
        gain = scenario_key(base_scenario(ctl=_ctl(pid=PidParams(kp=0.6))))
        step = scenario_key(base_scenario(ctl=_ctl(max_recover_fraction=0.2)))
        assert len({base, gain, step}) == 3

    def test_knob_dict_insertion_order_irrelevant(self):
        forward = BfqKnob(weights={"/tenants/a": 100, "/tenants/b": 200})
        backward = BfqKnob(weights={"/tenants/b": 200, "/tenants/a": 100})
        assert scenario_key(base_scenario(knob=forward)) == scenario_key(
            base_scenario(knob=backward)
        )

    def test_salt_includes_schema_version(self):
        assert f"isolbench-cache:v{SCHEMA_VERSION}" in canonical_saltless_probe()


#: ``scenario_key(base_scenario())`` as the seed renderer wrote it. A
#: renderer change that moves a key turns every warm cache cold; only a
#: SCHEMA_VERSION bump, which moves every key on purpose, may re-pin.
BASE_SCENARIO_KEY = {
    6: "da525a09f91e5b2b4dfe57da6d093d3757cbd6ba8993d737ac98e77a759fea55",
}


class _RecordingCache:
    """A cache that hits on every key it is asked for, and lists them."""

    def __init__(self) -> None:
        self.keys: list[str] = []

    def get(self, key: str) -> str:
        self.keys.append(key)
        return "hit"


class TestMemo:
    """A memo renders the sub-objects a batch shares once, for one sweep."""

    def test_one_argument_key_is_pinned(self):
        assert scenario_key(base_scenario()) == BASE_SCENARIO_KEY[SCHEMA_VERSION]

    def test_one_argument_key_keeps_no_memo(self):
        scenario = base_scenario()
        before = scenario_key(scenario)
        scenario.knob.weights["/tenants/a"] = 300
        assert scenario_key(scenario) != before
        assert scenario_key(scenario) == scenario_key(base_scenario(knob=scenario.knob))

    def test_shared_and_unshared_sub_objects_key_alike(self):
        apps = [batch_app("batch0", "/tenants/a"), lc_app("lc0", "/tenants/b")]
        ssd = samsung_980pro_like()
        shared = [base_scenario(name=f"s{i}", apps=apps, ssd_model=ssd) for i in range(3)]
        unshared = [base_scenario(name=f"s{i}") for i in range(3)]
        memo: dict = {}
        shared_keys = [scenario_key(scenario, memo) for scenario in shared]
        assert shared_keys == [scenario_key(scenario) for scenario in unshared]
        assert len(set(shared_keys)) == 3

    def test_a_batch_through_one_memo_keys_like_one_at_a_time(self):
        apps = [batch_app("batch0", "/tenants/a"), lc_app("lc0", "/tenants/b")]
        batch = [
            base_scenario(apps=apps),
            base_scenario(apps=apps, seed=43),
            base_scenario(apps=apps, ctl=_ctl()),
            base_scenario(apps=apps, faults=get_fault_plan("gc-storm")),
            base_scenario(apps=[_phased_app(), *apps]),
            base_scenario(apps=apps),  # a re-proposal: same content
        ]
        memo: dict = {}
        batched = [scenario_key(scenario, memo) for scenario in batch]
        assert batched == [scenario_key(scenario) for scenario in batch]
        assert batched[0] == batched[5] and len(set(batched)) == 5
        assert memo  # the shared app list was rendered into it

    def test_the_memo_does_not_outlive_a_sweep(self):
        scenario = base_scenario()
        cache = _RecordingCache()
        executor = SweepExecutor(max_workers=1, cache=cache)
        assert executor.run([scenario, scenario]) == ["hit", "hit"]
        scenario.knob.weights["/tenants/a"] = 300  # mutated between sweeps
        assert executor.run([scenario]) == ["hit"]
        first, again, second = cache.keys
        assert first == again != second
        assert second == scenario_key(scenario)
        assert executor.stats.executed == 0


class TestDecode:
    """``decode_canonical`` inverts the rendering, inside an allowlist."""

    @pytest.mark.parametrize(
        "scenario",
        [
            base_scenario(),
            base_scenario(ctl=_ctl(), apps=[_phased_app(), lc_app("lc0", "/tenants/b")]),
            base_scenario(faults=get_fault_plan("gc-storm")),
        ],
        ids=["bfq", "ctl-phased", "faults"],
    )
    def test_round_trip_restores_types(self, scenario):
        text = canonical_text(scenario)
        decoded = decode_canonical(text)
        assert decoded == scenario
        assert canonical_text(decoded) == text
        assert scenario_key(decoded) == scenario_key(scenario)

    def test_tuples_and_lists_come_back_as_declared(self):
        decoded = decode_canonical(canonical_text(base_scenario(apps=[_phased_app()])))
        assert type(decoded.apps) is list
        assert type(decoded.apps[0].arrival_phases) is tuple

    def test_scalars_and_containers(self):
        for value in (None, True, 0, -7, 0.1, math.inf, "a;b}:c", {"k": 1.5, 2: [3]}):
            assert decode_canonical(canonical_text(value)) == value

    @pytest.mark.parametrize(
        "text",
        [
            "D:os.path.Foo{}",  # dataclass tag outside repro.*
            "E:enum.Enum.X",  # enum tag outside repro.*
            "O:collections.OrderedDict{}",  # plain-object tag outside repro.*
            "D:reprox.core.config.Scenario{}",  # look-alike package name
            "O:repro.core.config.KnobConfig{}",  # repro class, not a dataclass
            "D:repro.core.config.JobSpec{}",  # imported there, defined elsewhere
            "E:repro.core.config.Scenario.X",  # repro dataclass, not an enum
            "D:repro.core.config.NoneKnob{bogus=i:1;}",  # unknown field
            "E:repro.iorequest.OpType.NOPE",  # unknown member
            "D:repro.core.config.NoneKnob{",  # truncated
            "i:1,",  # trailing text
            "s:9:abc",  # length past the end
            "Q:1",  # unknown tag
            pytest.param("[" * 5000, id="nesting-past-the-recursion-limit"),
        ],
    )
    def test_refuses(self, text):
        with pytest.raises(ValueError):
            decode_canonical(text)


def canonical_saltless_probe() -> str:
    # The salt is module-private by design; recover it via the module to
    # keep the test honest about what actually feeds the hash.
    from repro.exec import cachekey

    return cachekey._SALT


_CHILD_PROGRAM = """
import sys
sys.path.insert(0, "src")
from tests.unit.test_exec_cachekey import base_scenario
from repro.exec.cachekey import scenario_key
print(scenario_key(base_scenario()))
"""


class TestCrossInterpreterStability:
    @pytest.mark.parametrize("hashseed", ["0", "12345"])
    def test_key_stable_across_interpreters(self, hashseed):
        """No id()/hash()/dict-order leakage: a fresh interpreter with a
        different PYTHONHASHSEED computes the identical key."""
        import os

        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_PROGRAM],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            check=True,
        )
        assert out.stdout.strip() == scenario_key(base_scenario())
