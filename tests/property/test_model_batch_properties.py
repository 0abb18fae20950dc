"""Property tests: numpy batch cost path == scalar path, bit-exact.

``SsdModel.batch_costs`` promises the *same IEEE-754 operations* as the
scalar ``fixed_cost_us`` / ``bus_cost_us`` methods, so equality here is
``==`` on floats — no tolerances. Perturbed cases scale the model the
way the fault layer does at runtime (GC-storm service multipliers,
write-amplified costs), proving the equivalence is not an artifact of
round-number parameters.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iorequest import OpType, Pattern
from repro.ssd.device import SimulatedNvmeDevice
from repro.ssd.model import SsdModel
from repro.sim.engine import Simulator

#: Model parameters drawn wide and awkward (non-representable decimals).
cost_strategy = st.floats(min_value=0.1, max_value=5_000.0, allow_nan=False)
bps_strategy = st.floats(min_value=1e6, max_value=1e11, allow_nan=False)
#: Sizes hit segment boundaries: 1 byte, exact multiples of the 32 KiB
#: segment, one off either side, and random values.
size_strategy = st.one_of(
    st.sampled_from([1, 4096, 32768, 32769, 65536, 65537, 262144, 1 << 22]),
    st.integers(min_value=1, max_value=1 << 22),
)
#: GC-storm / fault-style multiplicative perturbations (service
#: multipliers are ~1-8x in the presets; write amplification >= 1).
perturb_strategy = st.floats(min_value=1.0, max_value=16.0, allow_nan=False)

request_strategy = st.tuples(
    st.sampled_from([OpType.READ, OpType.WRITE]),
    st.sampled_from([Pattern.RANDOM, Pattern.SEQUENTIAL]),
    size_strategy,
)


def make_model(read_fixed, write_fixed, seq_read, seq_write, rbps, wbps) -> SsdModel:
    return SsdModel(
        name="prop",
        parallelism=8,
        read_fixed_us=read_fixed,
        write_fixed_us=write_fixed,
        seq_read_fixed_us=seq_read,
        seq_write_fixed_us=seq_write,
        read_bus_bps=rbps,
        write_bus_bps=wbps,
    )


def assert_batch_equals_scalar(model: SsdModel, reqs) -> None:
    ops = [op for op, _, _ in reqs]
    patterns = [pat for _, pat, _ in reqs]
    sizes = [size for _, _, size in reqs]
    fixed, bus, segments, per_segment = model.batch_costs(ops, patterns, sizes)
    for i, (op, pattern, size) in enumerate(reqs):
        want_fixed = model.fixed_cost_us(op, pattern)
        want_bus = model.bus_cost_us(op, size)
        want_segments = max(1, -(-size // model.bus_segment_bytes))
        assert fixed[i] == want_fixed, (i, "fixed")
        assert bus[i] == want_bus, (i, "bus")
        assert segments[i] == want_segments, (i, "segments")
        assert per_segment[i] == want_bus / want_segments, (i, "per_segment")
        # .tolist() must hand back native floats/ints, not numpy scalars
        # (they pickle/JSON differently and would poison summaries).
        assert type(fixed[i]) is float and type(bus[i]) is float
        assert type(segments[i]) is int and type(per_segment[i]) is float


class TestBatchScalarExactEquality:
    @given(
        cost_strategy,
        cost_strategy,
        cost_strategy,
        cost_strategy,
        bps_strategy,
        bps_strategy,
        st.lists(request_strategy, min_size=1, max_size=50),
    )
    @settings(max_examples=80)
    def test_batch_matches_scalar_bitwise(
        self, rf, wf, srf, swf, rbps, wbps, reqs
    ):
        assert_batch_equals_scalar(make_model(rf, wf, srf, swf, rbps, wbps), reqs)

    @given(
        cost_strategy,
        bps_strategy,
        perturb_strategy,
        perturb_strategy,
        st.lists(request_strategy, min_size=2, max_size=50),
    )
    @settings(max_examples=60)
    def test_fault_perturbed_models_stay_exact(
        self, base_cost, base_bps, service_mult, waf, reqs
    ):
        """A GC-storm-degraded model (slower flash, narrower bus, WAF-
        amplified writes) keeps batch/scalar bit-equality."""
        model = make_model(
            base_cost * service_mult,
            base_cost * service_mult * waf,
            base_cost,
            base_cost * waf,
            base_bps / service_mult,
            base_bps / (service_mult * waf),
        )
        assert_batch_equals_scalar(model, reqs)

    @given(st.lists(request_strategy, min_size=2, max_size=30), st.floats(
        min_value=1.0, max_value=64.0, allow_nan=False))
    @settings(max_examples=40)
    def test_scaled_models_stay_exact(self, reqs, scale):
        """Device-scale time dilation (the bench path) preserves equality."""
        model = make_model(80.0, 20.0, 60.0, 15.0, 7e9, 5.3e9)
        if scale < 1.0:
            scale = 1.0
        assert_batch_equals_scalar(model.scaled(scale), reqs)

    @given(request_strategy)
    @settings(max_examples=40)
    def test_single_request_takes_scalar_fallback(self, req):
        """n == 1 always uses the scalar path (and still agrees)."""
        model = make_model(80.0, 20.0, 60.0, 15.0, 7e9, 5.3e9)
        assert_batch_equals_scalar(model, [req])


class TestDeviceWarmCosts:
    @given(st.lists(request_strategy, min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_warm_fills_exactly_what_lazy_fill_would(self, reqs):
        """warm_costs() pre-fills the memo caches with the exact values
        the per-request lazy path computes."""
        model = make_model(80.0, 20.0, 60.0, 15.0, 7e9, 5.3e9)
        import random

        warm = SimulatedNvmeDevice(Simulator(), model, random.Random(0))
        warm.warm_costs((op, pat, size) for op, pat, size in reqs)
        for op, pat, size in reqs:
            assert warm._fixed_cost_cache[(op, pat)] == model.fixed_cost_us(op, pat)
            segments, per_segment = warm._bus_plan_cache[(op, size)]
            want_segments = max(1, -(-size // model.bus_segment_bytes))
            assert segments == want_segments
            assert per_segment == model.bus_cost_us(op, size) / want_segments

    def test_warm_is_idempotent(self):
        model = make_model(80.0, 20.0, 60.0, 15.0, 7e9, 5.3e9)
        import random

        device = SimulatedNvmeDevice(Simulator(), model, random.Random(0))
        keys = [(OpType.READ, Pattern.RANDOM, 4096), (OpType.WRITE, Pattern.SEQUENTIAL, 262144)]
        device.warm_costs(keys)
        first = (dict(device._fixed_cost_cache), dict(device._bus_plan_cache))
        device.warm_costs(keys)
        assert (device._fixed_cost_cache, device._bus_plan_cache) == first
