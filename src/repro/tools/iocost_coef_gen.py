"""io.cost model generation (the kernel's ``iocost_coef_gen.py``).

The paper generates its io.cost.model with the fio script shipped in the
Linux tree, which measures six device throughput parameters and reports
them for ``io.cost.model``; on the paper's testbed it "returned a model
with a 2.3 GiB/s read saturation point" -- noticeably below the device's
2.94 GiB/s peak, because the probe runs at moderate queue depth and the
model is deliberately conservative.

Two generators are provided:

* :func:`derive_model` -- analytic: reads the simulated device's nominal
  saturation points and applies the same conservatism factor the paper's
  probe exhibited (2.3/2.94 ~= 0.78). Fast; the default for scenarios.
* :func:`calibrate_model` -- empirical: actually runs short probe
  scenarios against a simulated device and measures the six parameters,
  mirroring what the kernel script does with fio.
"""

from __future__ import annotations

from repro.cgroups.knobs import IoCostModelParams
from repro.iorequest import KIB, OpType, Pattern
from repro.ssd.model import SsdModel

# Ratio of the paper's generated model (2.3 GiB/s) to the measured device
# peak (2.94 GiB/s).
DEFAULT_CONSERVATISM = 0.78

_PROBE_LARGE_SIZE = 256 * KIB
_PROBE_SMALL_SIZE = 4 * KIB


def derive_model(
    ssd: SsdModel, conservatism: float = DEFAULT_CONSERVATISM
) -> IoCostModelParams:
    """Analytically derive an io.cost model from a device's parameters.

    Write parameters reflect *steady-state* throughput: the kernel script
    preconditions the drive, so sustained writes pay the full write
    amplification.
    """
    if not 0 < conservatism <= 1.5:
        raise ValueError(f"conservatism out of range: {conservatism}")
    waf = ssd.gc.write_amplification if ssd.gc_enabled else 1.0
    return IoCostModelParams(
        ctrl="user",
        model="linear",
        rbps=ssd.saturation_bandwidth_bps(OpType.READ, Pattern.SEQUENTIAL, _PROBE_LARGE_SIZE)
        * conservatism,
        rseqiops=ssd.saturation_iops(OpType.READ, Pattern.SEQUENTIAL, _PROBE_SMALL_SIZE)
        * conservatism,
        rrandiops=ssd.saturation_iops(OpType.READ, Pattern.RANDOM, _PROBE_SMALL_SIZE)
        * conservatism,
        wbps=ssd.saturation_bandwidth_bps(OpType.WRITE, Pattern.SEQUENTIAL, _PROBE_LARGE_SIZE)
        * conservatism
        / waf,
        wseqiops=ssd.saturation_iops(OpType.WRITE, Pattern.SEQUENTIAL, _PROBE_SMALL_SIZE)
        * conservatism
        / waf,
        wrandiops=ssd.saturation_iops(OpType.WRITE, Pattern.RANDOM, _PROBE_SMALL_SIZE)
        * conservatism
        / waf,
    ).validate()


def calibrate_model(
    ssd: SsdModel,
    seed: int = 42,
    probe_duration_s: float = 0.25,
    queue_depth: int = 64,
) -> IoCostModelParams:
    """Measure the six model parameters by probing a simulated device.

    Runs six short saturating probes (seq/rand x read/write at 4 KiB,
    plus large sequential transfers per direction) against a fresh,
    preconditioned device with no knob configured, and reports the
    achieved rates -- the simulation-native equivalent of running the
    kernel's fio script against /dev/nvme0n1.
    """
    # Imported lazily: the runner imports this module for auto models.
    from repro.core.config import NoneKnob, Scenario
    from repro.core.runner import run_scenario
    from repro.workloads.spec import JobSpec

    def probe(op: OpType, pattern: Pattern, size: int) -> tuple[float, float]:
        spec = JobSpec(
            name="probe",
            cgroup_path="/probe",
            size=size,
            pattern=pattern,
            read_fraction=1.0 if op == OpType.READ else 0.0,
            queue_depth=queue_depth,
        )
        scenario = Scenario(
            name=f"coef-probe-{op.name}-{pattern.name}-{size}",
            knob=NoneKnob(),
            apps=[spec],
            ssd_model=ssd,
            cores=4,
            duration_s=probe_duration_s,
            warmup_s=probe_duration_s * 0.3,
            seed=seed,
            preconditioned=True,
        )
        result = run_scenario(scenario)
        stats = result.app_stats("probe")
        result.host.release()
        return stats.iops, stats.bytes / (result.window_us / 1e6)

    rrand_iops, _ = probe(OpType.READ, Pattern.RANDOM, _PROBE_SMALL_SIZE)
    rseq_iops, _ = probe(OpType.READ, Pattern.SEQUENTIAL, _PROBE_SMALL_SIZE)
    _, rbps = probe(OpType.READ, Pattern.SEQUENTIAL, _PROBE_LARGE_SIZE)
    wrand_iops, _ = probe(OpType.WRITE, Pattern.RANDOM, _PROBE_SMALL_SIZE)
    wseq_iops, _ = probe(OpType.WRITE, Pattern.SEQUENTIAL, _PROBE_SMALL_SIZE)
    _, wbps = probe(OpType.WRITE, Pattern.SEQUENTIAL, _PROBE_LARGE_SIZE)
    return IoCostModelParams(
        ctrl="user",
        model="linear",
        rbps=rbps,
        rseqiops=rseq_iops,
        rrandiops=rrand_iops,
        wbps=wbps,
        wseqiops=wseq_iops,
        wrandiops=wrand_iops,
    ).validate()


def format_model_line(device_id: str, params: IoCostModelParams) -> str:
    """Render a model as the string written to ``io.cost.model``."""
    return (
        f"{device_id} ctrl={params.ctrl} model={params.model} "
        f"rbps={int(params.rbps)} rseqiops={int(params.rseqiops)} "
        f"rrandiops={int(params.rrandiops)} wbps={int(params.wbps)} "
        f"wseqiops={int(params.wseqiops)} wrandiops={int(params.wrandiops)}"
    )
