"""Tests for the KVM testbed builder and the workload scaler."""

import pytest

from repro.config import Benchmark, GcPolicy
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    TestbedConfig,
    scale_kernel_profile,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.units import KiB, MiB
from repro.workloads.base import build_workload

from tests.conftest import tiny_kernel_profile, tiny_workload


def small_config(**overrides):
    values = dict(
        host_ram_bytes=128 * MiB,
        host_kernel_bytes=2 * MiB,
        qemu_overhead_bytes=256 * KiB,
        kernel_profile=tiny_kernel_profile(),
        measurement_ticks=2,
        tick_minutes=0.2,
        scale=0.02,
        seed=11,
    )
    values.update(overrides)
    return TestbedConfig(**values)


def small_specs(n=2):
    workload = tiny_workload()
    return [GuestSpec(f"vm{i + 1}", 16 * MiB, workload) for i in range(n)]


class TestScaleWorkload:
    def test_identity_at_one(self):
        workload = build_workload(Benchmark.DAYTRADER)
        assert scale_workload(workload, 1.0) is workload

    def test_scales_bytes_and_counts(self):
        workload = build_workload(Benchmark.DAYTRADER)
        scaled = scale_workload(workload, 0.1)
        assert scaled.profile.jit_code_bytes == pytest.approx(
            workload.profile.jit_code_bytes * 0.1, rel=0.01
        )
        assert scaled.profile.middleware_classes == pytest.approx(
            workload.profile.middleware_classes * 0.1, rel=0.01
        )
        assert scaled.jvm_config.heap_bytes == pytest.approx(
            workload.jvm_config.heap_bytes * 0.1, rel=0.01
        )

    def test_preserves_fractions(self):
        workload = build_workload(Benchmark.DAYTRADER)
        scaled = scale_workload(workload, 0.1)
        assert (
            scaled.profile.heap_touched_fraction
            == workload.profile.heap_touched_fraction
        )

    def test_scales_gencon_areas(self):
        from repro.config import SPECJ_JVM_GENCON
        from repro.workloads.base import Workload

        base = build_workload(Benchmark.SPECJENTERPRISE)
        workload = Workload(
            base.profile, SPECJ_JVM_GENCON, base.driver_config
        )
        scaled = scale_workload(workload, 0.1)
        assert scaled.jvm_config.gc_policy is GcPolicy.GENCON
        assert scaled.jvm_config.nursery_bytes < workload.jvm_config.nursery_bytes

    def test_invalid_factor_rejected(self):
        workload = build_workload(Benchmark.DAYTRADER)
        with pytest.raises(ValueError):
            scale_workload(workload, 0.0)
        with pytest.raises(ValueError):
            scale_workload(workload, 1.5)

    def test_scale_kernel_profile(self):
        profile = scale_kernel_profile(0.1)
        assert profile.total_bytes < tiny_kernel_profile().total_bytes * 10**6


class TestTestbed:
    def test_requires_guests(self):
        with pytest.raises(ValueError):
            KvmTestbed([], small_config())

    def test_build_creates_jvms_and_daemons(self):
        testbed = KvmTestbed(small_specs(), small_config())
        testbed.build()
        assert set(testbed.jvms) == {"vm1", "vm2"}
        for kernel in testbed.kernels.values():
            names = {p.name for p in kernel.processes}
            assert names == {"java", "sshd", "rsyslogd"}

    def test_double_build_rejected(self):
        testbed = KvmTestbed(small_specs(), small_config())
        testbed.build()
        with pytest.raises(RuntimeError):
            testbed.build()

    def test_run_and_measure(self):
        testbed = KvmTestbed(small_specs(), small_config())
        result = testbed.measure()
        assert len(result.vm_breakdown.rows) == 2
        assert len(result.java_breakdown.rows) == 2
        assert result.ksm_stats.pages_scanned > 0
        assert result.accounting.total_usage() > 0

    def test_double_run_rejected(self):
        testbed = KvmTestbed(small_specs(), small_config())
        testbed.run()
        with pytest.raises(RuntimeError):
            testbed.run()

    def test_no_system_processes_option(self):
        config = small_config(system_processes=False)
        testbed = KvmTestbed(small_specs(), config)
        testbed.build()
        for kernel in testbed.kernels.values():
            assert {p.name for p in kernel.processes} == {"java"}

    def test_preload_deployment_attaches_caches(self):
        config = small_config(deployment=CacheDeployment.SHARED_COPY)
        testbed = KvmTestbed(small_specs(), config)
        testbed.build()
        for jvm in testbed.jvms.values():
            assert jvm.cache_attached


class TestScaledConfig:
    """``TestbedConfig.scaled``: the one copy of the testbed sizing."""

    @pytest.mark.parametrize(
        "scale, host_ram, host_kernel, qemu, guest_kernel_code",
        [
            (1.0, 6442450944, 314572800, 41943040, 10485760),
            (0.1, 644245094, 31457280, 4194304, 1048576),
            (0.02, 128849018, 6291456, 838860, 209715),
            # Both floors bind: 64 MiB of host RAM, 64 KiB of QEMU
            # overhead, 64 KiB of guest kernel code.
            (0.001, 67108864, 314572, 65536, 65536),
        ],
    )
    def test_sizes(self, scale, host_ram, host_kernel, qemu,
                   guest_kernel_code):
        config = TestbedConfig.scaled(scale)
        assert config.scale == scale
        assert config.host_ram_bytes == host_ram
        assert config.host_kernel_bytes == host_kernel
        assert config.qemu_overhead_bytes == qemu
        assert config.kernel_profile.code_bytes == guest_kernel_code
        assert config.kernel_profile == scale_kernel_profile(scale)

    def test_fields_pass_through(self):
        config = TestbedConfig.scaled(
            0.1, seed=7, measurement_ticks=3,
            deployment=CacheDeployment.SHARED_COPY,
        )
        assert config.seed == 7
        assert config.measurement_ticks == 3
        assert config.deployment is CacheDeployment.SHARED_COPY
