"""Ablation A9 (extension) — multi-tenancy vs VM-per-app + preloading (§VI).

The paper's SaaS alternative: run one middleware instance and isolate
applications inside it, instead of one guest VM per application.  This
bench quantifies the comparison the paper makes qualitatively:

* multi-tenant: the middleware exists once; each extra app costs only its
  heap and stacks — the cheapest option, but a tenant fault can threaten
  the shared process (fenced here, as in MVM2);
* VM-per-app with the paper's preloading: each VM still pays for its own
  writable middleware memory, but the read-only class area is merged by
  TPS — the paper's sweet spot for *strong* isolation;
* VM-per-app without preloading: the most expensive.
"""

from conftest import BENCH_SCALE
from repro.config import Benchmark
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    TestbedConfig,
    scale_kernel_profile,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.core.report import render_kv
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.jvm.multitenant import MultiTenantJavaVM, TenantSpec
from repro.units import GiB, MiB
from repro.workloads.base import build_workload

SCALE = min(BENCH_SCALE, 0.2)
APPS = 3


def _vm_per_app(deployment: CacheDeployment) -> int:
    workload = scale_workload(build_workload(Benchmark.DAYTRADER), SCALE)
    config = TestbedConfig.scaled(
        SCALE,
        deployment=deployment,
        measurement_ticks=1,
    )
    specs = [
        GuestSpec(f"vm{i + 1}", max(1, int(GiB * SCALE)), workload)
        for i in range(APPS)
    ]
    testbed = KvmTestbed(specs, config)
    testbed.run()
    return testbed.host.physmem.bytes_in_use


def _multi_tenant() -> int:
    workload = scale_workload(build_workload(Benchmark.DAYTRADER), SCALE)
    host = KvmHost(max(int(6 * GiB * SCALE), 64 * MiB), seed=20130421)
    vm = host.create_guest("mt", max(1, int(2 * GiB * SCALE)))
    kernel = GuestKernel(vm, host.rng.derive("guest", "mt"))
    kernel.boot(scale_kernel_profile(SCALE))
    process = kernel.spawn("mt-server")
    server = MultiTenantJavaVM(
        process,
        workload.profile,
        workload.universe(),
        host.rng.derive("mt"),
        fence_tenant_faults=True,
    )
    server.startup()
    heap_per_app = workload.jvm_config.heap_bytes
    for index in range(APPS):
        server.add_tenant(TenantSpec(f"app{index}", heap_per_app))
    server.tick()
    return host.physmem.bytes_in_use


def run():
    return {
        "vm_per_app_default": _vm_per_app(CacheDeployment.NONE),
        "vm_per_app_preloaded": _vm_per_app(CacheDeployment.SHARED_COPY),
        "multi_tenant": _multi_tenant(),
    }


def test_ablation_multitenancy(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_kv(
        f"A9: hosting {APPS} applications — host physical memory",
        [
            ("one VM per app, default",
             f"{results['vm_per_app_default'] / MiB:.1f} MB"),
            ("one VM per app, classes preloaded",
             f"{results['vm_per_app_preloaded'] / MiB:.1f} MB"),
            ("one multi-tenant server (MVM-style)",
             f"{results['multi_tenant'] / MiB:.1f} MB"),
        ],
    ))

    # The §VI ordering: multi-tenant < preloaded VMs < default VMs.
    assert results["multi_tenant"] < results["vm_per_app_preloaded"]
    assert (
        results["vm_per_app_preloaded"] < results["vm_per_app_default"]
    )