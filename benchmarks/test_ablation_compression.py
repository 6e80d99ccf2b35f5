"""Ablation A5 (extension) — TPS vs paging-to-RAM on Java memory (§VI).

The paper's related-work section weighs TPS against Difference Engine /
Active Memory Expansion-style compressed RAM: compression saves memory on
*any* cold page (so it helps the Java memory TPS cannot touch), but every
access to a compressed page pays a restore, while "there is no overhead
for reading TPS-shared pages".  This bench runs both on the same
measured Java guests — KSM first, then compressing the remaining
non-shared cold pages — and reports the savings plus the access cost that
buys them.
"""

from conftest import BENCH_SCALE
from repro.config import Benchmark
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    TestbedConfig,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.core.report import render_kv
from repro.mem.compression import CompressedRamStore
from repro.units import GiB, MiB
from repro.workloads.base import build_workload


def run():
    workload = scale_workload(
        build_workload(Benchmark.DAYTRADER), BENCH_SCALE
    )
    config = TestbedConfig.scaled(
        BENCH_SCALE,
        deployment=CacheDeployment.NONE,
        measurement_ticks=2,
    )
    specs = [
        GuestSpec(f"vm{i + 1}", max(1, int(GiB * BENCH_SCALE)), workload)
        for i in range(2)
    ]
    testbed = KvmTestbed(specs, config)
    testbed.run()

    host = testbed.host
    tps_saved = host.ksm.saved_bytes
    # Now compress what TPS could not share: sweep both guests' pages
    # (KSM-stable frames are skipped by the store).
    store = CompressedRamStore(host.physmem)
    in_use_before = host.physmem.bytes_in_use
    compression_saved = 0
    for vm in host.guests:
        compression_saved += store.sweep(vm.page_table)
    freed = in_use_before - host.physmem.bytes_in_use
    return tps_saved, compression_saved, freed, store


def test_ablation_tps_vs_compression(benchmark):
    tps_saved, compression_saved, freed, store = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    restore_cost_ms = store.decompress_us / 1000.0
    print()
    print(render_kv(
        "A5: TPS vs compressed paging-to-RAM on two DayTrader guests",
        [
            ("saved by TPS (KSM)", f"{tps_saved / MiB:.1f} MB"),
            ("saved by compressing the rest",
             f"{compression_saved / MiB:.1f} MB"),
            ("pages in compressed pool", str(store.pool_pages)),
            ("read cost of a TPS-shared page", "0 (plain RAM read)"),
            ("read cost of a compressed page",
             f"{restore_cost_ms:.3f} ms restore"),
        ],
    ))

    # Compression reaches the Java memory TPS cannot (unique heap/JIT
    # pages), so its raw savings are larger...
    assert compression_saved > tps_saved
    # ...but only TPS is free to read; the store charges every restore.
    assert store.stats.cpu_us > 0
    assert store.stats.bytes_saved == compression_saved
    # Host accounting: the claimed savings equal exactly what left the
    # host's books, with the compressed pool still charged to them.
    assert freed == compression_saved
    assert store.physmem.pool_bytes == store.pool_bytes
