#!/usr/bin/env python3
"""Run one benchmark workload as a closed loop of ops and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-fullscan --seed 1 \\
        --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --regen-goldens

One process runs the ops back to back; before each op it empties the
page-token memo and collects garbage, and no op uses the result cache,
so every op pays what a fresh ``repro`` invocation pays.  Every op's
output is checked against its golden digest.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object.
See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "perfbench" / "goldens.json"
OUT = ROOT / "perfbench" / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import BENCHMARK, units  # noqa: E402

WORKLOAD_NAMES = tuple(
    workload["name"] for workload in BENCHMARK["workloads"])

#: Fresh processes started to time set-up; the median is reported.
SETUP_PROBES = 5
#: The set-up calibration: a fresh interpreter loading standard-library
#: modules, i.e. set-up work with no ``repro`` code in it, and the seconds
#: it takes at the nominal host speed.
SETUP_CALIBRATION = (
    "import argparse, asyncio, concurrent.futures, csv, dataclasses, "
    "decimal, email.mime.multipart, http.client, json, logging, pickle, "
    "sqlite3, statistics, typing, unittest, xml.etree.ElementTree; "
    "print('ready', flush=True)"
)
NOMINAL_SETUP_CALIBRATION_S = 0.17
END_TO_END_UNITS = units("end_to_end")


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def load_goldens() -> dict:
    if not GOLDENS.is_file():
        return {"workloads": {}}
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def rusage_children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of the largest process so far (this one or a child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


#: Keys hashed and stored by one calibration pass, and the seconds that
#: pass takes at the nominal host speed all host times are scaled to.
CALIBRATION_KEYS = 50_000
NOMINAL_CALIBRATION_S = 0.1


def calibration_s() -> float:
    """Seconds one fixed pass of interpreter work takes right now.

    The pass does what the simulator's hot paths do — BLAKE2b digests,
    dict inserts and lookups, small tuples — so when the host runs it
    slower, it runs the simulator slower by about the same factor.  On
    a shared virtual machine that factor drifts by tens of percent over
    minutes; timing this pass before and after every op lets each op's
    time be scaled to the nominal speed.

    The garbage collector is off during the pass, so its time does not
    depend on the objects the code under test left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for key in range(CALIBRATION_KEYS):
            digest = hashlib.blake2b(key.to_bytes(8, "little"), digest_size=8)
            table[int.from_bytes(digest.digest(), "little")] = (key, key & 7)
        total = 0
        for value in list(table):
            total += table[value][0]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def host_speeds(calibrations: List[float]) -> List[float]:
    """Host speed relative to nominal during each interval between two
    consecutive calibration passes.

    One pass is short and noisy on its own, so each interval gets the
    median over the five nearest intervals.
    """
    raw = [2 * NOMINAL_CALIBRATION_S / (before + after)
           for before, after in zip(calibrations, calibrations[1:])]
    return [median(raw[max(0, i - 2):i + 3]) for i in range(len(raw))]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> None:
    """What a run does before its first op; then report readiness."""
    bootstrap()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    for sim_seed in workload.op_inputs(seed):
        workload.spec(sim_seed)
    print("ready", flush=True)


def time_to_ready(command: List[str]) -> float:
    """Seconds from starting ``command`` until it prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT)) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{command[1]} failed ({proc.returncode})")
    return elapsed


def time_setup(workload_name: str, seed: int) -> List[Tuple[float, float]]:
    """(raw, nominal-speed) seconds from starting a fresh process to its
    being ready to run, one pair per probe.

    Set-up is mostly starting an interpreter and loading modules, which
    the op calibration pass does not model.  So each probe is scaled by
    the set-up calibration process timed just before and just after it.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)]
    calibration = [sys.executable, "-c", SETUP_CALIBRATION]
    samples = []
    calibrations = [time_to_ready(calibration)]
    for _ in range(SETUP_PROBES):
        samples.append(time_to_ready(probe))
        calibrations.append(time_to_ready(calibration))
    return [
        (raw, raw * 2 * NOMINAL_SETUP_CALIBRATION_S / (before + after))
        for raw, before, after in zip(samples, calibrations, calibrations[1:])
    ]


# ----------------------------------------------------------------------
# The op loop
# ----------------------------------------------------------------------


def run_ops(workload, seed: int, seconds: float, trace: bool,
            goldens: dict) -> dict:
    """Run ops back to back for ``seconds``; return per-op records."""
    from repro.mem.content import token_memo_clear

    from perfbench import tracing
    from perfbench.workloads import (
        class_metadata_reduction,
        problems,
        tps_saving_mb,
    )

    def settle() -> None:
        """Leave nothing from the last op: an empty token memo and no
        garbage, both before every op and before every calibration."""
        token_memo_clear()
        gc.collect()

    expected = goldens.get("workloads", {}).get(workload.name, {})
    inputs = workload.op_inputs(seed)
    clean = tracing.bindings()
    ops: List[dict] = []
    traces = []
    started = time.perf_counter()
    index = 0
    settle()
    calibrations = [calibration_s()]
    while True:
        sim_seed = inputs[index % len(inputs)]
        traced = trace and index % 2 == 1
        tracer = tracing.Tracer() if traced else None
        runner = None
        if traced and workload.kind == "pressure":
            runner = tracing.TimingRunner(workload.jobs, tracer)
        result = None
        error = None
        if tracer is not None:
            tracer.install()
            tracer.begin_op(index)
        children0 = rusage_children_cpu()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = workload.run_op(sim_seed, profiler=tracer, runner=runner)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0 + rusage_children_cpu() - children0
        if tracer is not None:
            op_trace = tracer.end_op()
            tracer.uninstall()
            layer = tracing.layer_metrics(op_trace)
            layer.update(runner.metrics() if runner is not None
                         else tracing.exec_metrics([], 0.0, 1))
            traces.append((op_trace, layer))
        found = [error] if error else problems(
            result, expected.get(str(sim_seed)))
        ops.append({
            "op": index,
            "sim_seed": sim_seed,
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "tps_saving_mb": tps_saving_mb(result) if result else 0.0,
            "class_metadata": (
                class_metadata_reduction(result) if result else None),
            "problems": found,
        })
        del result
        settle()
        calibrations.append(calibration_s())
        print(
            f"op {index:3d} seed {sim_seed} {'traced  ' if traced else ''}"
            f"wall {wall:7.3f} s  cpu {cpu:7.3f} s  "
            f"calibration {calibrations[-1]:6.4f} s  "
            f"{'ok' if not found else 'FAILED: ' + '; '.join(found)}",
            flush=True,
        )
        index += 1
        untraced = sum(1 for op in ops if not op["traced"])
        if (time.perf_counter() - started >= seconds and untraced
                and (not trace or traces)):
            break
    for op, speed in zip(ops, host_speeds(calibrations)):
        op["scale"] = speed
    for op_trace, layer in traces:
        for key, unit in tracing.PER_LAYER_UNITS.items():
            if unit in ("s", "ns") and key in layer:
                layer[key] *= ops[op_trace.op]["scale"]
    left_over = tracing.wrapped_bindings()
    untouched = tracing.bindings() == clean and not left_over
    return {"ops": ops, "traces": traces, "untouched": untouched,
            "left_over": left_over, "started": started}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def end_to_end(ops: List[dict],
               setup: List[Tuple[float, float]]) -> Dict[str, float]:
    """End-to-end metrics; host times at the nominal host speed."""
    timed = [op for op in ops if not op["traced"]]
    return {
        "setup_s": median([nominal for _, nominal in setup]),
        "op_s_p50": median([op["wall_s"] * op["scale"] for op in timed]),
        "op_cpu_s_p50": median([op["cpu_s"] * op["scale"] for op in timed]),
        "peak_rss_mb": peak_rss_mb(),
        "tps_saving_mb": median([op["tps_saving_mb"] for op in timed]),
    }


def per_layer(ops: List[dict], traces: list) -> Dict[str, float]:
    from perfbench.tracing import PER_LAYER_UNITS

    keys = list(traces[0][1])
    out = {key: median([layer[key] for _, layer in traces]) for key in keys}
    traced_wall = median(
        [op["wall_s"] * op["scale"] for op in ops if op["traced"]])
    untraced_wall = median(
        [op["wall_s"] * op["scale"] for op in ops if not op["traced"]])
    out["trace.op_s_p50"] = traced_wall
    out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return {key: out[key] for key in PER_LAYER_UNITS}


def layer_table(traces: list) -> str:
    """Median self time per layer over the traced ops, with shares."""
    from perfbench.tracing import LAYERS, layer_self_times

    rows = {layer: [] for layer in LAYERS}
    walls = []
    for op_trace, _ in traces:
        selfs = layer_self_times(op_trace.spans)
        for layer in LAYERS:
            rows[layer].append(selfs.get(layer, 0.0))
        walls.append(op_trace.spans[0]["busy_s"])
    wall = median(walls)
    lines = [f"{'layer':<16} {'raw self s':>10} {'share':>7}"]
    for layer in sorted(LAYERS, key=lambda name: -median(rows[name])):
        value = median(rows[layer])
        lines.append(f"{layer:<16} {value:>10.4f} {value / wall:>6.1%}")
    lines.append(f"{'traced op wall':<16} {wall:>10.4f}")
    return "\n".join(lines)


def write_trace(path: Path, traces: list, started: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for op_trace, _ in traces:
            for record in op_trace.spans:
                row = dict(record, op=op_trace.op)
                row["start"] -= started
                row["end"] -= started
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def model_line(workload_name: str, ops: List[dict], goldens: dict) -> str:
    from perfbench.workloads import PAPER_CLASS_METADATA_REDUCTION

    live = [op["class_metadata"] for op in ops
            if workload_name == "preload-incremental"
            and op["class_metadata"] is not None]
    if live:
        value, source = median(live), "this run"
    else:
        value = goldens.get("class_metadata_reduction")
        source = f"goldens @ {goldens.get('commit', 'unknown')[:12]}"
    shown = f"{100 * value:.1f} %" if value is not None else "n/a"
    return (
        "model: absolute MB at scale < 1 are unvalidated against the paper; "
        f"preload-incremental class-metadata reduction on non-primary JVMs "
        f"{shown} ({source}) vs paper "
        f"{100 * PAPER_CLASS_METADATA_REDUCTION:.1f} % (informational)"
    )


def run_workload(args) -> int:
    bootstrap()
    from perfbench.tracing import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    goldens = load_goldens()
    setup = time_setup(workload.name, args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print("set-up probes (raw s): "
          + ", ".join(f"{raw:.3f}" for raw, _ in setup))
    run = run_ops(workload, args.seed, args.seconds, bool(args.trace),
                  goldens)
    ops = run["ops"]
    failed = sum(1 for op in ops if op["problems"])
    correct = failed == 0 and run["untouched"]
    if not run["untouched"]:
        print(f"ERROR: wrapped attributes not restored: {run['left_over']}")
    timed = [op for op in ops if not op["traced"]]
    e2e = end_to_end(ops, setup)
    print(f"\n{len(ops)} ops ({len(timed)} untraced), {failed} failed")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:>12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'error_rate':<14} {failed / len(ops):>12.4f} ratio")
    print("  host times are scaled to nominal speed; raw medians: op wall "
          f"{median([op['wall_s'] for op in timed]):.4f} s, op cpu "
          f"{median([op['cpu_s'] for op in timed]):.4f} s, set-up "
          f"{median([raw for raw, _ in setup]):.4f} s; host speed "
          f"{median([op['scale'] for op in ops]):.3f} x nominal")
    print(model_line(workload.name, ops, goldens))
    if args.trace:
        metrics = per_layer(ops, run["traces"])
        path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        write_trace(path, run["traces"], run["started"])
        print(f"\nper-layer self time ({len(run['traces'])} traced ops; "
              f"spans in {path.relative_to(ROOT)})")
        print(layer_table(run["traces"]))
        for name, value in metrics.items():
            print(f"  {name:<30} {value:>14.4f} {PER_LAYER_UNITS[name]}")
        shown = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                 for k, v in metrics.items()}
    else:
        shown = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                 for k, v in e2e.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": shown,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process; print one summary table."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT), timeout=900,
        )
        print(proc.stdout, end="")
        status = status or proc.returncode
        last = proc.stdout.rstrip().rpartition("\n")[2]
        if last.startswith('{"correct"'):
            rows.append((name, json.loads(last)))
    print("\nsummary")
    for name, result in rows:
        metrics = ", ".join(
            f"{key} {m['value']:.4g} {m['unit']}"
            for key, m in result["metrics"].items()
            if not args.trace or key.startswith("trace.")
        )
        error_rate = result["failed"] / result["attempted"]
        print(f"  {name:<20} ops {result['attempted']:3d}  "
              f"error_rate {error_rate:.3f}  {metrics}")
    return status


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------


def source_commit() -> str:
    """The commit the goldens come from, marked when src/ is modified."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=str(ROOT),
            text=True, capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+modified-src" if dirty else "")


def regen_goldens() -> int:
    """Recompute every golden digest (jobs=1 and jobs=2 for the pressure
    family, which must agree) and record the source commit."""
    bootstrap()
    from repro.mem.content import token_memo_clear

    from perfbench.workloads import (
        SIM_SEEDS,
        WORKLOADS,
        class_metadata_reduction,
        digest,
        problems,
    )

    out = {"commit": source_commit(), "workloads": {}}
    reductions = []
    for workload in WORKLOADS.values():
        table = out["workloads"][workload.name] = {}
        for sim_seed in SIM_SEEDS:
            results = []
            for jobs in ((1, 2) if workload.kind == "pressure" else (None,)):
                token_memo_clear()
                result = workload.run_op(sim_seed, jobs=jobs)
                found = problems(result, digest(result))
                if found:
                    print(f"{workload.name} seed {sim_seed}: {found}")
                    return 1
                results.append(digest(result))
                if workload.name == "preload-incremental":
                    reductions.append(class_metadata_reduction(result))
            if len(set(results)) != 1:
                print(f"{workload.name} seed {sim_seed}: jobs=1 and jobs=2 "
                      f"digests differ: {results}")
                return 1
            table[str(sim_seed)] = results[0]
            print(f"{workload.name} seed {sim_seed}: {results[0][:16]}",
                  flush=True)
    out["class_metadata_reduction"] = median(reductions)
    GOLDENS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {GOLDENS.relative_to(ROOT)} @ {out['commit']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-goldens", action="store_true",
                        help="recompute perfbench/goldens.json and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.regen_goldens:
        return regen_goldens()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
