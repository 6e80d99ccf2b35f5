"""Whole-run benchmark of the simulator, measured end to end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload as a closed loop of simulation calls
and prints its metrics; see ``perfbench/README.md``.
"""

import json
from pathlib import Path
from typing import Dict

#: ``BENCHMARK.json`` at the checkout root: the one list of the workloads
#: (names and reasons) and of the metrics (names, units, directions).
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8")
)


def units(section: str) -> Dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list."""
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
