#!/usr/bin/env python3
"""vertexmod benchmark: one workload, closed loop, one item after another.

    python3 perfbench/run.py --workload {catalog,identities,analyze} \
        --seed N --seconds S --trace {0,1} [--items N]

Run from the root of a source checkout: the program is imported from
``src/``.  Every step runs in its own fresh interpreter (see worker.py):
first the correctness gate on ``configs/`` (a failure exits 1 and prints no
result).  With ``--trace 0``, set-up probes and an untraced timed run give
the end-to-end metrics.  With ``--trace 1``, a traced timed run gives the
per-layer metrics, and an untraced run of the same items measures the
tracing overhead.  ``--items`` replaces the timed loop by a fixed number of
items, for the self-test.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The names in workloads.WORKLOADS; this process never imports vertexmod.
WORKLOADS = ("catalog", "identities", "analyze")
# Set-up is timed in this many probe processes besides the timed one.
SETUP_PROBES = 6
# Everything, set-up probes and traced runs included, ends within this.
BUDGET_S = 170.0

# Spans recorded around calls into each layer (see workloads.py).
LAYER_SPANS = (
    "configfile.parse",
    "configuration.random_config",
    "configuration.conservation",
    "configuration.mte_P",
    "configuration.mte_q",
    "topology.components",
    "topology.overlay",
    "topology.eight_vertex",
    "representation.order_product",
    "representation.build_module",
    "representation.verify_relations",
    "representation.casimir",
    "unitarity.signature_direct",
    "unitarity.signature_coloring",
    "unitarity.unitarizability",
    "unitarity.verify_invariance",
    "render.render_svg",
)
# Exact counters, summed over the first ``prefix`` items of the seed.
EXACT_COUNTS = (
    "representation.verify_relations_checked",
    "unitarity.verify_invariance_checked",
    "representation.order_product_points",
    "representation.order_product_negative",
    "representation.build_module_dim_sum",
    "topology.components_finite",
)


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result object."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args,
           "--spawned", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise BenchError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setups: list[float]) -> dict:
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "items_per_s": _metric(run["items"] / run["wall_s"], "items/s"),
        "item_p50_ms": _metric(run["p50_ms"], "ms"),
        "item_p90_ms": _metric(run["p90_ms"], "ms"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }


def per_layer(run: dict, untraced_wall: float) -> dict:
    layers, counts = run["layers"], run["counts"]
    metrics = {}
    for name in LAYER_SPANS:
        busy, calls = layers.get(name, (0.0, 0))
        metrics[f"{name}_s"] = _metric(busy, "s")
        metrics[f"{name}_calls"] = _metric(calls, "count")
    for name in EXACT_COUNTS:
        metrics[name] = _metric(counts.get(name, 0), "count")
    faces = counts.get("representation.casimir_faces", 0)
    determinate = counts.get("representation.casimir_faces_determinate", 0)
    metrics["representation.casimir_determinate_ratio"] = _metric(
        determinate / faces if faces else 0.0, "ratio")
    metrics["bench.item_self_s"] = _metric(layers["bench.item"][0], "s")
    metrics["bench.trace_overhead"] = _metric(run["wall_s"] / untraced_wall - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vertexmod benchmark (one workload)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, help="run exactly this many items instead of --seconds")
    args = ap.parse_args(argv)
    if args.seconds < 1 or (args.items is not None and args.items < 1):
        ap.error("--seconds and --items must be positive")
    for needed in (ROOT / "src" / "vertexmod" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a vertexmod "
                  f"source checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + BUDGET_S
    common = [args.workload, "--seed", str(args.seed)]
    timed = [*common, "--seconds", str(args.seconds)]
    if args.items:
        timed += ["--items", str(args.items)]
    try:
        _worker(["gate"], deadline)
        if args.trace:
            run = _worker(["run", *timed, "--cli-check", "--trace"], deadline)
            plain = _worker(["run", *common, "--seconds", str(args.seconds),
                             "--items", str(run["items"])], deadline)
            metrics = per_layer(run, plain["wall_s"])
        else:
            setups = [_worker(["setup", *common], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            run = _worker(["run", *timed, "--cli-check"], deadline)
            metrics = end_to_end(run, setups + [run["setup_s"]])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    correct = run["failed"] == 0 and run.get("cli_identical", True)
    print(f"workload {args.workload} seed {args.seed}: {run['items']} items in "
          f"{run['wall_s']:.3f} s, closed loop, one process, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(f"  error_rate {run['failed'] / run['items']} ratio "
          f"({run['failed']} failed of {run['items']} attempted)")
    print(f"  digest sha256:{run['digest']} over the first {run['digest_items']} items")
    print("  counts " + json.dumps(run["counts"], sort_keys=True))
    if "cli_identical" in run:
        print(f"  cli_identical {str(run['cli_identical']).lower()} "
              f"(vertexmod catalog, first {run['digest_items']} samples)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": run["items"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
