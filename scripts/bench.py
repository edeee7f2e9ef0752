#!/usr/bin/env python3
"""Time the end-to-end rows of the vertexmod benchmark trajectory.

    python3 scripts/bench.py --out BENCH_<n>.json

Run from the root of a source checkout; the package is imported from
``src/``.  Every row runs in a fresh interpreter:

* the command rows are the median wall time of RUNS runs each of
  ``scripts/reproduce_examples.py``, ``vertexmod catalog 5 2 2 --samples
  1000``, ``scripts/fuzz_identities.py`` and the criterion-7 order-product
  scan (``pytest tests/test_acceptance.py -k criterion_07``);
* the Tier-1 row is the wall time of one run of the whole test suite, with
  the five slowest tests it reports (``--durations=5``);
* the large row times, in one process, the layers on LARGE_SEEDS
  configurations ``random_config(Lattice(*LARGE[:2]), LARGE[2], seed)``:
  ``mte_violations`` in both modes and ``components`` on each, and
  ``build_module``, ``verify_relations`` and ``verify_invariance`` on every
  finite component; a conservative configuration needs no scan in
  ``mte_violations``, so both modes are also timed once on a
  non-conservative one, seed 0 plus one vertical edge
  (``mte_P_nonconservative``, ``mte_q_nonconservative``);
* the casimir row times, in one process, ``casimir`` over every balanced
  word of every finite module of the CASIMIR_SEEDS configurations
  ``random_config(Lattice(*CASIMIR[:2]), CASIMIR[2], seed)``, with its call
  count and its face passes (each ``_chain_step`` call and each call's
  result pass walks a module's faces once);
* the perfbench rows are the median of PERF_RUNS runs of ``perfbench/run.py
  --seconds SECONDS --seed SEED --trace 0`` per workload, one value per
  end-to-end metric;
* next to them, the per-layer rows of one ``--trace 1`` run per workload at
  the same seed and length: each layer's time and call count, the exact
  counters and the tracing overhead.

The run counts, length and seed are fixed so that every record is made
under the same settings.  The record also names the Python version, the CPU
model and the git revision, so that records from different commits can be
compared when they come from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "identities", "analyze")
RUNS, PERF_RUNS, SECONDS, SEED = 5, 3, 20, 0
# (m, n, k) of the large row, and its seeds
LARGE, LARGE_SEEDS = (34, 21, 8), range(5)
# (m, n, k) of the casimir row, and its seeds
CASIMIR, CASIMIR_SEEDS = (7, 4, 2), range(5)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _command_rows(tmp: Path) -> dict[str, list[str]]:
    py = sys.executable
    return {
        "reproduce_examples": [py, "scripts/reproduce_examples.py"],
        "catalog_5_2_2_samples_1000": [py, "-m", "vertexmod.cli", "catalog", "5", "2", "2",
                                       "--samples", "1000", "--seed", "0",
                                       "--out", str(tmp / "catalog.ndjson")],
        "fuzz_identities": [py, "scripts/fuzz_identities.py"],
        "criterion_07_scan": [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              "tests/test_acceptance.py", "-k", "criterion_07"],
    }


def time_command(cmd: list[str], tmp: Path) -> dict:
    """Median wall time of RUNS runs; a failing run stops the script."""
    times = []
    for _ in range(RUNS):
        for leftover in tmp.iterdir():
            leftover.unlink()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "runs_s": times}


def tier1() -> dict:
    """Wall time of one Tier-1 run and its five slowest tests."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", "--durations=5"],
                         cwd=ROOT, env=_env(), check=True, capture_output=True, text=True).stdout
    wall = time.perf_counter() - start
    slowest = []
    for line in out.split("slowest 5 durations", 1)[1].splitlines()[1:6]:
        secs, when, test = line.split(maxsplit=2)
        slowest.append({"s": float(secs.rstrip("s")), "when": when, "test": test})
    return {"wall_s": wall, "slowest": slowest}


def large_row() -> dict:
    """Per-layer seconds and call counts over the large configurations.

    Runs in the calling process; ``fresh`` starts a new one for it.
    """
    from vertexmod.configuration import from_edges, random_config
    from vertexmod.lattice import Edge, Lattice
    from vertexmod.representation import build_module, verify_relations
    from vertexmod.topology import components
    from vertexmod.unitarity import verify_invariance

    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
        calls[name] = calls.get(name, 0) + 1
        return out

    m, n, k = LARGE
    dims = []
    for seed in LARGE_SEEDS:
        cfg = random_config(Lattice(m, n), k, seed)
        timed("mte_P", cfg.mte_violations, "P")
        timed("mte_q", cfg.mte_violations, "q")
        for comp in timed("components", components, cfg):
            if comp.finite:
                rep = timed("build_module", build_module, cfg, comp)
                timed("verify_relations", verify_relations, rep)
                timed("verify_invariance", verify_invariance, rep)
                dims.append(rep.dim)
    lat = Lattice(m, n)
    cfg = from_edges(lat, [*random_config(lat, k, LARGE_SEEDS[0]).edges.items(), (Edge("V", 0, 0), 1)])
    timed("mte_P_nonconservative", cfg.mte_violations, "P")
    timed("mte_q_nonconservative", cfg.mte_violations, "q")
    return {"config": {"m": m, "n": n, "k": k, "seeds": list(LARGE_SEEDS)},
            "finite_modules": len(dims), "max_dim": max(dims, default=0),
            "seconds": seconds, "calls": calls}


def casimir_row() -> dict:
    """Seconds, calls and face passes of ``casimir`` over every balanced word
    of every finite module of the casimir configurations.

    Modules are built before the clock starts.  The passes are counted by
    wrapping ``representation._chain_step``, which costs one call per pass.
    Runs in the calling process; ``fresh`` starts a new one for it.
    """
    from vertexmod import representation
    from vertexmod.configuration import random_config
    from vertexmod.lattice import Lattice
    from vertexmod.representation import balanced_words, build_module, casimir
    from vertexmod.topology import components

    m, n, k = CASIMIR
    words = balanced_words(m, n)
    reps = [build_module(cfg, comp)
            for cfg in (random_config(Lattice(m, n), k, seed) for seed in CASIMIR_SEEDS)
            for comp in components(cfg) if comp.finite]
    step, steps = representation._chain_step, []
    representation._chain_step = lambda states, col: steps.append(1) or step(states, col)
    try:
        start = time.perf_counter()
        for rep in reps:
            for word in words:
                casimir(rep, word)
        seconds = time.perf_counter() - start
    finally:
        representation._chain_step = step
    calls = len(reps) * len(words)
    return {"config": {"m": m, "n": n, "k": k, "seeds": list(CASIMIR_SEEDS)},
            "finite_modules": len(reps), "dim_sum": sum(rep.dim for rep in reps),
            "seconds": seconds, "calls": calls, "face_passes": len(steps) + calls}


def fresh(row: str) -> dict:
    """The named row function of this script, run in a fresh interpreter."""
    code = f"import json, bench; print(json.dumps(bench.{row}()))"
    env = _env()
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "scripts"), env["PYTHONPATH"]])
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _perfbench_run(workload: str, trace: int) -> dict:
    """The result object of one perfbench run at SEED for SECONDS."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def perfbench(workload: str) -> dict:
    """Per end-to-end metric, the median over PERF_RUNS perfbench runs; then
    the per-layer metrics of one traced run."""
    results = [_perfbench_run(workload, 0) for _ in range(PERF_RUNS)]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"median": statistics.median(values), "unit": first["unit"],
                         "runs": values}
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    traced = _perfbench_run(workload, 1)
    per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
    return {"seed": SEED, "seconds": SECONDS,
            "correct": all(r["correct"] for r in [*results, traced]),
            "error_rate": failed / attempted if attempted else 0.0, "metrics": metrics,
            "per_layer": per_layer}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="record file to write, e.g. BENCH_<n>.json")
    args = ap.parse_args(argv)
    record = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "cores": os.cpu_count(),
        "revision": git_revision(),
        "runs": RUNS,
        "commands": {},
        "perfbench": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in _command_rows(Path(tmp)).items():
            record["commands"][name] = row = time_command(cmd, Path(tmp))
            print(f"{name}: median {row['median_s']:.3f} s over {RUNS} runs", flush=True)
    record["tier1"] = row = tier1()
    print(f"tier1: {row['wall_s']:.3f} s", flush=True)
    record["large"] = row = fresh("large_row")
    shown = ", ".join(f"{k} {v:.3f} s" for k, v in row["seconds"].items())
    print(f"large {LARGE}: {shown}", flush=True)
    record["casimir"] = row = fresh("casimir_row")
    print(f"casimir {CASIMIR}: {row['seconds']:.3f} s, {row['calls']} calls, "
          f"{row['face_passes']} face passes", flush=True)
    for w in WORKLOADS:
        record["perfbench"][w] = row = perfbench(w)
        shown = ", ".join(f"{k} {m['median']:.4g} {m['unit']}" for k, m in row["metrics"].items())
        print(f"perfbench {w}: {shown}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
