"""One benchmark process: the correctness gate, a set-up probe or a timed run.

``run.py`` starts every workload run in a fresh interpreter through this
file, so that process-wide caches filled by one run (such as the
``lru_cache`` on ``squarefree_decompose``) never speed up another, and each
timed run pays the cold-cache cost a CLI invocation pays.  The last line of
standard output is ``RESULT <json>``.

    worker.py gate
    worker.py setup WORKLOAD --seed S --spawned T
    worker.py run WORKLOAD --seed S --spawned T --seconds X [--items N] [--trace] [--cli-check]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A timed run stops at the first of: --seconds elapsed with at least
# ``prefix`` items done, or this many times --seconds elapsed.
CAP_FACTOR = 3
SCRATCH = ROOT / ".bench_tmp"


def untraced(name, fn, *args):
    """The ``call`` a workload gets with tracing off: forwards to ``fn``."""
    return fn(*args)


class Tracer:
    """Spans around each layer call, kept in memory until the run ends.

    A span is ``[name, start, end, parent, item]``; ``parent`` indexes the
    enclosing ``bench.item`` span.  Self time is a span's duration minus the
    time its child spans cover.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._parent: int | None = None
        self._item: int | None = None

    def begin_item(self, i: int) -> None:
        self._item, self._parent = i, len(self.spans)
        self.spans.append(["bench.item", time.perf_counter(), None, None, i])

    def end_item(self) -> None:
        self.spans[self._parent][2] = time.perf_counter()

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, time.perf_counter(), self._parent, self._item])

    def self_times(self) -> dict[str, list]:
        """``{name: [self seconds, span count]}`` over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, list] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = totals.setdefault(name, [0.0, 0])
            row[0] += end - start - covered[k]
            row[1] += 1
        return totals

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(out, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def timed_run(wl, args, setup_s: float) -> dict:
    tracer = Tracer() if args.trace else None
    call = tracer.call if tracer else untraced
    latencies, outputs, counts, failed = [], [], Counter(), 0
    start = time.perf_counter()
    stop, cap = start + args.seconds, start + CAP_FACTOR * args.seconds
    i = 0
    while True:
        now = time.perf_counter()
        if now >= cap or (i >= args.items if args.items else (now >= stop and i >= wl.prefix)):
            break
        item_counts = Counter()
        t0 = time.perf_counter()
        if tracer:
            tracer.begin_item(i)
        try:
            out = wl.item(i, call, item_counts)
        except Exception as exc:  # a failed item is counted and the run goes on
            failed += 1
            out = f"{type(exc).__name__}: {exc}"
            if failed <= 3:
                traceback.print_exc()
        if tracer:
            tracer.end_item()
        latencies.append(time.perf_counter() - t0)
        if i < wl.prefix:
            outputs.append(out)
            counts.update(item_counts)
        i += 1
    wall = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "items": i,
        "failed": failed,
        "wall_s": wall,
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * _p90(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": _digest(outputs),
        "digest_items": len(outputs),
        "counts": dict(counts),
    }
    if tracer:
        SCRATCH.mkdir(exist_ok=True)
        tracer.write(SCRATCH / f"trace-{wl.name}-seed{args.seed}.jsonl")
        result["layers"] = tracer.self_times()
    if args.cli_check and hasattr(wl, "cli_output"):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            try:
                cli_text = wl.cli_output(len(outputs), Path(tmp))
            except Exception:  # reported as a mismatch, with its traceback
                traceback.print_exc()
                cli_text = None
        result["cli_identical"] = cli_text == "".join(map(str, outputs))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("gate", "setup", "run"))
    ap.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawned", type=float, help="time.time() when the parent started this process")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--items", type=int, help="run exactly this many items")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cli-check", action="store_true")
    args = ap.parse_args(argv)

    if args.mode == "gate":
        problems = gate.check(ROOT / "configs")
        for p in problems:
            print(f"correctness gate: {p}", file=sys.stderr)
        if problems:
            return 1
        result = {}
    else:
        wl = WORKLOADS[args.workload](args.seed)
        setup_s = time.time() - args.spawned
        result = {"setup_s": setup_s} if args.mode == "setup" else timed_run(wl, args, setup_s)
    print("RESULT " + json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
