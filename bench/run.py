"""classgraph benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each pass of a workload runs in a fresh process (``worker.py``)
that starts cold, builds its input and runs the timed phase, one process at
a time.  Passes come in whole rotations (corpus.py), so every run covers
the same mix of groups; rotations repeat while the next one is expected to
end within ``--seconds`` (at least one rotation).

Workloads (rationale and predicted-flat layers in NOTES.md):
  atlas           run_corpus over the 20 built-in groups at default primes
                  (64 pairs) plus report serialisation; --seed feeds
                  HallSearchConfig.seed
  natural-corpus  verify a seeded corpus of small-degree groups (corpus.py)
  graph-sweep     cold graph queries (build, build_graph, is_triangle_free,
                  diameter, to_dot) on groups of order 1040..15120

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs a fixed number of passes twice, untraced and traced on the same input,
and reports per-layer totals from the traced passes plus the tracing
overhead.  Every pass's output is checked; on a mismatch the run prints
its result with "correct": false and exits 1.  The last line of stdout is
the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# SHA-256 of the atlas report bytes (RunSummary.to_json) at the commit that
# introduced this benchmark.  No Hall search in the atlas needs a second
# restart, so the report does not depend on HallSearchConfig.seed.
ATLAS_DIGEST = "c1ab9fd235319a950d569c9bb143e484e7639929a9d327e732c295e2af2f1025"

END_TO_END = (("setup_s", "s"), ("pairs_per_s", "1/s"), ("pair_p50_ms", "ms"),
              ("pair_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"))
# the highest percentile with ten pairs beyond it in a one-rotation run
# (64 atlas pairs, 210 natural-corpus pairs, 48 graph-sweep queries), fixed
# so that the tail means the same thing in every run
TAIL_PERCENTILE = {"atlas": 84, "natural-corpus": 95, "graph-sweep": 79}
SETUP_SAMPLES = 5
# Timed-phase figures are reported as if every worker.SpeedProbe sample had
# taken REF_PROBE_MS, about the probe's median on the 2-core host where the
# baseline was measured (NOTES.md).
REF_PROBE_MS = 4.0
PROBE_WINDOW_S = 0.5
TRACE_PASSES = {"atlas": 1, "natural-corpus": 2, "graph-sweep": 3}
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


class Workload:
    """Makes each pass's job and checks its output against what it expects."""

    def __init__(self, name: str, seed: int):
        import corpus
        self.name, self.seed = name, seed
        self.rotation = corpus.ROTATION.get(name, 1)
        self._expected: dict[int, object] = {}

    def job(self, index: int, *, setup_only: bool = False, trace: bool = False) -> dict:
        job = {"workload": self.name, "setup_only": setup_only, "trace": trace}
        if self.name == "atlas":
            job["hall_seed"] = self.seed
            return job
        import corpus
        gen = corpus.natural_corpus if self.name == "natural-corpus" else corpus.graph_sweep_corpus
        made = gen(self.seed, index)
        self._expected[index] = made
        job.update(corpus=made.text, primes=list(made.primes))
        return job

    def mismatches(self, index: int, facts: dict) -> list[str]:
        if self.name == "atlas":
            return ([] if facts["digest"] == ATLAS_DIGEST
                    else [f"atlas report digest {facts['digest']} != {ATLAS_DIGEST}"])
        orders = self._expected[index].orders
        bad = []
        if self.name == "natural-corpus":
            seen = {name for name, _, _ in facts["reports"]}
            if seen != set(orders):
                bad.append(f"reports cover {sorted(seen)}, corpus has {sorted(orders)}")
            for name, order, class_eq in facts["reports"]:
                if order != orders.get(name):
                    bad.append(f"{name}: order {order}, generator declared {orders.get(name)}")
                if class_eq != "pass":
                    bad.append(f"{name}: class-equation {class_eq}")
            return bad
        if len(facts["queries"]) + facts["failed"] != len(orders):
            bad.append(f"{len(facts['queries'])} queries answered of {len(orders)}")
        for name, class_sum, unnamed in facts["queries"]:
            if class_sum != orders[name]:
                bad.append(f"{name}: class sizes sum to {class_sum}, order is {orders[name]}")
            if unnamed:
                bad.append(f"{name}: DOT output misses {unnamed} vertices")
        return bad


def run_pass(job: dict) -> dict:
    """Run one pass in a fresh process; set-up time counts from its start."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - t0
    if out["probe"]:   # traced passes run no probe
        out["speed"] = REF_PROBE_MS / statistics.median(ms for _, ms in out["probe"])
    return out


def scale_pairs(out: dict) -> list[float]:
    """Pair latencies scaled to reference machine speed.

    Each pair is scaled by the median of the speed-probe samples taken
    within PROBE_WINDOW_S of it (at least three, the nearest ones).
    """
    scaled = []
    for ms, start, end in out["pairs"]:
        def distance(sample, start=start, end=end):
            return max(start - sample[0], sample[0] - end, 0.0)
        near = sorted(out["probe"], key=distance)
        k = max(3, sum(1 for sample in near if distance(sample) <= PROBE_WINDOW_S))
        scaled.append(ms * REF_PROBE_MS / statistics.median(p for _, p in near[:k]))
    return scaled


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  The
    per-pair latencies of a corpus are clustered, with wide gaps between
    groups of different cost; a single order statistic jumps across a gap
    whenever noise reorders two pairs, while this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t: float) -> float:
        if not 0.0 < t < 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 32   # Simpson's rule on each order statistic's interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def beyond(values: list[float], percentile: int) -> int:
    """How many samples lie above the nearest-rank percentile."""
    return len(values) - max(1, math.ceil(percentile / 100 * len(values)))


def end_to_end(workload: Workload, seconds: float) -> tuple[dict, int, int, list[str]]:
    start = time.monotonic()
    passes, bad = [], []
    while True:
        for _ in range(workload.rotation):
            index = len(passes)
            out = run_pass(workload.job(index))
            bad += workload.mismatches(index, out["facts"])
            passes.append(out)
        elapsed = time.monotonic() - start
        if elapsed * (1 + workload.rotation / len(passes)) > seconds:
            break
    setups = [p["setup_s"] * p["speed"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        extra = run_pass(workload.job(len(setups), setup_only=True))
        setups.append(extra["setup_s"] * extra["speed"])

    latencies, raw, timed_s, raw_s, speeds = [], [], 0.0, 0.0, []
    for p in passes:
        scaled = scale_pairs(p)
        latencies += scaled
        raw += [ms for ms, _, _ in p["pairs"]]
        outside = p["timed_s"] - sum(ms for ms, _, _ in p["pairs"]) / 1000.0
        speeds.append(p["speed"])
        timed_s += sum(scaled) / 1000.0 + outside * p["speed"]
        raw_s += p["timed_s"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["facts"]["failed"] for p in passes)
    pct = TAIL_PERCENTILE[workload.name]
    values = {
        "setup_s": statistics.median(setups),
        "pairs_per_s": len(latencies) / timed_s,
        "pair_p50_ms": quantile(latencies, 0.5),
        "pair_tail_ms": quantile(latencies, pct / 100),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
    }
    notes = {
        "setup_s": (f"median of {len(setups)} set-ups "
                    f"({statistics.median(p['setup_s'] for p in passes):.4f} raw, passes only)"),
        "pairs_per_s": (f"{len(latencies)} pairs in {timed_s:.2f} s scaled "
                        f"({raw_s:.2f} s raw), {len(passes)} passes"),
        "pair_p50_ms": f"median of {len(latencies)} pairs ({quantile(raw, 0.5):.2f} raw)",
        "pair_tail_ms": (f"p{pct} of {len(latencies)} pairs, {beyond(latencies, pct)} beyond "
                         f"it ({quantile(raw, pct / 100):.2f} raw)"),
        "peak_rss_mb": f"largest of {len(passes)} pass processes",
        "ok_frac": f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f}",
    }
    print(f"{workload.name} seed={workload.seed}: machine speed {statistics.median(speeds):.3f} "
          f"of reference (probe {REF_PROBE_MS} ms)")
    for name, unit in END_TO_END:
        print(f"  {name:13s} {values[name]:12.4f} {unit:9s} {notes[name]}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, attempted, failed, bad


def per_layer(workload: Workload) -> tuple[dict, int, int, list[str]]:
    from classgraph.verify import ALL_CHECK_IDS
    from tracer import metric_names

    totals: dict[str, float] = {}
    plain_s = traced_s = 0.0
    attempted = failed = spans = 0
    bad: list[str] = []
    for index in range(TRACE_PASSES[workload.name]):
        job = workload.job(index)
        plain = run_pass(job)
        traced = run_pass({**job, "trace": True})
        for out in (plain, traced):
            bad += workload.mismatches(index, out["facts"])
        plain_s += plain["timed_s"]
        traced_s += traced["timed_s"]
        attempted += traced["attempted"]
        failed += traced["facts"]["failed"]
        spans += traced["spans"]
        for name, value in traced["layers"].items():
            totals[name] = totals.get(name, 0) + value
    totals["trace.overhead_frac"] = traced_s / plain_s - 1.0
    print(f"{workload.name} seed={workload.seed}: {spans} spans; traced {traced_s:.2f} s, "
          f"untraced {plain_s:.2f} s, overhead {totals['trace.overhead_frac']:+.1%}")
    metrics = {}
    for name in metric_names(ALL_CHECK_IDS):
        if name not in totals:
            raise BenchError(f"traced run produced no value for {name}")
        unit = ("s" if name.endswith("_s") else
                "fraction" if name.endswith("_frac") else "count")
        metrics[name] = {"value": totals[name], "unit": unit}
    return metrics, attempted, failed, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "classgraph" / "__init__.py").is_file():
        print(f"error: no classgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    workload = Workload(args.workload, args.seed)
    try:
        if args.trace:
            metrics, attempted, failed, bad = per_layer(workload)
        else:
            metrics, attempted, failed, bad = end_to_end(workload, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in bad[:20]:
        print(f"MISMATCH: {line}", file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
