"""One pass of a benchmark workload, run in a process of its own.

Reads a job as JSON on stdin, builds the workload's input (the set-up),
runs the timed phase, and writes one JSON result on stdout.  ``run.py``
starts one process per pass, so every pass starts cold, as a ``classgraph``
command does, and its peak resident memory is its own.

Set-up ends when the input is built: ``builtin_atlas()`` for atlas,
``parse_corpus`` plus ``GroupSpec.build`` of every record for
natural-corpus, and ``parse_corpus`` alone for graph-sweep, whose queries
build their group inside the timed phase.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_PROBE_A = tuple((7 * i + 3) % 97 for i in range(97))
_PROBE_B = tuple((5 * i + 1) % 97 for i in range(97))


class SpeedProbe:
    """Samples machine speed every PERIOD_S while the timed phase runs.

    A SIGALRM handler times a fixed pure-Python loop (about 5 ms) that
    shares no code with the library, so a change to the program cannot move
    it; only the machine can.  On a shared host one core's speed drifts by
    15-30 % over seconds to minutes, and run.py scales each pair by the
    probe times sampled around it.  Probe time is taken out of the pair it
    interrupts.  The collector is paused while the probe runs, so the
    probe's allocations leave the program's collection schedule unchanged.
    """

    PERIOD_S = 0.2

    def __init__(self, active: bool):
        self.active = active            # off in traced passes
        self.samples: list[tuple[float, float]] = []   # (start, milliseconds)
        self.spent_s = 0.0

    def sample(self, *_signal) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        x, seen = _PROBE_A, set()
        for _ in range(300):
            x = tuple(map(_PROBE_B.__getitem__, x))
            seen.add(x)
            x = tuple(map(_PROBE_A.__getitem__, x))
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append((start, elapsed * 1000.0))
        self.spent_s += elapsed

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
            self.sample()
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.sample()


class PairClock:
    """Times pairs net of probe time: [milliseconds, start, end] per pair."""

    def __init__(self, probe: SpeedProbe):
        self.pairs: list[list[float]] = []
        self._probe = probe

    def time(self, fn, *args, **kwargs):
        spent, start = self._probe.spent_s, time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.pairs.append([(end - start - (self._probe.spent_s - spent)) * 1000.0, start, end])
        return out

    def wrap_verify_pair(self, verify) -> None:
        """Rebind verify.verify_pair so run_corpus's per-pair calls are timed."""
        inner = verify.verify_pair
        verify.verify_pair = lambda *args, **kwargs: self.time(inner, *args, **kwargs)


def _verify_facts(summary) -> dict:
    return {"reports": [[r.group_name, r.group_order,
                         next(c.status for c in r.checks if c.check_id == "class-equation")]
                        for r in summary.reports],
            "failed": sum(1 for r in summary.reports if r.counts()["fail"])}


def run_atlas(job, construct, verify, structure, clock, probe):
    groups = [entry.group for entry in construct.builtin_atlas()]
    setup_end = time.monotonic()
    if job["setup_only"]:
        return setup_end, None
    cfg = structure.HallSearchConfig(seed=job["hall_seed"])
    with probe:
        t0 = time.perf_counter()
        summary = verify.run_corpus(groups, ("all",), cfg)
        report = summary.to_json().encode("utf-8")
        timed_s = time.perf_counter() - t0 - probe.spent_s
    facts = _verify_facts(summary)
    facts["digest"] = hashlib.sha256(report).hexdigest()
    return setup_end, (timed_s, len(summary.reports), facts)


def run_natural(job, construct, verify, structure, clock, probe):
    groups = [spec.build() for spec in construct.parse_corpus(job["corpus"])]
    setup_end = time.monotonic()
    if job["setup_only"]:
        return setup_end, None
    with probe:
        t0 = time.perf_counter()
        summary = verify.run_corpus(groups)
        summary.to_json()
        timed_s = time.perf_counter() - t0 - probe.spent_s
    return setup_end, (timed_s, len(summary.reports), _verify_facts(summary))


def _query(spec, p, graph):
    G = spec.build()
    g = graph.build_graph(G, p)
    graph.is_triangle_free(g)
    graph.diameter(g)
    return G, g, graph.to_dot(g)


def run_graph_sweep(job, construct, verify, structure, clock, probe):
    from classgraph import graph, perm

    specs = construct.parse_corpus(job["corpus"])
    setup_end = time.monotonic()
    if job["setup_only"]:
        return setup_end, None
    queries, failed = [], 0
    with probe:
        for spec, p in zip(specs, job["primes"]):
            try:
                G, g, dot = clock.time(_query, spec, p, graph)
            except Exception as exc:  # a failed query is counted, not fatal
                print(f"query {spec.name} at p={p} raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            unnamed = sum(1 for i, v in enumerate(g.vertices) if f'"v{v.size}_{i}"' not in dot)
            queries.append([spec.name, sum(cl.size for cl in perm.conjugacy_classes(G)),
                            unnamed])
            del G, g, dot   # queries are independent: none holds the last one's group
    timed_s = sum(ms for ms, _, _ in clock.pairs) / 1000.0
    return setup_end, (timed_s, len(specs), {"queries": queries, "failed": failed})


WORKLOADS = {"atlas": run_atlas, "natural-corpus": run_natural, "graph-sweep": run_graph_sweep}


def main() -> None:
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import classgraph
    from classgraph import construct, structure, verify

    if not Path(classgraph.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"classgraph imported from {classgraph.__file__}, not {ROOT / 'src'}")
    probe = SpeedProbe(active=tracer is None)
    clock = PairClock(probe)
    if not job["setup_only"]:
        clock.wrap_verify_pair(verify)
    setup_end, timed = WORKLOADS[job["workload"]](job, construct, verify, structure,
                                                  clock, probe)
    out = {"setup_end": setup_end, "probe": probe.samples}
    if timed is None:
        for _ in range(5):   # machine speed for scaling this set-up
            probe.sample()
    else:
        timed_s, attempted, facts = timed
        out.update(timed_s=timed_s, attempted=attempted, facts=facts, pairs=clock.pairs,
                   rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
