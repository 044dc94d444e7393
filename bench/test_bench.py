"""Tests of the benchmark itself: python3 -m pytest -q bench

The atlas test runs two full atlas passes (about a minute and a half).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from classgraph.verify import ALL_CHECK_IDS  # noqa: E402


@pytest.mark.parametrize("make", [corpus.natural_corpus, corpus.graph_sweep_corpus])
def test_one_seed_gives_byte_identical_corpora(make):
    first, again, other = make(11, 2), make(11, 2), make(12, 2)
    assert first.text == again.text
    assert first.orders == again.orders and first.primes == again.primes
    assert first.text != other.text


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names(ALL_CHECK_IDS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.TAIL_PERCENTILE)


def test_each_tail_percentile_leaves_ten_pairs_beyond_it_in_one_rotation():
    pairs = {"atlas": 64, "natural-corpus": 210, "graph-sweep": 48}
    for workload, pct in run.TAIL_PERCENTILE.items():
        assert run.beyond([0.0] * pairs[workload], pct) == 10


def test_quantile_is_the_middle_of_a_symmetric_sample_and_moves_smoothly():
    assert abs(run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) - 3.0) < 1e-9
    gap = [10.0] * 32 + [20.0] * 32
    swapped = [10.0] * 31 + [20.0] * 33
    assert abs(run.quantile(gap, 0.5) - 15.0) < 1e-6
    assert 15.0 < run.quantile(swapped, 0.5) < 16.5


def _install(prelude: str = "") -> subprocess.CompletedProcess:
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
            "import classgraph, classgraph.graph\n" + prelude +
            "from tracer import Tracer\nt = Tracer(); t.install()\n"
            "print(' '.join(sorted(t.wrapped)))\n")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)


def test_every_function_in_the_per_layer_table_is_wrapped():
    proc = _install()
    assert proc.returncode == 0, proc.stderr
    wrapped = set(proc.stdout.split())
    for layer, fns in tracer.REPORTED.items():
        for fn in fns:
            assert f"{layer}.{fn}" in wrapped
    assert {"verify.verify_pair", "verify.RunSummary.to_json"} <= wrapped


def test_a_renamed_function_fails_the_traced_run_instead_of_reading_zero():
    proc = _install("del classgraph.graph.diameter\n")
    assert proc.returncode != 0
    assert "graph.diameter" in proc.stderr and "TraceError" in proc.stderr


def test_atlas_report_digest_is_the_same_with_tracing_on_and_off():
    job = run.Workload("atlas", 7).job(0)
    plain = run.run_pass(job)
    traced = run.run_pass({**job, "trace": True})
    assert plain["facts"]["digest"] == traced["facts"]["digest"] == run.ATLAS_DIGEST
    assert traced["layers"]["verify.verify_pair.calls"] == 64
