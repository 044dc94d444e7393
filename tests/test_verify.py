"""The per-pair verifier, corpus runs, determinism, and report structure."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import classgraph
from classgraph import classify, perm, structure, verify
from classgraph.classify import is_frobenius
from classgraph.construct import (affine_prime_group, alternating, cyclic, dihedral,
                                  direct_product, parse_corpus, symmetric)
from classgraph.errors import (HallSearchExhausted, InvalidParameter, LatticeCapExceeded,
                               NoCaseMatches, PreconditionViolated)
from classgraph.graph import build_graph
from classgraph.numtheory import prime_factors
from classgraph.perm import (Group, center, class_elements, class_index, conjugacy_classes,
                             make_group)
from classgraph.verify import (ALL_CHECK_IDS, CheckResult, RunSummary, VerificationReport,
                               default_primes, primes_for, run_corpus, verify_pair)
from oracles import naive_coprime_commuting_counts, naive_normal_class_sizes
from strategies import generating_sets


def _by_id(report):
    return {c.check_id: c for c in report.checks}


def test_every_check_id_present(atlas_groups):
    r = verify_pair(atlas_groups["Sigma3"], 5)
    assert [c.check_id for c in r.checks] == list(ALL_CHECK_IDS)


def test_gamma_l_at_7(atlas_groups):
    # connected p-regular graph even though the complement's own graph is not
    r = verify_pair(atlas_groups["GammaL(1,8)"], 7)
    assert r.hypotheses["p_separable"]
    assert r.hypotheses["H_noncentral"]
    assert not r.hypotheses["triangle_free"]
    assert r.counts()["fail"] == 0
    checks = _by_id(r)
    assert checks["case-classification"].status == "skipped"
    assert "triangle-freeness" in checks["case-classification"].detail


def test_e25_sigma3_at_5(atlas_groups):
    r = verify_pair(atlas_groups["E25:Sigma3"], 5)
    assert r.counts()["fail"] == 0
    assert r.graph_summary["vertex_sizes"] == [15, 50]
    assert all(s % 5 == 0 for s in r.graph_summary["vertex_sizes"])


def test_es27_q8_at_2(atlas_groups):
    r = verify_pair(atlas_groups["ES27:Q8"], 2)
    assert r.counts()["fail"] == 0
    assert r.graph_summary["shape"] == "d"
    assert r.graph_summary["vertex_sizes"] == [24]


def test_skip_details_name_hypotheses(atlas_groups):
    r = verify_pair(atlas_groups["Sigma4"], 3)  # triangles at p=3
    for c in r.checks:
        if c.status == "skipped":
            assert "hypothesis failed" in c.detail


def test_a5_skips_not_fails():
    a5 = alternating(5)
    r = verify_pair(a5, 5)
    assert not r.hypotheses["p_separable"]
    assert r.counts()["fail"] == 0
    checks = _by_id(r)
    assert checks["case-classification"].status == "skipped"
    assert "p-separability" in checks["case-classification"].detail
    assert checks["class-equation"].status == "pass"


def test_default_primes(atlas_groups):
    assert default_primes(atlas_groups["Sigma3"]) == (2, 3, 5)
    assert default_primes(atlas_groups["C7:C6"]) == (2, 3, 5, 7)


def test_primes_for_modes(atlas_groups):
    G = atlas_groups["Sigma3"]
    assert primes_for(G, ("all",)) == (2, 3, 5)
    assert primes_for(G, ("upto", 7)) == (2, 3, 5, 7)
    assert primes_for(G, ("list", [3, 11])) == (3, 11)
    assert primes_for(G, ("upto", 2)) == (2,)
    # a mode that names no prime would give a run that checks nothing
    for mode in (("list", [4]), ("list", [3, 3]), ("some",), ("list", []), ("upto", 1)):
        with pytest.raises(InvalidParameter):
            primes_for(G, mode)


def test_run_corpus_rejects_a_repeated_prime(atlas_groups):
    with pytest.raises(InvalidParameter, match="repeated"):
        run_corpus([atlas_groups["Sigma3"]], ("list", [3, 3]))


def test_run_corpus_empty():
    # a run that checks nothing must not pass
    with pytest.raises(InvalidParameter, match="no group"):
        run_corpus([])


def test_run_corpus_subset_deterministic(atlas_groups):
    groups = [atlas_groups[n] for n in ["Sigma3", "D10", "C3:C4"]]
    a = run_corpus(groups).to_json()
    b = run_corpus(groups).to_json()
    assert a == b


def test_run_corpus_reports_sorted(atlas_groups):
    groups = [atlas_groups[n] for n in ["D10", "Sigma3"]]
    summary = run_corpus(groups)
    keys = [(r.group_name, r.prime) for r in summary.reports]
    assert keys == sorted(keys)


def test_run_corpus_with_a5():
    a5 = alternating(5)
    summary = run_corpus([a5], ("list", [5]))
    assert summary.failures() == 0
    assert summary.exit_code() == 0
    r = summary.reports[0]
    assert not r.hypotheses["p_separable"]


def test_run_corpus_parallel_matches_serial(atlas_groups):
    groups = [atlas_groups[n] for n in ["Sigma3", "D10"]]
    serial = run_corpus(groups, jobs=1).to_json()
    parallel = run_corpus(groups, jobs=2).to_json()
    assert serial == parallel


def test_run_corpus_asks_for_no_more_workers_than_groups(atlas_groups, monkeypatch):
    asked = []

    class InProcessPool:  # records the pool size and runs each task here
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    groups = [atlas_groups[n] for n in ["Sigma3", "D10"]]
    assert run_corpus(groups, jobs=64).to_json() == run_corpus(groups, jobs=1).to_json()
    assert asked == [2]


def test_importing_the_library_leaves_the_process_pool_unloaded():
    # only run_corpus with jobs > 1 imports it
    env = dict(os.environ, PYTHONPATH=str(Path(classgraph.__file__).parents[1]))
    code = ("import sys, classgraph, classgraph.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_report_json_shape(atlas_groups):
    summary = run_corpus([atlas_groups["Sigma3"]], ("list", [2]))
    doc = summary.to_json_dict()
    assert doc["schema"] == "classgraph-report-v1"
    assert doc["summary"]["pairs"] == 1
    report = doc["reports"][0]
    assert set(report) == {"group", "order", "prime", "hypotheses", "graph",
                           "checks", "counterexample"}
    for c in report["checks"]:
        assert set(c) == {"id", "status", "detail"}  # no timings
    json.dumps(doc)  # serializable


def _dumped(doc: dict) -> str:
    """The report bytes as the standard library writes them."""
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("timings", [False, True])
def test_report_bytes_equal_the_standard_writer_on_the_atlas(atlas, timings):
    # with timings, the checks keep their measured millis; without, every
    # millis is zeroed: the bytes are the same, and hold no timing either way
    summary = run_corpus([entry.group for entry in atlas.values()])
    if not timings:
        for r in summary.reports:
            r.checks = [dataclasses.replace(c, millis=0.0) for c in r.checks]
    text = summary.to_json()
    assert text == _dumped(summary.to_json_dict())
    assert '"millis"' not in text
    for r in summary.reports:
        assert r.to_json() == _dumped(r.to_json_dict())


def test_report_bytes_of_an_unverified_pair(atlas_groups, monkeypatch):
    def refuse(G, p):
        raise LatticeCapExceeded("lattice too large")

    monkeypatch.setattr(verify, "_core_climb", refuse)
    summary = run_corpus([atlas_groups["Sigma3"]], ("list", [2, 3]))
    assert summary.reports[0].hypotheses == {} and summary.reports[0].graph_summary == {}
    assert '"hypotheses": {},' in summary.to_json() and '"graph": {},' in summary.to_json()
    assert summary.to_json() == _dumped(summary.to_json_dict())
    assert summary.reports[0].to_json() == _dumped(summary.reports[0].to_json_dict())


def _synthetic_report(name, cx, detail="synthetic"):
    return VerificationReport(
        group_name=name, group_order=6, prime=2,
        hypotheses={"p_separable": True, "triangle_free": False, "H_noncentral": True},
        checks=[CheckResult("class-equation", "fail" if cx else "pass", detail, 0.25),
                CheckResult("shape-refinement", "skipped", "hypothesis failed", 0.0)],
        graph_summary={"vertex_sizes": [2, 3, 3], "vertex_orders": [3, 2, 2],
                       "edges": [[1, 2], [0, 2]], "shape": "other"},
        counterexample=cx)


def test_report_bytes_list_a_counterexample_first():
    summary = RunSummary([_synthetic_report("A", False), _synthetic_report("B", True)])
    text = summary.to_json()
    assert text.index('"group": "B"') < text.index('"group": "A"')
    assert text == _dumped(summary.to_json_dict())


def test_report_bytes_of_an_empty_run():
    assert RunSummary().to_json() == _dumped(RunSummary().to_json_dict())
    assert '"counterexamples": []\n' in RunSummary().to_json()


_TEXT = st.text(max_size=8)
_INTS = st.lists(st.integers(0, 10**9), max_size=3)
_CHECK = st.builds(CheckResult, _TEXT, st.sampled_from(["pass", "fail", "skipped"]), _TEXT,
                   st.floats(0, 1e7))
_VERIFIED = st.builds(
    VerificationReport, _TEXT, st.integers(1, 10**9), st.integers(2, 10**4),
    st.fixed_dictionaries({"p_separable": st.booleans(), "triangle_free": st.booleans(),
                           "H_noncentral": st.booleans()}),
    st.lists(_CHECK, max_size=3),
    st.tuples(_INTS, _INTS, st.lists(st.lists(st.integers(0, 999), min_size=2, max_size=2),
                                     max_size=3), _TEXT).map(
        lambda t: dict(zip(["vertex_sizes", "vertex_orders", "edges", "shape"], t))),
    st.booleans())
_UNVERIFIED = st.builds(VerificationReport, _TEXT, st.integers(1, 10**9),
                        st.integers(2, 10**4), st.just({}), st.lists(_CHECK, max_size=2),
                        st.just({}))


@given(st.lists(_VERIFIED | _UNVERIFIED, max_size=3))
@example([_synthetic_report('Q"uote\\back\x00\x1f\x7f caf\u00e9 \u20ac \U0001f600 \ud800', True,
                            'tab\t nl\n \u2028 "\\" \U00010348')])
def test_report_bytes_escape_every_string(reports):
    # names and details with quotes, backslashes, control characters,
    # non-ASCII and astral code points are escaped as json.dumps escapes them
    summary = RunSummary(reports)
    assert summary.to_json() == _dumped(summary.to_json_dict())
    for r in reports:
        assert r.to_json() == _dumped(r.to_json_dict())


def test_check_ids_unique_per_report(atlas_groups):
    r = verify_pair(atlas_groups["D12"], 5)
    ids = [c.check_id for c in r.checks]
    assert len(ids) == len(set(ids))


def test_corpus_round_trip_through_verifier(atlas_groups):
    text = "\n".join(
        json.dumps({"name": n, "degree": atlas_groups[n].degree,
                    "generators": [g.cycle_string()
                                   for g in atlas_groups[n].generators],
                    "tags": []})
        for n in ["Sigma3", "D10"])
    specs = parse_corpus(text)
    groups = [s.build() for s in specs]
    summary = run_corpus(groups, ("list", [5]))
    assert summary.failures() == 0


def test_groups_pickle_for_parallel_workers(atlas_groups):
    import pickle
    G = atlas_groups["(C5xC5):SL(2,3)"]
    clone = pickle.loads(pickle.dumps(G))
    assert clone.order == 600
    assert clone.elements == G.elements
    assert clone.generators == G.generators


def test_exit_code_and_counterexample_ordering():
    from classgraph.verify import CheckResult, RunSummary, VerificationReport

    def report(name, fail, cx):
        status = "fail" if fail else "pass"
        return VerificationReport(
            group_name=name, group_order=1, prime=2,
            hypotheses={"p_separable": True, "triangle_free": True,
                        "H_noncentral": True},
            checks=[CheckResult("class-equation", status, "synthetic", 0.0)],
            graph_summary={"vertex_sizes": [], "vertex_orders": [],
                           "edges": [], "shape": "other"},
            counterexample=cx)

    ok = RunSummary([report("A", False, False)])
    assert ok.exit_code() == 0
    bad = RunSummary([report("A", False, False), report("B", True, True)])
    assert bad.exit_code() == 1
    doc = bad.to_json_dict()
    assert doc["reports"][0]["group"] == "B"  # counterexamples listed first
    assert doc["summary"]["counterexamples"] == [{"group": "B", "prime": 2}]


def test_graph_consistency_fails_on_wrong_components(atlas_groups):
    G = atlas_groups["C7:C6"]
    graph = build_graph(G)
    assert verify._check_graph_consistency(G, graph) == (
        True, "6 vertices, 10 edges, shape other")
    # cached components that split every edge still partition the vertices
    vars(graph)["components"] = tuple((v,) for v in range(len(graph.vertices)))
    assert verify._check_graph_consistency(G, graph) == (
        False, "components do not partition the vertices")


def test_graph_consistency_fails_on_a_dropped_bit(atlas_groups):
    g = build_graph(atlas_groups["Sigma4"], 5)
    assert verify._check_graph_consistency(None, g)[0]

    def check_with(vertex, flip):
        nb = list(g.neighbours)
        nb[vertex] ^= flip
        return verify._check_graph_consistency(None, dataclasses.replace(g, neighbours=tuple(nb)))

    i, j = min(g.edges)
    assert check_with(i, 1 << j) == (False, f"missing edge ({i},{j})")  # lost at one end
    assert check_with(j, 1 << i) == (False, f"missing edge ({i},{j})")  # or the other
    assert check_with(i, 1 << i) == (False, "loop edge")


def test_graph_consistency_names_the_first_edge_without_a_shared_prime(atlas_groups):
    g = build_graph(atlas_groups["C7:C6"])
    apart = [pair for pair in combinations(range(len(g.vertices)), 2) if pair not in g.edges]
    assert len(apart) == 5  # 6 vertices, 10 edges

    def check_with(*flips):
        nb = list(g.neighbours)
        for vertex, bit in flips:
            nb[vertex] ^= 1 << bit
        return verify._check_graph_consistency(None, dataclasses.replace(g, neighbours=tuple(nb)))

    (i, j), (k, m) = apart[0], apart[-1]
    assert check_with((i, j)) == (False, f"edge ({i},{j}) without a shared prime")  # at one end
    assert check_with((j, i)) == (False, f"edge ({i},{j}) without a shared prime")  # or the other
    # a walk over the pairs in order meets (i, j) before (k, m), and a loop
    # at a vertex before that vertex's pairs
    assert check_with((m, k), (i, j)) == (False, f"edge ({i},{j}) without a shared prime")
    assert check_with((k, m), (k, k)) == (False, "loop edge")
    e, f = min(g.edges)
    assert (k, m) < (e, f)
    assert check_with((e, f), (m, k)) == (False, f"edge ({k},{m}) without a shared prime")
    assert check_with((f, e)) == (False, f"missing edge ({e},{f})")


def test_unexpected_exception_fails_only_its_check(atlas_groups, monkeypatch):
    def broken(G):
        raise RuntimeError("broken check")

    monkeypatch.setattr(verify, "_check_class_equation", broken)
    summary = run_corpus([atlas_groups[n] for n in ["Sigma3", "D10"]])
    assert len(summary.reports) == 6  # the run completes
    for r in summary.reports:
        for c in r.checks:
            if c.check_id == "class-equation":
                assert (c.status, c.detail) == ("fail", "RuntimeError: broken check")
            else:
                assert c.status != "fail"


def test_a_hall_search_failure_in_a_gate_fails_only_its_check(atlas_groups, monkeypatch):
    G = atlas_groups["C7:C6"]
    before = verify_pair(G, 2)

    def exhausted(*args, **kwargs):
        raise HallSearchExhausted("no p-complement found")

    monkeypatch.setattr(verify, "p_complement", exhausted)
    after = verify_pair(G, 2)  # the central-intersection gate no longer raises
    failed = ("fail", "HallSearchExhausted: no p-complement found")
    assert [c.check_id for c in after.checks] == [c.check_id for c in before.checks]
    for old, new in zip(before.checks, after.checks):
        # checks that call p_complement themselves fail; the rest are unchanged
        assert (new.status, new.detail) in [(old.status, old.detail), failed]
    gated = "central-intersection-bound"
    assert _by_id(before)[gated].status == "pass"
    assert (_by_id(after)[gated].status, _by_id(after)[gated].detail) == failed
    summary = run_corpus([G])
    assert len(summary.reports) == len(primes_for(G, ("all",)))  # the run completes


def test_a_case_classification_failure_skips_shape_refinement_and_is_a_counterexample(
        atlas_groups, monkeypatch):
    # no atlas or natural-corpus pair fails case-classification, so one is made
    # to: C7:C3 at p = 2 is case ii, shape c, with every check passing
    G, other = atlas_groups["C7:C3"], atlas_groups["C3:C4"]
    before = verify_pair(G, 2)
    assert _by_id(before)["case-classification"].status == "pass"
    real = verify.complement_case

    def unmatched(H, p):
        if H is G:
            raise NoCaseMatches("no structural case matches")
        return real(H, p)

    monkeypatch.setattr(verify, "complement_case", unmatched)
    summary = run_corpus([other, G], ("list", [2]))
    report = summary.reports[1]
    checks = _by_id(report)
    assert (checks["case-classification"].status, checks["case-classification"].detail) == (
        "fail", "NoCaseMatches: no structural case matches")
    assert (checks["shape-refinement"].status, checks["shape-refinement"].detail) == (
        "skipped", "hypothesis failed: case-classification-failed")
    for old, new in zip(before.checks[:-2], report.checks[:-2]):
        assert (new.status, new.detail) == (old.status, old.detail)
    assert report.counterexample
    assert not summary.reports[0].counterexample
    doc = summary.to_json_dict()
    assert [r["group"] for r in doc["reports"]] == ["C7:C3", "C3:C4"]  # listed first
    assert doc["summary"]["counterexamples"] == [{"group": "C7:C3", "prime": 2}]


def test_each_pair_builds_its_complement_case_once(atlas, monkeypatch):
    # shape-refinement reads the ComplementCase that case-classification made
    real, seen = verify.complement_case, []

    def spy(G, p):
        seen.append(real(G, p))
        return seen[-1]

    monkeypatch.setattr(verify, "complement_case", spy)
    reached = 0
    for entry in atlas.values():
        G = entry.group
        for p in entry.primes:
            fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
            seen.clear()
            report = verify_pair(fresh, p)
            if _by_id(report)["shape-refinement"].status == "skipped":
                continue
            reached += 1
            assert len(seen) == 2 and seen[0] is seen[1], (G.name, p)
    assert reached > 0


def test_disconnected_structure_fails_when_no_sylow_centralizes_the_complement(
        atlas_groups, monkeypatch):
    # C7:C6 at p = 2: H = C7:C3, whose Frobenius complement C3 the Sylow
    # 2-subgroup centralizes; C6 acts faithfully on the kernel C7, so no
    # Sylow 2-subgroup centralizes C7 when it is passed off as the complement
    G = atlas_groups["C7:C6"]
    check = _by_id(verify_pair(G, 2))["disconnected-p-structure"]
    assert (check.status, check.detail) == (
        "pass", "p-nilpotent, quasi-Frobenius, complement centralized by a Sylow p-subgroup")
    real = verify.is_quasi_frobenius

    def kernel_as_complement(H):
        witness = real(H)
        return dataclasses.replace(witness, complement=witness.kernel)

    monkeypatch.setattr(verify, "is_quasi_frobenius", kernel_as_complement)
    check = _by_id(verify_pair(G, 2))["disconnected-p-structure"]
    assert (check.status, check.detail) == (
        "fail", "no Sylow p-subgroup centralizes the found complement")


@pytest.mark.parametrize("p", [4, 1, 0, 6, 9])
def test_verify_pair_refuses_a_non_prime(p):
    # refused, as the CLI refuses it, not reported as a pair whose checks all fail
    with pytest.raises(PreconditionViolated, match=f"^{p} is not prime$"):
        verify_pair(symmetric(4), p)


def test_a_failure_in_the_hypotheses_fails_only_its_pair(atlas_groups, monkeypatch):
    groups = [atlas_groups["C7:C6"], atlas_groups["D10"]]
    before = run_corpus(groups)
    real = verify._core_climb

    def capped(G, p):
        if G.name == "C7:C6":
            raise LatticeCapExceeded("lattice too large")
        return real(G, p)

    monkeypatch.setattr(verify, "_core_climb", capped)
    after = run_corpus(groups)  # completes
    assert [(r.group_name, r.prime) for r in after.reports] == \
        [(r.group_name, r.prime) for r in before.reports]
    detail = "hypotheses not computed: LatticeCapExceeded: lattice too large"
    for old, new in zip(before.reports, after.reports):
        if new.group_name == "D10":
            assert new.to_json_dict() == old.to_json_dict()
            continue
        assert [c.check_id for c in new.checks] == list(ALL_CHECK_IDS)
        assert {(c.status, c.detail) for c in new.checks} == {("fail", detail)}
        assert new.hypotheses == {} and new.graph_summary == {}
        assert not new.counterexample
    assert after.exit_code() == 1


def test_class_checks_read_quotients_inside_the_group(atlas, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a class check built a quotient group")
    for module in (structure, classify):
        monkeypatch.setattr(module, "quotient", refuse)
    for entry in atlas.values():
        G = entry.group
        fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
        assert verify._check_quotient_class_divisibility(fresh) == (
            True, "0 coset-class divisibility failures")
        for p in entry.primes:
            ok, detail = verify._check_count_stable(fresh, p)
            assert ok, (G.name, p, detail)


def test_count_stable_reads_the_p_core_as_a_class_set(atlas, monkeypatch):
    # O_p(G) is read as _pi_core's class set: no Group is built for it,
    # checked for normality or mapped to class positions, and the verdicts
    # and details are those of the route through p_core and coset_classes
    def refuse(*args, **kwargs):
        raise AssertionError("the count check built or checked the p-core as a Group")
    for entry in atlas.values():
        G = entry.group
        for p in entry.primes:
            twin = Group(G.name, G.degree, G.generators, G.elements)  # no caches
            a = classify.count_p_regular_classes(twin, p)
            b = classify._p_regular_coset_classes(
                twin, p, structure.coset_classes(twin, structure.p_core(twin, p)))
            fresh = Group(G.name, G.degree, G.generators, G.elements)
            with monkeypatch.context() as m:
                for name in ("_require_normal", "_class_positions", "_normal_subgroup"):
                    m.setattr(structure, name, refuse)
                ok, detail = verify._check_count_stable(fresh, p)
            if structure.p_core(twin, p).order == 1:
                assert (ok, detail) == (True, "trivial p-core; counts agree by construction")
            else:
                assert (ok, detail) == (a == b, f"{a} p-regular classes in the group, "
                                                 f"{b} in the quotient")


@pytest.mark.parametrize("name, p", [("C7:C6", 3), ("C7:C6", 2), ("(C5xC5):SL(2,3)", 3)])
def test_shape_refinements_over_a_trivial_core_build_no_quotient(atlas_groups, monkeypatch,
                                                                 name, p):
    # shapes a, b and f with O_p(G) = 1, each with a centreless p-complement
    def refuse(*args, **kwargs):
        raise AssertionError("quotient by a trivial subgroup")
    for module in (structure, classify):
        monkeypatch.setattr(module, "quotient", refuse)
    G = atlas_groups[name]
    fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
    checks = _by_id(verify_pair(fresh, p))
    assert checks["shape-refinement"].status == "pass"
    assert all(c.status != "fail" for c in checks.values())


def test_shape_d_is_decided_inside_the_complement(atlas_groups, monkeypatch):
    # ES27:Q8 at p = 2 has shape d and |H n Z(G)| = 3; the only quotient its
    # pair builds is H/Z(H), inside is_quasi_frobenius
    made = []
    real_quotient = classify.quotient

    def recording(G, N):
        made.append((G.order, N.order))
        return real_quotient(G, N)
    monkeypatch.setattr(classify, "quotient", recording)
    G = atlas_groups["ES27:Q8"]
    fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
    H = structure.p_complement(fresh, 2)
    assert classify._central_meet(fresh, H).order == 3
    checks = _by_id(verify_pair(fresh, 2))
    assert build_graph(fresh, 2).shape == "d"
    assert checks["shape-refinement"].status == "pass"
    assert "H/(HnZ) elementary abelian of order 9" in checks["shape-refinement"].detail
    assert made == [(H.order, center(H).order)]


# one named atlas pair per cell of classify._CELLS, with its refinement's pass detail
_CELL_PAIRS = [
    (("i", "d"), "Sigma3", 2, "H/(HnZ) elementary abelian of order 3"),
    (("i", "e"), "A4", 2, "prime-power p-complement, q=3"),
    (("ii", "a"), "Sigma3", 5, "quotient matches Sigma3"),
    (("ii", "b"), "A4", 5, "quotient matches A4"),
    (("ii", "c"), "D12", 5, "case ii with center order 2"),
    (("ii", "e"), "E25:Sigma3", 5, "Frobenius with elementary abelian kernel, prime complement"),
    (("iii", "f"), "(C5xC5):SL(2,3)", 3, "quotient isomorphic to (C5xC5):SL(2,3)"),
]


def _fresh(G):
    return Group(G.name, G.degree, G.generators, G.elements)  # no caches


@pytest.mark.parametrize("cell, name, p, detail", _CELL_PAIRS)
def test_each_cell_is_reached_by_a_named_pair(atlas_groups, cell, name, p, detail):
    assert set(classify._CELLS) == {("i", "d"), ("i", "e"), ("ii", "a"), ("ii", "b"),
                                    ("ii", "c"), ("ii", "e"), ("iii", "f")}
    G = _fresh(atlas_groups[name])
    case = verify.complement_case(G, p)
    assert (case.case, case.shape) == cell
    refinement = _by_id(verify_pair(G, p))["shape-refinement"]
    assert (refinement.status, refinement.detail) == ("pass", detail)


def test_a_pair_outside_the_cells_is_refused(atlas_groups, monkeypatch):
    # without the (i, d) cell, Sigma3 at p = 2 (case i, shape d) pairs with no cell
    monkeypatch.delitem(classify._CELLS, ("i", "d"))
    G = _fresh(atlas_groups["Sigma3"])
    message = "(Sigma3, p=2): case i paired with shape 'd'"
    with pytest.raises(NoCaseMatches, match=re.escape(message)):
        classify.complement_case(G, 2)
    report = verify_pair(G, 2)
    checks = _by_id(report)
    assert (checks["case-classification"].status, checks["case-classification"].detail) == (
        "fail", f"NoCaseMatches: {message}")
    assert (checks["shape-refinement"].status, checks["shape-refinement"].detail) == (
        "skipped", "hypothesis failed: case-classification-failed")
    assert report.counterexample


@pytest.mark.parametrize("cell, expected", [(("ii", "a"), "3"), (("ii", "b"), "4"),
                                            (("ii", "c"), "5 or 6"), (("iii", "f"), "4")])
def test_a_cell_refuses_a_wrong_class_count(atlas_groups, monkeypatch, cell, expected):
    _, name, p, _ = next(row for row in _CELL_PAIRS if row[0] == cell)
    monkeypatch.setattr(verify, "count_p_regular_classes", lambda G, p: 7)
    G = _fresh(atlas_groups[name])
    report = verify_pair(G, p)
    refinement = _by_id(report)["shape-refinement"]
    assert (refinement.status, refinement.detail) == (
        "fail", f"expected {expected} p-regular classes, found 7")
    assert report.counterexample


def test_coprime_span_is_built_once_per_check(atlas, monkeypatch):
    # the span depends on the maximal class only through its size, which
    # every maximal class shares
    spans = []
    real_span = verify.coprime_class_span

    def recording(*args, **kwargs):
        spans.append(kwargs)
        return real_span(*args, **kwargs)
    monkeypatch.setattr(verify, "coprime_class_span", recording)
    ran = 0
    for entry in atlas.values():
        G = entry.group
        for p in entry.primes:
            graph = build_graph(G, p)
            if not graph.vertices or not structure.is_p_separable(G, p)[0]:
                continue
            spans.clear()
            ok, detail = verify._check_coprime_span(G, p, graph)
            assert ok, (G.name, p, detail)
            assert len(spans) == 1
            ran += 1
    assert ran


# C53:C26 at p = 13 has shape b and C47:C46 at p = 23 shape a; both
# quotients by O_p(G) = 1 are the whole group, above structure.ISO_CAP
@pytest.mark.parametrize("r, multiplier, name, p", [(53, 4, "C53:C26", 13),
                                                    (47, 5, "C47:C46", 23)])
def test_shape_refinement_skips_a_comparison_above_the_cap(monkeypatch, r, multiplier,
                                                           name, p):
    def refuse(*args, **kwargs):
        raise AssertionError("isomorphism test above the cap")
    monkeypatch.setattr(classify, "is_isomorphic", refuse)
    G = affine_prime_group(r, multiplier, name)
    assert G.order > structure.ISO_CAP
    checks = _by_id(verify_pair(G, p))
    assert checks["shape-refinement"].status == "pass"
    assert checks["shape-refinement"].detail == (
        f"quotient order {G.order} exceeds the isomorphism cap "
        f"{structure.ISO_CAP}; comparison skipped")
    assert all(c.status != "fail" for c in checks.values())


def _assert_coprime_counts_match_naive(G):
    sample = verify._stride_sample(G.elements)
    pairs, failures = naive_coprime_commuting_counts(G.elements, sample)
    assert verify._check_coprime_commuting_divisibility(G) == (
        failures == 0, f"{pairs} commuting coprime pairs, {failures} failures")
    return pairs


@given(generating_sets())
def test_coprime_commuting_counts_match_naive(gens):
    _assert_coprime_counts_match_naive(make_group(gens, "G"))


# order 720 > verify._SAMPLE_LIMIT, so only pairs with both parts sampled count
@pytest.mark.parametrize("build, pairs", [
    (lambda: symmetric(6), 1229),
    (lambda: direct_product(symmetric(5), cyclic(6)), 1843),
])
def test_sampled_coprime_commuting_counts_match_naive(build, pairs):
    G = build()
    assert G.order > verify._SAMPLE_LIMIT
    assert _assert_coprime_counts_match_naive(G) == pairs


_MEMO_CODE = perm._memoised(lambda G: None).__code__  # shared by every memo wrapper


def _memoised_functions() -> dict:
    """Every memoised function of the library, keyed by the function it wraps."""
    found = chain(vars(Group).values(),
                  *(vars(m).values() for m in (perm, structure, classify, verify)))
    return {f.__wrapped__: f for f in found if getattr(f, "__code__", None) is _MEMO_CODE}


def test_every_cache_entry_is_a_memo_of_its_call(atlas):
    # after whole pairs are verified, each entry in the cache of G and of
    # the groups cached there is keyed by a memoised function and its
    # arguments, apart from the right table make_group leaves for the class
    # build; a repeat call of a public one, by its public name, returns the
    # cached object itself
    memoised = _memoised_functions()
    repeated = set()
    for name in ("C7:C6", "GammaL(1,8)", "E25:Sigma3", "(C5xC5):Q8"):
        entry = atlas[name]
        G = make_group(entry.group.generators, name)
        for p in entry.primes:
            verify_pair(G, p)
        seen, todo = set(), [G]
        while todo:
            H = todo.pop()
            if H in seen:
                continue
            seen.add(H)
            for key, value in list(H._cache.items()):
                if isinstance(value, Group):
                    todo.append(value)
                if key == "right_table":
                    continue
                fn, args = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
                assert fn in memoised, (H.name, key)
                public = memoised[fn].__name__
                if public.startswith("_"):
                    continue
                if hasattr(Group, public):
                    again = getattr(H, public)(*args)
                else:
                    again = getattr(sys.modules[fn.__module__], public)(H, *args)
                assert again is value, (H.name, public, args)
                repeated.add(public)
    assert {"base", "product", "element_set", "conjugacy_classes", "class_elements",
            "center", "sylow", "p_complement", "is_quasi_frobenius",
            "complement_case"} <= repeated


def _unreachable_groups(run) -> list[str]:
    """The names of the Groups that ``run()`` leaves for the cyclic
    collector: it runs with the collector off, and one collection that
    keeps what it finds lists them."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [x.name for x in gc.garbage if isinstance(x, Group)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_a_verified_group_is_freed_when_its_last_reference_goes(atlas):
    # no cache entry of a group leads back to it, so reference counting
    # frees the group, its caches and the groups made for it; the atlas
    # covers certificates, quotients by O_p(G) and Z(G), Frobenius
    # witnesses and isomorphism tests
    def one_pair():
        verify_pair(dihedral(20), 3)

    def atlas_run():
        run_corpus([make_group(entry.group.generators, name) for name, entry in atlas.items()])

    def certificates():
        G = symmetric(5)
        assert not structure.is_soluble(G)[0]  # both certificates hold G
        assert not structure.is_p_separable(G, 2)[0]
    for run in (one_pair, atlas_run, certificates):
        assert _unreachable_groups(run) == [], run.__name__


def _count_products(G: Group) -> list[int]:
    """Route G.product() through a counter; the one-item list holds the count."""
    mul, calls = G.product(), [0]

    def counted(x, y):
        calls[0] += 1
        return mul(x, y)
    G._cache[Group.product.__wrapped__] = counted  # product()'s memo key
    return calls


def test_coprime_commuting_check_walks_the_group_once():
    # each z takes its q-parts by repeated squaring, then its pi-parts as
    # products of q-parts: O(|G| log o(z)) products, not |sample|^2
    G = direct_product(symmetric(5), cyclic(6))
    orders = {z: c.element_order for z, c in class_index(G).items()}
    calls = _count_products(G)
    verify._check_coprime_commuting_divisibility(G)
    bound = sum(2 * len(prime_factors(n)) * n.bit_length() + 2 ** len(prime_factors(n))
                for n in orders.values())
    assert 0 < calls[0] <= bound < G.order * 50


def test_coprime_commuting_check_multiplies_only_at_representatives(atlas, monkeypatch):
    # at most _SAMPLE_LIMIT elements, each class is read at its
    # representative: O(sum over classes of log o(z)) products, fewer here
    # than the 240 elements, with no sample and no element-to-class map
    G = make_group(atlas["E16:C15"].group.generators, "E16:C15")
    assert G.order <= verify._SAMPLE_LIMIT
    monkeypatch.setattr(verify, "_stride_sample", None)
    orders = [c.element_order for c in conjugacy_classes(G)]
    calls = _count_products(G)
    verify._check_coprime_commuting_divisibility(G)
    bound = sum(2 * len(prime_factors(n)) * n.bit_length() + 2 ** len(prime_factors(n))
                for n in orders)
    assert 0 < calls[0] <= bound < G.order
    assert class_index.__wrapped__ not in G._cache


def _assert_coprime_routes_agree(G: Group):
    # the sampled walk with the whole group as its sample counts every pair
    assert G.order <= verify._SAMPLE_LIMIT
    assert (verify._sampled_coprime_commuting(G, G.elements)
            == verify._check_coprime_commuting_divisibility(G))


def test_coprime_commuting_routes_agree_on_the_atlas(atlas):
    for name, entry in atlas.items():
        if entry.group.order <= verify._SAMPLE_LIMIT:
            _assert_coprime_routes_agree(make_group(entry.group.generators, name))


@given(generating_sets())
def test_coprime_commuting_routes_agree(gens):
    _assert_coprime_routes_agree(make_group(gens, "G"))


def _assert_normal_class_sizes_match_naive(G):
    # |cl_N(x)| read off the centralizer counts, against N's own classes
    failures = 0
    classes = conjugacy_classes(G)
    lattice = structure._normal_lattice(G)
    for N in lattice:
        elements = [x for k in N.classes for x in class_elements(G, classes[k])]
        assert len(elements) == N.order
        naive, bad = naive_normal_class_sizes(G.elements, elements)
        failures += bad
        for k in N.classes:
            size = verify._inner_class_size(G, N, k)
            assert {naive[x] for x in class_elements(G, classes[k])} == {size}
    ok, detail = verify._check_normal_class_divisibility(G)
    assert detail == f"{len(lattice)} normal subgroups sampled, {failures} divisibility failures"
    assert ok == (failures == 0)


@given(generating_sets())
def test_normal_class_sizes_match_naive(gens):
    _assert_normal_class_sizes_match_naive(make_group(gens, "G"))


def test_normal_class_sizes_match_naive_above_the_old_sample():
    # the check sampled 500 elements of a larger normal subgroup before
    G = direct_product(symmetric(5), cyclic(6))
    assert max(N.order for N in structure.normal_subgroups(G)) == 720
    _assert_normal_class_sizes_match_naive(G)


def test_normal_class_sizes_match_naive_on_the_atlas(atlas_groups):
    for G in atlas_groups.values():
        _assert_normal_class_sizes_match_naive(G)


def test_run_corpus_builds_no_lattice_member(atlas_groups, monkeypatch):
    # the checks read the normal-subgroup lattice as class sets, and
    # is_frobenius takes its kernel from the pi-cores: no member (named
    # ncl<i> or join<i>) becomes a Group, and no member's classes are computed
    member = re.compile(r"(ncl|join)\d+<")
    built, kernels, classed = [], [], []
    constructor, classes_of = structure._normal_subgroup, classify.conjugacy_classes

    def recording(into):
        def building(G, m):
            N = constructor(G, m)
            into.append(N)
            return N
        return building

    def classing(G):
        classed.append(G)
        return classes_of(G)
    monkeypatch.setattr(structure, "_normal_subgroup", recording(built))
    monkeypatch.setattr(classify, "_normal_subgroup", recording(kernels))
    monkeypatch.setattr(classify, "conjugacy_classes", classing)
    run_corpus([Group(G.name, G.degree, G.generators, G.elements)  # no caches
                for G in atlas_groups.values()])
    assert kernels and all(N.name.startswith("O_{") for N in kernels)
    assert not [N.name for N in built + kernels if member.match(N.name)]
    assert not [H.name for H in classed if member.match(H.name)]
