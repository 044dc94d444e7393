"""The per-pair verifier, corpus runs, determinism, and report structure."""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given

import classgraph
from classgraph import classify, structure, verify
from classgraph.construct import (affine_prime_group, alternating, cyclic, direct_product,
                                  parse_corpus, symmetric)
from classgraph.errors import HallSearchExhausted, InvalidParameter, LatticeCapExceeded
from classgraph.graph import build_graph
from classgraph.numtheory import prime_factors
from classgraph.perm import Group, class_elements, class_index, make_group
from classgraph.verify import (ALL_CHECK_IDS, default_primes, primes_for,
                               run_corpus, verify_pair)
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
    for mode in (("list", [4]), ("list", [3, 3]), ("some",)):
        with pytest.raises(InvalidParameter):
            primes_for(G, mode)


def test_run_corpus_rejects_a_repeated_prime(atlas_groups):
    with pytest.raises(InvalidParameter, match="repeated"):
        run_corpus([atlas_groups["Sigma3"]], ("list", [3, 3]))


def test_run_corpus_empty():
    summary = run_corpus([])
    assert summary.reports == []
    assert summary.exit_code() == 0


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


def test_report_json_shape(atlas_groups):
    summary = run_corpus([atlas_groups["Sigma3"]], ("list", [2]))
    doc = summary.to_json_dict()
    assert doc["schema"] == "classgraph-report-v1"
    assert doc["summary"]["pairs"] == 1
    report = doc["reports"][0]
    assert set(report) == {"group", "order", "prime", "hypotheses", "graph",
                           "checks", "counterexample"}
    for c in report["checks"]:
        assert set(c) == {"id", "status", "detail"}  # timings off by default
    json.dumps(doc)  # serializable


def test_report_timings_optional(atlas_groups):
    summary = run_corpus([atlas_groups["Sigma3"]], ("list", [2]))
    doc = summary.to_json_dict(include_timings=True)
    assert all("millis" in c for c in doc["reports"][0]["checks"])


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


def test_a_failure_in_the_hypotheses_fails_only_its_pair(atlas_groups, monkeypatch):
    groups = [atlas_groups["C7:C6"], atlas_groups["D10"]]
    before = run_corpus(groups)
    real = verify.is_p_separable

    def capped(G, p):
        if G.name == "C7:C6":
            raise LatticeCapExceeded("lattice too large")
        return real(G, p)

    monkeypatch.setattr(verify, "is_p_separable", capped)
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
    for module in (structure, verify, classify):
        monkeypatch.setattr(module, "quotient", refuse)
    for entry in atlas.values():
        G = entry.group
        fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
        assert verify._check_quotient_class_divisibility(fresh) == (
            True, "0 coset-class divisibility failures")
        for p in entry.primes:
            ok, detail = verify._check_count_stable(fresh, p)
            assert ok, (G.name, p, detail)


@pytest.mark.parametrize("name, p", [("C7:C6", 3), ("C7:C6", 2), ("(C5xC5):SL(2,3)", 3)])
def test_shape_refinements_over_a_trivial_core_build_no_quotient(atlas_groups, monkeypatch,
                                                                 name, p):
    # shapes a, b and f with O_p(G) = 1, each with a centreless p-complement
    def refuse(*args, **kwargs):
        raise AssertionError("quotient by a trivial subgroup")
    for module in (structure, verify, classify):
        monkeypatch.setattr(module, "quotient", refuse)
    G = atlas_groups[name]
    fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
    checks = _by_id(verify_pair(fresh, p))
    assert checks["shape-refinement"].status == "pass"
    assert all(c.status != "fail" for c in checks.values())


# C53:C26 at p = 13 has shape b and C47:C46 at p = 23 shape a; both
# quotients by O_p(G) = 1 are the whole group, above structure.ISO_CAP
@pytest.mark.parametrize("r, multiplier, name, p", [(53, 4, "C53:C26", 13),
                                                    (47, 5, "C47:C46", 23)])
def test_shape_refinement_skips_a_comparison_above_the_cap(monkeypatch, r, multiplier,
                                                           name, p):
    def refuse(*args, **kwargs):
        raise AssertionError("isomorphism test above the cap")
    monkeypatch.setattr(verify, "is_isomorphic", refuse)
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


def test_coprime_commuting_check_walks_the_group_once():
    # each z takes its q-parts by repeated squaring, then its pi-parts as
    # products of q-parts: O(|G| log o(z)) products, not |sample|^2
    G = direct_product(symmetric(5), cyclic(6))
    orders = {z: c.element_order for z, c in class_index(G).items()}
    mul = G.product()
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return mul(x, y)
    G._cache["product"] = counted
    verify._check_coprime_commuting_divisibility(G)
    bound = sum(2 * len(prime_factors(n)) * n.bit_length() + 2 ** len(prime_factors(n))
                for n in orders.values())
    assert 0 < calls <= bound < G.order * 50


def _assert_normal_class_sizes_match_naive(G):
    failures = 0
    for N in structure.normal_subgroups(G):
        sizes = verify._normal_class_sizes(G, N)
        naive, bad = naive_normal_class_sizes(G.elements, N.elements)
        failures += bad if N.order > 1 else 0
        # one entry per class of G inside N, and every x in it has that size
        assert {x for c in sizes for x in class_elements(G, c)} == N.element_set()
        for c, n in sizes.items():
            assert {naive[x] for x in class_elements(G, c)} == {n}
    ok, detail = verify._check_normal_class_divisibility(G)
    assert detail.endswith(f", {failures} divisibility failures")
    assert ok == (failures == 0)


@given(generating_sets())
def test_normal_class_sizes_match_naive(gens):
    _assert_normal_class_sizes_match_naive(make_group(gens, "G"))


def test_normal_class_sizes_match_naive_above_the_old_sample():
    # the check sampled 500 elements of a larger normal subgroup before
    G = direct_product(symmetric(5), cyclic(6))
    assert max(N.order for N in structure.normal_subgroups(G)) == 720
    _assert_normal_class_sizes_match_naive(G)


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so runtime checks must raise instead
    for path in sorted(Path(classgraph.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
