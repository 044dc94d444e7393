"""Acceptance suite: the quantitative checks the whole package must satisfy.

Each criterion prints one pass/fail line (visible with ``pytest -s``).
Every expected integer here is exact; there are no tolerances.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

from classgraph.classify import count_p_regular_classes, intersection_subgroup, complement_case
from classgraph.graph import build_graph, diameter, is_triangle_free
from classgraph.numtheory import prime_factors
from classgraph.perm import center, class_index, conjugacy_classes
from classgraph.structure import (is_isomorphic, is_p_separable, is_soluble,
                                  p_complement, p_core, quotient, sylow,
                                  _fingerprint)
from classgraph.verify import ALL_CHECK_IDS, run_corpus

# SHA-256 of the atlas report bytes; bench/run.py checks the same digest
ATLAS_REPORT_SHA256 = "c1ab9fd235319a950d569c9bb143e484e7639929a9d327e732c295e2af2f1025"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL - {label}")
        raise
    print(f"[acceptance] PASS - {label}")


def test_criterion_01_semilinear_group_at_7(atlas_groups):
    with criterion("GammaL(1,8) at p=7: complement order, class sizes, connectivity"):
        G = atlas_groups["GammaL(1,8)"]
        H = p_complement(G, 7)
        assert H.order == 24
        hits = [c for c in conjugacy_classes(H)
                if c.element_order == 2 and c.size == 3]
        assert hits, "no involution class of size 3 in the complement"
        assert all(class_index(G)[c.representative].size == 7 for c in hits)
        assert len(build_graph(H).components) > 1
        assert len(build_graph(G, 7).components) <= 1


def test_criterion_02_c7c6_at_2(atlas_groups):
    with criterion("C7:C6 at p=2: sizes {6,7,7}, one edge, shape b"):
        g = build_graph(atlas_groups["C7:C6"], 2)
        assert g.vertex_sizes() == (6, 7, 7)
        assert len(g.edges) == 1
        assert g.shape == "b"


def test_criterion_03_c3c4_at_5(atlas_groups):
    with criterion("C3:C4 at p=5: sizes {2,2,3,3}, shape c, case ii, |Z(H)|=2"):
        G = atlas_groups["C3:C4"]
        g = build_graph(G, 5)
        assert g.vertex_sizes() == (2, 2, 3, 3)
        assert g.shape == "c"
        case = complement_case(G, 5)
        assert case.case == "ii"
        assert case.details["center_order"] == 2


def test_criterion_04_c2_q8c9_at_3(atlas_groups):
    with criterion("C2x(Q8:C9) at p=3: two size-6 vertices, shape e, case i, 6 classes"):
        G = atlas_groups["C2x(Q8:C9)"]
        g = build_graph(G, 3)
        assert g.vertex_sizes() == (6, 6)
        assert g.shape == "e"
        case = complement_case(G, 3)
        assert case.case == "i" and case.details["q"] == 2
        assert count_p_regular_classes(G, 3) == 6


def test_criterion_05_es27_q8_at_2(atlas_groups):
    with criterion("ES27:Q8 at p=2: single size-24 vertex, shape d, |HnZ(G)|=3"):
        G = atlas_groups["ES27:Q8"]
        g = build_graph(G, 2)
        assert g.vertex_sizes() == (24,)
        assert g.shape == "d"
        H = p_complement(G, 2)
        assert intersection_subgroup(H, center(G), "meet").order == 3


def test_criterion_06_c5c5_sl23_at_3(atlas_groups):
    with criterion("(C5xC5):SL(2,3) at p=3: shape f, case iii, H iso to (C5xC5):Q8"):
        G = atlas_groups["(C5xC5):SL(2,3)"]
        assert build_graph(G, 3).shape == "f"
        case = complement_case(G, 3)
        assert case.case == "iii"
        H = p_complement(G, 3)
        assert is_isomorphic(H, atlas_groups["(C5xC5):Q8"])


def test_criterion_07_e25_sigma3_at_5(atlas_groups):
    with criterion("E25:Sigma3 at p=5: class sizes divisible by 5, quotient Sigma3"):
        G = atlas_groups["E25:Sigma3"]
        g = build_graph(G, 5)
        assert len(g.vertices) == 2
        assert all(v.size % 5 == 0 for v in g.vertices)
        core = p_core(G, 5)
        assert core.order == 25
        Q, _ = quotient(G, core)
        assert is_isomorphic(Q, atlas_groups["Sigma3"])


def test_criterion_08_triangle_free_list(atlas_groups):
    with criterion("ordinary graphs: triangle-free exactly on the six known groups"):
        expected = {"Sigma3", "D10", "A4", "D12", "C3:C4", "C7:C3"}
        found = {name for name, G in atlas_groups.items()
                 if is_triangle_free(build_graph(G))}
        assert found == expected, found ^ expected
        assert not is_triangle_free(build_graph(atlas_groups["Sigma4"]))


def test_criterion_09_property_suite(atlas):
    with criterion("property suite over every atlas (group, prime) pair"):
        groups = [entry.group for entry in atlas.values()]
        summary = run_corpus(groups, ("all",))
        assert summary.failures() == 0, summary.to_json_dict()["summary"]
        digest = hashlib.sha256(summary.to_json().encode("utf-8")).hexdigest()
        assert digest == ATLAS_REPORT_SHA256
        assert not summary.counterexamples()
        # every check ran at least once with a definite outcome
        passed = {c.check_id for r in summary.reports for c in r.checks
                  if c.status == "pass"}
        assert passed == set(ALL_CHECK_IDS)
        # skipped entries always name the hypothesis that failed
        for r in summary.reports:
            for c in r.checks:
                if c.status == "skipped":
                    assert "hypothesis failed" in c.detail
        # connected/diameter and component facts respect the stated bounds
        for entry in atlas.values():
            for p in entry.primes:
                if not is_p_separable(entry.group, p)[0]:
                    continue
                g = build_graph(entry.group, p)
                if g.vertices and len(g.components) <= 1:
                    assert diameter(g) <= 3
                elif g.vertices:
                    assert len(g.components) == 2
                if g.vertices and is_triangle_free(g):
                    assert is_soluble(entry.group)[0]


def test_criterion_10_oracle_cross_checks(atlas):
    with criterion("oracle cross-checks: centralizer index, Hall factorization, "
                   "fingerprint consistency"):
        groups = [entry.group for entry in atlas.values()]
        # class sizes from conjugation orbits equal |G| / |C_G(x)| elementwise
        for G in groups:
            sizes = {}
            for cls in conjugacy_classes(G):
                from classgraph.perm import class_elements
                for x in class_elements(G, cls):
                    sizes[x] = cls.size
            for x in G.elements:
                cent = sum(1 for g in G.elements if g.commutes_with(x))
                assert sizes[x] * cent == G.order, (G.name, x)
        # Sylow and complement orders multiply to the group order
        for entry in atlas.values():
            G = entry.group
            for p in prime_factors(G.order):
                if is_p_separable(G, p)[0]:
                    assert sylow(G, p).order * p_complement(G, p).order == G.order
        # isomorphism never holds across distinct fingerprints
        for A in groups:
            for B in groups:
                if A.order != B.order:
                    continue
                same_fp = _fingerprint(A) == _fingerprint(B)
                iso = is_isomorphic(A, B)
                assert not (iso and not same_fp), (A.name, B.name)
                if A is B:
                    assert iso
