"""Frobenius detection, structure reports, class-size criteria, case matching."""

from __future__ import annotations

import pytest
from hypothesis import example, given

from classgraph import classify
from classgraph.classify import (count_p_regular_classes, is_elementary_abelian,
                                 is_frobenius, is_quasi_frobenius,
                                 pi_class_size_criterion, complement_case)
from classgraph.construct import (affine_prime_group, cyclic, direct_product,
                                  elementary_abelian, symmetric)
from classgraph.errors import PreconditionViolated
from classgraph.numtheory import prime_factors
from classgraph.perm import (Group, center, make_group, parse_cycle_string,
                             subgroup_from_elements)
from classgraph.structure import normal_subgroups, p_complement, p_core, quotient
from oracles import centralizer_order, naive_centralizer, naive_is_normal
from strategies import generating_sets


@pytest.mark.parametrize("name, test", [("Sigma3", is_frobenius),
                                         ("C3:C4", is_quasi_frobenius)])
def test_frobenius_witness_per_config(atlas_groups, monkeypatch, name, test):
    # a repeat call returns the same witness and searches once
    searched = []
    search = classify._search_subgroup

    def recording(G, *rest):
        searched.append(G)
        return search(G, *rest)
    monkeypatch.setattr(classify, "_search_subgroup", recording)
    G = atlas_groups[name]
    G = Group(G.name, G.degree, G.generators, G.elements)  # no caches
    w = test(G)
    assert w is not None
    assert test(G) is w
    assert len(searched) == 1


def test_frobenius_sigma3(atlas_groups):
    w = is_frobenius(atlas_groups["Sigma3"])
    assert w is not None
    assert w.kernel.order == 3 and w.complement.order == 2
    assert w.kernel_abelian and w.complement_abelian


def test_frobenius_d10(atlas_groups):
    w = is_frobenius(atlas_groups["D10"])
    assert w.kernel.order == 5 and w.complement.order == 2


def test_frobenius_absent_for_q8(atlas_groups):
    assert is_frobenius(atlas_groups["Q8"]) is None


def test_frobenius_witness_invariants(atlas_groups):
    for name in ["Sigma3", "D10", "A4", "C7:C3", "E9:Q8"]:
        G = atlas_groups[name]
        w = is_frobenius(G)
        assert w is not None, name
        assert naive_is_normal(G.elements, w.kernel.elements)
        assert w.kernel.order * w.complement.order == G.order
        assert w.kernel.element_set() & w.complement.element_set() == {G.identity}
        for k in w.kernel.elements:
            if not k.is_identity():
                assert naive_centralizer(G.elements, k) <= w.kernel.element_set()


@given(generating_sets())
@example([parse_cycle_string("(1,2,3,4,5)", 5), parse_cycle_string("(2,3,5,4)", 5)])  # C5:C4
@example([parse_cycle_string("(1,2,3)", 4), parse_cycle_string("(1,2)(3,4)", 4)])  # A4
def test_frobenius_kernel_test_matches_commuting_counts(gens):
    G = make_group(gens, "G")
    for N in normal_subgroups(G):
        expected = all(centralizer_order(G, k) == centralizer_order(N, k)
                       for k in N.elements if not k.is_identity())
        assert classify._is_frobenius_kernel(G, N) == expected


def test_frobenius_none_when_center_nontrivial(atlas_groups):
    for name in ["Q8", "D12", "C3:C4", "C2x(Q8:C9)", "ES27:Q8"]:
        G = atlas_groups[name]
        if center(G).order > 1:
            assert is_frobenius(G) is None, name


def test_quasi_frobenius_c3c4(atlas_groups):
    w = is_quasi_frobenius(atlas_groups["C3:C4"])
    assert w is not None
    assert w.kernel.order == 6 and w.kernel_abelian
    assert w.complement.order == 4 and w.complement_abelian
    assert w.quotient_witness.kernel.order == 3


def test_quasi_frobenius_equals_frobenius_when_trivial_center(atlas_groups):
    G = atlas_groups["D10"]
    qf = is_quasi_frobenius(G)
    f = is_frobenius(G)
    assert qf.kernel.order == f.kernel.order
    assert qf.complement.order == f.complement.order


def test_quasi_frobenius_absent_for_abelian():
    assert is_quasi_frobenius(cyclic(12)) is None


def _quasi_frobenius_by_quotient(G):
    """Kernel and complement orders and abelian flags, through G/Z(G) built."""
    Q, proj = quotient(G, center(G))
    w = is_frobenius(Q)
    if w is None:
        return None
    kernel = subgroup_from_elements(G, [g for g in G.elements if proj[g] in w.kernel], "K")
    comp = subgroup_from_elements(G, [g for g in G.elements if proj[g] in w.complement], "H")
    return kernel.order, comp.order, kernel.is_abelian(), comp.is_abelian()


@given(generating_sets())
@example([parse_cycle_string("(1,2,3,4,5)", 5), parse_cycle_string("(2,3,5,4)", 5)])  # C5:C4
@example([parse_cycle_string("(1,2,3)", 4), parse_cycle_string("(1,2)(3,4)", 4)])  # A4
def test_quasi_frobenius_of_a_centreless_group_matches_the_quotient_route(gens):
    G = make_group(gens, "G")
    if G.order == 1 or center(G).order > 1:
        return
    w = is_quasi_frobenius(G)
    expected = _quasi_frobenius_by_quotient(G)
    if expected is None:
        assert w is None
        return
    assert (w.kernel.order, w.complement.order,
            w.kernel_abelian, w.complement_abelian) == expected
    # G/Z(G) is G itself: the witness is the memoised Frobenius one
    assert w.quotient_witness is is_frobenius(G)


def test_quasi_frobenius_of_a_centreless_group_builds_no_quotient(atlas_groups,
                                                                   monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quotient by a trivial centre")
    monkeypatch.setattr(classify, "quotient", refuse)
    G = atlas_groups["C7:C6"]
    G = Group(G.name, G.degree, G.generators, G.elements)  # no caches
    w = is_quasi_frobenius(G)
    assert (w.kernel.order, w.complement.order) == (7, 6)


def test_count_p_regular_classes(atlas_groups):
    assert count_p_regular_classes(atlas_groups["Sigma3"], 3) == 2
    assert count_p_regular_classes(atlas_groups["C2x(Q8:C9)"], 3) == 6
    assert count_p_regular_classes(atlas_groups["Q8"], 2) == 1


@given(generating_sets())
@example([parse_cycle_string("(1,2)", 5), parse_cycle_string("(1,2,3,4,5)", 5)])
def test_p_regular_count_over_a_normal_subgroup_matches_the_quotient(gens):
    # every prime dividing |G|, over O_p(G) and over every normal subgroup
    G = make_group(gens, "G")
    for p in prime_factors(G.order):
        for N in (p_core(G, p), *normal_subgroups(G)):
            Q = quotient(G, N).group
            assert count_p_regular_classes(G, p, over=N) == count_p_regular_classes(Q, p)


def test_pi_criterion_direct_product():
    G = direct_product(symmetric(3), cyclic(5))
    lhs, rhs = pi_class_size_criterion(G, {2, 3}, "pi_number")
    assert lhs and rhs


def test_pi_criterion_sigma3():
    lhs, rhs = pi_class_size_criterion(symmetric(3), {2}, "pi_prime_number")
    assert (lhs, rhs) == (True, True)


def test_pi_criterion_nonabelian_sylow(atlas_groups):
    lhs, rhs = pi_class_size_criterion(atlas_groups["Q8:C9"], {2},
                                       "pi_prime_number")
    assert (lhs, rhs) == (False, False)


def test_pi_criterion_biconditional_both_modes(atlas_groups):
    for name in ["Sigma3", "A4", "D10", "C3:C4", "C7:C6", "Q8:C9"]:
        G = atlas_groups[name]
        for p in (2, 3, 5, 7):
            for mode in ("pi_number", "pi_prime_number"):
                lhs, rhs = pi_class_size_criterion(G, {p}, mode)
                assert lhs == rhs, (name, p, mode)


def test_complement_case_examples(atlas_groups):
    case = complement_case(atlas_groups["C3:C4"], 5)
    assert case.case == "ii" and case.shape == "c"
    assert case.details["center_order"] == 2

    case = complement_case(atlas_groups["C2x(Q8:C9)"], 3)
    assert case.case == "i" and case.shape == "e" and case.details["q"] == 2

    case = complement_case(atlas_groups["ES27:Q8"], 2)
    assert case.case == "i" and case.shape == "d" and case.details["q"] == 3

    case = complement_case(atlas_groups["(C5xC5):SL(2,3)"], 3)
    assert case.case == "iii" and case.shape == "f"


def test_complement_case_builds_the_case_iii_target_only_for_its_order(monkeypatch):
    def refuse(name):
        raise AssertionError(f"built atlas group {name!r}")
    monkeypatch.setattr(classify.construct, "atlas_group", refuse)
    assert complement_case(affine_prime_group(7, 3, "C7:C6"), 2).case == "ii"


def test_complement_case_shape_pairing(atlas):
    from classgraph.classify import _CASE_SHAPES
    from classgraph.graph import build_graph, is_triangle_free
    from classgraph.structure import is_p_separable
    for entry in atlas.values():
        G = entry.group
        for p in entry.primes:
            if not is_p_separable(G, p)[0]:
                continue
            g = build_graph(G, p)
            if not g.vertices or not is_triangle_free(g):
                continue
            case = complement_case(G, p)
            assert case.shape in _CASE_SHAPES[case.case], (G.name, p)


def test_complement_case_preconditions(atlas_groups):
    with pytest.raises(PreconditionViolated):
        complement_case(atlas_groups["Q8"], 2)  # no vertices
    with pytest.raises(PreconditionViolated):
        complement_case(atlas_groups["Sigma4"], 5)  # triangles
    from classgraph.construct import alternating
    with pytest.raises(PreconditionViolated):
        complement_case(alternating(5), 5)  # not separable


def test_central_intersection_bound(atlas):
    # triangle-free pairs with a composite-order complement meet the center
    # in at most two elements
    from classgraph.graph import build_graph, is_triangle_free
    from classgraph.numtheory import is_prime_power
    from classgraph.structure import is_p_separable
    from classgraph.classify import intersection_subgroup
    checked = 0
    for entry in atlas.values():
        G = entry.group
        for p in entry.primes:
            if not is_p_separable(G, p)[0]:
                continue
            g = build_graph(G, p)
            if not g.vertices or not is_triangle_free(g):
                continue
            H = p_complement(G, p)
            if H.order == 1 or is_prime_power(H.order):
                continue
            meet = intersection_subgroup(H, center(G), "meet")
            assert meet.order <= 2, (G.name, p)
            checked += 1
    assert checked >= 5


def test_is_elementary_abelian():
    assert is_elementary_abelian(elementary_abelian(3, 2))
    assert not is_elementary_abelian(cyclic(4))
    assert not is_elementary_abelian(symmetric(3))
    assert is_elementary_abelian(cyclic(1))
