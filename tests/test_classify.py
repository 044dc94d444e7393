"""Frobenius detection, structure reports, class-size criteria, case matching."""

from __future__ import annotations

import pytest
from hypothesis import example, given

from classgraph import classify, structure
from classgraph.classify import (count_p_regular_classes, is_elementary_abelian,
                                 is_frobenius, is_quasi_frobenius,
                                 pi_class_size_criterion, complement_case)
from classgraph.construct import (affine_prime_group, cyclic, direct_product,
                                  elementary_abelian, symmetric)
from classgraph.errors import InvariantViolated, PreconditionViolated
from classgraph.numtheory import prime_factors
from classgraph.perm import (Group, center, class_elements, conjugacy_classes, make_group,
                             parse_cycle_string, subgroup_from_elements)
from classgraph.structure import (coset_classes, normal_subgroups, p_complement, p_core,
                                  quotient)
from classgraph.verify import default_primes
from oracles import naive_centralizer, naive_is_normal
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


def test_frobenius_recheck_refuses_a_centralizer_outside_the_kernel(monkeypatch):
    # C6 with kernel C3 and complement C2 passes every earlier check (orders,
    # trivial meet, a normal kernel inside G), but it is abelian, so C_G(x)
    # = G for x in the kernel: 3 kernel elements commute with x, not
    # |G| / |cl(x)| = 6.  The count is taken over the kernel's own elements,
    # with no class centralizer table of G
    read = []
    meet = structure._centralizer_meet

    def recording(G, classes):
        read.append(classes)
        return meet(G, classes)
    monkeypatch.setattr(structure, "_centralizer_meet", recording)
    monkeypatch.setattr(classify, "_centralizer_meet", recording, raising=False)
    G = cyclic(6)
    x = G.generators[0]
    kernel = subgroup_from_elements(G, [x ** 0, x ** 2, x ** 4], "C3")
    complement = subgroup_from_elements(G, [x ** 0, x ** 3], "C2")
    with pytest.raises(InvariantViolated, match="centralizer escapes the kernel"):
        classify._verify_frobenius(G, kernel, complement)
    assert read == []


def _lattice_kernels(G):
    """The element sets of the members of G's normal-subgroup lattice that
    are Frobenius kernels by definition: 1 < N < G holding C_G(k) for every
    nontrivial k in N."""
    classes, out = conjugacy_classes(G), []
    for m in structure._normal_lattice(G):
        N = {x for k in m.classes for x in class_elements(G, classes[k])}
        assert len(N) == m.order
        if 1 < len(N) < G.order and all(
                naive_centralizer(G.elements, k) <= N for k in N if not k.is_identity()):
            out.append((m, N))
    return out


@given(generating_sets())
@example([parse_cycle_string("(1,2,3,4,5)", 5), parse_cycle_string("(2,3,5,4)", 5)])  # C5:C4
@example([parse_cycle_string("(1,2,3)", 4), parse_cycle_string("(1,2)(3,4)", 4)])  # A4
def test_class_size_kernel_test_matches_the_centralizer_definition(gens):
    G = make_group(gens, "G")
    kernels = {m for m, _ in _lattice_kernels(G)}
    for m in structure._normal_lattice(G):
        assert classify._is_kernel(G, m) == (m in kernels)


@given(generating_sets())
@example([parse_cycle_string("(1,2,3,4,5)", 5), parse_cycle_string("(2,3,5,4)", 5)])  # C5:C4
@example([parse_cycle_string("(1,2,3)", 4), parse_cycle_string("(1,2)(3,4)", 4)])  # A4
@example([parse_cycle_string("(1,2,3)", 3), parse_cycle_string("(1,2)", 3)])  # S3
def test_frobenius_kernel_from_the_pi_cores_is_the_lattice_kernel(gens):
    # the search over the pi-cores finds the kernel exactly when one of the
    # normal subgroups is one, and then the same elements
    G = make_group(gens, "G")
    kernels = _lattice_kernels(G)
    w = is_frobenius(G)
    if not kernels:
        assert w is None
        return
    assert len(kernels) == 1  # the kernel is unique
    assert w is not None and w.kernel.element_set() == kernels[0][1]


def test_quasi_frobenius_of_the_atlas_p_complements_builds_no_lattice(atlas_groups,
                                                                      monkeypatch):
    # the kernel comes from the pi-cores and is re-checked on its own
    # elements: neither H nor H/Z(H) builds its normal-subgroup lattice or
    # its class centralizer table
    lattice, fixers = structure._normal_lattice.__wrapped__, structure._class_fixers.__wrapped__
    built = []
    for name in ("_normal_lattice", "_class_fixers"):
        real = getattr(structure, name)

        def recording(G, real=real):
            built.append((real.__name__, G.name))
            return real(G)
        monkeypatch.setattr(structure, name, recording)
    asked = 0
    for G in atlas_groups.values():
        for p in default_primes(G):
            if not structure._core_climb(G, p)[0]:
                continue
            H = p_complement(G, p)
            H = Group(H.name, H.degree, H.generators, H.elements)  # no caches
            is_quasi_frobenius(H)
            assert lattice not in H._cache and fixers not in H._cache, H.name
            asked += 1
    assert asked and built == []


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
            over = classify._p_regular_coset_classes(G, p, coset_classes(G, N))
            assert over == count_p_regular_classes(Q, p)


@given(generating_sets())
@example([parse_cycle_string("(1,2,3,4)", 4), parse_cycle_string("(1,3)", 4)])  # D8
@example([parse_cycle_string("(1,2,3,4)", 4), parse_cycle_string("(1,2)", 4)])  # S4
def test_elementary_abelian_over_matches_the_quotient(gens):
    # the shape-(d) rule, read inside G, against G/M built, for every normal M
    G = make_group(gens, "G")
    for M in normal_subgroups(G):
        assert classify._elementary_abelian_over(G, M) == \
            is_elementary_abelian(quotient(G, M).group)


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
    from classgraph.classify import _CELLS
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
            assert (case.case, case.shape) in _CELLS, (G.name, p)


@pytest.mark.parametrize("mode", ["pi_number", "pi_prime_number"])
@pytest.mark.parametrize("pi", [{2, 4}, {4}, {1}, {3, 6}])
def test_pi_class_size_criterion_rejects_non_primes(pi, mode):
    # a non-prime member of pi is refused, not read as a prime dividing nothing
    with pytest.raises(PreconditionViolated, match="is not prime"):
        pi_class_size_criterion(symmetric(4), pi, mode)


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
