"""Permutation arithmetic, closure, and conjugacy class computations."""

from __future__ import annotations

import gc
import inspect
import pickle

import pytest
from hypothesis import example, given, strategies as st

from classgraph import perm as perm_module
from classgraph.errors import (BadCycle, DegreeMismatch, InvariantViolated, NotAMember,
                               NotASubgroup, OrderCapExceeded)
from classgraph.construct import alternating, cyclic, dihedral, direct_product, symmetric
from classgraph.graph import build_graph, diameter, is_triangle_free, to_dot
from classgraph.numtheory import prime_factors
from classgraph.perm import (DEFAULT_MAX_ORDER, ConjClass, Group, Permutation, bulk_conjugate,
                             center, centralizer, class_elements, class_index,
                             conjugacy_classes, conjugation_maps, element_order, extend_hom,
                             make_group, mulclose, parse_cycle_string, subgroup_from_elements)
from oracles import (centralizer_order, naive_center, naive_centralizer,
                     naive_class_sizes, naive_closure, naive_compose, naive_conjugacy_classes,
                     naive_conjugate, naive_element_order, naive_extend_hom,
                     naive_greedy_base, naive_layered_closure, naive_orbit_walk)
from strategies import generating_sets, permutations, side_by_side, split_generating_sets


def perm(text, degree):
    return parse_cycle_string(text, degree)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_composition_is_left_to_right():
    a = perm("(1,2)", 3)
    b = perm("(2,3)", 3)
    # apply a first: 1 -> 2 -> 3
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_inverse_and_power():
    g = perm("(1,2,3,4,5)", 5)
    assert g * g.inverse() == Permutation.identity(5)
    assert g ** 5 == Permutation.identity(5)
    assert g ** -2 == (g.inverse()) ** 2


def test_conjugate_matches_definition():
    x = perm("(1,2,3)", 4)
    g = perm("(3,4)", 4)
    assert x.conjugate(g) == g.inverse() * x * g


@given(generating_sets())
@example([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])  # S4
@example([perm("(1,2)", 2)])
def test_composition_matches_pointwise_oracle(gens):
    maps = conjugation_maps(gens)
    for x in gens:
        for g, m in zip(gens, maps):
            assert x * g == naive_compose(x, g)
            assert x.conjugate(g) == naive_conjugate(x, g)
            assert bulk_conjugate(x, m) == naive_conjugate(x, g)


def _dihedral_gens(n):
    """A rotation and a reflection of n points: D_2n, or fewer for n <= 2."""
    return [Permutation([(i + 1) % n for i in range(n)]),
            Permutation([(-i) % n for i in range(n)])]


@given(generating_sets())
@example([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])  # S4
@example([perm("(1,2)", 2)])
# make_group closes on bytes up to degree 256 and on tuples beyond
@example(_dihedral_gens(1))
@example(_dihedral_gens(2))
@example(_dihedral_gens(256))
@example(_dihedral_gens(257))
def test_make_group_matches_layered_closure(gens):
    G = make_group(gens, "G")
    assert list(G.elements) == naive_layered_closure(G.generators, G.degree)
    pos = {x: i for i, x in enumerate(G.elements)}
    right = G._cache["right_table"]
    assert [list(r) for r in right] == [
        [pos[naive_compose(x, g)] for x in G.elements] for g in G.generators]


@pytest.mark.parametrize("n,primes", [(256, (None, 3)), (257, (None, 2, 257))])
def test_graph_queries_decode_only_representatives(monkeypatch, n, primes):
    # degree 256 closes on bytes, 257 on tuples
    G = make_group(_dihedral_gens(n), f"D{2 * n}")
    made = []
    raw = Permutation._raw.__func__
    monkeypatch.setattr(Permutation, "_raw", classmethod(
        lambda cls, images: made.append(images) or raw(cls, images)))
    for p in primes:
        g = build_graph(G, p)
        is_triangle_free(g)
        diameter(g)
        to_dot(g)
    monkeypatch.undo()
    classes = conjugacy_classes(G)
    assert 0 < len(made) <= len(classes)
    assert list(G.elements) == naive_layered_closure(G.generators, G.degree)
    at = {x: i for i, x in enumerate(G.elements)}
    for cls in classes:
        rep = cls.representative
        assert rep is G.elements[at[rep]]
    mul = G.product()
    for cls in classes:
        rep = cls.representative
        assert mul(G.identity, rep) is rep and mul(rep, G.identity) is rep
        assert mul(rep, rep) is G.elements[at[rep * rep]]


# byte images, tuple images, and a split product pickled before it is enumerated
_PICKLED = {256: _dihedral_gens(256), 257: _dihedral_gens(257),
            "split": side_by_side([_dihedral_gens(5), _dihedral_gens(7)])}


@pytest.mark.parametrize("n", _PICKLED)
def test_undecoded_group_survives_pickling(n):
    # run_corpus --jobs pickles groups that may not be decoded yet
    lazy, eager = make_group(_PICKLED[n], "D"), make_group(_PICKLED[n], "D")
    eager.elements
    clone = pickle.loads(pickle.dumps(lazy))
    assert lazy._elements is None  # pickling decodes nothing
    assert (clone._images is None) == (n == "split")  # a split product carries no images

    def classes(G):
        return [(c.size, c.element_order, c.representative, class_elements(G, c))
                for c in conjugacy_classes(G)]
    assert classes(clone) == classes(eager)
    assert clone.order == eager.order and clone.elements == eager.elements
    assert clone.generators == eager.generators
    assert all(c.representative is clone.elements[clone.elements.index(c.representative)]
               for c in conjugacy_classes(clone))
    assert pickle.loads(pickle.dumps(eager)).elements == eager.elements


def test_a_split_product_above_the_default_cap_survives_pickling():
    G = make_group(side_by_side([_dihedral_gens(150), _dihedral_gens(151)]), "D300xD302",
                   max_order=10 ** 5)
    assert G.order == 300 * 302 > DEFAULT_MAX_ORDER
    clone = pickle.loads(pickle.dumps(G))  # closed again under its own order as the cap
    assert clone.order == G.order and clone._images is None

    def keys(H):
        return [(c.size, c.element_order, c.representative) for c in conjugacy_classes(H)]
    assert keys(clone) == keys(G)


def test_closure_paths_agree_across_degree_256():
    gens = _dihedral_gens(256)
    padded = [Permutation(g.images + (256,)) for g in gens]  # a fixed point: degree 257
    a, b = make_group(gens, "D"), make_group(padded, "D+")
    assert [x.images + (256,) for x in a.elements] == [x.images for x in b.elements]
    assert ([list(r) for r in a._cache["right_table"]]
            == [list(r) for r in b._cache["right_table"]])


def test_degree_one_results_are_one_tuples():
    e = Permutation.identity(1)
    results = [e * e, e.conjugate(e), bulk_conjugate(e, conjugation_maps([e])[0])]
    results += [e ** k for k in (1, -1, 2, -2)]
    groups = [make_group([Permutation((0,))], "t"), cyclic(1), symmetric(1)]
    for G in groups:
        results += list(G.elements) + [G.product()(G.identity, G.identity)]
    for r in results:
        assert r.images == (0,) and r == e


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        perm("(1,2)", 2) * perm("(1,2)", 3)


def test_cycle_string_round_trip():
    for text, degree in [("(1,2,3)(4,5)", 6), ("()", 4), ("(2,4)", 4)]:
        g = perm(text, degree)
        assert parse_cycle_string(g.cycle_string(), degree) == g


def test_cycle_parse_errors():
    with pytest.raises(BadCycle):
        parse_cycle_string("(1,2,9)", 3)
    with pytest.raises(BadCycle):
        parse_cycle_string("(1,2)(2,3)", 3)
    with pytest.raises(BadCycle):
        parse_cycle_string("(1,2", 3)
    with pytest.raises(BadCycle):
        parse_cycle_string("(1,x)", 3)


@pytest.mark.parametrize("text,degree,expected", [
    ("()", 3, 1),
    ("(1,2)(3,4,5)", 5, 6),
    ("(1,2,3,4,5,6,7)", 7, 7),
])
def test_element_order(text, degree, expected):
    g = perm(text, degree)
    assert element_order(g) == expected
    assert element_order(g) == naive_element_order(g)


def test_make_group_cyclic_closure():
    G = make_group([perm("(1,2,3)", 3)], "C3")
    assert G.order == 3


def test_make_group_symmetric3():
    G = make_group([perm("(1,2)", 3), perm("(1,2,3)", 3)], "S3")
    assert G.order == 6
    assert set(G.elements) == naive_closure(list(G.generators))


def test_make_group_empty_generators():
    G = make_group([], "triv", degree=4)
    assert G.order == 1
    assert G.degree == 4


def test_make_group_requires_degree_when_empty():
    with pytest.raises(ValueError):
        make_group([], "triv")


def test_make_group_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        make_group([perm("(1,2)", 2), perm("(1,2)", 3)], "bad")


@given(split_generating_sets())
@example([perm("(1,3)", 5), perm("(2,4,5)", 5)])  # interleaved blocks: C2 x C3
@example([perm("(1,2)", 5), perm("()", 5), perm("(3,4,5)", 5), perm("(3,5,4)", 5)])
def test_split_products_read_their_classes_off_the_factors(gens):
    G = make_group(gens, "G")
    classes = conjugacy_classes(G)
    if G._factors:
        assert G._elements is None and G._images is None  # G itself is not enumerated
    keys = [(c.size, c.element_order, c.representative) for c in classes]
    naive = naive_conjugacy_classes(G.elements)
    assert keys == sorted((len(K), min(K).order(), min(K)) for K in naive)
    # an element of largest support moves a point of every factor, so with
    # it the same group is made from one connecting block
    widest = max(G.elements, key=lambda x: sum(i != im for i, im in enumerate(x.images)))
    joined = make_group(gens + [widest], "G joined")
    assert not joined._factors and joined.order == G.order
    assert keys == [(c.size, c.element_order, c.representative)
                    for c in conjugacy_classes(joined)]
    # once G is enumerated, each representative is its own element at its
    # position, also as a key of the class orbits
    at = {x: i for i, x in enumerate(G.elements)}
    assert all(c.representative is G.elements[at[c.representative]] for c in classes)
    by_rep = {c.representative: c for c in classes}
    assert all(rep is by_rep[rep].representative for rep in perm_module._class_orbits(G))


@pytest.mark.parametrize("make", [
    # degree 258, order 3060, 387 classes: one 2-byte field per point
    lambda: direct_product(dihedral(510), symmetric(3)),
    # C2 x C2 on 65537 points: one 4-byte field per point
    lambda: make_group([perm("(1,2)", 65537), perm("(65536,65537)", 65537)], "C2xC2"),
], ids=["D510xSigma3", "C2xC2 on 65537 points"])
def test_wide_split_products_read_the_classes_of_the_joined_group(make):
    G = make()
    assert len(G._factors) == 2
    keys = [(c.size, c.element_order, c.representative) for c in conjugacy_classes(G)]
    # a product of generators from both factors joins them into one block
    joined = make_group(G.generators + (G.generators[0] * G.generators[-1],), "joined")
    assert not joined._factors and joined.order == G.order
    assert keys == [(c.size, c.element_order, c.representative)
                    for c in conjugacy_classes(joined)]


def test_a_product_above_the_cap_is_refused_before_any_element(monkeypatch):
    gens = side_by_side([_dihedral_gens(30), _dihedral_gens(31)])  # D60 x D62, order 3720
    closed = []
    close = perm_module._close
    monkeypatch.setattr(perm_module, "_close",
                        lambda G, cap: closed.append(G.degree) or close(G, cap))
    with pytest.raises(OrderCapExceeded, match=r"'D60xD62' exceeds the order cap 3000$"):
        make_group(gens, "D60xD62", max_order=3000)
    assert closed == [30, 31]  # each factor on its own points, D60 x D62 never
    assert make_group(gens, "D60xD62", max_order=3720).order == 3720


def test_graph_queries_on_a_split_product_never_enumerate_it(monkeypatch):
    # nor unpack a class representative; one read later, early or at the
    # enumeration, is G's own element at its position
    for G in [direct_product(dihedral(44), dihedral(106)),
              direct_product(dihedral(100), dihedral(112)),
              direct_product(dihedral(510), symmetric(3))]:  # degree 258: 2-byte fields
        closed, unpacked = [], []
        seating = Group._seating
        monkeypatch.setattr(perm_module, "_close", lambda H, cap: closed.append(H))
        monkeypatch.setattr(Group, "_seating", lambda H: _recording(seating(H), unpacked))
        for p in (None, 2, 3, 5, 7, 11, 17, 53):
            g = build_graph(G, p)
            is_triangle_free(g)
            diameter(g)
            to_dot(g)
        classes = conjugacy_classes(G)
        assert sum(c.size for c in classes) == G.order
        monkeypatch.undo()
        assert closed == [] and unpacked == [] and G._elements is None and G._images is None
        early = [c.representative for c in classes[::5]]
        at = {x: i for i, x in enumerate(G.elements)}
        assert all(c.representative is G.elements[at[c.representative]] for c in classes)
        assert all(x is c.representative for x, c in zip(early, classes[::5]))
        assert len(unpacked) == len(classes)  # each once, by the seating function G's records hold


def _recording(seat, unpacked):
    return lambda images: unpacked.append(images) or seat(images)


def test_order_cap():
    gens = [perm("(1,2)", 8), perm("(1,2,3,4,5,6,7,8)", 8)]
    with pytest.raises(OrderCapExceeded):
        make_group(gens, "S8", max_order=1000)
    with pytest.raises(OrderCapExceeded):  # the tuple path, beyond degree 256
        make_group(_dihedral_gens(257), "D514", max_order=257)


def _c2_cubed_gens(degree):
    """Three commuting transpositions: C2 x C2 x C2, whose second layer makes
    each new element twice (ab = ba, ...)."""
    return [perm(f"({i},{i + 1})", degree) for i in (1, 3, 5)]


# each group once on bytes (degree <= 256) and once on tuples (degree 257)
_EDGE_GROUPS = [_c2_cubed_gens(6), _c2_cubed_gens(257), _dihedral_gens(256), _dihedral_gens(257)]


@pytest.mark.parametrize("gens", _EDGE_GROUPS)
def test_order_cap_at_the_order(gens):
    order = len(naive_layered_closure(gens, gens[0].degree))
    assert make_group(gens, "G", max_order=order).order == order
    with pytest.raises(OrderCapExceeded):
        make_group(gens, "G", max_order=order - 1)


def _dihedral_law(m):
    """D_{2m} on its 2m elements (i, s), the rotation r^i times s reflections."""
    elements = [(i, s) for i in range(m) for s in range(2)]

    def mul(u, v):
        (i, s), (j, t) = u, v
        return (i - j if s else i + j) % m, s ^ t
    return elements, mul, [(1, 0), (0, 1)]


# right-regular on 12 points (bytes) and on 260 points (tuples)
@pytest.mark.parametrize("m", [6, 130])
def test_right_regular_order_cap_at_the_order(m):
    elements, mul, gens = _dihedral_law(m)
    name = f"D{2 * m}"
    G = perm_module._right_regular(elements, mul, gens, name, 2 * m)
    H = make_group(G.generators, name, max_order=2 * m)
    assert (G.order, G._keys(), G.generators) == (2 * m, H._keys(), H.generators)
    with pytest.raises(OrderCapExceeded, match=rf"'{name}' exceeds the order cap {2 * m - 1}$"):
        perm_module._right_regular(elements, mul, gens, name, 2 * m - 1)


@pytest.mark.parametrize("degree", [6, 257])
def test_a_new_element_made_twice_in_a_layer_is_placed_once(degree):
    gens = _c2_cubed_gens(degree)
    G = make_group(gens, "C2^3")
    assert G.order == 8
    assert list(G.elements) == naive_layered_closure(gens, degree)
    pos = {x: i for i, x in enumerate(G.elements)}
    assert [list(r) for r in G._cache["right_table"]] == [
        [pos[naive_compose(x, g)] for x in G.elements] for g in gens]


def test_element_enumeration_is_deterministic():
    gens = [perm("(1,2)", 4), perm("(1,2,3,4)", 4)]
    a = make_group(gens, "S4")
    b = make_group(list(reversed(gens)), "S4'")
    assert a.elements == b.elements


def test_centralizer_examples():
    s3 = make_group([perm("(1,2)", 3), perm("(1,2,3)", 3)], "S3")
    assert centralizer(s3, s3.identity).order == 6
    t = perm("(1,2)", 3)
    C = centralizer(s3, t)
    assert C.order == 2
    assert set(C.elements) == naive_centralizer(s3.elements, t)
    with pytest.raises(NotAMember):
        centralizer(make_group([perm("(1,2,3)", 3)], "C3"), t)


def test_center_examples():
    c6 = make_group([perm("(1,2,3,4,5,6)", 6)], "C6")
    assert center(c6).order == 6
    s3 = make_group([perm("(1,2)", 3), perm("(1,2,3)", 3)], "S3")
    assert center(s3).order == 1
    assert naive_center(s3.elements) == {s3.identity}


@given(generating_sets(), st.data())
def test_center_matches_naive(gens, data):
    # the center is read off the single-point classes, of a group from
    # make_group and of a sorted subgroup, whose class build makes its own table
    G = make_group(gens, "G")
    seeds = data.draw(st.lists(st.sampled_from(G.elements), min_size=1, max_size=2))
    H = subgroup_from_elements(G, mulclose(seeds, group=G), "H")
    for S in (G, H):
        Z = center(S)
        assert Z.element_set() == naive_center(S.elements)
        assert mulclose(list(Z.generators), group=S) == Z.element_set()


def test_conjugacy_classes_s3():
    s3 = make_group([perm("(1,2)", 3), perm("(1,2,3)", 3)], "S3")
    sizes = sorted(c.size for c in conjugacy_classes(s3))
    assert sizes == [1, 2, 3]
    assert sizes == naive_class_sizes(s3.elements)


def test_conjugacy_classes_a4_d10(atlas_groups):
    a4 = atlas_groups["A4"]
    assert sorted(c.size for c in conjugacy_classes(a4)) == [1, 3, 4, 4]
    assert naive_class_sizes(a4.elements) == [1, 3, 4, 4]
    d10 = atlas_groups["D10"]
    assert sorted(c.size for c in conjugacy_classes(d10)) == [1, 2, 2, 5]
    assert naive_class_sizes(d10.elements) == [1, 2, 2, 5]


@given(generating_sets())
@example([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])
@example([perm("(1,2)", 4), perm("(3,4)", 4)])  # a split product
def test_class_orbits_match_naive(gens):
    G = make_group(gens, "G")
    G.identity  # enumerated (a split product on this first read), G hands its table over
    twin = make_group(gens, "G'")
    S = subgroup_from_elements(twin, twin.elements, "S")  # sorted, builds one itself
    trivial = make_group([], "1", degree=gens[0].degree)  # no generators
    assert "right_table" in G._cache and "right_table" not in S._cache
    for H in (G, S, trivial):
        by_rep = perm_module._class_orbits(H)
        assert H is S or H._elements is None  # the orbits decode no make_group group
        orbits = list(by_rep.values())  # lists of positions
        members = [frozenset(H.elements[i] for i in orbit) for orbit in orbits]
        naive = set(naive_conjugacy_classes(H.elements))
        assert set(members) == naive and len(members) == len(naive)
        assert all(len(orbit) == len(set(orbit)) for orbit in orbits)
        for (rep, orbit), cls in zip(by_rep.items(), members):
            assert rep == min(cls)
            assert rep is H.elements[min(orbit, key=lambda i: H.elements[i])]
        # listed in order of each class's first element, each walked breadth
        # first from it over the generators in order
        firsts = [min(orbit) for orbit in orbits]
        assert firsts == sorted(firsts)
        assert all(orbit == naive_orbit_walk(H.elements, H.generators, orbit[0])
                   for orbit in orbits)
        assert {g for cls in conjugacy_classes(H) for g in class_elements(H, cls)} \
            == H.element_set()
        assert "right_table" not in H._cache  # released by the class build


def _naive_conjugation_tables(H):
    pos = {x: i for i, x in enumerate(H.elements)}
    return [[pos[naive_conjugate(x, g)] for x in H.elements] for g in H.generators]


@given(generating_sets(), st.data())
def test_conjugation_tables_match_naive(gens, data):
    G = make_group(gens, "G")  # byte images, undecoded; a split product enumerated on demand
    twin = make_group(gens, "G'")
    seeds = data.draw(st.lists(st.sampled_from(twin.elements), min_size=1, max_size=2))
    S = subgroup_from_elements(twin, mulclose(seeds, group=twin), "S")  # sorted, base images
    trivial = make_group([], "1", degree=gens[0].degree)
    ident = twin.identity
    sorted_trivial = Group("1'", ident.degree, (ident,), (ident,))  # empty base
    for H in (G, S, trivial, sorted_trivial):
        conj = perm_module._class_build(H)[2]
        assert H in (S, sorted_trivial) or H._elements is None  # read off the images
        assert list(map(list, conj)) == _naive_conjugation_tables(H)


def test_conjugation_tables_above_degree_256(atlas_groups):
    big = atlas_groups["(C5xC5):SL(2,3)"]  # regular, degree 600: tuple images
    G = make_group(big.generators, "G")
    S = subgroup_from_elements(big, big.elements, "S")  # sorted
    for H in (G, S):
        conj = perm_module._class_build(H)[2]
        assert H is S or H._elements is None
        assert list(map(list, conj)) == _naive_conjugation_tables(H)


def test_generators_of_a_proper_subgroup_fail_the_class_build():
    s4 = make_group([perm("(1,2)", 4), perm("(1,2,3,4)", 4)], "S4")
    H = Group("S4 by a 4-cycle", 4, (perm("(1,2,3,4)", 4),), s4.elements)
    with pytest.raises(InvariantViolated, match="do not generate it"):
        conjugacy_classes(H)


def test_only_groups_without_a_generation_contract_walk_their_table(monkeypatch):
    walked = []
    walk = perm_module._require_generated
    monkeypatch.setattr(perm_module, "_require_generated",
                        lambda G, right: walked.append(G.name) or walk(G, right))
    s4 = make_group([perm("(1,2)", 4), perm("(1,2,3,4)", 4)], "S4")
    even = [g for g in s4.elements if sum(len(c) - 1 for c in g.cycles()) % 2 == 0]
    a4 = subgroup_from_elements(s4, even, "A4")  # made by closed_subgroup
    by_hand = Group("A4 by hand", 4, a4.generators, a4.elements)
    assert len(conjugacy_classes(s4)) == 5  # its table was reached as products
    assert [c.size for c in conjugacy_classes(a4)] == [1, 3, 4, 4]
    assert [c.size for c in conjugacy_classes(by_hand)] == [1, 3, 4, 4]
    assert walked == ["A4 by hand"]


def test_conjugacy_classes_conjugate_no_permutations(monkeypatch):
    s4 = make_group([perm("(1,2)", 4), perm("(1,2,3,4)", 4)], "S4")
    a4 = subgroup_from_elements(
        s4, [g for g in s4.elements if sum(len(c) - 1 for c in g.cycles()) % 2 == 0], "A4")

    def refuse(*args, **kwargs):
        raise AssertionError("class orbits conjugated a Permutation")

    monkeypatch.setattr(perm_module, "bulk_conjugate", refuse)
    monkeypatch.setattr(Permutation, "conjugate", refuse)
    assert sorted(c.size for c in conjugacy_classes(s4)) == [1, 3, 6, 6, 8]
    assert sorted(c.size for c in conjugacy_classes(a4)) == [1, 3, 4, 4]


def test_class_order_is_deterministic(atlas_groups):
    g = atlas_groups["C7:C6"]
    classes = conjugacy_classes(g)
    keys = [(c.size, c.element_order, c.representative.images) for c in classes]
    assert keys == sorted(keys)


def test_class_fields(atlas_groups):
    # the public record: a constructor of three values, read back by name
    assert list(inspect.signature(ConjClass).parameters) == [
        "representative", "size", "element_order"]
    rep = atlas_groups["Sigma3"].identity
    one = ConjClass(representative=rep, size=1, element_order=1)
    assert (one.representative, one.size, one.element_order) == (rep, 1, 1)
    assert repr(one) == f"ConjClass(representative={rep!r}, size=1, element_order=1)"
    split = direct_product(dihedral(20), dihedral(52))  # classes read off its factors
    for G in [*atlas_groups.values(), split]:
        for cls in conjugacy_classes(G):
            assert cls.is_central == (cls.size == 1)
            assert cls.prime_support == frozenset(prime_factors(cls.size))
            assert cls.element_order == cls.representative.order()
            copy = pickle.loads(pickle.dumps(cls))
            rebuilt = ConjClass(cls.representative, cls.size, cls.element_order)
            assert copy == cls == rebuilt and hash(copy) == hash(cls) == hash(rebuilt)
            assert copy.prime_support == rebuilt.prime_support == cls.prime_support
            orbit = class_elements(G, copy)
            assert len(orbit) == cls.size
            assert cls.representative == min(orbit)


def test_a_packed_class_record_pickles_compares_and_hashes_as_a_built_one():
    def packed():
        return conjugacy_classes(direct_product(dihedral(20), dihedral(52)))
    pickled, compared, hashed = packed(), packed(), packed()
    copies = [pickle.loads(pickle.dumps(c)) for c in pickled]
    built = [ConjClass(c.representative, c.size, c.element_order) for c in copies]
    assert list(compared) == built == copies
    assert list(map(hash, hashed)) == list(map(hash, built))
    assert list(map(repr, pickled)) == list(map(repr, built))


def test_a_dropped_split_product_query_leaves_no_group_to_the_collector():
    gc.collect()
    gc.disable()
    try:
        before = [o for o in gc.get_objects() if isinstance(o, Group)]  # held, so ids stay unique
        G = direct_product(dihedral(100), dihedral(112))
        g = build_graph(G, 2)
        to_dot(g)
        conjugacy_classes(G)[-1].representative  # one record unpacked, the rest packed
        del G, g
        known = set(map(id, before))
        assert [o for o in gc.get_objects() if isinstance(o, Group) and id(o) not in known] == []
    finally:
        gc.enable()


def test_class_equation_and_index_formula(atlas_groups):
    for name in ["Sigma3", "A4", "D10", "Q8", "C7:C6"]:
        G = atlas_groups[name]
        classes = conjugacy_classes(G)
        assert sum(c.size for c in classes) == G.order
        for cls in classes:
            assert cls.size * centralizer_order(G, cls.representative) == G.order


def test_centralizer_consistent_with_class_length(atlas_groups):
    g = atlas_groups["C7:C6"]
    x = next(c.representative for c in conjugacy_classes(g) if c.element_order == 7)
    assert centralizer(g, x).order == 7
    assert class_index(g)[x].size == 6


def test_element_order_divides_group_order(atlas_groups):
    for G in atlas_groups.values():
        assert all(G.order % g.order() == 0 for g in G.elements)


def test_subgroup_from_elements_rejects_non_closed():
    s3 = make_group([perm("(1,2)", 3), perm("(1,2,3)", 3)], "S3")
    not_closed = [s3.identity, perm("(1,2)", 3), perm("(1,2,3)", 3)]
    with pytest.raises(NotASubgroup, match="'bad'.*size 3"):
        subgroup_from_elements(s3, not_closed, "bad")
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(s3, [], "empty")


def test_subgroup_from_elements_rejects_without_closing_the_group(monkeypatch):
    real = perm_module.mulclose
    sizes = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(perm_module, "mulclose", recording)
    a6 = alternating(6)
    c5 = perm("(1,2,3,4,5)", 6)
    # each 3-cycle generates A6 with c5
    not_closed = [c5 ** k for k in range(5)] + [
        perm(c, 6) for c in ("(4,5,6)", "(1,2,6)", "(2,3,6)")]
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(a6, not_closed, "bad")
    assert max(sizes) < 20  # the closure stopped near the set's size, not at 360
    assert len(sizes) == 2  # <c5>, then the first 3-cycle's closure outgrows the set


@given(generating_sets())
def test_subgroup_from_elements_matches_closure(gens):
    G = make_group(gens, "G")
    for k in range(1, len(gens) + 1):
        H = mulclose(gens[:k], group=G)
        S = subgroup_from_elements(G, H, "H")
        assert S.element_set() == H
        assert S.elements == tuple(sorted(H))
        assert set(S.generators) <= H - {S.identity}
        assert mulclose(S.generators, group=G) == H
        R = subgroup_from_elements(G, list(reversed(sorted(H))), "H")
        assert (R.generators, R.elements) == (S.generators, S.elements)
        if len(H) > 2:  # |H| - 1 does not divide |H|
            x = max(H)
            with pytest.raises(NotASubgroup):
                subgroup_from_elements(G, H - {x}, "H-x")


def test_subgroup_from_elements_does_not_close_again(monkeypatch):
    s4 = make_group([perm("(1,2)", 4), perm("(1,2,3,4)", 4)], "S4")
    even = [g for g in s4.elements if sum(len(c) - 1 for c in g.cycles()) % 2 == 0]

    def closing_again(*args, **kwargs):
        raise AssertionError("subgroup_from_elements called make_group")

    monkeypatch.setattr(perm_module, "make_group", closing_again)
    a4 = subgroup_from_elements(s4, even, "A4")
    assert a4.order == 12 and a4.element_set() == set(even)
    trivial = subgroup_from_elements(s4, [s4.identity], "1")
    assert trivial.elements == (s4.identity,) and trivial.generators == ()


@given(generating_sets())
@example([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])
def test_mulclose_matches_naive(gens):
    G = make_group(gens, "G")
    full = naive_closure(gens)
    for k in range(len(gens) + 1):
        start = mulclose(gens[:k], group=G)
        before = set(start)
        assert mulclose(gens, start=start, group=G) == full
        assert start == before  # the start set is copied, not extended in place


@given(generating_sets(), st.data())
def test_mulclose_cap(gens, data):
    G = make_group(gens, "G")
    full = naive_closure(gens)
    k = data.draw(st.integers(0, len(gens)))
    start = mulclose(gens[:k], group=G)
    cap = data.draw(st.integers(len(start), 130))  # callers start within the cap
    got = mulclose(gens, cap=cap, start=start, group=G)
    assert (len(got) > cap) == (len(full) > cap)
    assert got <= full
    assert len(got) <= cap + len(start)  # stops within one coset of the cap
    if len(full) <= cap:
        assert got == full


def _sign(g):
    odd = sum(len(c) - 1 for c in g.cycles()) % 2
    return perm("(1,2)" if odd else "()", 2)


@given(generating_sets(max_degree=4), st.data())
def test_extend_hom_matches_naive(gens, data):
    degree = gens[0].degree
    kind = data.draw(st.sampled_from(["conjugation", "sign", "arbitrary"]))
    if kind == "conjugation":
        c = data.draw(permutations(degree))
        images = [g.conjugate(c) for g in gens]
    elif kind == "sign":
        images = [_sign(g) for g in gens]
    else:
        images = data.draw(st.lists(permutations(data.draw(st.integers(2, 3))),
                                    min_size=len(gens), max_size=len(gens)))
    expected = naive_extend_hom(gens, images)
    assert extend_hom(gens, images, make_group(gens, "A"), make_group(images, "B")) == expected
    if kind != "arbitrary":
        assert expected is not None  # genuine homomorphisms


def _regular(G):
    """G's right-regular representation: degree |G|, so one point is a base."""
    pos = {x: i for i, x in enumerate(G.elements)}
    gens = [Permutation([pos[x * g] for x in G.elements]) for g in G.generators]
    return make_group(gens, f"R({G.name})", degree=G.order)


def _assert_products_are_own_elements(H):
    keys = {tuple(x.images[b] for b in H.base()) for x in H.elements}
    assert len(keys) == H.order  # the base images separate the elements
    own = {x: x for x in H.elements}
    mul = H.product()
    for x in H.elements:
        for y in H.elements:
            z = mul(x, y)
            assert z == x * y and z is own[z]


@given(generating_sets())
@example([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])  # S4: a base of three points
def test_product_matches_composition(gens):
    G = make_group(gens, "G")
    R = _regular(G)
    assert len(R.base()) == (1 if G.order > 1 else 0)
    for H in (G, R):
        _assert_products_are_own_elements(H)


def test_product_on_a_base_of_four_points():
    # A5 on 1..5 needs three base points and the disjoint 3-cycle a fourth,
    # so every product key is a tuple read by the getter made for x
    G = make_group([perm("(1,2,3)", 8), perm("(1,2,3,4,5)", 8), perm("(6,7,8)", 8)],
                   "A5xC3")
    assert G.order == 180 and len(G.base()) == 4
    _assert_products_are_own_elements(G)


@given(generating_sets())
@example([perm("(1,2)", 4), perm("(1,2,3,4)", 4)])
@example([perm("(2,3)", 6), perm("(4,5)", 6)])  # fixes points 1 and 6
def test_base_matches_the_greedy_key_rule(gens):
    G = make_group(gens, "G")
    for H in (G, _regular(G)):
        assert H.base() == naive_greedy_base(H.elements, H.degree)


def test_atlas_bases_match_the_greedy_key_rule(atlas_groups):
    for G in atlas_groups.values():
        fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
        assert fresh.base() == naive_greedy_base(G.elements, G.degree)


def test_base_of_natural_and_regular_actions():
    s4 = make_group([perm("(1,2)", 4), perm("(1,2,3,4)", 4)], "S4")
    assert s4.base() == (0, 1, 2)
    assert _regular(s4).base() == (0,)
    assert make_group([], "1", degree=3).base() == ()
