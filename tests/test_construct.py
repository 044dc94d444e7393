"""Standard families, products, the built-in atlas, and corpus I/O."""

from __future__ import annotations

import re
from functools import lru_cache

import pytest

from classgraph import construct, perm
from classgraph.construct import (ActionSpec, GroupSpec, cyclic,
                                  dihedral, direct_product, elementary_abelian,
                                  generalized_quaternion, group_to_spec,
                                  heisenberg3, one_dim_affine_group, parse_corpus,
                                  semidihedral, semidirect_product,
                                  serialize_corpus, symmetric, alternating)
from classgraph.errors import (BadCycle, ClassGraphError, CorpusSyntaxError,
                               DuplicateName, InvalidParameter, NotAHomomorphism,
                               NotAnAutomorphism, UnknownAtlasGroup)
from classgraph.perm import Permutation, center, conjugacy_classes, make_group
from classgraph.structure import is_isomorphic
from oracles import naive_class_sizes


def test_cyclic():
    assert cyclic(7).order == 7
    assert cyclic(1).order == 1
    with pytest.raises(InvalidParameter):
        cyclic(0)


def test_dihedral_order_10_classes():
    d10 = dihedral(10)
    assert d10.order == 10
    assert naive_class_sizes(d10.elements) == [1, 2, 2, 5]
    with pytest.raises(InvalidParameter):
        dihedral(7)


def test_generalized_quaternion():
    q8 = generalized_quaternion(8)
    assert q8.order == 8
    assert center(q8).order == 2
    assert naive_class_sizes(q8.elements) == [1, 1, 2, 2, 2]
    q16 = generalized_quaternion(16)
    assert q16.order == 16
    # a unique involution is the signature of generalized quaternion groups
    assert sum(1 for g in q16.elements if g.order() == 2) == 1
    with pytest.raises(InvalidParameter):
        generalized_quaternion(12)


def test_semidihedral():
    sd16 = semidihedral(16)
    assert sd16.order == 16
    assert max(g.order() for g in sd16.elements) == 8
    assert sum(1 for g in sd16.elements if g.order() == 2) == 5
    with pytest.raises(InvalidParameter):
        semidihedral(8)


def test_elementary_abelian():
    e25 = elementary_abelian(5, 2)
    assert e25.order == 25
    assert e25.is_abelian()
    assert all(g.order() == 5 for g in e25.elements if not g.is_identity())
    with pytest.raises(InvalidParameter):
        elementary_abelian(4, 2)


def test_symmetric_alternating():
    assert symmetric(4).order == 24
    assert alternating(4).order == 12
    assert alternating(5).order == 60
    assert alternating(6).order == 360


def test_direct_product():
    c6 = direct_product(cyclic(2), cyclic(3))
    assert c6.order == 6
    assert is_isomorphic(c6, cyclic(6))
    a = symmetric(3)
    triv = make_group([], "1", degree=1)
    at = direct_product(a, triv)
    assert at.order == a.order
    assert is_isomorphic(at, a)


def test_direct_product_class_sizes_multiply():
    a, b = symmetric(3), cyclic(2)
    prod = direct_product(a, b)
    expected = sorted(ca.size * cb.size
                      for ca in conjugacy_classes(a) for cb in conjugacy_classes(b))
    assert sorted(c.size for c in conjugacy_classes(prod)) == expected


def test_semidirect_c3_c4():
    c3, c4 = cyclic(3), cyclic(4)
    x = c3.generators[0]
    G = semidirect_product(c3, c4, ActionSpec({c4.generators[0]: {x: x * x}}),
                           "C3:C4")
    assert G.order == 12
    noncentral = sorted(c.size for c in conjugacy_classes(G) if c.size > 1)
    assert noncentral == [2, 2, 3, 3]


def test_semidirect_c7_c6():
    c7, c6 = cyclic(7), cyclic(6)
    x = c7.generators[0]
    G = semidirect_product(c7, c6, ActionSpec({c6.generators[0]: {x: x ** 3}}),
                           "C7:C6")
    assert G.order == 42
    noncentral = sorted(c.size for c in conjugacy_classes(G) if c.size > 1)
    assert noncentral == [6, 7, 7, 7, 7, 7]


def test_semidirect_trivial_action_is_direct():
    c3, c5 = cyclic(3), cyclic(5)
    x = c3.generators[0]
    G = semidirect_product(c3, c5, ActionSpec({c5.generators[0]: {x: x}}), "C3xC5")
    assert G.order == 15
    assert G.is_abelian()


def test_semidirect_kernel_normal_complement_disjoint():
    c3, c4 = cyclic(3), cyclic(4)
    x = c3.generators[0]
    G = semidirect_product(c3, c4, ActionSpec({c4.generators[0]: {x: x * x}}),
                           "C3:C4")
    # the product's generators are K's, then H's, each acting on the pairs
    K = make_group(G.generators[:1], "C3<C3:C4", max_order=3)
    H = make_group(G.generators[1:], "C4<C3:C4", max_order=4)
    assert K.order == 3 and H.order == 4
    assert K.element_set() & H.element_set() == {G.identity}
    for n in K.generators:
        for g in G.generators:
            assert n.conjugate(g) in K


def test_semidirect_rejects_non_automorphism():
    c4 = cyclic(4)
    c2 = cyclic(2)
    x = c4.generators[0]
    with pytest.raises(NotAnAutomorphism):
        semidirect_product(c4, c2, ActionSpec({c2.generators[0]: {x: x * x}}),
                           "bad")


def test_semidirect_names_missing_generator_image():
    e9 = elementary_abelian(3, 2)
    c2 = cyclic(2)
    x, y = e9.generators
    with pytest.raises(NotAnAutomorphism, match=re.escape(repr(y))):
        semidirect_product(e9, c2, ActionSpec({c2.generators[0]: {x: x}}), "bad")


def test_semidirect_rejects_non_homomorphism():
    c5 = cyclic(5)
    c2 = cyclic(2)
    x = c5.generators[0]
    # x -> x^2 has order 4 in Aut(C5), so it cannot be the image of an involution
    with pytest.raises(NotAHomomorphism):
        semidirect_product(c5, c2, ActionSpec({c2.generators[0]: {x: x * x}}),
                           "bad")


def test_heisenberg():
    h = heisenberg3()
    assert h.order == 27
    assert center(h).order == 3
    assert all(g.order() in (1, 3) for g in h.elements)


def _right_regular_builds(build, monkeypatch):
    """Every group that ``build()`` closes through ``perm._right_regular``, as
    (name, what the closure left, what ``make_group`` closes from the same
    generators): generators, images in position order and right table."""
    builds = []

    def closure(G):
        return G.generators, list(G._keys()), [list(r) for r in G._cache["right_table"]]

    def recording(elements, mul, gens, name, max_order=None):
        gens = list(gens)
        G = perm._right_regular(elements, mul, gens, name, max_order)
        index = {x: i for i, x in enumerate(elements)}
        expected = make_group([Permutation([index[mul(x, g)] for x in elements]) for g in gens],
                              name, degree=len(elements), max_order=max_order)
        builds.append((name, closure(G), closure(expected)))
        return G

    monkeypatch.setattr(construct, "_right_regular", recording)
    build()
    return builds


# the atlas rows that semidirect_product builds, degree 600 among them, then
# the extraspecial group of order 27 and Q_{2^k} for k = 3..8
_RIGHT_REGULAR = [*(pytest.param(construct._ATLAS_BY_NAME[name].build, id=name) for name in (
    "C3:C4", "E25:Sigma3", "E9:C8", "E9:Q8", "Q8:C9", "C2x(Q8:C9)", "ES27:Q8", "(C5xC5):Q8",
    "(C5xC5):SL(2,3)")),
    pytest.param(heisenberg3, id="ES27"),
    *(pytest.param(lambda n=2 ** k: generalized_quaternion(n), id=f"Q{2 ** k}")
      for k in range(3, 9))]


@pytest.mark.parametrize("build", _RIGHT_REGULAR)
def test_right_regular_closure_is_make_groups(build, monkeypatch):
    builds = _right_regular_builds(build, monkeypatch)
    assert builds
    for name, closed, expected in builds:
        assert closed == expected, name


def test_affine_groups():
    gl8 = one_dim_affine_group(2, 3, frobenius=True, name="GammaL(1,8)")
    assert gl8.order == 168
    agl16 = one_dim_affine_group(2, 4)
    assert agl16.order == 240


# --- atlas ------------------------------------------------------------------

def test_atlas_has_at_least_20_groups(atlas):
    assert len(atlas) >= 20


def test_atlas_documented_orders(atlas_groups):
    expected = {
        "Sigma3": 6, "Sigma4": 24, "A4": 12, "D10": 10, "D12": 12,
        "C3:C4": 12, "C7:C3": 21, "Q8": 8, "C5:C4": 20, "C7:C6": 42,
        "GammaL(1,8)": 168, "E25:Sigma3": 150, "E16:C15": 240, "E9:C8": 72,
        "E9:Q8": 72, "Q8:C9": 72, "C2x(Q8:C9)": 144, "ES27:Q8": 216,
        "(C5xC5):Q8": 200, "(C5xC5):SL(2,3)": 600,
    }
    for name, order in expected.items():
        assert atlas_groups[name].order == order


def test_atlas_groups_are_valid(atlas_groups):
    for G in atlas_groups.values():
        assert all(g in G for g in G.generators)
        assert G.identity in G
        assert len(set(G.elements)) == G.order


def test_atlas_entries_tagged_with_primes(atlas):
    for entry in atlas.values():
        assert entry.primes, entry.group.name
        assert entry.tags, entry.group.name


def test_three_nonabelian_order_12_groups_pairwise_distinct(atlas_groups):
    trio = [atlas_groups["A4"], atlas_groups["D12"], atlas_groups["C3:C4"]]
    for i in range(3):
        assert not trio[i].is_abelian()
        for j in range(i + 1, 3):
            assert not is_isomorphic(trio[i], trio[j])


def test_atlas_named_examples(atlas_groups):
    assert atlas_groups["GammaL(1,8)"].order == 168
    assert atlas_groups["(C5xC5):SL(2,3)"].order == 600
    from classgraph.graph import build_graph
    assert len(build_graph(atlas_groups["Sigma3"]).vertices) == 2


@pytest.fixture
def empty_atlas_memos(monkeypatch):
    """Both atlas lookups with empty memos; the shared ones return afterwards."""
    monkeypatch.setattr(construct, "atlas_group",
                        lru_cache(maxsize=None)(construct.atlas_group.__wrapped__))
    monkeypatch.setattr(construct, "builtin_atlas",
                        lru_cache(maxsize=1)(construct.builtin_atlas.__wrapped__))


def test_atlas_group_builds_only_its_own_entry(empty_atlas_memos, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("another atlas entry was built")
    for name in ("cyclic", "dihedral", "generalized_quaternion", "semidihedral",
                 "elementary_abelian", "symmetric", "alternating", "direct_product",
                 "semidirect_product", "one_dim_affine_group", "heisenberg3"):
        monkeypatch.setattr(construct, name, refuse)
    built = []
    affine = construct.affine_prime_group

    def recording(*args, **kwargs):
        built.append(args)
        return affine(*args, **kwargs)
    monkeypatch.setattr(construct, "affine_prime_group", recording)
    G = construct.atlas_group("C7:C6")
    assert (G.name, G.order) == ("C7:C6", 42)
    assert construct.atlas_group("C7:C6") is G
    assert built == [(7, 3, "C7:C6")]  # not C7:C3 or C5:C4, made the same way


@pytest.mark.parametrize("atlas_first", [True, False])
def test_atlas_group_is_the_group_the_atlas_lists(empty_atlas_memos, atlas_first):
    first = None if atlas_first else construct.atlas_group("(C5xC5):Q8")
    entries = construct.builtin_atlas()
    for entry in entries:
        assert construct.atlas_group(entry.group.name) is entry.group
    if first is not None:
        assert first in [entry.group for entry in entries]


def test_unknown_atlas_name_raises_a_library_error():
    with pytest.raises(UnknownAtlasGroup) as info:
        construct.atlas_group("Nope")
    assert isinstance(info.value, ClassGraphError) and isinstance(info.value, KeyError)
    assert str(info.value) == "no atlas group named 'Nope'"
    with pytest.raises(KeyError):
        construct.atlas_order("Nope")
    assert construct.atlas_order("(C5xC5):SL(2,3)") == 600


# --- corpus -----------------------------------------------------------------

def test_parse_corpus_basic():
    text = '{"name":"C3","degree":3,"generators":["(1,2,3)"]}\n'
    specs = parse_corpus(text)
    assert len(specs) == 1
    assert specs[0].build().order == 3


def test_parse_corpus_skips_blank_and_comments():
    text = '# comment\n\n{"name":"C2","degree":2,"generators":["(1,2)"]}\n'
    assert len(parse_corpus(text)) == 1


def test_parse_corpus_bad_cycle():
    text = '{"name":"X","degree":3,"generators":["(1,2,9)"]}'
    with pytest.raises(BadCycle):
        parse_corpus(text)


def test_parse_corpus_duplicate_name():
    text = ('{"name":"A","degree":2,"generators":["(1,2)"]}\n'
            '{"name":"A","degree":2,"generators":["(1,2)"]}')
    with pytest.raises(DuplicateName):
        parse_corpus(text)


def test_parse_corpus_syntax_error_has_position():
    with pytest.raises(CorpusSyntaxError) as info:
        parse_corpus('{"name": "A", "degree": }\n')
    assert info.value.line == 1
    assert info.value.column > 1


def test_parse_corpus_missing_field():
    with pytest.raises(CorpusSyntaxError):
        parse_corpus('{"name":"A","generators":[]}')


def test_parse_corpus_rejects_boolean_degree():
    # bool is an int subclass, so a bare isinstance check would accept it
    with pytest.raises(CorpusSyntaxError) as info:
        parse_corpus('{"name":"A","degree":true,"generators":[]}')
    assert info.value.reason == "field 'degree' has wrong type"


def test_corpus_round_trip():
    specs = [
        GroupSpec("C3", 3, ("(1,2,3)",), ("tag1",)),
        GroupSpec("V4", 4, ("(1,2)", "(3,4)"), ()),
        GroupSpec("triv", 2, (), ()),
    ]
    text = serialize_corpus(specs)
    assert parse_corpus(text) == specs
    assert serialize_corpus(parse_corpus(text)) == text


def test_group_to_spec_round_trip(atlas_groups):
    g = atlas_groups["C7:C6"]
    spec = group_to_spec(g, ["roundtrip"])
    rebuilt = spec.build()
    assert rebuilt.order == g.order
    assert sorted(c.size for c in conjugacy_classes(rebuilt)) == \
        sorted(c.size for c in conjugacy_classes(g))
