"""Graph construction, shape classification, triangles, diameter, spans."""

from __future__ import annotations

import hashlib
import math
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given

from classgraph.construct import cyclic, dihedral, direct_product, generalized_quaternion
from classgraph.errors import NoVertices, PreconditionViolated
from classgraph.graph import (ClassGraph, build_graph, central_p_prime_part,
                              coprime_class_span, diameter, is_triangle_free,
                              p_regular_classes, to_dot)
from classgraph.perm import conjugacy_classes
from classgraph.verify import _check_two_complete_components
from oracles import (naive_class_graph_edges, naive_components, naive_diameter, naive_dot,
                     naive_has_triangle, naive_is_triangle_free)
from strategies import graphs_with_twins


def graph_from_edges(n, edges, vertices=None):
    """A ClassGraph on n vertices (stand-ins by default) with these edges, as masks."""
    nb = [0] * n
    for i, j in edges:
        nb[i] |= 1 << j
        nb[j] |= 1 << i
    return ClassGraph(None, (None,) * n if vertices is None else vertices, tuple(nb))


@pytest.fixture(scope="module")
def real_graphs(atlas_groups):
    """Every atlas group at p in {2, 3, 5, None}, and one graph whose masks
    exceed 64 bits: D20 x D52 at p = 3, 124 vertices and 6522 edges."""
    graphs = {(name, p): build_graph(G, p)
              for name, G in atlas_groups.items() for p in (2, 3, 5, None)}
    graphs["D20xD52", 3] = build_graph(direct_product(dihedral(20), dihedral(52)), 3)
    return graphs


def test_p_regular_classes_c7c6(atlas_groups):
    g = atlas_groups["C7:C6"]
    regs = p_regular_classes(g, 2)
    assert sorted(c.element_order for c in regs) == [1, 3, 3, 7]
    removed = [c for c in conjugacy_classes(g) if c not in regs]
    assert sorted(c.element_order for c in removed) == [2, 6, 6]


def test_p_regular_classes_p_not_dividing(atlas_groups):
    g = atlas_groups["Sigma3"]
    assert p_regular_classes(g, 5) == conjugacy_classes(g)


def test_p_regular_classes_p_group():
    q8 = generalized_quaternion(8)
    regs = p_regular_classes(q8, 2)
    assert len(regs) == 1 and regs[0].is_central


def test_build_graph_shapes(atlas_groups):
    expectations = [
        ("Sigma3", None, (2, 3), 0, "a"),
        ("C7:C6", 2, (6, 7, 7), 1, "b"),
        ("C3:C4", 5, (2, 2, 3, 3), 2, "c"),
        ("ES27:Q8", 2, (24,), 0, "d"),
        ("C2x(Q8:C9)", 3, (6, 6), 1, "e"),
        ("(C5xC5):SL(2,3)", 3, (24, 25, 150), 2, "f"),
    ]
    for name, p, sizes, n_edges, shape in expectations:
        g = build_graph(atlas_groups[name], p)
        assert g.vertex_sizes() == sizes, name
        assert len(g.edges) == n_edges, name
        assert g.shape == shape, name


def test_graph_without_prime_equals_nondividing_prime(atlas_groups):
    for name in ["Sigma3", "A4", "C7:C6", "Q8"]:
        G = atlas_groups[name]
        q = 2
        while G.order % q == 0:
            q += 1
        import classgraph.numtheory as nt
        while not nt.is_prime(q):
            q += 1
        plain = build_graph(G)
        at_q = build_graph(G, q)
        assert plain.vertex_sizes() == at_q.vertex_sizes()
        assert plain.neighbours == at_q.neighbours
        assert plain.shape == at_q.shape


def test_edges_match_prime_support(atlas_groups):
    g = build_graph(atlas_groups["Sigma4"])
    for i in range(len(g.vertices)):
        for j in range(i + 1, len(g.vertices)):
            shares = bool(g.vertices[i].prime_support & g.vertices[j].prime_support)
            gcd_edge = math.gcd(g.vertices[i].size, g.vertices[j].size) > 1
            assert shares == gcd_edge == ((i, j) in g.edges)


def test_triangle_free(atlas_groups):
    assert is_triangle_free(build_graph(atlas_groups["(C5xC5):SL(2,3)"], 3))
    s4 = build_graph(atlas_groups["Sigma4"])
    assert not is_triangle_free(s4)
    assert not naive_is_triangle_free([v.size for v in s4.vertices])
    empty = build_graph(generalized_quaternion(8), 2)
    assert len(empty.vertices) == 0
    assert is_triangle_free(empty)


def test_triangle_free_matches_naive(atlas_groups):
    for name, entry in atlas_groups.items():
        for p in (2, 3, 5, None):
            g = build_graph(entry, p)
            assert is_triangle_free(g) == naive_is_triangle_free(
                [v.size for v in g.vertices]), (name, p)


def test_diameter(atlas_groups):
    f_graph = build_graph(atlas_groups["(C5xC5):SL(2,3)"], 3)
    assert diameter(f_graph) == 2
    a_graph = build_graph(atlas_groups["Sigma3"], 5)
    assert diameter(a_graph) is None
    d_graph = build_graph(atlas_groups["ES27:Q8"], 2)
    assert diameter(d_graph) == 0


def test_diameter_matches_naive(atlas_groups):
    for name in ["Sigma4", "GammaL(1,8)", "E16:C15", "(C5xC5):Q8"]:
        g = build_graph(atlas_groups[name], 2)
        edges = naive_class_graph_edges(g.vertex_sizes())
        assert diameter(g) == naive_diameter(len(g.vertices), edges), name


def test_masks_are_symmetric_loop_free_and_match_naive(real_graphs):
    big = real_graphs["D20xD52", 3]
    assert len(big.vertices) == 124 and len(big.edges) == 6522
    for key, g in real_graphs.items():
        nb, n = g.neighbours, len(g.vertices)
        assert len(nb) == n and all(0 <= mask < 1 << n for mask in nb), key
        assert not any(nb[i] >> i & 1 for i in range(n)), key
        assert all(nb[i] >> j & 1 == nb[j] >> i & 1 for i in range(n) for j in range(n)), key
        assert g.edges == naive_class_graph_edges(g.vertex_sizes()), key


def test_dot_matches_naive_on_real_graphs(real_graphs):
    for key, g in real_graphs.items():
        assert to_dot(g) == naive_dot(g.vertices, naive_class_graph_edges(g.vertex_sizes())), key


@given(graphs_with_twins())
@example((1, frozenset()))
@example((2, frozenset()))
@example((5, frozenset({(0, 1), (0, 2), (1, 2), (3, 4)})))  # disconnected, twins 1 and 2
@example((5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)})))  # twins 3 and 4
@example((6, frozenset({(0, 1), (0, 2), (0, 5), (1, 4), (2, 3)})))  # leaves 3, 5 differ
def test_diameter_matches_naive_with_twins(graph):
    n, edges = graph
    g = graph_from_edges(n, edges)
    assert diameter(g) == naive_diameter(n, edges)


@given(graphs_with_twins())
@example((4, frozenset({(0, 1), (2, 3)})))  # two complete components
@example((5, frozenset({(0, 1), (2, 3), (3, 4)})))  # the second one a path
@example((6, frozenset({(0, 1), (2, 3), (4, 5)})))  # three components
def test_mask_queries_match_naive(graph):
    n, edges = graph
    g = graph_from_edges(n, edges)
    assert g.edges == edges
    comps = naive_components(n, edges)
    assert g.components == comps
    assert is_triangle_free(g) == (not naive_has_triangle(n, edges))
    assert diameter(g) == naive_diameter(n, edges)
    cliques = all((a, b) in edges for c in comps for a, b in combinations(c, 2))
    two_complete = len(comps) <= 1 or (len(comps) == 2 and cliques)
    assert _check_two_complete_components(g)[0] == two_complete


def test_adjacency_built_once_and_not_part_of_the_value(atlas_groups, monkeypatch):
    derived = ("edges", "components", "shape")
    builds = []
    for name in derived:
        build = getattr(ClassGraph, name).func
        monkeypatch.setattr(getattr(ClassGraph, name), "func",
                            lambda self, name=name, build=build:
                            builds.append(name) or build(self))
    g = build_graph(atlas_groups["Sigma4"], 5)  # connected, diameter 2
    assert not builds  # nothing is derived until a query reads it
    edges = naive_class_graph_edges(g.vertex_sizes())
    assert is_triangle_free(g) == naive_is_triangle_free(g.vertex_sizes())
    assert diameter(g) == naive_diameter(len(g.vertices), edges)
    assert to_dot(g) == naive_dot(g.vertices, edges)
    assert builds == ["components"]  # the queries read the masks, not the edges
    assert g.components == naive_components(len(g.vertices), edges)
    assert g.edges == edges and g.shape == "other"
    for name in derived:
        assert getattr(g, name) is getattr(g, name)
    assert builds == ["components", "edges", "shape"]
    bare = ClassGraph(g.prime, g.vertices, g.neighbours)
    assert not set(derived) & vars(bare).keys()
    assert bare == g and hash(bare) == hash(g) and repr(bare) == repr(g)
    assert "edges" not in repr(g)
    with pytest.raises(TypeError):  # they follow from the masks; no caller sets them
        ClassGraph(g.prime, g.vertices, g.neighbours, g.edges)
    for name in derived:
        with pytest.raises(TypeError):
            ClassGraph(g.prime, g.vertices, g.neighbours, **{name: getattr(g, name)})


def test_components_partition(atlas_groups):
    g = build_graph(atlas_groups["C3:C4"], 5)
    assert sorted(v for comp in g.components for v in comp) == [0, 1, 2, 3]
    assert len(g.components) == 2


def test_coprime_span_c7c6(atlas_groups):
    span = coprime_class_span(atlas_groups["C7:C6"], 2)
    assert span.max_class.size == 7
    assert span.span.order == 7
    assert span.span.is_abelian()


def test_coprime_span_contains_central_part(atlas_groups):
    # all non-central sizes share a prime, so the span is exactly Z(G)_{p'}
    G = atlas_groups["C2x(Q8:C9)"]
    span = coprime_class_span(G, 3)
    zp = central_p_prime_part(G, 3)
    assert span.span.element_set() == zp.element_set()
    assert span.span.order == 4


def test_central_p_prime_part_refuses_a_non_prime():
    # like every function of one prime: not the elements of order prime to 4
    with pytest.raises(PreconditionViolated, match="^4 is not prime$"):
        central_p_prime_part(cyclic(12), 4)


def test_coprime_span_e25_sigma3(atlas_groups):
    G = atlas_groups["E25:Sigma3"]
    span = coprime_class_span(G, 5).span
    assert span.is_abelian()
    assert math.gcd(span.order, 5) == 1
    for s in span.generators:
        for g in G.generators:
            assert s.conjugate(g) in span


def test_coprime_span_no_vertices():
    with pytest.raises(NoVertices):
        coprime_class_span(generalized_quaternion(8), 2)
    with pytest.raises(NoVertices):
        coprime_class_span(cyclic(6), 5)


def test_dot_export_golden(atlas_groups):
    g = build_graph(atlas_groups["C7:C6"], 2)
    expected = (
        'graph gamma {\n'
        '  "v6_0" [label="size=6, ord=7"];\n'
        '  "v7_1" [label="size=7, ord=3"];\n'
        '  "v7_2" [label="size=7, ord=3"];\n'
        '  "v7_1" -- "v7_2";\n'
        '}\n'
    )
    assert to_dot(g) == expected


@given(graphs_with_twins())
@example((0, frozenset()))
@example((1, frozenset()))
@example((4, frozenset()))  # no edges
@example((3, frozenset({(0, 2), (1, 2)})))
def test_dot_matches_naive(graph):
    n, edges = graph
    vertices = tuple(SimpleNamespace(size=2 + i % 3, element_order=i + 1) for i in range(n))
    assert to_dot(graph_from_edges(n, edges, vertices)) == naive_dot(vertices, edges)


def test_dot_bytes_pinned(atlas_groups):
    # the same bytes as `classgraph graph` pins in CI: degree 216 and 600
    for name, p, digest in [
            ("ES27:Q8", 5, "29d86d361bc774c2a8221a0598c189f08da727502294ba2e5abdbd2a5a9ca223"),
            ("(C5xC5):SL(2,3)", 7,
             "c47d8527de8b661a56e1bc9883d51d93412fa98f36ba41dc16cca5315622da6b")]:
        dot = to_dot(build_graph(atlas_groups[name], p))
        assert hashlib.sha256(dot.encode()).hexdigest() == digest, name


def test_dot_export_stable(atlas_groups):
    g1 = to_dot(build_graph(atlas_groups["Sigma4"]))
    g2 = to_dot(build_graph(atlas_groups["Sigma4"]))
    assert g1 == g2
    assert g1.startswith("graph gamma {")
