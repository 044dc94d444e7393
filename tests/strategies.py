"""Hypothesis strategies for small random permutation groups."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from classgraph.perm import Permutation, make_group


def permutations(degree):
    return st.permutations(range(degree)).map(Permutation)


@st.composite
def generating_sets(draw, max_degree=5, max_gens=3):
    """One to ``max_gens`` permutations of a common degree up to ``max_degree``."""
    degree = draw(st.integers(2, max_degree))
    return draw(st.lists(permutations(degree), min_size=1, max_size=max_gens))


@st.composite
def split_generating_sets(draw):
    """Generators of a direct product on disjoint points, relabelled so that
    the factors' points interleave.

    The first two factors come from ``generating_sets`` (so a factor may
    split again, or be trivial); a third, when drawn, is one permutation or
    the identity on up to three points.  Orders stay at most 24 * 6 * 3.
    """
    factors = [draw(generating_sets(max_degree=4)), draw(generating_sets(max_degree=3))]
    if draw(st.booleans()):
        factors.append([draw(permutations(draw(st.integers(1, 3))))])
    gens = side_by_side(factors)
    sigma = draw(permutations(gens[0].degree))
    return [g.conjugate(sigma) for g in gens]


def side_by_side(factors):
    """The generators of each factor, each factor's on its own points after
    the previous factor's."""
    degree = sum(f[0].degree for f in factors)
    gens, offset = [], 0
    for f in factors:
        d = f[0].degree
        gens += [Permutation(list(range(offset)) + [offset + i for i in g.images]
                             + list(range(offset + d, degree))) for g in f]
        offset += d
    return gens


@st.composite
def graphs_with_twins(draw, max_base=5, max_vertices=8):
    """(n, edges) on a random graph with some vertices copied as twins.

    A copy gets its original's neighbours and, when drawn adjacent, an edge
    to the original too (equal closed neighbourhoods); otherwise it is a
    non-adjacent twin with the same open neighbourhood.
    """
    n = draw(st.integers(1, max_base))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {e for e in pairs if draw(st.booleans())}
    for _ in range(draw(st.integers(0, max_vertices - n))):
        v = draw(st.integers(0, n - 1))
        edges |= {(u, n) for u in range(n) if (min(u, v), max(u, v)) in edges}
        if draw(st.booleans()):
            edges.add((v, n))
        n += 1
    return n, frozenset(edges)


def relabelled(G):
    """G with its points renamed by a fixed shuffle, built again from the
    renamed generators."""
    points = list(range(G.degree))
    random.Random(1).shuffle(points)
    c = Permutation(points)
    return make_group([g.conjugate(c) for g in G.generators], f"{G.name}^c")
