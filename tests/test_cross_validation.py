"""Cross-checks against an independent permutation-group implementation.

These tests compare orders, class structure, centers, solubility, Sylow
orders and isomorphism with sympy's combinatorics machinery, which shares
no code with this package.  They are skipped when sympy is unavailable.
"""

from __future__ import annotations

from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from sympy.combinatorics import Permutation as SymPerm  # noqa: E402
from sympy.combinatorics import PermutationGroup  # noqa: E402
from sympy.combinatorics.homomorphisms import is_isomorphic as sympy_is_isomorphic  # noqa: E402

from classgraph.numtheory import prime_factors  # noqa: E402
from classgraph.perm import center, conjugacy_classes  # noqa: E402
from classgraph.structure import is_isomorphic, is_soluble, sylow  # noqa: E402
from strategies import relabelled  # noqa: E402


def to_sympy(G):
    if not G.generators:
        return PermutationGroup([SymPerm(list(range(G.degree)))])
    return PermutationGroup([SymPerm(list(g.images)) for g in G.generators])


def test_orders_match(atlas_groups):
    for G in atlas_groups.values():
        assert to_sympy(G).order() == G.order, G.name


def test_class_sizes_match(atlas_groups):
    for G in atlas_groups.values():
        theirs = sorted(len(c) for c in to_sympy(G).conjugacy_classes())
        mine = sorted(c.size for c in conjugacy_classes(G))
        assert theirs == mine, G.name


def test_centers_match(atlas_groups):
    for G in atlas_groups.values():
        assert to_sympy(G).center().order() == center(G).order, G.name


def test_solubility_matches(atlas_groups):
    for G in atlas_groups.values():
        assert to_sympy(G).is_solvable == is_soluble(G)[0], G.name
    from classgraph.construct import alternating
    a5 = alternating(5)
    assert to_sympy(a5).is_solvable is False
    assert not is_soluble(a5)[0]


def test_sylow_orders_match(atlas_groups):
    for name in ["Sigma4", "C7:C6", "GammaL(1,8)", "E16:C15", "Q8:C9"]:
        G = atlas_groups[name]
        sg = to_sympy(G)
        for p in prime_factors(G.order):
            assert sg.sylow_subgroup(p).order() == sylow(G, p).order, (name, p)


def test_element_order_profile_matches(atlas_groups):
    for name in ["D12", "C3:C4", "ES27:Q8", "(C5xC5):Q8"]:
        G = atlas_groups[name]
        sg = to_sympy(G)
        theirs = sorted(p.order() for p in sg.elements)
        mine = sorted(g.order() for g in G.elements)
        assert theirs == mine, name


# sympy maps the first group's generators onto every tuple of the second
# group's elements, so each call is hundreds of ms at order 72 with two or
# three generators.  E9:Q8 has four: its relabelled copy takes sympy about
# 10 s, and GammaL(1,8) and E25:Sigma3 3-6 s, so those comparisons are left
# out.  Each group goes to sympy with its own generators: sympy 1.14 answers
# False for A4 against A4 generated by (0,3,2) and (1,2,3).
@pytest.mark.parametrize("trio", [("A4", "D12", "C3:C4"), ("E9:C8", "E9:Q8", "Q8:C9")])
def test_isomorphism_matches(atlas_groups, trio):
    groups = [atlas_groups[name] for name in trio]
    pairs = [*combinations(groups, 2), *((A, relabelled(A)) for A in groups if A.name != "E9:Q8")]
    for A, B in pairs:
        theirs = sympy_is_isomorphic(to_sympy(A), to_sympy(B))
        assert is_isomorphic(A, B) == is_isomorphic(B, A) == theirs, (A.name, B.name)
