"""Hypothesis strategies for small random permutation groups."""

from __future__ import annotations

from hypothesis import strategies as st

from classgraph.perm import Permutation


def permutations(degree):
    return st.permutations(range(degree)).map(Permutation)


@st.composite
def generating_sets(draw, max_degree=5, max_gens=3):
    """One to ``max_gens`` permutations of a common degree up to ``max_degree``."""
    degree = draw(st.integers(2, max_degree))
    return draw(st.lists(permutations(degree), min_size=1, max_size=max_gens))
