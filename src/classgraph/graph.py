"""The common-divisor graph on conjugacy classes and its analysis.

Vertices are non-central classes (restricted to p-regular representatives
when a prime is given); two vertices are adjacent when their sizes share a
prime.  Graphs at this scale are analyzed by direct enumeration.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, compress

from .errors import NoVertices
from .numtheory import require_primes
from .perm import ConjClass, Group, center, conjugacy_classes, subgroup_from_elements
from .structure import normal_closure


@dataclass(frozen=True)
class ClassGraph:
    """A class graph: its vertices and, per vertex, a bitmask of its neighbours.

    ``neighbours[i]`` has bit j set when vertices i and j are adjacent; the
    masks are symmetric and no vertex is its own neighbour.  ``edges``,
    ``components`` and ``shape`` are computed from the masks on first read
    and cached; they are not part of the value.
    Shapes: (a) two isolated vertices, (b) three vertices and one edge,
    (c) two disjoint edges, (d) one vertex, (e) one edge on two vertices,
    (f) a path on three vertices; anything else is "other".
    """

    prime: int | None
    vertices: tuple[ConjClass, ...]
    neighbours: tuple[int, ...]

    def vertex_sizes(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.vertices)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The pairs (i, j), i < j, of adjacent vertices."""
        ids = range(len(self.neighbours))
        return frozenset((i, j) for i in ids for j in _higher(self.neighbours, i, ids))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the components, each sorted, by least vertex."""
        nb = self.neighbours
        comps = []
        unseen = (1 << len(nb)) - 1
        while unseen:
            comp = frontier = unseen & -unseen
            while frontier:
                frontier = _reach(nb, frontier) & ~comp
                comp |= frontier
            unseen &= ~comp
            comps.append(tuple(v for v in range(len(nb)) if comp >> v & 1))
        return tuple(comps)

    @cached_property
    def shape(self) -> str:
        n, comps = len(self.vertices), self.components
        ne = sum(mask.bit_count() for mask in self.neighbours) // 2
        if n == 1:
            return "d"
        if n == 2:
            return "a" if ne == 0 else "e"
        if n == 3 and ne == 1 and len(comps) == 2:
            return "b"
        if n == 3 and ne == 2 and len(comps) == 1:
            return "f"
        if n == 4 and ne == 2 and all(len(c) == 2 for c in comps):
            return "c"
        return "other"


_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _higher(nb: tuple[int, ...], i: int, ids: Sequence) -> Iterator:
    """``ids[j]`` for each neighbour j > i of vertex i, in increasing order of j.

    The bits of ``nb[i] >> (i + 1)``, least first, are read in C: ``bin``
    reversed, translated to 0/1 bytes, selecting from ``ids[i + 1:]``.
    """
    return compress(ids[i + 1:], bin(nb[i] >> i + 1)[:1:-1].encode().translate(_BIT))


def _reach(nb: tuple[int, ...], frontier: int) -> int:
    """The union of the neighbourhoods of the vertices in ``frontier``."""
    out = 0
    for v, mask in enumerate(nb):
        if frontier >> v & 1:
            out |= mask
    return out


def p_regular_classes(G: Group, p: int) -> tuple[ConjClass, ...]:
    """Classes whose representatives have order coprime to p, central included."""
    require_primes(p)
    return tuple(c for c in conjugacy_classes(G) if c.element_order % p != 0)


def build_graph(G: Group, p: int | None = None) -> ClassGraph:
    """The common-divisor graph on non-central classes (p-regular if p given)."""
    if p is None:
        verts = tuple(c for c in conjugacy_classes(G) if not c.is_central)
    else:
        verts = tuple(c for c in p_regular_classes(G, p) if not c.is_central)
    # adjacency depends only on the size: OR each size's vertices into one
    # mask, join the masks of sizes that share a prime, and drop the own bit
    by_size: dict[int, int] = {}
    for i, v in enumerate(verts):
        by_size[v.size] = by_size.get(v.size, 0) | 1 << i
    adjacent = dict.fromkeys(by_size, 0)
    for a, b in combinations_with_replacement(by_size, 2):
        if math.gcd(a, b) > 1:
            adjacent[a] |= by_size[b]
            adjacent[b] |= by_size[a]
    nb = tuple(adjacent[v.size] & ~(1 << i) for i, v in enumerate(verts))
    return ClassGraph(prime=p, vertices=verts, neighbours=nb)


def is_triangle_free(g: ClassGraph) -> bool:
    """True iff no edge's ends have a common neighbour."""
    nb = g.neighbours
    return not any(any(map(nb[i].__and__, _higher(nb, i, nb))) for i in range(len(nb)))


def diameter(g: ClassGraph) -> int | None:
    """Max shortest-path distance when connected and non-empty, else None.

    Twins (equal closed neighbourhoods) have equal eccentricity, so one
    breadth-first search per twin class suffices; each step expands the
    whole frontier at once.
    """
    n = len(g.vertices)
    if n == 0 or len(g.components) != 1:
        return None
    nb = g.neighbours
    twins = {nb[v] | 1 << v: v for v in range(n)}
    worst = 0
    for src in twins.values():
        seen = frontier = 1 << src
        ecc = -1
        while frontier:
            ecc += 1
            frontier = _reach(nb, frontier) & ~seen
            seen |= frontier
        worst = max(worst, ecc)
    return worst


@dataclass(frozen=True)
class CoprimeSpan:
    """The subgroup spanned by classes whose sizes are coprime to a maximal one."""

    span: Group
    max_class: ConjClass


def coprime_class_span(G: Group, p: int) -> CoprimeSpan:
    """The subgroup generated by the p-regular classes of size coprime to |B0|.

    B0 is the first non-central p-regular class of maximal size in class
    order.  Central p-regular classes have size 1 and always count, so the
    span contains the p'-part of the center.  A union of whole classes
    generates a normal subgroup: the normal closure of the representatives.
    """
    regs = p_regular_classes(G, p)
    noncentral = [c for c in regs if not c.is_central]
    if not noncentral:
        raise NoVertices(f"no non-central p-regular classes in {G.name!r} at p={p}")
    best = max(c.size for c in noncentral)
    max_class = next(c for c in noncentral if c.size == best)
    reps = [cls.representative for cls in regs
            if math.gcd(cls.size, max_class.size) == 1]
    return CoprimeSpan(span=normal_closure(G, reps, f"S({G.name},{p})"),
                       max_class=max_class)


def central_p_prime_part(G: Group, p: int) -> Group:
    """The p-complement of the center of G."""
    require_primes(p)
    z = center(G)
    elems = [g for g in z.elements if g.order() % p != 0]
    return subgroup_from_elements(G, elems, f"Z({G.name})_{p}'")


def to_dot(g: ClassGraph) -> str:
    """DOT export of graph ``gamma`` with stable vertex identifiers v<size>_<index>."""
    lines = ["graph gamma {"]
    ids = [f'"v{v.size}_{idx}"' for idx, v in enumerate(g.vertices)]
    for vid, v in zip(ids, g.vertices):
        lines.append(f'  {vid} [label="size={v.size}, ord={v.element_order}"];')
    nb = g.neighbours
    for i, vid in enumerate(ids):
        joined = f";\n  {vid} -- ".join(_higher(nb, i, ids))
        if joined:
            lines.append(f"  {vid} -- {joined};")
    lines.append("}")
    return "\n".join(lines) + "\n"
