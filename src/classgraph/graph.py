"""The common-divisor graph on conjugacy classes and its analysis.

Vertices are non-central classes (restricted to p-regular representatives
when a prime is given); two vertices are adjacent when their sizes share a
prime.  Graphs at this scale are analyzed by direct enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NoVertices, PreconditionViolated
from .numtheory import is_prime
from .perm import ConjClass, Group, center, conjugacy_classes, subgroup_from_elements
from .structure import normal_closure

SHAPES = ("a", "b", "c", "d", "e", "f", "other")


@dataclass(frozen=True)
class ClassGraph:
    """An analyzed class graph: vertices, edges, components, and shape code.

    Shapes: (a) two isolated vertices, (b) three vertices and one edge,
    (c) two disjoint edges, (d) one vertex, (e) one edge on two vertices,
    (f) a path on three vertices; anything else is "other".
    """

    prime: int | None
    vertices: tuple[ConjClass, ...]
    edges: frozenset[tuple[int, int]]
    components: tuple[tuple[int, ...], ...]
    shape: str
    # built at most once and shared by every query; not part of the value
    adjacency_cache: dict[int, set[int]] | None = field(
        default=None, init=False, compare=False, repr=False)

    def vertex_sizes(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.vertices)

    def adjacency(self) -> dict[int, set[int]]:
        """Vertex -> neighbour set; one shared map, not to be mutated."""
        if self.adjacency_cache is None:
            object.__setattr__(self, "adjacency_cache",
                               _adjacency(len(self.vertices), self.edges))
        return self.adjacency_cache

    def is_connected(self) -> bool:
        return len(self.components) <= 1


def p_regular_classes(G: Group, p: int) -> tuple[ConjClass, ...]:
    """Classes whose representatives have order coprime to p, central included."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    return tuple(c for c in conjugacy_classes(G) if c.element_order % p != 0)


def _adjacency(n: int, edges: frozenset[tuple[int, int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _components(adj: dict[int, set[int]]) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    comps = []
    for start in range(len(adj)):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _shape(n: int, edges: frozenset[tuple[int, int]],
           comps: tuple[tuple[int, ...], ...]) -> str:
    ne = len(edges)
    nc = len(comps)
    if n == 1:
        return "d"
    if n == 2:
        return "a" if ne == 0 else "e"
    if n == 3 and ne == 1 and nc == 2:
        return "b"
    if n == 3 and ne == 2 and nc == 1:
        return "f"
    if n == 4 and ne == 2 and nc == 2 and all(len(c) == 2 for c in comps):
        return "c"
    return "other"


def build_graph(G: Group, p: int | None = None) -> ClassGraph:
    """The common-divisor graph on non-central classes (p-regular if p given)."""
    if p is None:
        verts = tuple(c for c in conjugacy_classes(G) if not c.is_central)
    else:
        verts = tuple(c for c in p_regular_classes(G, p) if not c.is_central)
    edges = set()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if math.gcd(verts[i].size, verts[j].size) > 1:
                edges.add((i, j))
    fedges = frozenset(edges)
    adj = _adjacency(len(verts), fedges)
    comps = _components(adj)
    g = ClassGraph(prime=p, vertices=verts, edges=fedges, components=comps,
                   shape=_shape(len(verts), fedges, comps))
    object.__setattr__(g, "adjacency_cache", adj)
    return g


def is_triangle_free(g: ClassGraph) -> bool:
    """True iff no three vertices are pairwise adjacent."""
    adj = g.adjacency()
    for i, j in sorted(g.edges):
        if adj[i] & adj[j]:
            return False
    return True


def diameter(g: ClassGraph) -> int | None:
    """Max shortest-path distance when connected and non-empty, else None.

    Twins (equal closed neighbourhoods) have equal eccentricity, so one
    breadth-first search per twin class suffices.
    """
    n = len(g.vertices)
    if n == 0 or len(g.components) != 1:
        return None
    adj = g.adjacency()
    twins = {frozenset(adj[v] | {v}): v for v in range(n)}
    worst = 0
    for src in twins.values():
        dist = {src: 0}
        frontier = [src]
        while frontier:
            new = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        new.append(w)
            frontier = new
        if len(dist) < n:
            return None
        worst = max(worst, max(dist.values()))
    return worst


@dataclass(frozen=True)
class CoprimeSpan:
    """The subgroup spanned by classes whose sizes are coprime to a maximal one."""

    span: Group
    max_class: ConjClass


def coprime_class_span(G: Group, p: int, *,
                       max_class: ConjClass | None = None) -> CoprimeSpan:
    """The subgroup generated by the p-regular classes of size coprime to |B0|.

    B0 is a non-central p-regular class of maximal size (ties broken by the
    deterministic class order) unless one is supplied.  Central p-regular
    classes have size 1 and are always included, so the span contains the
    p'-part of the center.  A union of whole classes generates a normal
    subgroup, so the span is the normal closure of the representatives.
    """
    regs = p_regular_classes(G, p)
    noncentral = [c for c in regs if not c.is_central]
    if not noncentral:
        raise NoVertices(f"no non-central p-regular classes in {G.name!r} at p={p}")
    if max_class is None:
        best = max(c.size for c in noncentral)
        max_class = next(c for c in noncentral if c.size == best)
    reps = [cls.representative for cls in regs
            if math.gcd(cls.size, max_class.size) == 1]
    return CoprimeSpan(span=normal_closure(G, reps, f"S({G.name},{p})"),
                       max_class=max_class)


def central_p_prime_part(G: Group, p: int) -> Group:
    """The p-complement of the center of G."""
    z = center(G)
    elems = [g for g in z.elements if g.order() % p != 0]
    return subgroup_from_elements(elems, f"Z({G.name})_{p}'")


def to_dot(g: ClassGraph, graph_name: str = "gamma") -> str:
    """DOT export with stable vertex identifiers v<size>_<index>."""
    lines = [f"graph {graph_name} {{"]
    for idx, v in enumerate(g.vertices):
        lines.append(f'  "v{v.size}_{idx}" [label="size={v.size}, '
                     f'ord={v.element_order}"];')
    for i, j in sorted(g.edges):
        vi, vj = g.vertices[i], g.vertices[j]
        lines.append(f'  "v{vi.size}_{i}" -- "v{vj.size}_{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
