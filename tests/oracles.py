"""Naive reference implementations used as independent oracles in tests.

Everything here works by exhaustive scans over full element sets, with no
generator-based shortcuts, so the library's BFS/orbit algorithms are
checked against a different computation path.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

from classgraph.errors import NotAMember
from classgraph.perm import Permutation


def naive_compose(a, b):
    """a * b (apply a first), one point at a time."""
    images = []
    for x in range(a.degree):
        images.append(b.images[a.images[x]])
    return Permutation(images)


def naive_conjugate(x, g):
    """g^-1 * x * g, as the relabelling that sends g(i) to g(x(i))."""
    images = [None] * x.degree
    for i in range(x.degree):
        images[g.images[i]] = g.images[x.images[i]]
    return Permutation(images)


def naive_layered_closure(gens, degree):
    """The elements of <gens> listed breadth-first over right multiplication
    by the generators, each new layer sorted, multiplied with naive_compose."""
    elements = [Permutation(range(degree))]
    seen = set(elements)
    frontier = elements
    while frontier:
        frontier = sorted({naive_compose(x, g) for x in frontier for g in gens} - seen)
        seen.update(frontier)
        elements = elements + frontier
    return elements


def naive_closure(gens):
    """Repeated pairwise multiplication until stable."""
    if not gens:
        return set()
    elems = {Permutation.identity(gens[0].degree)} | set(gens)
    while True:
        new = {a * b for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def naive_normal_closure(g_elements, seeds):
    """Closure of every conjugate of every seed by every group element."""
    return naive_closure([g.inverse() * x * g for x in seeds for g in g_elements])


def naive_extend_hom(gens, images):
    """The map gens[i] -> images[i] read off the subgroup of A x B that the
    pairs (gens[i], images[i]) generate; None when that subgroup is not the
    graph of a map, i.e. the assignment is not a homomorphism."""
    da = gens[0].degree
    pairs = [Permutation(list(g.images) + [da + i for i in h.images])
             for g, h in zip(gens, images)]
    hom = {}
    for x in naive_closure(pairs):
        a = Permutation(x.images[:da])
        b = Permutation([i - da for i in x.images[da:]])
        if hom.setdefault(a, b) != b:
            return None
    return hom


def naive_greedy_base(elements, degree):
    """The points, in order, whose images split elements that the points
    before them do not: each point's trial key list over all the elements."""
    base, keys, distinct = [], [()] * len(elements), 1
    for b in range(degree):
        trial = [k + (x.images[b],) for k, x in zip(keys, elements)]
        if len(set(trial)) > distinct:
            base.append(b)
            keys, distinct = trial, len(set(trial))
    return tuple(base)


def naive_element_order(g):
    """Direct iteration: multiply until the identity appears."""
    ident = Permutation.identity(g.degree)
    power = g
    n = 1
    while power != ident:
        power = power * g
        n += 1
    return n


def naive_conjugacy_classes(elements):
    """Conjugation table over all pairs; returns a list of frozensets."""
    elements = set(elements)
    classes = []
    remaining = set(elements)
    while remaining:
        x = next(iter(remaining))
        cls = frozenset(g.inverse() * x * g for g in elements)
        classes.append(cls)
        remaining -= cls
    return classes


def naive_orbit_walk(elements, gens, start):
    """The positions in ``elements`` of the class of elements[start], walked
    breadth first: each position's conjugates g^-1 * x * g by ``gens`` in
    order (naive_conjugate), each appended when first met."""
    pos = {x: i for i, x in enumerate(elements)}
    orbit = [start]
    for y in orbit:
        for g in gens:
            z = pos[naive_conjugate(elements[y], g)]
            if z not in orbit:
                orbit.append(z)
    return orbit


def naive_class_sizes(elements):
    return sorted(len(c) for c in naive_conjugacy_classes(elements))


def naive_coprime_commuting_counts(elements, sample):
    """(pairs, failures) over sample x sample: the commuting pairs x, y of
    coprime orders, and those where |cl(x)| or |cl(y)| does not divide
    |cl(xy)|; every product is formed with naive_compose."""
    size = {g: len(c) for c in naive_conjugacy_classes(elements) for g in c}
    order = {g: naive_element_order(g) for g in sample}
    pairs = failures = 0
    for x in sample:
        for y in sample:
            if math.gcd(order[x], order[y]) != 1:
                continue
            xy = naive_compose(x, y)
            if xy != naive_compose(y, x):
                continue
            pairs += 1
            if size[xy] % size[x] or size[xy] % size[y]:
                failures += 1
    return pairs, failures


def naive_class_product(elements, A, B):
    """The conjugacy classes of the group on ``elements`` that the products
    a*b, a in A and b in B, meet; every product formed with naive_compose."""
    classes = naive_conjugacy_classes(elements)
    products = {naive_compose(a, b) for a in A for b in B}
    return {c for c in classes if c & products}


@functools.lru_cache(maxsize=4)
def _naive_class_sizes_of(elements):
    """|cl(x)| for every x of the group on the frozenset ``elements``; kept
    for a few groups, so that every N of one G reuses G's classes."""
    return {x: len(c) for c in naive_conjugacy_classes(elements) for x in c}


def naive_normal_class_sizes(g_elements, n_elements):
    """(sizes, failures) for N normal in G: |cl_N(x)| for every x in N, read
    from N's own classes, and the number of x in N whose |cl_N(x)| does not
    divide |cl_G(x)|."""
    g_size = _naive_class_sizes_of(frozenset(g_elements))
    sizes = dict(_naive_class_sizes_of(frozenset(n_elements)))
    failures = sum(1 for x, n in sizes.items() if g_size[x] % n)
    return sizes, failures


def naive_sylow_conjugates(generators, sylow_elements):
    """The distinct conjugates g^-1 P g of one Sylow subgroup P, walked
    breadth-first from P by conjugating with G's generators, every element
    conjugated with naive_conjugate."""
    conjugates = frontier = {frozenset(sylow_elements)}
    while frontier:
        frontier = {frozenset(naive_conjugate(x, g) for x in S)
                    for S in frontier for g in generators} - conjugates
        conjugates = conjugates | frontier
    return conjugates


def naive_centralizer(elements, x):
    return {g for g in elements if g * x == x * g}


def centralizer_order(G, x):
    """|C_G(x)| by counting the elements of G that commute with x."""
    if x not in G:
        raise NotAMember(f"element is not in {G.name!r}")
    return sum(1 for g in G.elements if g.commutes_with(x))


def naive_center(elements):
    elements = set(elements)
    return {g for g in elements if all(g * h == h * g for h in elements)}


def naive_is_normal(g_elements, n_elements):
    n_set = set(n_elements)
    return all(g.inverse() * x * g in n_set for x in n_set for g in g_elements)


def naive_derived_subgroup(elements):
    comms = [(a.inverse() * b.inverse()) * (a * b)
             for a in elements for b in elements]
    return naive_closure(comms)


def naive_is_triangle_free(sizes):
    """Triple loop over vertex sizes with pairwise gcd tests."""
    for a, b, c in combinations(sizes, 3):
        if math.gcd(a, b) > 1 and math.gcd(b, c) > 1 and math.gcd(a, c) > 1:
            return False
    return True


def naive_class_graph_edges(sizes):
    """The pairs (i, j), i < j, whose sizes share a prime: one gcd per pair."""
    return frozenset((i, j) for i, j in combinations(range(len(sizes)), 2)
                     if math.gcd(sizes[i], sizes[j]) > 1)


def naive_dot(vertices, edges):
    """DOT text of graph gamma with ids v<size>_<index>: the vertices, then the
    sorted edges."""
    lines = ["graph gamma {"]
    ids = [f'"v{v.size}_{idx}"' for idx, v in enumerate(vertices)]
    for vid, v in zip(ids, vertices):
        lines.append(f'  {vid} [label="size={v.size}, ord={v.element_order}"];')
    for i, j in sorted(edges):
        lines.append(f"  {ids[i]} -- {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def naive_diameter(n, edges):
    """Floyd-Warshall; None if empty or disconnected."""
    if n == 0:
        return None
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i, j in edges:
        dist[i][j] = dist[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    worst = max(max(row) for row in dist)
    return None if worst == inf else int(worst)


def naive_components(n, edges):
    """Vertex sets of the components, each sorted, by least vertex: every
    vertex takes the least label among its neighbours until none changes."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    return tuple(tuple(v for v in range(n) if label[v] == root)
                 for root in sorted(set(label)))


def naive_has_triangle(n, edges):
    """Whether some three vertices are pairwise joined, over all triples."""
    edges = set(edges)
    return any({(a, b), (a, c), (b, c)} <= edges
               for a, b, c in combinations(range(n), 3))


def _strip_primes(n, primes):
    """n with every factor from ``primes`` divided out."""
    for q in primes:
        while n % q == 0:
            n //= q
    return n


def naive_normal_subgroups(elements):
    """Every normal subgroup, as a frozenset: the unions of conjugacy classes
    that contain the identity, have size dividing |G| and are closed under
    multiplication."""
    elements = list(elements)
    ident = Permutation.identity(elements[0].degree)
    classes = [c for c in naive_conjugacy_classes(elements) if ident not in c]
    out = []
    for k in range(len(classes) + 1):
        for combo in combinations(classes, k):
            U = frozenset({ident}.union(*combo))
            if len(elements) % len(U) == 0 and all(a * b in U for a in U for b in U):
                out.append(U)
    return out


def naive_pi_core_over(elements, primes, N):
    """The largest normal subgroup M >= N with |M:N| a pi-number."""
    N = frozenset(N)
    return max((M for M in naive_normal_subgroups(elements)
                if N <= M and _strip_primes(len(M) // len(N), primes) == 1), key=len)


def naive_is_p_separable(elements, p):
    """Every factor of a maximal chain of normal subgroups (a chief series,
    climbed one smallest step at a time) has p-power order or order prime
    to p."""
    normals = sorted(naive_normal_subgroups(elements), key=len)
    cur = normals[0]
    while len(cur) < len(normals[-1]):
        nxt = next(M for M in normals if cur < M)
        index = len(nxt) // len(cur)
        if index % p == 0 and _strip_primes(index, (p,)) != 1:
            return False
        cur = nxt
    return True
