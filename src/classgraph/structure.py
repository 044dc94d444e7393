"""Structural subgroup machinery: solubility, Sylow/Hall subgroups, cores,
separability, quotients, normal subgroups, and isomorphism testing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, NamedTuple

from .errors import (HallSearchExhausted, IsoCapExceeded, LatticeCapExceeded,
                     NotAHomomorphism, NotASubgroup, NotNormal, PreconditionViolated)
from .numtheory import is_pi_number, is_prime, pi_part, prime_factors
from .perm import (Group, Permutation, _images, bulk_conjugate, center, class_elements,
                   class_index, closed_subgroup, conjugacy_classes, conjugation_maps,
                   element_order_map, extend_hom, generating_set, make_group, mulclose,
                   require_members)

ISO_CAP = 1024
LATTICE_CAP = 10000


@dataclass(frozen=True)
class HallSearchConfig:
    """Kept only for ``bench/worker.py``, which builds one and passes it to
    ``run_corpus``; it has no effect, since every subgroup search is one
    deterministic greedy pass."""

    seed: int


@dataclass(frozen=True)
class SeriesCertificate:
    """A witness series: derived series or an alternating core series.

    For a positive certificate the terms strictly descend from G to the
    trivial group.  ``step_labels`` tags each factor of a core series as a
    p-group or p'-group; it is empty for derived series.
    """

    kind: str  # "derived_series" | "core_series"
    terms: tuple[Group, ...]
    step_labels: tuple[str, ...] = ()


class Quotient(NamedTuple):
    group: Group
    projection: dict[Permutation, Permutation]


# ---------------------------------------------------------------------------
# normal closures

def _generator_conjugations(G: Group) -> list:
    """``conjugation_maps(G.generators)``, made once per group."""
    return G._memo("conjugation_maps", lambda: conjugation_maps(G.generators))


def normal_closure(G: Group, seeds: Iterable[Permutation], name: str) -> Group:
    """Smallest normal subgroup of G containing the seed elements.

    A subgroup is normal exactly when its generators' conjugates by G's
    generators lie in it, so only generators are conjugated; a conjugate
    outside the closure becomes a generator and extends the closure by
    cosets.
    """
    maps = _generator_conjugations(G)
    todo = list(seeds)
    require_members(G, todo, "seed")
    gens: list[Permutation] = []
    elems = {G.identity}
    for x in todo:  # grows while it is walked
        if x in elems:
            continue
        gens.append(x)
        elems = mulclose(gens, start=elems, group=G)
        todo.extend(bulk_conjugate(x, m) for m in maps)
    return closed_subgroup(gens, elems, name)


# ---------------------------------------------------------------------------
# normal subgroups as unions of conjugacy classes

class _ClassData(NamedTuple):
    """G's classes by position in ``conjugacy_classes(G)``, the identity at 0."""

    at_base: Callable     # an element's images -> its base images
    key: dict             # base images -> position of the element's class
    images: list[list]    # per position, the image tuples of the class's elements
    sizes: list[int]
    steps: list[Callable]  # per position, y's images -> base images of rep * y

    def position(self, x: Permutation) -> int:
        return self.key[self.at_base(x.images)]

    def support(self, positions: Iterable[int], k: int) -> set[int]:
        """The positions of the classes that C*C_k meets, C the union of
        the classes at ``positions``.

        C_i*C_k = C_k*C_i is a union of classes, and conjugating the first
        factor to the representative x_k shows that it is (x_k*C_i)^G, so
        the classes met are those of x_k*y for y in C_i: |C_i| products,
        made only when asked for.  A table of every class times every
        element, made up front, costs far more than the questions it
        answers.
        """
        return set(map(self.key.__getitem__, map(
            self.steps[k], chain.from_iterable(map(self.images.__getitem__, positions)))))


def _class_data(G: Group) -> _ClassData:
    """The lookups that read products of classes off base images, memoised.

    As in ``Group.product()``, the base images of x*y are y's images read at
    x's base images, so multiplying a whole class by one representative is
    ``map(key, map(step, images))``, run in C.  Nothing is multiplied here.
    """
    def build():
        base = G.base() or (0,)  # only the trivial group has an empty base
        at_base = itemgetter(*base)  # a scalar for a one-point base
        classes = conjugacy_classes(G)
        key: dict = {}
        images = []
        for i, c in enumerate(classes):
            imgs = [x.images for x in class_elements(G, c)]
            key.update(dict.fromkeys(map(at_base, imgs), i))
            images.append(imgs)
        steps = [itemgetter(b) if len(base) == 1 else itemgetter(*b)
                 for b in (at_base(c.representative.images) for c in classes)]
        return _ClassData(at_base, key, images, [c.size for c in classes], steps)
    return G._memo("class_data", build)


def _class_centralizers(G: Group) -> list[frozenset[Permutation]]:
    """C_G(x) for the representative x of each class, by position, memoised.

    One scan of G per class, comparing the base images of x*g and g*x: the
    first are g's images read at x's base images, the second x's images
    read at g's base images, both made in C.
    """
    def build():
        data = _class_data(G)
        bases = list(map(data.at_base, map(_images, G.elements)))
        scalar = not isinstance(bases[0], tuple)
        out = []
        for c, step in zip(conjugacy_classes(G), data.steps):
            read = c.representative.images.__getitem__
            left = map(step, map(_images, G.elements))
            right = map(read, bases) if scalar else map(tuple, map(map, repeat(read), bases))
            out.append(frozenset(compress(G.elements, map(eq, left, right))))
        return out
    return G._memo("class_centralizers", build)


def _class_positions(G: Group, N: Group) -> frozenset[int]:
    """The positions of the classes of G that meet N; all of N when N is normal."""
    return frozenset(map(_class_data(G).position, N.elements))


def _grow(G: Group, classes: frozenset[int], k: int,
          cap: int | None = None) -> tuple[frozenset[int], int] | None:
    """<N, C_k> = N<C_k> for N normal in G, the union of ``classes``: its
    classes and order, or None once it has more than ``cap`` elements.

    The join is the union of the N*C_k^m, so each round multiplies by x_k
    only the classes that the round before reached for the first time.
    """
    data = _class_data(G)
    support, size = data.support, data.sizes.__getitem__
    reached = set(classes)
    frontier = classes
    order = sum(map(size, classes))
    while frontier:
        frontier = support(frontier, k) - reached
        reached |= frontier
        order += sum(map(size, frontier))
        if cap is not None and order > cap:
            return None
    return frozenset(reached), order


# ---------------------------------------------------------------------------
# derived series and solubility

def derived_subgroup(G: Group) -> Group:
    def build():
        mul = G.product()
        comms = [mul(mul(~a, ~b), mul(a, b)) for a in G.generators for b in G.generators]
        return normal_closure(G, comms, f"[{G.name},{G.name}]")
    return G._memo("derived", build)


def is_soluble(G: Group) -> tuple[bool, SeriesCertificate]:
    """Derived-series test; the certificate carries the (possibly stalled) series."""
    def build():
        terms = [G]
        cur = G
        while cur.order > 1:
            nxt = derived_subgroup(cur)
            if nxt.order == cur.order:
                return False, SeriesCertificate("derived_series", tuple(terms))
            terms.append(nxt)
            cur = nxt
        return True, SeriesCertificate("derived_series", tuple(terms))
    return G._memo("soluble", build)


# ---------------------------------------------------------------------------
# Sylow subgroups and cores

def sylow(G: Group, p: int) -> Group:
    """A Sylow p-subgroup: the Hall {p}-subgroup, which one greedy pass
    always finds."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    return G._memo(("sylow", p), lambda: hall_subgroup(
        G, frozenset({p}), f"Syl_{p}({G.name})"))


def p_core(G: Group, p: int) -> Group:
    """O_p(G): the largest normal p-subgroup, ``pi_core(G, {p})``."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    return pi_core(G, frozenset({p}))


def pi_core(G: Group, primes: frozenset[int], *, over: Group | None = None) -> Group:
    """The preimage of O_pi(G/N) for N = ``over`` (None: N = 1, giving O_pi(G)).

    That is the largest normal M >= N with |M:N| a pi-number: the normal
    closure of N and the pi-class representatives g with |ncl(N, g):N| a
    pi-number, none larger than |N| * pi_part(|G:N|).  It is memoised and
    named by pi and |N| alone, e.g. ``O_{2,3}(G)``, ``O_{2}(G mod |N|=3)``,
    or ``1<G`` for the empty prime set.
    """
    N = over if over is not None else closed_subgroup((), [G.identity], "1")
    _require_normal(G, N)

    def build():
        cap = N.order * pi_part(G.order // N.order, primes)
        inside = _class_positions(G, N)
        accepted: set[int] = set()  # the classes of the ncl(N, g) accepted so far
        gens: list[Permutation] = []
        for k, cls in enumerate(conjugacy_classes(G)):
            if not is_pi_number(cls.element_order, primes) or k in inside:
                continue
            # ncl(N, g) for g in an accepted ncl(N, h) lies inside it
            if k not in accepted:
                grown = _grow(G, inside, k, cap)
                if grown is None or not is_pi_number(grown[1] // N.order, primes):
                    continue
                accepted |= grown[0]
            gens.append(cls.representative)
        top = G.name if N.order == 1 else f"{G.name} mod |N|={N.order}"
        pi = ",".join(map(str, sorted(primes)))
        name = f"O_{{{pi}}}({top})" if primes else f"1<{top}"
        return normal_closure(G, [*N.generators, *gens], name)
    return G._memo(("pi_core", primes, N.element_set()), build)


def p_prime_core(G: Group, p: int) -> Group:
    """O_{p'}(G): the largest normal p'-subgroup."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    return pi_core(G, frozenset(prime_factors(G.order)) - {p})


def _is_normal(G: Group, N: Group) -> bool:
    """Whether N's generators, conjugated by G's generators, stay in N: for
    a subgroup N of G, whether N is normal."""
    maps = _generator_conjugations(G)
    return all(bulk_conjugate(n, m) in N for n in N.generators for m in maps)


def _require_normal(G: Group, N: Group) -> None:
    if N.degree != G.degree or not N.element_set() <= G.element_set():
        raise NotASubgroup(f"{N.name!r} is not a subgroup of {G.name!r}")
    if not _is_normal(G, N):
        raise NotNormal(f"{N.name!r} is not normal in {G.name!r}")


# ---------------------------------------------------------------------------
# quotients

def _coset_labels(G: Group, N: Group) -> tuple[dict[Permutation, int], list[Permutation]]:
    """The right N-coset of each element of G, as a number, and the cosets'
    least elements; cosets are numbered in the order of those elements."""
    mul = G.product()
    coset_rep: dict[Permutation, Permutation] = {}
    for g in G.elements:
        if g in coset_rep:
            continue
        coset = [mul(n, g) for n in N.elements]
        rep = min(coset, key=_images)
        for e in coset:
            coset_rep[e] = rep
    reps = sorted(set(coset_rep.values()), key=_images)
    rep_index = {r: i for i, r in enumerate(reps)}
    return {g: rep_index[r] for g, r in coset_rep.items()}, reps


def coset_classes(G: Group, N: Group) -> tuple[frozenset[int], ...]:
    """The conjugacy classes of G/N, read inside G: one entry per class of G.

    For x in the i-th class of ``conjugacy_classes(G)``, entry i is the set
    of N-cosets (numbered as ``quotient`` numbers its points) that cl_G(x)
    meets.  That set is cl_{G/N}(xN), so its size is |cl_{G/N}(xN)|, and
    classes of G with equal entries lie over one class of G/N.  No quotient
    group is built; the result is memoised per N.
    """
    _require_normal(G, N)

    def build():
        label, _ = _coset_labels(G, N)
        return tuple(frozenset(map(label.__getitem__, class_elements(G, c)))
                     for c in conjugacy_classes(G))
    return G._memo(("coset_classes", N.element_set()), build)


def quotient(G: Group, N: Group) -> Quotient:
    """The action of G on the right cosets of a normal subgroup N.

    Returns the quotient as a permutation group of degree |G:N| together
    with the projection map from every element of G to its coset action.
    Class sizes and class counts of G/N need no quotient group; see
    ``coset_classes``.
    """
    require_members(G, G.generators, "generator")
    _require_normal(G, N)
    mul = G.product()
    label, reps = _coset_labels(G, N)
    nq = len(reps)

    def act(x: Permutation) -> Permutation:
        return Permutation._raw(tuple(label[mul(r, x)] for r in reps))

    # the coset action is a homomorphism, so extend it from the generators
    # instead of acting with every element
    qgens = [act(g) for g in G.generators]
    Q = make_group(qgens, f"{G.name}/{N.name}", degree=nq, max_order=nq)
    projection = extend_hom(G.generators, qgens, G, Q)
    if projection is None:
        raise NotAHomomorphism(f"coset action of {G.name!r} on {N.name!r} "
                               "is not multiplicative")
    return Quotient(Q, projection)


# ---------------------------------------------------------------------------
# p-separability

def is_p_separable(G: Group, p: int) -> tuple[bool, SeriesCertificate]:
    """Alternating-core series: climb by O_p / O_{p'} until stuck or at G.

    Each step is ``pi_core(G, {p} or p', over=N)``, computed inside G.  The
    certificate lists the descending series in G with each factor tagged; a
    stalled series (not ending at the trivial group) witnesses a negative
    answer.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")

    def build():
        others = frozenset(prime_factors(G.order)) - {p}
        ascending = [make_group([], "1", degree=G.degree)]
        labels: list[str] = []
        while ascending[-1].order < G.order:
            N = ascending[-1]
            core, label = pi_core(G, frozenset({p}), over=N), "p-group"
            if core.order == N.order:
                core, label = pi_core(G, others, over=N), "p'-group"
            if core.order == N.order:
                break
            ascending.append(core)
            labels.append(label)
        ok = ascending[-1].order == G.order
        terms = ascending[::-1] if ok else [G] + ascending[::-1]
        return ok, SeriesCertificate("core_series", tuple(terms), tuple(labels[::-1]))
    return G._memo(("p_separable", p), build)


# ---------------------------------------------------------------------------
# greedy subgroup searches (Hall subgroups, complements)

def _pi_elements(G: Group, primes: frozenset[int]) -> list[Permutation]:
    """The pi-elements of G by descending element order, then images: the
    classes are tested for order once each, not their elements."""
    return [x for _, _, x in sorted(
        (-c.element_order, x.images, x) for c in conjugacy_classes(G)
        if is_pi_number(c.element_order, primes) for x in class_elements(G, c))]


def _search_subgroup(G: Group, primes: frozenset[int], target_order: int,
                     name: str) -> Group:
    """A pi-subgroup of the target order, by one greedy ``generating_set``
    pass over the pi-elements.

    The pass finds one whenever every pi-subgroup of G lies in a subgroup
    of the target order (README, "Greedy growth is one pass"); elsewhere it
    may miss one that exists.  A miss raises HallSearchExhausted.
    """
    gens, cur = generating_set(G, _pi_elements(G, primes), target_order,
                               lambda n: is_pi_number(n, primes))
    if len(cur) != target_order:
        raise HallSearchExhausted(f"one greedy pass found no {name!r} of order "
                                  f"{target_order} in {G.name!r}")
    return closed_subgroup(gens, cur, name)


def hall_subgroup(G: Group, primes: frozenset[int], name: str | None = None) -> Group:
    """A Hall pi-subgroup: order = the full pi-part of |G|.

    One greedy pass finds one when pi = {p} or G is pi-separable (Cunihin;
    Hall for soluble G).  Outside those hypotheses it raises
    HallSearchExhausted when none exists (``p_complement(A5, 2)``: A5 has no
    subgroup of order 15), and may raise when one does: S5 is not
    {2, 3}-separable, and the pass misses S4.
    Raises PreconditionViolated when a member of pi is not prime.
    """
    for q in primes:
        if not is_prime(q):
            raise PreconditionViolated(f"{q} is not prime")
    return _search_subgroup(
        G, primes, pi_part(G.order, primes),
        name or f"Hall_{{{','.join(map(str, sorted(primes)))}}}({G.name})")


def p_complement(G: Group, p: int) -> Group:
    """A Hall p'-subgroup.  Exists whenever G is p-separable, and then one
    greedy pass finds it; elsewhere see ``hall_subgroup``."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")

    others = frozenset(prime_factors(G.order)) - {p}
    return G._memo(("p_complement", p),
                   lambda: hall_subgroup(G, others, f"Hall_{p}'({G.name})"))


# ---------------------------------------------------------------------------
# normal subgroups

def normal_subgroups(G: Group) -> tuple[Group, ...]:
    """All normal subgroups: the seeds (single-class normal closures) and joins.

    A normal subgroup is generated by its conjugacy classes, so it is the
    join of the seeds it contains; each member is therefore joined only
    with the seeds it neither contains nor lies in.  The lattice is found
    on sets of class positions, the join with the seed ncl(x_k) being
    ``_grow`` by k, and only its members are built as groups.
    """
    def build():
        data = _class_data(G)
        classes = conjugacy_classes(G)
        triv = make_group([], f"1<{G.name}", degree=G.degree)
        ident = frozenset({0})
        seeds: dict[frozenset[int], tuple[int, Group]] = {ident: (0, triv)}  # -> (k, ncl(x_k))
        mul = G.product()
        done = {0}  # classes whose seed is known: ncl(x^j) = ncl(x) for j prime to o(x)
        for k in range(1, len(classes)):
            if k in done:
                continue
            x = power = classes[k].representative
            n = classes[k].element_order
            for j in range(1, n):
                if math.gcd(j, n) == 1:
                    done.add(data.position(power))
                power = mul(power, x)
            S_classes, _ = _grow(G, ident, k)
            if S_classes not in seeds:
                S = normal_closure(G, [classes[k].representative],
                                   f"ncl{len(seeds)}<{G.name}")
                seeds[S_classes] = (k, S)
        # classes -> (generators, name) of each member, seeds first
        lattice = {c: (S.generators, S.name) for c, (_, S) in seeds.items()}
        frontier = list(seeds)
        while frontier:
            new = []
            for A in frontier:
                for S_classes, (k, S) in seeds.items():
                    if S_classes <= A or A <= S_classes:
                        continue  # the join is A or S, both found already
                    join, _ = _grow(G, A, k)
                    if join not in lattice:
                        outside = [x for x in S.generators if data.position(x) not in A]
                        lattice[join] = (lattice[A][0] + tuple(outside),
                                         f"join{len(lattice)}<{G.name}")
                        new.append(join)
                    if len(lattice) > LATTICE_CAP:
                        raise LatticeCapExceeded(
                            f"more than {LATTICE_CAP} normal subgroups in {G.name!r}")
            frontier = new
        members = [seeds[c][1] if c in seeds else closed_subgroup(
            gens, chain.from_iterable(class_elements(G, classes[i]) for i in c), name)
            for c, (gens, name) in lattice.items()]
        return tuple(sorted(members,
                            key=lambda N: (N.order, [g.images for g in N.elements])))
    return G._memo("normals", build)


# ---------------------------------------------------------------------------
# isomorphism testing

def _fingerprint(G: Group) -> tuple:
    def build():
        orders = sorted(element_order_map(G).values())
        sizes = sorted(c.size for c in conjugacy_classes(G))
        return (G.order, tuple(orders), tuple(sizes), center(G).order,
                derived_subgroup(G).order)
    return G._memo("fingerprint", build)


def _minimal_generating_sequence(G: Group) -> list[Permutation]:
    """A short generating sequence: one greedy pass over G's elements by
    descending order."""
    return generating_set(G, _pi_elements(G, frozenset(prime_factors(G.order))),
                          G.order, lambda n: True)[0]


def is_isomorphic(A: Group, B: Group, *, cap: int = ISO_CAP) -> bool:
    """Backtracking isomorphism test behind an invariant prefilter.

    A generating sequence of A is mapped onto invariant-compatible elements
    of B; each partial assignment must already be a consistent injective
    homomorphism on the subgroup it generates.
    """
    if A.order != B.order:
        return False
    if A.order > cap:
        raise IsoCapExceeded(f"orders {A.order}, {B.order} exceed cap {cap}")
    if _fingerprint(A) != _fingerprint(B):
        return False
    if A.order == 1:
        return True
    gens = _minimal_generating_sequence(A)
    idx_a, idx_b = class_index(A), class_index(B)

    def inv(idx, x):
        return idx[x].element_order, idx[x].size

    pools: list[list[Permutation]] = []
    for g in gens:
        pool = sorted((x for x in idx_b if inv(idx_b, x) == inv(idx_a, g)), key=_images)
        if not pool:
            return False
        pools.append(pool)

    # pairwise word invariants for a cheap precheck
    def word_inv(x, y, idx, mul):
        return (inv(idx, mul(x, y)), inv(idx, mul(y, x)))

    mul_a, mul_b = A.product(), B.product()
    target_pair = [[word_inv(gens[i], gens[j], idx_a, mul_a) for j in range(i)]
                   for i in range(len(gens))]

    assignment: list[Permutation] = []

    def backtrack(i: int) -> bool:
        # each step checks an injective homomorphism on <gens[:i+1]>; the
        # last one covers all of A, so reaching the end is success
        if i == len(gens):
            return True
        for cand in pools[i]:
            if any(word_inv(assignment[j], cand, idx_b, mul_b) != target_pair[i][j]
                   for j in range(i)):
                continue
            assignment.append(cand)
            hom = extend_hom(gens[: i + 1], assignment, A, B)
            if (hom is not None and len(set(hom.values())) == len(hom)
                    and backtrack(i + 1)):
                return True
            assignment.pop()
        return False

    return backtrack(0)
