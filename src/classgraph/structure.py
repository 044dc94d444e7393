"""Structural subgroup machinery: solubility, Sylow/Hall subgroups, cores,
separability, quotients, normal subgroups, and isomorphism testing."""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .errors import (HallSearchExhausted, IsoCapExceeded, LatticeCapExceeded,
                     NotASubgroup, NotNormal)
from .numtheory import is_pi_number, pi_part, prime_factors, require_primes
from .perm import (Group, Permutation, _class_build, _class_orbits, _images, _memoised,
                   _right_regular, bulk_conjugate, center, class_elements, closed_subgroup,
                   conjugacy_classes, conjugation_maps, extend_hom, generating_set,
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


@_memoised
def _class_data(G: Group) -> _ClassData:
    """The lookups that read products of classes off base images.

    As in ``Group.product()``, the base images of x*y are y's images read at
    x's base images, so multiplying a whole class by one representative is
    ``map(key, map(step, images))``, run in C.  Nothing is multiplied here.
    """
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


@_memoised
def _class_product(G: Group, i: int, k: int) -> frozenset[int]:
    """The positions of the classes that C_i*C_k meets.

    C_i*C_k = C_k*C_i is a union of classes, and conjugating the first
    factor to the representative x_k shows that it is (x_k*C_i)^G, so the
    classes met are those of x_k*y for y in C_i: |C_i| products.
    """
    data = _class_data(G)
    return frozenset(map(data.key.__getitem__, map(data.steps[k], data.images[i])))


def _support(G: Group, positions: Iterable[int], k: int) -> set[int]:
    """The positions of the classes that C*C_k meets, C the union of the
    classes at ``positions``: the union of the class products C_i*C_k, each
    made once, when first asked for.  A table of every class times every
    element, made up front, costs far more than the questions it answers.
    """
    return set().union(*map(_class_product, repeat(G), positions, repeat(k)))


_LANE = array("I").itemsize  # bytes per class in a packed count of ``_class_fixers``
_TOP = 8 * _LANE - 1  # the top bit of a lane; positions and counts lie below it


@_memoised
def _class_fixers(G: Group) -> tuple[int, ...]:
    """Entry j packs |C_G(x_k) n C_j| for every class k, in one ``_LANE``-byte
    lane per k in the machine's byte order, x_k the first element of the
    k-th class orbit (any element of the class gives the same counts).

    One breadth-first walk of G over its right tables carries, for each
    element g, the positions of every x_k^g: a child g*s takes its
    parent's, read through s's conjugation table in C.  g centralizes x_k
    exactly when x_k^g is x_k, that is when lane k of those positions,
    packed as one int and xored with the identity's, is 0.  With each
    lane's top bit set, subtracting 1 from every lane borrows only inside
    the lane and leaves the top bit set exactly in the nonzero lanes; 1
    less that bit, shifted down, is 1 in lane k exactly when g fixes x_k,
    and that int is added to the entry of g's class.  A count is at most
    |G|, below a lane's top bit, so no carry crosses a lane.
    """
    orbits, right, conj = _class_build(G)
    classes = conjugacy_classes(G)
    where = [0] * G.order  # the class position of each element
    for j, c in enumerate(classes):
        for i in orbits[c.representative]:
            where[i] = j
    order = sys.byteorder
    first = [orbits[c.representative][0] for c in classes]
    start = int.from_bytes(array("I", first), order)
    ones = int.from_bytes(array("I", repeat(1, len(classes))), order)
    top = ones << _TOP
    packed = [0] * len(classes)
    steps = list(zip(right, map(array.tolist, conj)))
    seen = bytearray(G.order)
    seen[0] = 1
    frontier, images = [0], [first]  # elements, and the positions of their x_k^g
    while frontier:
        reached, carried = [], []
        for i, moved in zip(frontier, images):
            moves = int.from_bytes(array("I", moved), order) ^ start
            packed[where[i]] += ones - ((((moves | top) - ones) & top) >> _TOP)
            for r, c in steps:
                y = r[i]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
                    carried.append(list(map(c.__getitem__, moved)))
        frontier, images = reached, carried
    return tuple(packed)


@_memoised
def _centralizer_meet(G: Group, classes: frozenset[int]) -> array:
    """|C_G(x_k) n N| for every class k of G, N the union of the classes at
    ``classes``: the ``_class_fixers`` entries of N's classes, summed lane
    by lane as one int.  Entry k is |C_G(x)| = |G| / |C_k| for every x in
    C_k exactly when C_G(x) lies in N."""
    fixers = _class_fixers(G)
    return array("I", sum(map(fixers.__getitem__, classes)).to_bytes(
        _LANE * len(fixers), sys.byteorder))


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
    size = _class_data(G).sizes.__getitem__
    reached = set(classes)
    frontier = classes
    order = sum(map(size, classes))
    while frontier:
        frontier = _support(G, frontier, k) - reached
        reached |= frontier
        order += sum(map(size, frontier))
        if cap is not None and order > cap:
            return None
    return frozenset(reached), order


class _Member(NamedTuple):
    """A normal subgroup held as G's class set."""

    classes: frozenset[int]
    order: int
    name: str


_ONE = _Member(frozenset({0}), 1, "1")  # the identity's class alone


def _by_order(G: Group, positions: Iterable[int]) -> list[Permutation]:
    """The elements of the classes at ``positions`` by descending element
    order, then images: the order every greedy pass takes its candidates in.
    Element orders are read once per class, and each element order's
    elements are sorted on their own."""
    conj, orbits, at = conjugacy_classes(G), _class_orbits(G), G.elements.__getitem__
    by_order: dict[int, list[Permutation]] = {}
    for k in positions:
        c = conj[k]
        by_order.setdefault(c.element_order, []).extend(map(at, orbits[c.representative]))
    return [x for n in sorted(by_order, reverse=True) for x in sorted(by_order[n], key=_images)]


@_memoised
def _normal_subgroup(G: Group, m: _Member) -> Group:
    """m as a ``Group``, memoised per member: the one place where a class set
    becomes a group.  Its generators come from one greedy pass over its
    elements in ``_by_order``'s order, as ``subgroup_from_elements`` finds them."""
    elems = _by_order(G, m.classes)
    gens, _ = generating_set(G, elems, len(elems), lambda n: True)
    return closed_subgroup(G, gens, elems, m.name)


def normal_closure(G: Group, seeds: Iterable[Permutation], name: str) -> Group:
    """Smallest normal subgroup of G containing the seed elements: the
    classes ``_grow`` reaches from the identity's over the seeds' classes."""
    seeds = tuple(seeds)
    require_members(G, seeds, "seed")
    position = _class_data(G).position
    reached, order = frozenset({0}), 1
    for k in map(position, seeds):
        if k not in reached:
            reached, order = _grow(G, reached, k)
    return _normal_subgroup(G, _Member(reached, order, name))


# ---------------------------------------------------------------------------
# derived series and solubility

@_memoised
def derived_subgroup(G: Group) -> Group:
    mul, gens = G.product(), G.generators
    pairs = [(a, ~a) for a in gens]  # each generator inverted once
    comms = [mul(mul(ia, ib), mul(a, b)) for a, ia in pairs for b, ib in pairs]
    return normal_closure(G, comms, f"[{G.name},{G.name}]")


def is_soluble(G: Group) -> tuple[bool, SeriesCertificate]:
    """Derived-series test; the certificate carries the (possibly stalled)
    series.  Each term is memoised (``derived_subgroup``), the certificate
    is not: it holds G, and G's cache holds nothing that leads back to G."""
    terms = [G]
    while terms[-1].order > 1:
        nxt = derived_subgroup(terms[-1])
        if nxt.order == terms[-1].order:
            return False, SeriesCertificate("derived_series", tuple(terms))
        terms.append(nxt)
    return True, SeriesCertificate("derived_series", tuple(terms))


# ---------------------------------------------------------------------------
# Sylow subgroups and cores

@_memoised
def sylow(G: Group, p: int) -> Group:
    """A Sylow p-subgroup: the Hall {p}-subgroup, which one greedy pass
    always finds."""
    return hall_subgroup(G, frozenset({p}), f"Syl_{p}({G.name})")


def p_core(G: Group, p: int) -> Group:
    """O_p(G): the largest normal p-subgroup, ``pi_core(G, {p})``."""
    return pi_core(G, frozenset({p}))


def pi_core(G: Group, primes: frozenset[int]) -> Group:
    """O_pi(G): the largest normal pi-subgroup."""
    require_primes(*primes)
    return _normal_subgroup(G, _pi_core(G, primes, _ONE.classes))


@_memoised
def _pi_core(G: Group, primes: frozenset[int], inside: frozenset[int]) -> _Member:
    """The preimage of O_pi(G/N), N normal in G the union of the classes at
    ``inside`` (``_ONE.classes`` for N = 1, giving O_pi(G)).

    That is the largest normal M >= N with |M:N| a pi-number, grown from N's
    classes as one class set M: for M/N a pi-group, |<M, g>^G:N| is a
    pi-number (so at most |N| * pi_part(|G:N|)) exactly when |ncl(N, g):N|
    is.  It builds no ``Group``, and its name reads pi and |N| alone, e.g.
    ``O_{2,3}(G)``, ``O_{2}(G mod |N|=3)``, or ``1<G`` for the empty prime set.
    """
    below = sum(map(_class_data(G).sizes.__getitem__, inside))  # |N|
    cap = below * pi_part(G.order // below, primes)
    M, order = inside, below
    for k, cls in enumerate(conjugacy_classes(G)):
        if k in M or not is_pi_number(cls.element_order, primes):
            continue
        grown = _grow(G, M, k, cap)
        if grown is not None and is_pi_number(grown[1] // below, primes):
            M, order = grown
    top = G.name if below == 1 else f"{G.name} mod |N|={below}"
    pi = ",".join(map(str, sorted(primes)))
    name = f"O_{{{pi}}}({top})" if primes else f"1<{top}"
    return _Member(M, order, name)


def p_prime_core(G: Group, p: int) -> Group:
    """O_{p'}(G): the largest normal p'-subgroup."""
    require_primes(p)
    return pi_core(G, frozenset(prime_factors(G.order)) - {p})


@_memoised
def _generator_maps(G: Group) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``conjugation_maps`` of G's generators."""
    return conjugation_maps(G.generators)


def _is_normal(G: Group, N: Group) -> bool:
    """Whether N's generators, conjugated by G's generators, stay in N: for
    a subgroup N of G, whether N is normal.  The maps are made once per G."""
    maps = _generator_maps(G)
    return all(bulk_conjugate(n, m) in N for n in N.generators for m in maps)


def _require_normal(G: Group, N: Group) -> None:
    if N.degree != G.degree or not N.element_set() <= G.element_set():
        raise NotASubgroup(f"{N.name!r} is not a subgroup of {G.name!r}")
    if not _is_normal(G, N):
        raise NotNormal(f"{N.name!r} is not normal in {G.name!r}")


# ---------------------------------------------------------------------------
# quotients

def coset_classes(G: Group, N: Group) -> tuple[frozenset[int], ...]:
    """The conjugacy classes of G/N, read off G's classes: entry k is the
    set of positions of the classes that make up C_k*N, the preimage of
    cl_{G/N}(x_k N), for C_k the k-th class of G.  So |cl_{G/N}(x_k N)| is
    the sum of their sizes over |N|, and classes with equal entries lie over
    one class of G/N."""
    _require_normal(G, N)
    return _coset_classes(G, _class_positions(G, N))


@_memoised
def _coset_classes(G: Group, inside: frozenset[int]) -> tuple[frozenset[int], ...]:
    """``coset_classes`` for N the union of the classes at ``inside``.

    C_k*N is the union of the class products C_i*C_k over N's classes i,
    and every class of C_k*N lies over the same class of G/N: each entry
    is made once, for the first class it holds, and handed to the rest.
    """
    out: list = [None] * len(conjugacy_classes(G))
    for k in range(len(out)):
        if out[k] is None:
            entry = frozenset(_support(G, inside, k))
            for j in entry:
                out[j] = entry
    return tuple(out)


def quotient(G: Group, N: Group) -> Quotient:
    """The action of G on the right cosets of a normal subgroup N.

    Returns the quotient as a permutation group of degree |G:N| together
    with the projection map from every element of G to its coset action,
    the cosets numbered in the order of their least elements.  Classes of
    G/N need no quotient group; see ``coset_classes``.
    """
    require_members(G, G.generators, "generator")
    _require_normal(G, N)
    mul = G.product()
    coset_rep: dict[Permutation, Permutation] = {}
    for g in G.elements:
        if g not in coset_rep:
            coset = [mul(n, g) for n in N.elements]
            coset_rep.update(dict.fromkeys(coset, min(coset, key=_images)))
    reps = sorted(set(coset_rep.values()), key=_images)
    # G/N acts on its cosets by right multiplication: a right-regular group
    Q = _right_regular(reps, lambda r, g: coset_rep[mul(r, g)], G.generators,
                       f"{G.name}/{N.name}", len(reps))
    # Q is regular on the cosets, so an element is fixed by where it sends
    # coset 0, N itself (its least element is the identity); g sends it to Ng
    by_coset = {reps[q.images[0]]: q for q in Q.elements}
    return Quotient(Q, {g: by_coset[coset_rep[g]] for g in G.elements})


# ---------------------------------------------------------------------------
# p-separability

@_memoised
def _core_climb(G: Group, p: int) -> tuple[bool, tuple[_Member, ...], tuple[str, ...]]:
    """The alternating-core series as class sets, built as no ``Group``:
    whether it reaches G, its members ascending from 1, and each step's
    label.  A step is ``_pi_core(G, {p} or p', N)``, the p-step first, and
    neither repeats the step before it."""
    require_primes(p)
    others = frozenset(prime_factors(G.order)) - {p}
    ascending = [_ONE]
    labels: list[str] = []
    while ascending[-1].order < G.order:
        N = ascending[-1]
        # O_pi(G/M) = 1 for M/N = O_pi(G/N): a step never repeats the last kind
        for primes, label in ((frozenset({p}), "p-group"), (others, "p'-group")):
            if labels[-1:] != [label]:
                core = _pi_core(G, primes, N.classes)
                if core.order > N.order:
                    break
        else:
            break
        ascending.append(core)
        labels.append(label)
    return ascending[-1].order == G.order, tuple(ascending), tuple(labels)


def is_p_separable(G: Group, p: int) -> tuple[bool, SeriesCertificate]:
    """Alternating-core series: ``_core_climb``, by O_p / O_{p'} until stuck
    or at G, with the certificate's terms built as groups: the series
    descending in G, each factor tagged, and G in front of a stalled one.
    The climb and each term are memoised, the certificate is not (see
    ``is_soluble``)."""
    ok, ascending, labels = _core_climb(G, p)
    terms = ([] if ok else [G]) + [_normal_subgroup(G, m) for m in reversed(ascending)]
    return ok, SeriesCertificate("core_series", tuple(terms), labels[::-1])


# ---------------------------------------------------------------------------
# greedy subgroup searches (Hall subgroups, complements)

def _pi_elements(G: Group, primes: frozenset[int]) -> list[Permutation]:
    """The pi-elements of G in ``_by_order``'s order."""
    return _by_order(G, [k for k, c in enumerate(conjugacy_classes(G))
                         if is_pi_number(c.element_order, primes)])


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
    return closed_subgroup(G, gens, cur, name)


def hall_subgroup(G: Group, primes: frozenset[int], name: str | None = None) -> Group:
    """A Hall pi-subgroup: order = the full pi-part of |G|.

    One greedy pass finds one when pi = {p} or G is pi-separable (Cunihin;
    Hall for soluble G).  Outside those hypotheses it raises
    HallSearchExhausted when none exists (``p_complement(A5, 2)``: A5 has no
    subgroup of order 15), and may raise when one does: S5 is not
    {2, 3}-separable, and the pass misses S4.
    Raises PreconditionViolated when a member of pi is not prime.
    """
    require_primes(*primes)
    return _search_subgroup(
        G, primes, pi_part(G.order, primes),
        name or f"Hall_{{{','.join(map(str, sorted(primes)))}}}({G.name})")


@_memoised
def p_complement(G: Group, p: int) -> Group:
    """A Hall p'-subgroup.  Exists whenever G is p-separable, and then one
    greedy pass finds it; elsewhere see ``hall_subgroup``."""
    require_primes(p)
    return hall_subgroup(G, frozenset(prime_factors(G.order)) - {p}, f"Hall_{p}'({G.name})")


# ---------------------------------------------------------------------------
# normal subgroups

@_memoised
def _normal_lattice(G: Group) -> tuple[_Member, ...]:
    """The normal subgroups of G as class sets, seeds first.  A
    normal subgroup is the join of the seeds (single-class normal closures)
    it contains, so each member is joined only with the seeds it neither
    contains nor lies in; the join with the seed ncl(x_k) is ``_grow`` by k."""
    data, classes, ident = _class_data(G), conjugacy_classes(G), frozenset({0})
    # classes -> (order, name) of each member
    lattice = {ident: (1, f"1<{G.name}")}
    seeds: dict[frozenset[int], int] = {}  # classes of ncl(x_k) -> k
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
        S, order = _grow(G, ident, k)
        if S not in seeds:
            seeds[S] = k
            lattice[S] = (order, f"ncl{len(lattice)}<{G.name}")
    frontier = list(lattice)
    while frontier:
        new = []
        for A in frontier:
            for S, k in seeds.items():
                if S <= A or A <= S:
                    continue  # the join is A or S, both found already
                join, order = _grow(G, A, k)
                if join not in lattice:
                    lattice[join] = (order, f"join{len(lattice)}<{G.name}")
                    new.append(join)
                if len(lattice) > LATTICE_CAP:
                    raise LatticeCapExceeded(
                        f"more than {LATTICE_CAP} normal subgroups in {G.name!r}")
        frontier = new
    return tuple(_Member(c, *rest) for c, rest in lattice.items())


@_memoised
def normal_subgroups(G: Group) -> tuple[Group, ...]:
    """All normal subgroups as groups, sorted by order, then elements."""
    return tuple(sorted((_normal_subgroup(G, m) for m in _normal_lattice(G)),
                        key=lambda N: (N.order, [g.images for g in N.elements])))


# ---------------------------------------------------------------------------
# isomorphism testing

@_memoised
def _fingerprint(G: Group) -> tuple:
    """Isomorphism invariants: the order, how many elements have each
    element order (summed over the classes), the class sizes, and the orders
    of the center and the derived subgroup."""
    classes, orders = conjugacy_classes(G), Counter()
    for c in classes:
        orders[c.element_order] += c.size
    return (G.order, tuple(sorted(orders.items())), tuple(sorted(c.size for c in classes)),
            center(G).order, derived_subgroup(G).order)


def _class_invariant(G: Group) -> Callable[[Permutation], tuple[int, int]]:
    """x -> (element order, class size) of x's class, read off its position."""
    position = _class_data(G).position
    pairs = [(c.element_order, c.size) for c in conjugacy_classes(G)]
    return lambda x: pairs[position(x)]


def is_isomorphic(A: Group, B: Group) -> bool:
    """Backtracking isomorphism test behind an invariant prefilter.

    Groups of one order on the same points are one group when B holds A's
    generators, and then nothing is searched.  Otherwise a generating
    sequence of A is mapped onto invariant-compatible elements of B; each
    partial assignment must already be a consistent injective homomorphism
    on the subgroup it generates.  The first generator comes from the class
    of A whose (element order, class size) the fewest classes share, and is
    sent only to the representatives of B's matching classes: an
    isomorphism followed by conjugation in B is one too, so if any
    isomorphism exists, one sends it to a representative.  The others come
    from one greedy pass over A by descending element order.
    """
    if A.order != B.order:
        return False
    if A.order > ISO_CAP:
        raise IsoCapExceeded(f"orders {A.order}, {B.order} exceed cap {ISO_CAP}")
    if A.degree == B.degree and B.element_set().issuperset(A.generators):
        return True  # A <= B, and |A| = |B|
    if _fingerprint(A) != _fingerprint(B):
        return False
    if A.order == 1:
        return True
    classes_a, classes_b = conjugacy_classes(A), conjugacy_classes(B)
    shared = Counter((c.element_order, c.size) for c in classes_a)
    first = min(classes_a[1:], key=lambda c: shared[c.element_order, c.size])
    gens = generating_set(A, chain([first.representative], _by_order(A, range(len(classes_a)))),
                          A.order, lambda n: True)[0]
    inv_a, inv_b = _class_invariant(A), _class_invariant(B)

    def matching(g):  # B's classes with g's invariants
        key = inv_a(g)
        return [c for c in classes_b if (c.element_order, c.size) == key]

    pools = [[c.representative for c in matching(gens[0])]]
    pools += [sorted(chain.from_iterable(class_elements(B, c) for c in matching(g)), key=_images)
              for g in gens[1:]]
    if not all(pools):
        return False

    # pairwise word invariants for a cheap precheck
    def word_inv(x, y, inv, mul):
        return (inv(mul(x, y)), inv(mul(y, x)))

    mul_a, mul_b = A.product(), B.product()
    target_pair = [[word_inv(gens[i], gens[j], inv_a, mul_a) for j in range(i)]
                   for i in range(len(gens))]

    assignment: list[Permutation] = []

    def backtrack(i: int) -> bool:
        # each step checks an injective homomorphism on <gens[:i+1]>; the
        # last one covers all of A, so reaching the end is success
        if i == len(gens):
            return True
        for cand in pools[i]:
            if any(word_inv(assignment[j], cand, inv_b, mul_b) != target_pair[i][j]
                   for j in range(i)):
                continue
            assignment.append(cand)
            hom = extend_hom(gens[: i + 1], assignment, A, B)
            if (hom is not None and len(set(hom.values())) == len(hom)
                    and backtrack(i + 1)):
                return True
            assignment.pop()
        return False

    try:
        return backtrack(0)
    finally:
        del backtrack  # it calls itself through its closure: a cycle that holds A and B
