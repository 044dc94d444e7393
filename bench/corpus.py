"""Seeded corpus generators for the natural-corpus and graph-sweep workloads.

Groups are built with the library's own constructors and emitted as JSONL
through ``group_to_spec``/``serialize_corpus``, so the timed side of the
benchmark starts from corpus text, as ``classgraph verify --corpus`` does.
Each generator is a pure function of ``(seed, index)``, where ``index``
numbers the passes of one run: one seed gives byte-identical corpora.

Corpora are stratified so that runs with different seeds cost the same.
Each corpus takes one member from every slot of a fixed slot list, and
pass ``index`` takes the slot's next member in a rotation whose start the
seed picks.  ``ROTATION[workload]`` consecutive passes cover every member
of every slot equally often, and a run is made of whole rotations.  Every
record's points are relabelled by a seeded random permutation, so no two
seeds hand the program the same generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache

from classgraph import construct as c
from classgraph.construct import GroupSpec, group_to_spec, serialize_corpus
from classgraph.numtheory import prime_factors
from classgraph.perm import Permutation, parse_cycle_string
from classgraph.verify import default_primes


def _primitive_root(r: int) -> int:
    return next(g for g in range(2, r)
                if all(pow(g, (r - 1) // q, r) != 1 for q in prime_factors(r - 1)))


def _affine(r: int, m: int):
    """C_r : C_m in its natural action on r points."""
    mult = pow(_primitive_root(r), (r - 1) // m, r)
    return lambda: c.affine_prime_group(r, mult, f"C{r}:C{m}")


def _field(p: int, k: int, power: int, frobenius: bool = False):
    """A subgroup of the affine semilinear group of GF(p^k), on p^k points."""
    name = f"AGamma({p}^{k};{power}{'F' if frobenius else ''})"
    return lambda: c.one_dim_affine_group(p, k, multiplier_power=power,
                                          frobenius=frobenius, name=name)


def _product(a, b):
    return lambda: c.direct_product(a(), b())


def _family(build, *params):
    return tuple((lambda n=n: build(n)) for n in params)


# natural-corpus slots; every slot size divides ROTATION["natural-corpus"].  Orders
# stay at a few hundred at most: the cost grows steeply with order (an
# order-342 group takes about 5 s, order 812 about 28 s).
NATURAL_SLOTS = (
    # about 2 s each; A6 is the non-soluble member of this cost class
    ("heavy", (_affine(17, 16), _affine(23, 11), _affine(31, 6), _field(2, 4, 1),
               _field(2, 4, 3, True), _field(5, 2, 3, True), _field(5, 2, 4, True),
               lambda: c.alternating(6))),
    ("affine", (_affine(11, 10), _affine(13, 6), _affine(17, 8), _affine(19, 6),
                _affine(29, 4), _affine(31, 3), _affine(19, 9), _affine(13, 12))),
    ("field", (_field(2, 3, 1, True), _field(3, 2, 1, True), _field(3, 2, 2, True),
               _field(5, 2, 4), _field(5, 2, 8), _field(5, 2, 8, True), _field(2, 4, 3),
               _field(3, 2, 1))),
    ("small-affine", (_affine(7, 3), _affine(7, 6), _affine(11, 5), _affine(13, 4),
                      _affine(17, 4), _affine(19, 3), _field(2, 3, 1), _field(2, 4, 5, True))),
    ("non-soluble", (lambda: c.alternating(5), lambda: c.symmetric(5))),
    ("dihedral", _family(c.dihedral, 20, 24, 30, 36, 42, 48, 56, 62)),
    ("two-group", (lambda: c.generalized_quaternion(16), lambda: c.generalized_quaternion(32),
                   lambda: c.semidihedral(16), lambda: c.semidihedral(32))),
    ("product", (_product(lambda: c.symmetric(3), lambda: c.symmetric(3)),
                 _product(lambda: c.symmetric(3), lambda: c.dihedral(10)),
                 _product(lambda: c.alternating(4), lambda: c.symmetric(3)),
                 _product(lambda: c.generalized_quaternion(8), lambda: c.cyclic(3)),
                 _product(lambda: c.dihedral(10), lambda: c.cyclic(3)),
                 _product(lambda: c.symmetric(4), lambda: c.cyclic(5)),
                 _product(lambda: c.dihedral(8), lambda: c.cyclic(3)),
                 _product(_affine(7, 3), lambda: c.cyclic(2)))),
)

# graph-sweep: few-class groups load element closure and class orbits; the
# dihedral products have hundreds of classes and load the graph layer.
FEW_CLASS = (
    lambda: c.direct_product(c.symmetric(7), c.cyclic(3)),
    lambda: c.direct_product(c.symmetric(5), c.symmetric(5)),
    lambda: c.symmetric(7),
    lambda: c.direct_product(c.symmetric(6), c.symmetric(3)),
    lambda: c.direct_product(c.alternating(6), c.alternating(4)),
    lambda: c.direct_product(c.alternating(5), c.alternating(5)),
    lambda: c.direct_product(c.symmetric(5), c.symmetric(4)),
    lambda: c.alternating(7),
)
# (a, b, p): D_a x D_b queried at p, with 120 to 200 vertices and orders
# from 1040 to 11200.  diameter runs a BFS from every vertex, so its cost
# grows with V * E (740 vertices took 18 s).
MANY_CLASS = ((20, 52, 3), (28, 50, 3), (22, 94, 2), (24, 116, 3),
              (44, 106, 2), (58, 96, 3), (80, 98, 5), (100, 112, 7))
QUERIES_PER_KIND = 4
# Every member comes round once in 8 natural-corpus passes and once in 2
# graph-sweep passes; graph-sweep takes three turns, 48 queries, so that ten
# of them lie beyond its tail percentile.
ROTATION = {"natural-corpus": 8, "graph-sweep": 6}


@dataclass(frozen=True)
class Corpus:
    """Corpus text plus what the generator knows about each record."""

    text: str
    orders: dict[str, int]            # declared order per group name
    primes: tuple[int, ...] = ()      # graph-sweep: the prime queried per record


@lru_cache(maxsize=None)
def _built(build) -> tuple[GroupSpec, int, tuple[int, ...]]:
    """Record, order and default primes of a group; each is built once per process."""
    G = build()
    return group_to_spec(G), G.order, default_primes(G)


def _relabelled(build, rng: random.Random, prefix: str, tag: str) -> tuple[GroupSpec, int]:
    """The group's record with its points renamed by a random permutation."""
    spec, order, _ = _built(build)
    points = list(range(spec.degree))
    rng.shuffle(points)
    sigma = Permutation(points)
    gens = tuple(parse_cycle_string(g, spec.degree).conjugate(sigma).cycle_string()
                 for g in spec.generators)
    return replace(spec, name=f"{prefix}-{spec.name}", generators=gens, tags=(tag,)), order


def _rotation(workload: str, seed: int, index: int, slot: str, size: int) -> int:
    # string seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED
    start = random.Random(f"{workload}:{seed}:{slot}").randrange(size)
    return (start + index) % size


def natural_corpus(seed: int, index: int) -> Corpus:
    """One group per natural-corpus slot, each in its natural small degree."""
    rng = random.Random(f"natural-corpus:{seed}:{index}")
    specs, orders = [], {}
    for slot, members in NATURAL_SLOTS:
        build = members[_rotation("natural-corpus", seed, index, slot, len(members))]
        spec, order = _relabelled(build, rng, slot, slot)
        specs.append(spec)
        orders[spec.name] = order
    return Corpus(serialize_corpus(specs), orders)


def graph_sweep_corpus(seed: int, index: int) -> Corpus:
    """Cold graph queries on groups of order 10^3 up to the default order cap."""
    rng = random.Random(f"graph-sweep:{seed}:{index}")
    specs, orders, primes = [], {}, []
    for q in range(QUERIES_PER_KIND):
        turn = index * QUERIES_PER_KIND + q
        build = FEW_CLASS[_rotation("graph-sweep", seed, turn, "few", len(FEW_CLASS))]
        spec, order = _relabelled(build, rng, f"few{q}", "few-class")
        specs.append(spec)
        orders[spec.name] = order
        primes.append(rng.choice(_built(build)[2]))
    for q in range(QUERIES_PER_KIND):
        turn = index * QUERIES_PER_KIND + q
        a, b, p = MANY_CLASS[_rotation("graph-sweep", seed, turn, "many", len(MANY_CLASS))]
        spec, order = _relabelled(_dihedral_product(a, b), rng, f"many{q}", "many-class")
        specs.append(spec)
        orders[spec.name] = order
        primes.append(p)
    return Corpus(serialize_corpus(specs), orders, tuple(primes))


@lru_cache(maxsize=None)
def _dihedral_product(a: int, b: int):
    return lambda: c.direct_product(c.dihedral(a), c.dihedral(b))
