"""Constructors for standard families, products, named groups, and corpus I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (BadCycle, CorpusSyntaxError, DuplicateName, InvalidParameter,
                     NotAHomomorphism, NotAnAutomorphism, OrderCapExceeded,
                     UnknownAtlasGroup, require)
from .numtheory import is_prime
from .perm import (Group, Permutation, _right_regular, extend_hom, make_group,
                   parse_cycle_string)


@dataclass(frozen=True)
class GroupSpec:
    """A serializable description of a group: name, degree, cycle strings."""

    name: str
    degree: int
    generators: tuple[str, ...]
    tags: tuple[str, ...] = ()

    def build(self, max_order: int | None = None) -> Group:
        gens = [parse_cycle_string(s, self.degree) for s in self.generators]
        return make_group(gens, self.name, degree=self.degree, max_order=max_order)


@dataclass(frozen=True)
class ActionSpec:
    """An action of H on K for a semidirect product.

    ``images[h][k]`` gives, for each generator h of H and each generator k
    of K, the image of k under the automorphism assigned to h.  Both the
    automorphism property and the homomorphism property are verified during
    product construction.
    """

    images: Mapping[Permutation, Mapping[Permutation, Permutation]]


# ---------------------------------------------------------------------------
# standard families

def cyclic(n: int) -> Group:
    if n < 1:
        raise InvalidParameter("cyclic group needs n >= 1")
    if n == 1:
        return make_group([], "C1", degree=1)
    gen = Permutation([(i + 1) % n for i in range(n)])
    return make_group([gen], f"C{n}")


def dihedral(n: int) -> Group:
    """Dihedral group of ORDER n (n even, n >= 4), acting on n/2 points."""
    if n < 4 or n % 2:
        raise InvalidParameter("dihedral order must be an even integer >= 4")
    m = n // 2
    if m == 2:
        # the 2-gon action is not faithful; use the regular-ish degree-4 form
        r = parse_cycle_string("(1,2)", 4)
        s = parse_cycle_string("(3,4)", 4)
        return make_group([r, s], "D4")
    rot = Permutation([(i + 1) % m for i in range(m)])
    ref = Permutation([(-i) % m for i in range(m)])
    return make_group([rot, ref], f"D{n}")


def generalized_quaternion(n: int) -> Group:
    """Generalized quaternion group of order n = 2^k (k >= 3), regular action.

    Presentation a^(n/2) = 1, b^2 = a^(n/4), b^-1 a b = a^-1, realized by
    right multiplication on the n element symbols a^i b^j.
    """
    if n < 8 or n & (n - 1):
        raise InvalidParameter("generalized quaternion order must be 2^k with k >= 3")
    m = n // 2  # order of a

    def mul(u, v):  # (a^i1 b^j1)(a^i2 b^j2)
        (i1, j1), (i2, j2) = u, v
        if j1 == 0:
            i, j = i1 + i2, j2
        else:
            i, j = i1 - i2, 1 + j2
        if j == 2:
            i, j = i + m // 2, 0
        return i % m, j % 2

    elements = [(i, j) for i in range(m) for j in range(2)]
    G = _right_regular(elements, mul, [(1, 0), (0, 1)], f"Q{n}")
    require(G.order == n, f"Q{n} has order {G.order}")
    return G


def semidihedral(n: int) -> Group:
    """Semidihedral group of order n = 2^k (k >= 4), as affine maps mod n/2."""
    if n < 16 or n & (n - 1):
        raise InvalidParameter("semidihedral order must be 2^k with k >= 4")
    m = n // 2
    t = n // 4 - 1  # b a b^-1 = a^t
    a = Permutation([(x + 1) % m for x in range(m)])
    b = Permutation([(t * x) % m for x in range(m)])
    G = make_group([a, b], f"SD{n}")
    require(G.order == n, f"SD{n} has order {G.order}")
    return G


def elementary_abelian(q: int, k: int) -> Group:
    """E_{q^k}: direct product of k cyclic groups of prime order q."""
    if not is_prime(q):
        raise InvalidParameter(f"{q} is not prime")
    if k < 1:
        raise InvalidParameter("exponent k must be >= 1")
    degree = q * k
    gens = []
    for blk in range(k):
        images = list(range(degree))
        for i in range(q):
            images[blk * q + i] = blk * q + (i + 1) % q
        gens.append(Permutation(images))
    G = make_group(gens, f"E{q ** k}", degree=degree)
    require(G.order == q ** k, f"{G.name} has order {G.order}")
    return G


def symmetric(n: int) -> Group:
    if n < 1:
        raise InvalidParameter("symmetric group needs n >= 1")
    if n == 1:
        return make_group([], "Sigma1", degree=1)
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation([(i + 1) % n for i in range(n)]))
    return make_group(gens, f"Sigma{n}")


def alternating(n: int) -> Group:
    if n < 3:
        raise InvalidParameter("alternating group needs n >= 3")
    c3 = parse_cycle_string("(1,2,3)", n)
    if n == 3:
        gens = [c3]
    elif n % 2:
        gens = [c3, Permutation([(i + 1) % n for i in range(n)])]
    else:
        gens = [c3, Permutation([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])]
    return make_group(gens, f"A{n}")


# ---------------------------------------------------------------------------
# products

def direct_product(A: Group, B: Group, name: str | None = None) -> Group:
    """A x B acting on the disjoint union of the two point sets."""
    dA, dB = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation(list(g.images) + list(range(dA, dA + dB))))
    for g in B.generators:
        gens.append(Permutation(list(range(dA)) + [dA + im for im in g.images]))
    name = name or f"{A.name}x{B.name}"
    G = make_group(gens, name, degree=dA + dB)
    require(G.order == A.order * B.order, f"{name} has order {G.order}")
    return G


def _extend_automorphism(K: Group, gen_images: Mapping[Permutation, Permutation]) -> dict:
    """Extend a K-generator assignment to a full automorphism, or raise.

    Any inconsistency or failure of bijectivity raises NotAnAutomorphism.
    """
    for k, im in gen_images.items():
        if k not in K.generators:
            raise NotAnAutomorphism(f"{k!r} is not a generator of {K.name!r}")
        if im not in K:
            raise NotAnAutomorphism("image lies outside the group")
    for g in K.generators:
        if g not in gen_images:
            raise NotAnAutomorphism(f"no image given for generator {g!r} of {K.name!r}")
    phi = extend_hom(K.generators, [gen_images[g] for g in K.generators], K, K)
    if phi is None:
        raise NotAnAutomorphism("assignment is not multiplicative")
    if len(phi) != K.order or len(set(phi.values())) != K.order:
        raise NotAnAutomorphism("assignment does not extend bijectively")
    return phi


def semidirect_product(K: Group, H: Group, action: ActionSpec, name: str) -> Group:
    """K ⋊ H by the right-regular action on the |K|*|H| pairs (k, h).

    The action data is validated twice: each H-generator image must extend
    to an automorphism of K, and the generator assignment must extend to a
    homomorphism H -> Aut(K), by ``extend_hom``.
    """
    for h in H.generators:
        if h not in action.images:
            raise NotAHomomorphism(f"action gives no image for generator {h!r}")
    k_index = {k: i for i, k in enumerate(K.elements)}
    # beta[h] is the automorphism k -> h k h^-1 as a permutation of K's
    # positions.  Products compose left to right, so beta(h*g) = phi_g * beta(h)
    # and h -> beta(h)^-1 is the homomorphism that extend_hom walks.
    inverse_auts = []
    for h in H.generators:
        phi = _extend_automorphism(K, action.images[h])
        inverse_auts.append(~Permutation._raw(tuple(k_index[phi[k]] for k in K.elements)))
    no_hom = "generator assignment does not respect the relations of H"
    try:  # the image of a homomorphism has at most |H| elements
        A = make_group(inverse_auts, f"Aut<{name}", degree=K.order, max_order=H.order)
    except OrderCapExceeded:
        raise NotAHomomorphism(no_hom) from None
    hom = extend_hom(H.generators, inverse_auts, H, A)
    if hom is None:
        raise NotAHomomorphism(no_hom)
    beta = {h: (~a).images for h, a in hom.items()}
    mul_k, mul_h, k_elements = K.product(), H.product(), K.elements

    def mul(u, v):  # (k, h)(k', h') = (k * h k' h^-1, h h')
        (k, h), (k2, h2) = u, v
        return mul_k(k, k_elements[beta[h][k_index[k2]]]), mul_h(h, h2)

    elements = [(k, h) for k in K.elements for h in H.elements]
    gens = ([(k, H.identity) for k in K.generators]
            + [(K.identity, h) for h in H.generators])
    G = _right_regular(elements, mul, gens, name)
    if G.order != K.order * H.order:
        raise NotAHomomorphism(
            f"product closure has order {G.order}, expected {K.order * H.order}")
    return G


# ---------------------------------------------------------------------------
# small finite fields (tables; used for the affine and semilinear groups)

_FIELD_POLYS = {
    (2, 2): (1, 1, 1),            # x^2+x+1
    (2, 3): (1, 1, 0, 1),         # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),      # x^4+x+1
    (2, 5): (1, 0, 1, 0, 0, 1),   # x^5+x^2+1
    (3, 2): (1, 0, 1),            # x^2+1
    (3, 3): (1, 2, 0, 1),         # x^3+2x+1
    (5, 2): (1, 1, 1),            # x^2+x+1
}


class _SmallField:
    """GF(p^k) with exhaustive add/mul tables; elements are ints 0..q-1."""

    def __init__(self, p: int, k: int):
        if k == 1:
            poly = None
        elif (p, k) in _FIELD_POLYS:
            poly = _FIELD_POLYS[(p, k)]
        else:
            raise InvalidParameter(f"no irreducible polynomial on file for GF({p}^{k})")
        self.p, self.k, self.q = p, k, p ** k

        def digits(x):
            out = []
            for _ in range(k):
                out.append(x % p)
                x //= p
            return out

        def undigits(ds):
            x = 0
            for d in reversed(ds):
                x = x * p + d
            return x

        def polymul(a, b):
            prod = [0] * (2 * k)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
            # reduce modulo the defining polynomial (monic, degree k)
            for i in range(2 * k - 1, k - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(k):
                        prod[i - k + j] = (prod[i - k + j] - c * poly[j]) % p
            return prod[:k]

        self.add = [[undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                     for b in range(self.q)] for a in range(self.q)]
        if k == 1:
            self.mul = [[(a * b) % p for b in range(self.q)] for a in range(self.q)]
        else:
            self.mul = [[undigits(polymul(digits(a), digits(b)))
                         for b in range(self.q)] for a in range(self.q)]

    def generator(self) -> int:
        """An element of multiplicative order q-1."""
        for g in range(2, self.q):
            x, n = g, 1
            while x != 1:
                x = self.mul[x][g]
                n += 1
            if n == self.q - 1:
                return g
        raise InvalidParameter("no multiplicative generator found")

    def power(self, a: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = self.mul[out][a]
        return out


def one_dim_affine_group(p: int, k: int, *, multiplier_power: int = 1,
                         frobenius: bool = False, name: str | None = None) -> Group:
    """Subgroups of the affine semilinear group of GF(p^k), degree p^k.

    Generated by the translation x -> x + 1, multiplication by g^multiplier_power
    for a fixed multiplicative generator g, and optionally x -> x^p.
    """
    F = _SmallField(p, k)
    g = F.generator()
    trans = Permutation([F.add[x][1] for x in range(F.q)])
    mult = Permutation([F.mul[x][F.power(g, multiplier_power)] for x in range(F.q)])
    gens = [trans, mult]
    if frobenius:
        gens.append(Permutation([F.power(x, p) for x in range(F.q)]))
    return make_group(gens, name or f"AffF{F.q}")


def affine_prime_group(r: int, multiplier: int, name: str | None = None) -> Group:
    """C_r semidirect the cyclic group generated by x -> multiplier*x mod r."""
    if not is_prime(r):
        raise InvalidParameter(f"{r} is not prime")
    if multiplier % r in (0, 1):
        raise InvalidParameter("multiplier must act nontrivially")
    trans = Permutation([(x + 1) % r for x in range(r)])
    mult = Permutation([(multiplier * x) % r for x in range(r)])
    return make_group([trans, mult], name or f"C{r}:m{multiplier}")


# ---------------------------------------------------------------------------
# named groups used by the built-in atlas

def heisenberg3() -> Group:
    """The extraspecial group of order 27 and exponent 3, regular action.

    Elements are triples (i, j, l) over GF(3) with
    (i,j,l)(i',j',l') = (i+i', j+j', l+l'+i*j').
    """
    def mul(u, v):
        return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3, (u[2] + v[2] + u[0] * v[1]) % 3)

    elements = list(product(range(3), repeat=3))
    G = _right_regular(elements, mul, [(1, 0, 0), (0, 1, 0)], "ES27", 27)
    require(G.order == 27, f"ES27 has order {G.order}")
    return G


def _gl2_perm(q: int, m: tuple[int, int, int, int]) -> Permutation:
    """The permutation of GF(q)^2 induced by matrix [[a,b],[c,d]] on row vectors.

    Row action v -> v*M makes the permutation product match the matrix
    product under this package's left-to-right composition, so groups of
    such permutations multiply exactly like the matrices themselves.
    """
    a, b, c, d = m
    images = [0] * (q * q)
    for v0 in range(q):
        for v1 in range(q):
            w0 = (a * v0 + c * v1) % q
            w1 = (b * v0 + d * v1) % q
            images[v0 + q * v1] = w0 + q * w1
    return Permutation(images)


# SL(2,3) in GL(2,5): i and j generate Q8, and u, of order 3, cycles i -> j -> ij
_SL23_MOD5 = ((0, 4, 1, 0), (0, 2, 2, 0), (1, 3, 4, 3))
# i and j in SL(2,3) itself
_Q8_MOD3 = ((0, 2, 1, 0), (1, 1, 1, 2))


def _gl2_group(q: int, mats: Sequence[tuple[int, ...]], name: str, order: int) -> Group:
    """The group of the matrices ``mats`` acting on GF(q)^2, of the given order."""
    H = make_group([_gl2_perm(q, m) for m in mats], name, max_order=order)
    require(H.order == order, f"{name} has order {H.order}")
    return H


def _e2_by_matrices(q: int, H: Group, mats: Sequence[tuple[int, ...]], name: str) -> Group:
    """E_{q^2} ⋊ H, the i-th generator of H acting by the matrix ``mats[i]``.

    A matrix [[a,b],[c,d]] acts on the exponents of E's generators x, y by
    its columns: it sends x to x^a y^c and y to x^b y^d.
    """
    E = elementary_abelian(q, 2)
    x, y = E.generators
    action = ActionSpec({h: {x: (x ** a) * (y ** c), y: (x ** b) * (y ** d)}
                         for h, (a, b, c, d) in zip(H.generators, mats, strict=True)})
    return semidirect_product(E, H, action, name)


@dataclass(frozen=True)
class AtlasEntry:
    """A built-in group together with test primes and scenario tags."""

    group: Group
    primes: tuple[int, ...]
    tags: tuple[str, ...]


def _q8_c9() -> Group:
    q8 = generalized_quaternion(8)
    a, b = q8.generators
    c9 = cyclic(9)
    action = ActionSpec({c9.generators[0]: {a: b, b: a * b}})
    return semidirect_product(q8, c9, action, "Q8:C9")


def _c3_c4() -> Group:
    c3 = cyclic(3)
    c4 = cyclic(4)
    x = c3.generators[0]
    action = ActionSpec({c4.generators[0]: {x: x * x}})
    return semidirect_product(c3, c4, action, "C3:C4")


def _es27_q8() -> Group:
    K = heisenberg3()
    a, b = K.generators
    z = (a.inverse() * b.inverse()) * (a * b)

    def elem(i, j, l):
        base = (a ** i) * (b ** j)
        # (a^i)(b^j) lands on the triple (i, j, i*j); correct the center part
        return base * (z ** ((l - i * j) % 3))

    q8 = generalized_quaternion(8)

    def phi_images(m):
        al, be, ga, de = m
        return {
            a: elem(al % 3, ga % 3, (2 * al * ga) % 3),
            b: elem(be % 3, de % 3, (2 * be * de) % 3),
        }

    action = ActionSpec({qg: phi_images(m) for qg, m in zip(q8.generators, _Q8_MOD3)})
    return semidirect_product(K, q8, action, "ES27:Q8")


class _AtlasRow(NamedTuple):
    name: str
    build: Callable[[], Group]
    primes: tuple[int, ...]
    tags: tuple[str, ...]
    order: int


# Every named group the verification suite exercises, with test primes.  Tags
# name the scenario each group instantiates (graph shape at a prime,
# classification case, membership in the triangle-free list for the ordinary
# graph).  Builders run only when their entry is asked for (atlas_group).
_ATLAS = tuple(_AtlasRow(*row) for row in (
    ("Sigma3", lambda: symmetric(3), (2, 3, 5),
     ("ordinary-triangle-free", "shape:a@5", "shape:d@2", "shape:d@3"), 6),
    ("Sigma4", lambda: symmetric(4), (2, 3, 5), ("has-ordinary-triangle", "shape:d@2"), 24),
    ("A4", lambda: alternating(4), (2, 3, 5),
     ("ordinary-triangle-free", "shape:e@2", "shape:d@3", "shape:b@5"), 12),
    ("D10", lambda: dihedral(10), (2, 5, 3),
     ("ordinary-triangle-free", "shape:e@2", "shape:d@5", "shape:b@3"), 10),
    ("D12", lambda: dihedral(12), (2, 3, 5),
     ("ordinary-triangle-free", "shape:d@2", "shape:e@3", "shape:c@5"), 12),
    ("C3:C4", _c3_c4, (2, 3, 5),
     ("ordinary-triangle-free", "shape:d@2", "shape:e@3", "shape:c@5",
      "case:ii-with-central-involution"), 12),
    ("C7:C3", lambda: affine_prime_group(7, 2, "C7:C3"), (3, 7, 2),
     ("ordinary-triangle-free", "shape:e@3", "shape:e@7", "shape:c@2"), 21),
    ("Q8", lambda: generalized_quaternion(8), (2, 3), ("empty-p-regular-graph@2",), 8),
    ("C5:C4", lambda: affine_prime_group(5, 2, "C5:C4"), (2, 5, 3),
     ("shape:d@2", "complete-graph@5"), 20),
    ("C7:C6", lambda: affine_prime_group(7, 3, "C7:C6"), (2, 3, 7, 5),
     ("shape:b@2", "shape:a@3"), 42),
    ("GammaL(1,8)", lambda: one_dim_affine_group(2, 3, frobenius=True, name="GammaL(1,8)"),
     (2, 3, 7, 5), ("connected-gamma_p-disconnected-gamma_H@7", "shape:b@3"), 168),
    ("E25:Sigma3",  # Sigma3's (1,2) and (1,2,3) act as [[1,4],[0,4]] and [[0,4],[1,4]]
     lambda: _e2_by_matrices(5, symmetric(3), ((1, 4, 0, 4), (0, 4, 1, 4)), "E25:Sigma3"),
     (2, 3, 5, 7),
     ("shape:e@5", "case:ii-at-shape-e", "noncentral-sizes-divisible-by-p@5"), 150),
    ("E16:C15", lambda: one_dim_affine_group(2, 4, name="E16:C15"), (2, 3, 5, 7),
     ("shape:b@5", "disconnected-with-triangles@3"), 240),
    ("E9:C8", lambda: _e2_by_matrices(3, cyclic(8), ((0, 1, 1, 1),), "E9:C8"), (2, 3, 5),
     ("shape:d@2", "abelian-p-complement"), 72),
    ("E9:Q8", lambda: _e2_by_matrices(3, generalized_quaternion(8), _Q8_MOD3, "E9:Q8"),
     (2, 3, 5), ("shape:d@2",), 72),
    ("Q8:C9", _q8_c9, (2, 3, 5), ("building-block",), 72),
    ("C2x(Q8:C9)", lambda: direct_product(cyclic(2), _q8_c9(), "C2x(Q8:C9)"), (2, 3, 5),
     ("shape:e@3", "case:i", "six-p-regular-classes@3"), 144),
    ("ES27:Q8", _es27_q8, (2, 3, 5),
     ("shape:d@2", "central-intersection-order-3"), 216),
    ("(C5xC5):Q8", lambda: _e2_by_matrices(5, _gl2_group(5, _SL23_MOD5[:2], "Q8@25", 8),
                                           _SL23_MOD5[:2], "(C5xC5):Q8"),
     (2, 5, 3), ("case-iii-target",), 200),
    ("(C5xC5):SL(2,3)", lambda: _e2_by_matrices(5, _gl2_group(5, _SL23_MOD5, "SL(2,3)@25", 24),
                                                _SL23_MOD5, "(C5xC5):SL(2,3)"),
     (2, 3, 5, 7), ("shape:f@3", "case:iii"), 600),
))
_ATLAS_BY_NAME = {row.name: row for row in _ATLAS}


def _atlas_row(name: str) -> _AtlasRow:
    row = _ATLAS_BY_NAME.get(name)
    if row is None:
        raise UnknownAtlasGroup(f"no atlas group named {name!r}")
    return row


def atlas_names() -> tuple[str, ...]:
    """The names of the built-in atlas groups, in table order, none built."""
    return tuple(_ATLAS_BY_NAME)


def atlas_order(name: str) -> int:
    """The declared order of a built-in atlas group, without building it."""
    return _atlas_row(name).order


@lru_cache(maxsize=None)
def atlas_group(name: str) -> Group:
    """The built-in atlas group of this name, built on first use and memoised.

    Only the named entry is constructed; its name and order are checked
    against the table.  Raises UnknownAtlasGroup (a KeyError) for a name
    not in the atlas.
    """
    row = _atlas_row(name)
    G = row.build()
    require(G.name == name and G.order == row.order,
            f"atlas entry {name!r} built {G.name!r} of order {G.order}, "
            f"expected order {row.order}")
    return G


@lru_cache(maxsize=1)
def builtin_atlas() -> tuple[AtlasEntry, ...]:
    """Every atlas entry, in table order, with its test primes and tags.

    The groups are ``atlas_group``'s own objects, so either route shares
    one group and its memoised data.
    """
    return tuple(AtlasEntry(group=atlas_group(row.name), primes=row.primes, tags=row.tags)
                 for row in _ATLAS)


# ---------------------------------------------------------------------------
# corpus files: one JSON object per line, 1-based cycle notation

def parse_corpus(text: str) -> list[GroupSpec]:
    """Parse a line-oriented corpus; blank lines and '#' comments are skipped."""
    specs: list[GroupSpec] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusSyntaxError(lineno, exc.colno, exc.msg) from None
        if not isinstance(obj, dict):
            raise CorpusSyntaxError(lineno, 1, "record must be a JSON object")
        for key, typ in (("name", str), ("degree", int), ("generators", list)):
            if key not in obj:
                raise CorpusSyntaxError(lineno, 1, f"missing field {key!r}")
            if not isinstance(obj[key], typ) or isinstance(obj[key], bool):  # an int subclass
                raise CorpusSyntaxError(lineno, 1, f"field {key!r} has wrong type")
        name = obj["name"]
        if not name:
            raise CorpusSyntaxError(lineno, 1, "name must be non-empty")
        if name in seen:
            raise DuplicateName(f"line {lineno}: duplicate group name {name!r}")
        seen.add(name)
        degree = obj["degree"]
        if degree < 1:
            raise CorpusSyntaxError(lineno, 1, "degree must be >= 1")
        tags = obj.get("tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise CorpusSyntaxError(lineno, 1, "tags must be a list of strings")
        gens = []
        for gstr in obj["generators"]:
            if not isinstance(gstr, str):
                raise CorpusSyntaxError(lineno, 1, "generators must be strings")
            try:
                parse_cycle_string(gstr, degree)
            except BadCycle as exc:
                raise BadCycle(f"line {lineno}: {exc}") from None
            gens.append(gstr)
        specs.append(GroupSpec(name=name, degree=degree,
                               generators=tuple(gens), tags=tuple(tags)))
    return specs


def serialize_corpus(specs: Iterable[GroupSpec]) -> str:
    """Inverse of parse_corpus; one compact JSON object per line."""
    lines = []
    for spec in specs:
        lines.append(json.dumps({
            "name": spec.name,
            "degree": spec.degree,
            "generators": list(spec.generators),
            "tags": list(spec.tags),
        }, separators=(", ", ": ")))
    return "\n".join(lines) + ("\n" if lines else "")


def group_to_spec(G: Group, tags: Iterable[str] = ()) -> GroupSpec:
    """Describe an existing group as a corpus record."""
    return GroupSpec(
        name=G.name,
        degree=G.degree,
        generators=tuple(g.cycle_string() for g in G.generators),
        tags=tuple(tags),
    )
