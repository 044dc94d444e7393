"""Permutations on finite point sets and groups given by exhaustive closure.

Points are 0-based internally and 1-based in all textual I/O.  Products
compose left-to-right: ``(a * b)(x) == b(a(x))``, i.e. apply ``a`` first.
"""

from __future__ import annotations

import math
from array import array
from functools import wraps
from itertools import count, islice, repeat
from operator import attrgetter, itemgetter
from struct import Struct
from typing import Callable, Iterable, Sequence

from .errors import (BadCycle, DegreeMismatch, NotAMember, NotASubgroup, OrderCapExceeded,
                     require)
from .numtheory import p_part, prime_factors

DEFAULT_MAX_ORDER = 20000

# the sort key of Permutation.__lt__, read in C
_images = attrgetter("images")
_first, _second = itemgetter(0), itemgetter(1)
_MISSING = object()


def _memoised(fn: Callable) -> Callable:
    """Memoise ``fn(G, *args)`` in ``G._cache``, keyed by ``fn`` alone or by
    ``(fn, *args)``; no keyword arguments.  Nothing is stored when ``fn``
    raises, so a refusal is raised again on every call."""
    @wraps(fn)
    def cached(G, *args):
        key = (fn, *args) if args else fn
        out = G._cache.get(key, _MISSING)
        if out is _MISSING:
            out = G._cache[key] = fn(G, *args)
        return out
    return cached


class Permutation:
    """An immutable bijection of {0, ..., degree-1}, stored as an image tuple."""

    __slots__ = ("images", "_hash", "_order")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
        self.images = images
        self._hash = hash(images)
        self._order = None

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        # internal fast path: caller guarantees images is a valid bijection
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        p._order = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return cls._raw(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        a = self.images
        b = other.images
        if len(a) != len(b):
            raise DegreeMismatch(f"degree {len(a)} vs {len(b)}")
        return Permutation._raw(_then(a)(b))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, im in enumerate(self.images):
            inv[im] = i
        return Permutation._raw(tuple(inv))

    __invert__ = inverse

    def __pow__(self, n: int) -> "Permutation":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = Permutation.identity(self.degree)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        gi = g.images
        xi = self.images
        if len(gi) != len(xi):
            raise DegreeMismatch(f"degree {len(xi)} vs {len(gi)}")
        return Permutation._raw(_conj_images(xi, gi, g.inverse().images))

    def commutes_with(self, other: "Permutation") -> bool:
        a = self.images
        b = other.images
        return all(b[a[i]] == a[b[i]] for i in range(len(a)))

    def is_identity(self) -> bool:
        return all(i == im for i, im in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        if self._order is None:
            img = self.images
            seen = [False] * len(img)
            out = 1
            for start in range(len(img)):
                if seen[start]:
                    continue
                length = 1
                seen[start] = True
                nxt = img[start]
                while nxt != start:
                    seen[nxt] = True
                    nxt = img[nxt]
                    length += 1
                out = math.lcm(out, length)
            self._order = out
        return self._order

    def cycle_string(self) -> str:
        """1-based cycle notation; '()' for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(pt + 1) for pt in c) + ")" for c in cycs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}/{self.degree}]"

    def __reduce__(self):
        return (_unpickle_perm, (self.images,))


def _unpickle_perm(images: tuple[int, ...]) -> Permutation:
    return Permutation._raw(images)


def _then(a: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map from the images of b to the images of a*b, b's images read at a's.

    Every product and conjugate of image tuples is composed here, in C by
    ``itemgetter``; it returns a scalar for a single item, so images of
    fewer than two points are read one by one.
    """
    if len(a) > 1:
        return itemgetter(*a)
    return lambda b: tuple([b[i] for i in a])


def _conj_images(x_img: tuple[int, ...], g_img: tuple[int, ...],
                 ginv_img: tuple[int, ...]) -> tuple[int, ...]:
    """Images of g^-1 * x * g."""
    return _then(_then(ginv_img)(x_img))(g_img)


def conjugation_maps(gens: Sequence[Permutation]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Precompute (images, inverse images) pairs for bulk conjugation."""
    return [(g.images, g.inverse().images) for g in gens]


def bulk_conjugate(x: Permutation,
                   maps: tuple[tuple[int, ...], tuple[int, ...]]) -> Permutation:
    g_img, ginv_img = maps
    return Permutation._raw(_conj_images(x.images, g_img, ginv_img))


def parse_cycle_string(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like "(1,2,3)(4,5)"; "()" is the identity."""
    images = list(range(degree))
    used: set[int] = set()
    s = text.replace(" ", "")
    pos = 0
    if not s:
        raise BadCycle("empty cycle string")
    while pos < len(s):
        if s[pos] != "(":
            raise BadCycle(f"expected '(' at position {pos} in {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise BadCycle(f"unclosed cycle in {text!r}")
        body = s[pos + 1 : end]
        pos = end + 1
        if not body:
            continue
        try:
            pts = [int(t) for t in body.split(",")]
        except ValueError:
            raise BadCycle(f"non-integer point in {text!r}") from None
        for pt in pts:
            if not 1 <= pt <= degree:
                raise BadCycle(f"point {pt} out of range 1..{degree} in {text!r}")
            if pt - 1 in used:
                raise BadCycle(f"repeated point {pt} in {text!r}")
            used.add(pt - 1)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
    return Permutation(images)


def element_order(g: Permutation) -> int:
    """Least k >= 1 with g^k = identity; the lcm of the cycle lengths."""
    return g.order()


def p_part_element(g: Permutation, p: int) -> Permutation:
    """The p-part of g: the power of g whose order is the p-part of o(g)."""
    n = g.order()
    pk = p_part(n, p)
    m = n // pk
    if pk == 1:
        return Permutation.identity(g.degree)
    return g ** (m * pow(m, -1, pk))


class ConjClass:
    """One conjugacy class: representative, size and element order, with
    the flags derived from its size.

    A record that ``_factor_classes`` makes holds its representative packed,
    as ``_packed = (bits, unpack)``, and ``unpack(bits)`` makes it on first
    read: ``__getattr__`` runs only while the ``representative`` slot is
    unset, so every later read is a plain slot read.  ``prime_support`` is
    filled in the same way.
    """

    __slots__ = ("representative", "size", "element_order", "prime_support", "_packed")

    def __init__(self, representative: Permutation, size: int, element_order: int):
        self.representative = representative
        self.size = size
        self.element_order = element_order

    def __getattr__(self, name: str):
        if name == "representative":
            bits, unpack = self._packed
            self.representative = unpack(bits)
            del self._packed
            return self.representative
        if name == "prime_support":  # the primes dividing the size; none for a central class
            self.prime_support = frozenset(prime_factors(self.size))
            return self.prime_support
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def is_central(self) -> bool:
        return self.size == 1

    def __eq__(self, other: object) -> bool:
        return type(other) is ConjClass and (
            (self.representative, self.size, self.element_order)
            == (other.representative, other.size, other.element_order))

    def __hash__(self) -> int:
        return hash((self.representative, self.size, self.element_order))

    def __repr__(self) -> str:
        return (f"ConjClass(representative={self.representative!r}, size={self.size!r}, "
                f"element_order={self.element_order!r})")

    def __reduce__(self):
        return (ConjClass, (self.representative, self.size, self.element_order))


class Group:
    """A finite permutation group with its fully enumerated element set.

    Immutable after construction; derived data is cached lazily.  Groups
    from ``make_group`` list ``elements`` breadth-first over generator
    products, each layer sorted; ``closed_subgroup`` sorts them.  Either
    way the identity comes first.  A group from ``make_group`` holds its
    elements as encoded images (see ``_from_images``), decoded into
    ``elements`` on first read; a product split into factors on disjoint
    points (``_factors``) is not even enumerated until something reads its
    elements or their images (``_keys``), and ``order`` is the product of
    the factors' orders.
    """

    __slots__ = ("name", "degree", "generators", "order", "_elements", "_images", "_made",
                 "_factors", "_generated", "_cache")

    def __init__(self, name: str, degree: int, generators: tuple[Permutation, ...],
                 elements: tuple[Permutation, ...]):
        self.name = name
        self.degree = degree
        self.generators = generators
        self.order = len(elements)
        self._elements = elements
        self._images = self._made = None
        # (points, factor) per block of make_group's split, by least point; empty if unsplit
        self._factors: tuple[tuple[tuple[int, ...], Group], ...] = ()
        self._generated = False  # whether ``generators`` are known to generate it
        self._cache: dict = {}

    @classmethod
    def _from_images(cls, name: str, degree: int, generators: tuple[Permutation, ...],
                     images: list) -> "Group":
        """A group whose elements are held as their images, bytes or tuples,
        in position order, and become ``Permutation``s on first read.

        Until then ``_at`` makes single elements, and the decode puts those
        very objects at their positions, so the group's own elements are
        the same objects before and after.
        """
        G = cls._unenumerated(name, degree, generators, len(images), ())
        G._images, G._made = images, {}
        return G

    @classmethod
    def _unenumerated(cls, name: str, degree: int, generators: tuple[Permutation, ...],
                      order: int, factors: tuple) -> "Group":
        """A group of this order whose elements are not made yet.  Until
        ``_close`` enumerates it, ``_made`` holds the elements made by
        ``_seating``, each keyed by itself."""
        G = cls(name, degree, generators, ())
        G.order, G._factors = order, factors
        G._elements, G._made = None, {}
        return G

    @property
    def _enumerated(self) -> bool:
        return self._elements is not None or self._images is not None

    def _keys(self) -> list:
        """The elements' images in position order: encoded while the
        elements are undecoded, enumerated first if need be."""
        if self._elements is not None:
            return list(map(_images, self._elements))
        if self._images is None:
            # a packed class representative is seated before _close re-keys _made
            for c in self._cache.get(conjugacy_classes.__wrapped__, ()):
                c.representative
            _close(self, self.order)
        return self._images

    def _seating(self) -> Callable[[tuple[int, ...]], Permutation]:
        """The function that makes the element with given images before the
        group is enumerated; ``_close`` seats it at its position.  It holds
        ``_made``, keyed by the elements themselves (whose hash is the one
        ``_raw`` took of their images), and not the group, so the class
        records that hold it (``_factor_classes``) can sit in the group's
        cache without making a cycle."""
        made = self._made

        def seat(images: tuple[int, ...]) -> Permutation:
            x = Permutation._raw(images)
            return made.setdefault(x, x)
        return seat

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._elements is None:
            images = self._keys()
            elements = list(map(Permutation._raw, map(tuple, images)))  # tuple(t) is t
            for i, x in self._made.items():
                elements[i] = x
            self._elements = tuple(elements)
            self._images = self._made = None
        return self._elements

    def _at(self, i: int) -> Permutation:
        """The element at position i, made alone while the rest are undecoded."""
        if self._elements is not None:
            return self._elements[i]
        images = self._keys()
        x = self._made.get(i)
        if x is None:
            x = self._made[i] = Permutation._raw(tuple(images[i]))
        return x

    def __contains__(self, g: Permutation) -> bool:
        return g in self.element_set()

    @property
    def identity(self) -> Permutation:
        """The group's own identity element, listed first."""
        return self._at(0)

    @_memoised
    def element_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    @_memoised
    def is_abelian(self) -> bool:
        mul = self.product()
        return all(mul(a, b) is mul(b, a) for a in self.generators for b in self.generators)

    @_memoised
    def base(self) -> tuple[int, ...]:
        """Points whose images separate the elements, chosen greedily: a
        point joins when an element of the pointwise stabilizer of the base
        so far moves it (so its images split elements the base does not),
        and the stabilizer keeps the elements fixing it.  The identity group
        has the empty base."""
        base: list[int] = []
        stab = self._keys()
        for b in range(self.degree):
            if len(stab) == 1:
                break
            fixing = [x for x in stab if x[b] == b]
            if len(fixing) < len(stab):
                base.append(b)
                stab = fixing
        return tuple(base)

    @_memoised
    def product(self) -> Callable[[Permutation, Permutation], Permutation]:
        """Multiplication of members, returning the group's own elements.

        A member is fixed by its images on ``base()``, so x*y is the
        element whose base images are y's images at x's base images: one
        dict lookup instead of composing degree-length tuples.  The key is
        a scalar for a one-point base and a tuple otherwise, read from y's
        images by a getter made once per x.  Only members may be passed;
        entry points check their inputs (see ``require_members``), and
        products of members are members.
        """
        base = self.base()
        if len(base) == 1:  # a scalar key: about 4x cheaper than a 1-tuple
            (b,) = base
            by_image = {x.images[b]: x for x in self.elements}
            return lambda x, y: by_image[y.images[x.images[b]]]
        at_base = _then(base)
        by_images = {at_base(x.images): x for x in self.elements}
        getter = {x: _then(k) for k, x in by_images.items()}
        return lambda x, y: by_images[getter[x](y.images)]

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order}, degree={self.degree})"

    def __reduce__(self):
        if self._elements is not None:
            return (Group, (self.name, self.degree, self.generators, self._elements))
        if self._images is not None:
            return (Group._from_images, (self.name, self.degree, self.generators, self._images))
        # a split product not yet enumerated is closed again from its generators
        return (_unpickle_split, (self.generators, self.name, self.degree, self.order))


def _unpickle_split(generators: tuple[Permutation, ...], name: str, degree: int,
                    order: int) -> Group:
    # its own order is the cap, so a group built past the default cap is not refused
    return make_group(generators, name, degree=degree, max_order=order)


def make_group(generators: Iterable[Permutation], name: str, *,
               degree: int | None = None,
               max_order: int | None = None) -> Group:
    """Close a generating set under multiplication into a Group.

    Enumeration order is breadth-first over right multiplication by the
    generators, sorting each new layer lexicographically, so the element
    tuple is a pure function of the generating set (see ``_close``).

    Generators that split into blocks moving pairwise disjoint points
    (``_blocks``) generate the direct product of the blocks' groups.  Then
    each block's group is closed alone on its own points, as a factor, and
    G is returned with the product of their orders and enumerated only on
    first read of its elements; ``conjugacy_classes`` reads it off the
    factors until then.  Either way the order cap is checked before G has
    any element, and the refusal names G.
    """
    gens = []
    for g in generators:
        if g not in gens:
            gens.append(g)
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    if gens:
        deg = gens[0].degree
        for g in gens:
            if g.degree != deg:
                raise DegreeMismatch(
                    f"generators of {name!r} mix degrees {deg} and {g.degree}")
        if degree is not None and degree != deg:
            raise DegreeMismatch(
                f"stated degree {degree} but generators have degree {deg}")
    else:
        if degree is None:
            raise ValueError("degree is required for an empty generating set")
        deg = degree
    if deg < 1:
        raise ValueError("degree must be >= 1")

    blocks = _blocks(gens)
    if len(blocks) < 2:
        G = Group._unenumerated(name, deg, tuple(gens), 0, ())
        _close(G, cap)
        return G
    factors, order = [], 1
    for points, members in blocks:
        local = {p: i for i, p in enumerate(points)}
        on_points = [Permutation._raw(tuple(local[g.images[p]] for p in points))
                     for g in members]
        try:  # the product so far times this factor's order stays within the cap
            F = make_group(on_points, name, max_order=cap // order)
        except OrderCapExceeded:
            raise OrderCapExceeded(name, cap) from None
        factors.append((points, F))
        order *= F.order
    return Group._unenumerated(name, deg, tuple(gens), order, tuple(factors))


def _blocks(gens: Sequence[Permutation]) -> list[tuple[tuple[int, ...], list[Permutation]]]:
    """The least blocks of points, pairwise disjoint, that each generator's
    moved points lie within (a union-find by merging), by least point,
    each with its generators in order; the identity belongs to none."""
    moved = [(g, {i for i, im in enumerate(g.images) if i != im}) for g in gens]
    blocks: list[set[int]] = []
    for _, points in moved:
        if points:
            joined = [b for b in blocks if not b.isdisjoint(points)]
            blocks = [b for b in blocks if b.isdisjoint(points)] + [points.union(*joined)]
    return [(tuple(sorted(b)), [g for g, points in moved if points & b])
            for b in sorted(blocks, key=min)]


def _right_regular(elements: Sequence, mul: Callable, gens: Iterable, name: str,
                   max_order: int | None = None) -> Group:
    """The group of right multiplications by ``gens`` on ``elements``, the
    group ``make_group`` closes from them, byte for byte.

    Point i stands for ``elements[i]``; ``mul(x, g)`` is the product x*g,
    and it must be a group law on ``elements``.  Then right multiplications
    act semiregularly, so ``_close`` looks elements up by the image of one
    point (``point_key``).  Each generator but the identity moves every
    point, so ``make_group`` would not split the group into blocks either.
    """
    index = {x: i for i, x in enumerate(elements)}
    perms: list[Permutation] = []
    for g in gens:
        r = Permutation([index[mul(x, g)] for x in elements])
        if r not in perms:
            perms.append(r)
    G = Group._unenumerated(name, len(elements), tuple(perms), 0, ())
    _close(G, DEFAULT_MAX_ORDER if max_order is None else max_order, point_key=True)
    return G


def _close(G: Group, cap: int, *, point_key: bool = False) -> None:
    """Enumerate G from its generators: its elements' images in position
    order, and the right-multiplication table that the class build takes
    (see ``_right_table``).  Elements made by ``_seating`` so far are
    seated at their positions.  Raises OrderCapExceeded once G outgrows
    ``cap``.

    Products are formed on images (bytes up to degree 256, tuples beyond),
    not on Permutations, breadth-first over right multiplication by the
    generators, each new layer sorted lexicographically.

    With ``point_key`` (set by ``_right_regular`` alone) G must act
    semiregularly, so an element is fixed by its image of point 0, a base of
    one point (Butler, LNCS 559): x*g is looked up by g's image of x's, and
    only a new element has its images composed, once, from the element and
    generator that first made it.  Images of a semiregular group differ at
    point 0, so sorting a layer by that image sorts it by images, and the
    positions, images and right table are those of the full lookup.
    """
    deg = G.degree
    # Up to degree 256 images are held as bytes: x * g is x.translate of g's
    # images padded to a 256-byte table, and a bytes key caches its hash.
    # Beyond that they stay tuples: x * g is _then(x) called on g's images.
    if deg <= 256:
        encode, pad, step, lift = bytes, bytes(256 - deg), bytes.translate, None
    else:
        encode, pad, step, lift = tuple, (), itemgetter.__call__, _then
    key = _first if point_key else encode
    tables = [encode(g.images) + pad for g in G.generators]
    start = encode(range(deg))
    # Each generator's products are made and looked up in C, each hashed once
    # by pos.setdefault: a product not yet in pos enters it with the next
    # number from fresh, unique to its first occurrence, and is not held.
    fresh = count()
    pos = {key(start): next(fresh)}  # key -> provisional number
    at = {0: 0}  # provisional number -> position
    images = [start]
    right = [array("I") for _ in tables]
    frontier = [start]
    while frontier:
        base = len(pos)
        xs = frontier if lift is None else list(map(lift, frontier))
        if point_key:
            # x*g sends 0 to g(x(0)); the layer's products are numbered from
            # ``first`` on, generator by generator over the frontier
            first, width = next(fresh) + 1, len(frontier)
            points = list(map(_first, frontier))
            rows = [list(map(pos.setdefault, map(t.__getitem__, points), fresh))
                    for t in tables]
        else:
            rows = [list(map(pos.setdefault, map(step, xs, repeat(t)), fresh)) for t in tables]
        if len(pos) > cap:
            raise OrderCapExceeded(G.name, cap)
        # the layer's new elements are pos's last keys; sorted by images, the
        # order of Permutation.__lt__ (a byte is a point), or by the image of
        # point 0, which orders them alike, they take the next positions
        layer = sorted(islice(reversed(pos.items()), len(pos) - base), key=_first)
        if point_key:  # the product numbered first + k*width + j is xs[j] * generators[k]
            frontier = [step(xs[j], tables[k])
                        for k, j in (divmod(v - first, width) for _, v in layer)]
        else:
            frontier = [y for y, _ in layer]
        at.update(zip(map(_second, layer), count(base)))
        images += frontier
        for r, row in zip(right, rows):
            r.extend(map(at.__getitem__, row))
    G._made = {at[pos[key(encode(x.images))]]: x for x in G._made.values()}
    G.order, G._images = len(images), images
    G._cache["right_table"] = right


def require_members(G: Group, elems: Iterable[Permutation], what: str) -> None:
    """Raise NotAMember unless every element of ``elems`` lies in G."""
    if not G.element_set().issuperset(elems):
        raise NotAMember(f"not every {what} lies in {G.name!r}")


def mulclose(gens: Sequence[Permutation], *, group: Group, cap: int | None = None,
             start: Iterable[Permutation] | None = None) -> set[Permutation]:
    """The element set of <gens> in ``group``, enumerated as right cosets of ``start``.

    ``start`` is the closed set generated by a prefix of ``gens`` (None: the
    trivial group); it is copied, not mutated.  A product y = r*g of a coset
    representative and a generator outside the cosets found so far adds the
    coset start*y (Dimino's coset extension; Butler, LNCS 559).  With
    ``cap`` set, enumeration stops once the set holds more than ``cap``.
    ``gens`` and ``start`` must be members of ``group`` (NotAMember
    otherwise), and products are its ``product()``.
    """
    require_members(group, gens, "generator")
    mul, ident = group.product(), group.identity
    elems = set(start) if start else {ident}
    require_members(group, elems, "start element")
    known = list(elems - {ident})
    reps = [ident]
    for r in reps:
        for g in gens:
            y = mul(r, g)
            if y not in elems:
                elems.add(y)
                elems.update([mul(h, y) for h in known])
                reps.append(y)
                if cap is not None and len(elems) > cap:
                    return elems
    return elems


def extend_hom(gens: Sequence[Permutation], images: Sequence[Permutation],
               A: Group, B: Group) -> dict[Permutation, Permutation] | None:
    """Extend gens[i] -> images[i] multiplicatively over <gens>, breadth-first.

    ``gens`` must lie in A and ``images`` in B (NotAMember otherwise); both
    sides multiply through their group's ``product()``.  Returns the map on
    <gens>, or None when two words for one element get different images
    (not a homomorphism).
    """
    require_members(A, gens, "generator")
    require_members(B, images, "image")
    mul_a, mul_b = A.product(), B.product()
    hom = {A.identity: B.identity}
    pairs = list(zip(gens, images))
    frontier = [A.identity]
    while frontier:
        new = []
        for x in frontier:
            hx = hom[x]
            for g, hg in pairs:
                y = mul_a(x, g)
                hy = mul_b(hx, hg)
                prev = hom.get(y)
                if prev is None:
                    hom[y] = hy
                    new.append(y)
                elif prev is not hy:
                    return None
        frontier = new
    return hom


def generating_set(G: Group, candidates: Iterable[Permutation], cap: int,
                   order_ok: Callable[[int], bool]
                   ) -> tuple[list[Permutation], set[Permutation]]:
    """One greedy pass over ``candidates``: generators in G, with their closure.

    Takes the candidates in the order given and adjoins each one not yet
    generated whose closure's size ``order_ok`` accepts (it sees every
    trial's size, also one cut short past ``cap``) and is at most ``cap``;
    the pass ends once the closure has ``cap`` elements.
    """
    gens: list[Permutation] = []
    cur = {G.identity}
    for x in candidates:
        if len(cur) == cap:
            break
        if x in cur:
            continue
        trial = mulclose(gens + [x], cap=cap, start=cur, group=G)
        if order_ok(len(trial)) and len(trial) <= cap:
            cur = trial
            gens.append(x)
    return gens, cur


def closed_subgroup(G: Group, gens: Sequence[Permutation], elems: Iterable[Permutation],
                    name: str) -> Group:
    """The subgroup of G that ``gens`` generate, from its closed set of G's
    own elements, listed sorted.  It shares G's ``base()``, which separates
    them, and G's ``product()``, which returns them, so it builds neither
    (both go in H's cache under their ``_memoised`` keys).  The class build
    takes ``gens`` at their word (see ``_right_table``)."""
    H = Group(name, G.degree, tuple(gens), tuple(sorted(elems, key=_images)))
    H._generated = True
    H._cache.update((shared.__wrapped__, shared(G)) for shared in (Group.base, Group.product))
    return H


def subgroup_from_elements(G: Group, elements: Iterable[Permutation],
                           name: str) -> Group:
    """The subgroup of G on a closed element set, its elements in sorted order.

    Generators come from one ``generating_set`` pass over the set, by
    descending element order then lexicographically, capped at its size.
    Raises NotAMember if an element lies outside G, and NotASubgroup if the
    set is not closed, at the first closure that outgrows it.
    """
    elems = set(elements)
    require_members(G, elems, "element")
    not_closed = f"{name!r}: element set of size {len(elems)} is not closed"

    def fits(n: int) -> bool:
        if n > len(elems):
            raise NotASubgroup(not_closed)
        return True

    scan = sorted(elems, key=lambda g: (-g.order(), g.images))
    gens, closure = generating_set(G, scan, len(elems), fits)
    if closure != elems:
        raise NotASubgroup(not_closed)
    return closed_subgroup(G, gens, closure, name)  # closure holds G's own objects


def centralizer(G: Group, x: Permutation) -> Group:
    """The subgroup of G commuting with x, by linear scan."""
    require_members(G, (x,), "element")
    mul = G.product()
    elems = [g for g in G.elements if mul(g, x) is mul(x, g)]
    return subgroup_from_elements(G, elems, f"C_{G.name}({x.cycle_string()})")


@_memoised
def center(G: Group) -> Group:
    """The elements whose conjugacy class is a single point."""
    elems = [c.representative for c in conjugacy_classes(G) if c.is_central]
    return subgroup_from_elements(G, elems, f"Z({G.name})")


def _right_table(G: Group) -> list[array]:
    """``right[k][i]``: the position of ``elements[i] * generators[k]``.

    Taken from the cache where the enumeration (``_close``) left it (the
    class build, ``_class_build``, is its only reader, and keeps it in its
    own entry): every element there was reached as a product, so the
    generators generate G.  Else it is built through the group's product,
    and unless ``closed_subgroup`` made G, whose generators generate it by
    contract, ``_require_generated`` checks them.
    """
    right = G._cache.pop("right_table", None)
    if right is None:
        mul = G.product()
        pos = {x: i for i, x in enumerate(G.elements)}
        right = [array("I", [pos[mul(x, g)] for x in G.elements])
                 for g in G.generators]
        if not G._generated:
            _require_generated(G, right)
    return right


def _require_generated(G: Group, right: list[array]) -> None:
    """A breadth-first pass over the right table from the identity: raise
    InvariantViolated unless the generators reach every element."""
    reached, frontier = {0}, {0}
    while frontier:
        frontier = set().union(*(map(r.__getitem__, frontier) for r in right)) - reached
        reached |= frontier
    require(len(reached) == G.order, f"generators of {G.name!r} do not generate it")


def _conjugation_tables(G: Group, right: list[array], images: list) -> list[list[int]]:
    """``conj[k][i]``: the position of g^-1 * elements[i] * g for g =
    ``generators[k]``, read off g's right table ``right[k]`` in C and the
    elements' ``images`` (``Group._keys``); no ``Permutation`` is conjugated.

    Byte-string images (``make_group`` up to degree 256) are looked up by
    their images.  ``bytes.maketrans`` sends an image back to its points,
    which gives the position ``inv[i]`` of elements[i]^-1, and g^-1 * x * g
    is at ``right[inv[right[inv[x]]]]``.  Other images (tuples above degree
    256, the ``Permutation``s of sorted subgroups) are looked up by their
    base images: g^-1 * x sends the base point b to x(g^-1(b)), so its
    position is read off x's images at g^-1's base images, and g^-1 * x * g
    is one right multiplication more.  (An inverse found by ``x.index(b)``
    scans the tuple; base images for byte strings need a ``base()`` that
    ``make_group`` groups do not otherwise build.)
    """
    right = list(map(array.tolist, right))
    if isinstance(images[0], bytes):
        pos = dict(zip(images, count()))
        inverted = map(bytes.maketrans, images, repeat(images[0]))  # the identity's images
        inv = list(map(pos.__getitem__, map(itemgetter(slice(G.degree)), inverted)))
        return [list(map(r.__getitem__, map(inv.__getitem__, map(r.__getitem__, inv))))
                for r in right]
    base = G.base() or (0,)  # the identity alone is told apart by any point
    pos = dict(zip(map(itemgetter(*base), images), count()))  # a scalar for one point
    return [list(map(r.__getitem__, map(pos.__getitem__,
                                        map(itemgetter(*map(g.images.index, base)), images))))
            for g, r in zip(G.generators, right)]


@_memoised
def _class_build(G: Group) -> tuple[dict[Permutation, list[int]], list[array], list[array]]:
    """The class orbits (see ``_class_orbits``), and the right and
    conjugation tables they were walked on, one ``array`` per generator,
    kept for the walk that counts class centralizers
    (``structure._class_fixers``).

    Works on positions 0..n-1, the identity at 0, with conjugation by each
    generator as a table of positions (``_conjugation_tables``), walked as
    lists, which hand back their ints where an array makes one per read.
    Each orbit is walked breadth first from its first position, conjugating
    by the generators in order.  The least element is read off the encoded
    images, so only the representatives become ``Permutation``s.
    """
    n = G.order
    keys = G._keys()  # first: enumerating G leaves its right table
    right = _right_table(G)
    conj = _conjugation_tables(G, right, keys)
    seen = bytearray(n)
    orbits = {}
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for y in orbit:
            for c in conj:
                z = c[y]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        orbits[G._at(min(orbit, key=keys.__getitem__))] = orbit
    return orbits, right, [array("I", c) for c in conj]


def _class_orbits(G: Group) -> dict[Permutation, list[int]]:
    """Conjugacy classes as lists of element positions, keyed by their least
    element and in order of their first element (``_class_build``)."""
    return _class_build(G)[0]


def _factor_classes(G: Group) -> tuple[ConjClass, ...]:
    """The classes of a split product G = F_1 x ... x F_k (``make_group``),
    read off its factors' classes and sorted as ``conjugacy_classes`` sorts.

    They are the products C_1 x ... x C_k of factor classes, of size
    |C_1|...|C_k| and element order lcm(o(C_1), ..., o(C_k)).  The least
    element by images has each C_i's least element written back onto F_i's
    points: the points are disjoint and each factor's are numbered in
    increasing order, so images compare point by point on one factor
    alone.  Each such element is packed into an int, one big-endian field
    per point of G (1 byte up to degree 256, 2 up to 65536, 4 beyond) and
    zero off the factor's points, so ints compare as images do and a class
    of G is the OR of one int per factor and one of the points no generator
    moves.  The classes are sorted as (size, order, int), and each record
    holds its int packed: a graph query reads only sizes and orders, and a
    representative is unpacked on first read (``ConjClass``), through G's
    ``_seating``, or when G is enumerated (``Group._keys``).
    """
    deg = G.degree
    layout = Struct(f">{deg}{'B' if deg <= 256 else 'H' if deg <= 65536 else 'I'}")

    def packed(points: Iterable[int], images: Iterable[int]) -> int:
        fields = [0] * deg
        for p, im in zip(points, images):
            fields[p] = im
        return int.from_bytes(layout.pack(*fields), "big")

    moved = {p for block, _ in G._factors for p in block}
    fixed = [p for p in range(deg) if p not in moved]
    rows = [(1, 1, packed(fixed, fixed))]
    for block, F in G._factors:
        factor = [(c.size, c.element_order,
                   packed(block, map(block.__getitem__, c.representative.images)))
                  for c in conjugacy_classes(F)]
        rows = [(size * s, math.lcm(order, o), bits | b)
                for size, order, bits in rows for s, o, b in factor]
    rows.sort()
    unpack, length, seat = layout.unpack, layout.size, G._seating()

    def unpacked(bits: int) -> Permutation:
        return seat(unpack(bits.to_bytes(length, "big")))

    classes = []
    for size, order, bits in rows:
        c = object.__new__(ConjClass)
        c.size, c.element_order, c._packed = size, order, (bits, unpacked)
        classes.append(c)
    return tuple(classes)


@_memoised
def conjugacy_classes(G: Group) -> tuple[ConjClass, ...]:
    """All conjugacy classes, sorted by (size, element order, representative).

    A split product not yet enumerated reads them off its factors
    (``_factor_classes``), any other group off its class orbits.
    """
    if G._factors and not G._enumerated:
        return _factor_classes(G)
    classes = [ConjClass(rep, len(orbit), rep.order()) for rep, orbit in _class_orbits(G).items()]
    classes.sort(key=lambda c: (c.size, c.element_order, c.representative.images))
    return tuple(classes)


@_memoised
def class_elements(G: Group, cls: ConjClass) -> frozenset[Permutation]:
    """The full element set of a conjugacy class of G, made on first call."""
    orbit = _class_orbits(G).get(cls.representative)
    if orbit is None:
        raise NotAMember("representative is not in any class of this group")
    return frozenset(map(G.elements.__getitem__, orbit))


@_memoised
def class_index(G: Group) -> dict[Permutation, ConjClass]:
    """Cached map from each element of G to its conjugacy class."""
    orbits, elements = _class_orbits(G), G.elements
    return {elements[i]: cls for cls in conjugacy_classes(G)
            for i in orbits[cls.representative]}


@_memoised
def element_order_map(G: Group) -> dict[Permutation, int]:
    """Cached map from each element to its order, read from its class."""
    return {g: cls.element_order for g, cls in class_index(G).items()}
