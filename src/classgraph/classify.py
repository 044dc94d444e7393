"""Structural predicates: Frobenius and quasi-Frobenius detection, class-size
criteria, and the triangle-free case match."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import construct
from .errors import NoCaseMatches, PreconditionViolated, require
from .graph import build_graph, is_triangle_free
from .numtheory import is_pi_number, is_prime, is_prime_power, prime_factors
from .perm import Group, center, class_index, conjugacy_classes, subgroup_from_elements
from .structure import (_class_centralizers, _is_normal, _search_subgroup, coset_classes,
                        hall_subgroup, is_isomorphic, is_p_separable, is_soluble,
                        normal_subgroups, p_complement, pi_core, quotient, sylow)


@dataclass(frozen=True)
class FrobeniusWitness:
    """Kernel/complement pair witnessing a Frobenius decomposition."""

    kernel: Group
    complement: Group
    kernel_abelian: bool
    complement_abelian: bool


@dataclass(frozen=True)
class QuasiFrobeniusWitness:
    """Frobenius data of G/Z(G) plus the preimages of kernel and complement.

    When Z(G) = 1 the quotient is G itself: ``quotient_witness`` is
    ``is_frobenius(G)``'s witness, and kernel and complement are its own.
    """

    quotient_witness: FrobeniusWitness
    kernel: Group          # preimage in G
    complement: Group      # preimage in G
    kernel_abelian: bool
    complement_abelian: bool


def _verify_frobenius(G: Group, kernel: Group, complement: Group) -> None:
    """Re-verify the witness invariants by direct enumeration."""
    require(1 < kernel.order < G.order, "kernel is trivial or the whole group")
    require(complement.order > 1, "complement is trivial")
    require(kernel.order * complement.order == G.order, "orders do not multiply to |G|")
    require(kernel.element_set() & complement.element_set() == {G.identity},
            "kernel and complement meet nontrivially")
    require(_is_normal(G, kernel), "kernel is not normal")
    require(kernel.element_set() <= G.element_set(), "kernel is not inside the group")
    # C_G(k^x) = C_G(k)^x and the kernel is normal, so one k per class of G
    for c, cent in zip(conjugacy_classes(G), _class_centralizers(G)):
        if c.element_order > 1 and c.representative in kernel:
            require(cent <= kernel.element_set(), "centralizer escapes the kernel")


def _is_frobenius_kernel(G: Group, N: Group) -> bool:
    """Whether N (normal in G) holds C_G(k) for each nontrivial k in N.

    C_N(k) is C_G(k) n N, so the inclusion holds exactly when
    |G|/|cl_G(k)| = |N|/|cl_N(k)|; one k per class of N suffices.
    """
    idx = class_index(G)
    return all(G.order * c.size == N.order * idx[c.representative].size
               for c in conjugacy_classes(N) if c.element_order > 1)


def is_frobenius(G: Group) -> Optional[FrobeniusWitness]:
    """Search the normal subgroups for a Frobenius kernel, then a complement.

    A kernel is a proper nontrivial normal subgroup containing the
    centralizer of each of its nontrivial elements; a complement is then a
    Hall subgroup for the primes of the index (kernel and index are coprime).
    By Schur-Zassenhaus every subgroup of order dividing the index lies in a
    complement, so one greedy pass finds one.
    """
    def build():
        if center(G).order > 1:
            return None  # Frobenius groups have trivial center
        for N in normal_subgroups(G):
            if N.is_trivial() or N.order == G.order:
                continue
            if not _is_frobenius_kernel(G, N):
                continue
            index = G.order // N.order
            primes = frozenset(prime_factors(index))
            comp = _search_subgroup(G, primes, index, f"FrobC({G.name})")
            _verify_frobenius(G, N, comp)
            return FrobeniusWitness(
                kernel=N, complement=comp,
                kernel_abelian=N.is_abelian(),
                complement_abelian=comp.is_abelian())
        return None
    return G._memo("frobenius", build)


def is_quasi_frobenius(G: Group) -> Optional[QuasiFrobeniusWitness]:
    """Apply the Frobenius test to G/Z(G) and pull the witness back to G.

    When Z(G) = 1 the test runs on G itself, through the memoised
    ``is_frobenius(G)``, and no quotient is built.
    """
    def build():
        Z = center(G)
        if Z.order == G.order:
            return None
        if Z.order == 1:
            w = is_frobenius(G)
            if w is None:
                return None
            kern_pre, comp_pre = w.kernel, w.complement
        else:
            Q, proj = quotient(G, Z)
            w = is_frobenius(Q)
            if w is None:
                return None
            kern_pre = subgroup_from_elements(
                G, [g for g in G.elements if proj[g] in w.kernel], f"K<{G.name}")
            comp_pre = subgroup_from_elements(
                G, [g for g in G.elements if proj[g] in w.complement], f"H<{G.name}")
        return QuasiFrobeniusWitness(
            quotient_witness=w, kernel=kern_pre, complement=comp_pre,
            kernel_abelian=kern_pre.is_abelian(),
            complement_abelian=comp_pre.is_abelian())
    return G._memo("quasi_frobenius", build)


def count_p_regular_classes(G: Group, p: int, *, over: Group | None = None) -> int:
    """Number of classes with representative order coprime to p, central included.

    With ``over`` = N normal in G, the number of p-regular classes of G/N,
    read inside G as the distinct ``coset_classes`` entries of the p-regular
    classes of G.  Those cover every p-regular class of G/N: when xN has
    p'-order, the p-part of x lies in N, so xN is the image of x's p'-part.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    classes = conjugacy_classes(G)
    if over is None:
        return sum(1 for c in classes if c.element_order % p != 0)
    return len({cosets for c, cosets in zip(classes, coset_classes(G, over))
                if c.element_order % p != 0})


def pi_class_size_criterion(G: Group, pi: frozenset[int] | set[int],
                            mode: str) -> tuple[bool, bool]:
    """Both sides of the class-size criteria for pi-elements.

    mode "pi_number": every pi-element has class size a pi-number iff
    G = O_pi(G) x O_pi'(G).  mode "pi_prime_number": every pi-element has
    class size a pi'-number iff the Hall pi-subgroups are abelian.  Returns
    (lhs, rhs) so callers can assert the biconditional.
    """
    pi = frozenset(pi)
    if len(pi) == 1:
        (p,) = pi
        if not is_p_separable(G, p)[0]:
            raise PreconditionViolated(f"{G.name!r} is not {p}-separable")
    elif not is_soluble(G)[0]:
        raise PreconditionViolated(f"{G.name!r} is not soluble")

    pi_classes = [c for c in conjugacy_classes(G)
                  if is_pi_number(c.element_order, pi)]
    if mode == "pi_number":
        lhs = all(is_pi_number(c.size, pi) for c in pi_classes)
        o_pi = pi_core(G, pi)
        o_pi_prime = pi_core(G, frozenset(prime_factors(G.order)) - pi)
        rhs = o_pi.order * o_pi_prime.order == G.order
        return lhs, rhs
    if mode == "pi_prime_number":
        lhs = all(not any(q in pi for q in c.prime_support) for c in pi_classes)
        if len(pi) == 1:
            hall = sylow(G, next(iter(pi)))
        else:
            hall = hall_subgroup(G, pi)
        rhs = hall.is_abelian()
        return lhs, rhs
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ComplementCase:
    """The matched structural case for a triangle-free p-regular class graph."""

    case: str   # "i" | "ii" | "iii"
    shape: str  # "a".."f"
    details: dict


_CASE_SHAPES = {"i": {"d", "e"}, "ii": {"a", "b", "c", "e"}, "iii": {"f"}}

_CASE_III_TARGET = "(C5xC5):Q8"


def intersection_subgroup(A: Group, B: Group, name: str) -> Group:
    return subgroup_from_elements(A, A.element_set() & B.element_set(), name)


def complement_case(G: Group, p: int) -> ComplementCase:
    """Match a (group, prime) pair against the three structural cases.

    Requires G p-separable with a triangle-free p-regular class graph and a
    non-central p-complement H.  Exactly one of the following must hold:
    (i) H is a q-group for a prime q != p; (ii) H is quasi-Frobenius on two
    primes with abelian kernel and complements and Z(H) = H n Z(G) of order
    at most 2; (iii) H is isomorphic to the order-200 group (C5xC5):Q8.
    The graph shape must pair with the case, and G must be soluble.
    """
    if not is_p_separable(G, p)[0]:
        raise PreconditionViolated(f"{G.name!r} is not {p}-separable")
    graph = build_graph(G, p)
    if not is_triangle_free(graph):
        raise PreconditionViolated(f"graph of {G.name!r} at p={p} has a triangle")
    if not graph.vertices:
        raise PreconditionViolated(
            f"p-complement of {G.name!r} is central at p={p}")

    H = p_complement(G, p)
    matches: list[ComplementCase] = []

    # the target is built only for a complement of its declared order
    if H.order == construct.atlas_order(_CASE_III_TARGET):
        target = construct.atlas_group(_CASE_III_TARGET)
        if is_isomorphic(H, target):
            matches.append(ComplementCase("iii", graph.shape, {"target": target.name}))

    if is_prime_power(H.order):
        q = prime_factors(H.order)[0]
        matches.append(ComplementCase("i", graph.shape, {"q": q}))

    qf = is_quasi_frobenius(H)
    if qf is not None and qf.kernel_abelian and qf.complement_abelian:
        h_primes = prime_factors(H.order)
        zh = center(H)
        h_meet_zg = intersection_subgroup(H, center(G), "HnZ(G)")
        if (len(h_primes) == 2
                and zh.element_set() == h_meet_zg.element_set()
                and zh.order <= 2):
            q, r = h_primes
            matches.append(ComplementCase("ii", graph.shape, {
                "q": q, "r": r, "center_order": zh.order,
                "kernel_order": qf.kernel.order,
                "complement_order": qf.complement.order}))

    if not matches:
        raise NoCaseMatches(
            f"({G.name}, p={p}): no structural case matches (|H|={H.order})")
    if len(matches) > 1:
        raise NoCaseMatches(
            f"({G.name}, p={p}): ambiguous case match "
            f"{[m.case for m in matches]}")
    result = matches[0]
    if result.shape not in _CASE_SHAPES[result.case]:
        raise NoCaseMatches(
            f"({G.name}, p={p}): case {result.case} paired with shape "
            f"{result.shape!r}")
    if not is_soluble(G)[0]:
        raise NoCaseMatches(f"({G.name}, p={p}): group is not soluble")
    return result


def is_elementary_abelian(G: Group) -> bool:
    if G.order == 1:
        return True
    if not G.is_abelian():
        return False
    primes = prime_factors(G.order)
    return len(primes) == 1 and all(
        g.order() == primes[0] for g in G.elements if not g.is_identity())
