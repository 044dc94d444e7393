"""Structural predicates: Frobenius and quasi-Frobenius detection, class-size
criteria, and the triangle-free case match."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import construct
from .errors import NoCaseMatches, PreconditionViolated, require
from .graph import build_graph, is_triangle_free
from .numtheory import (is_pi_number, is_prime, is_prime_power, pi_part, prime_factors,
                        require_primes)
from .perm import Group, _memoised, center, conjugacy_classes, subgroup_from_elements
from .structure import (_ONE, ISO_CAP, _Member, _class_data, _core_climb, _is_normal,
                        _normal_subgroup, _pi_core, _search_subgroup, hall_subgroup,
                        is_isomorphic, is_soluble, p_complement, p_core, quotient, sylow)


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
    # the kernel is normal, so it holds whole classes of G, and C_G(x) <= kernel
    # for x in C_k exactly when all |G| / |C_k| elements of C_G(x) lie in the
    # kernel, the same for every x in C_k: count them at the representative
    # (products are G's own elements, so equal products are one object)
    mul, members = G.product(), kernel.element_set()
    for c in conjugacy_classes(G)[1:]:  # the identity's class is at 0
        x = c.representative
        if x in members:
            fixed = sum(1 for y in kernel.elements if mul(x, y) is mul(y, x))
            require(fixed == G.order // c.size, "centralizer escapes the kernel")


def _is_kernel(G: Group, N: _Member) -> bool:
    """Whether N, a normal subgroup of G held as a class set, is a Frobenius
    kernel (1 < N < G, C_G(x) <= N for all 1 != x in N): exactly when
    gcd(|N|, |G:N|) = 1 and |G:N| divides |cl_G(x)| for every nontrivial
    class of G inside N (README, "Frobenius kernels on class sizes")."""
    index, size = G.order // N.order, _class_data(G).sizes
    return (1 < N.order < G.order and math.gcd(N.order, index) == 1
            and all(size[k] % index == 0 for k in N.classes if k))


def _kernel_candidates(G: Group):
    """O_pi(G) as class sets, for the nonempty proper subsets pi of the primes
    of |G| in ``combinations`` order, skipping a pi whose Hall order n has an
    index m that does not divide n - 1: a Frobenius complement acts
    semiregularly on K - {1}, so the kernel K is never skipped."""
    primes = prime_factors(G.order)
    for r in range(1, len(primes)):
        for pi in map(frozenset, combinations(primes, r)):
            n = pi_part(G.order, pi)
            if (n - 1) % (G.order // n) == 0:
                yield _pi_core(G, pi, _ONE.classes)


@_memoised
def is_frobenius(G: Group) -> Optional[FrobeniusWitness]:
    """Search the normal Hall pi-cores, as class sets, for the kernel (a
    normal Hall subgroup, so O_pi(G) for pi the primes of its order; unique,
    and the only one built as a group), then a complement: a Hall subgroup
    for the primes of the index.  By Schur-Zassenhaus every subgroup of
    order dividing the index lies in a complement, so one greedy pass finds
    one."""
    if center(G).order > 1:
        return None  # Frobenius groups have trivial center
    m = next((m for m in _kernel_candidates(G) if _is_kernel(G, m)), None)
    if m is None:
        return None
    N = _normal_subgroup(G, m)
    index = G.order // N.order
    comp = _search_subgroup(G, frozenset(prime_factors(index)), index, f"FrobC({G.name})")
    _verify_frobenius(G, N, comp)
    return FrobeniusWitness(kernel=N, complement=comp, kernel_abelian=N.is_abelian(),
                            complement_abelian=comp.is_abelian())


@_memoised
def is_quasi_frobenius(G: Group) -> Optional[QuasiFrobeniusWitness]:
    """Apply the Frobenius test to G/Z(G) and pull the witness back to G.

    When Z(G) = 1 the test runs on G itself, through the memoised
    ``is_frobenius(G)``, and no quotient is built.
    """
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


def count_p_regular_classes(G: Group, p: int) -> int:
    """Number of classes with representative order coprime to p, central included."""
    require_primes(p)
    return sum(1 for c in conjugacy_classes(G) if c.element_order % p != 0)


def _p_regular_coset_classes(G: Group, p: int, cosets: tuple[frozenset[int], ...]) -> int:
    """The distinct entries of ``cosets`` (``coset_classes`` for some N) at
    the p-regular classes of G: the number of p-regular classes of G/N.
    Those entries cover every p-regular class of G/N: when xN has p'-order,
    the p-part of x lies in N, so xN is the image of x's p'-part."""
    return len({c for cls, c in zip(conjugacy_classes(G), cosets) if cls.element_order % p != 0})


def pi_class_size_criterion(G: Group, pi: frozenset[int] | set[int],
                            mode: str) -> tuple[bool, bool]:
    """Both sides of the class-size criteria for pi-elements.

    mode "pi_number": every pi-element has class size a pi-number iff
    G = O_pi(G) x O_pi'(G).  mode "pi_prime_number": every pi-element has
    class size a pi'-number iff the Hall pi-subgroups are abelian.  Returns
    (lhs, rhs) so callers can assert the biconditional; a member of pi that
    is not prime raises PreconditionViolated.
    """
    pi = frozenset(pi)
    require_primes(*pi)
    if len(pi) == 1:
        (p,) = pi
        if not _core_climb(G, p)[0]:
            raise PreconditionViolated(f"{G.name!r} is not {p}-separable")
    elif not is_soluble(G)[0]:
        raise PreconditionViolated(f"{G.name!r} is not soluble")

    pi_classes = [c for c in conjugacy_classes(G)
                  if is_pi_number(c.element_order, pi)]
    if mode == "pi_number":
        lhs = all(is_pi_number(c.size, pi) for c in pi_classes)
        others = frozenset(prime_factors(G.order)) - pi
        one = _ONE.classes
        rhs = _pi_core(G, pi, one).order * _pi_core(G, others, one).order == G.order
        return lhs, rhs
    if mode == "pi_prime_number":
        lhs = all(pi.isdisjoint(c.prime_support) for c in pi_classes)
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


_CASE_III_TARGET = "(C5xC5):Q8"


def intersection_subgroup(A: Group, B: Group, name: str) -> Group:
    return subgroup_from_elements(A, A.element_set() & B.element_set(), name)


@_memoised
def _central_meet(G: Group, H: Group) -> Group:
    """H n Z(G) for H = ``p_complement(G, p)``: once per (G, p)."""
    return intersection_subgroup(H, center(G), "HnZ(G)")


def _abelian_quasi_frobenius(G: Group, H: Group, qf: Optional[QuasiFrobeniusWitness]) -> bool:
    """Case ii's structure of a p-complement H of G, qf = ``is_quasi_frobenius(H)``:
    quasi-Frobenius with abelian kernel and complement, and Z(H) = H n Z(G)."""
    return (qf is not None and qf.kernel_abelian and qf.complement_abelian
            and center(H).element_set() == _central_meet(G, H).element_set())


@_memoised
def complement_case(G: Group, p: int) -> ComplementCase:
    """Match a (group, prime) pair against the three structural cases.

    Requires G p-separable with a triangle-free p-regular class graph and a
    non-central p-complement H.  Exactly one of the following must hold:
    (i) H is a q-group for a prime q != p; (ii) H is quasi-Frobenius on two
    primes with abelian kernel and complements and Z(H) = H n Z(G) of order
    at most 2; (iii) H is isomorphic to the order-200 group (C5xC5):Q8.
    The graph shape must pair with the case, and G must be soluble.  The
    match is memoised per (G, p); a refusal is raised again on each call.
    """
    if not _core_climb(G, p)[0]:
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

    h_primes = prime_factors(H.order)
    if len(h_primes) == 1:
        matches.append(ComplementCase("i", graph.shape, {"q": h_primes[0]}))

    qf = is_quasi_frobenius(H)
    if len(h_primes) == 2 and _abelian_quasi_frobenius(G, H, qf) and center(H).order <= 2:
        q, r = h_primes
        matches.append(ComplementCase("ii", graph.shape, {
            "q": q, "r": r, "center_order": center(H).order,
            "kernel_order": qf.kernel.order, "complement_order": qf.complement.order}))

    if not matches:
        raise NoCaseMatches(
            f"({G.name}, p={p}): no structural case matches (|H|={H.order})")
    if len(matches) > 1:
        raise NoCaseMatches(
            f"({G.name}, p={p}): ambiguous case match "
            f"{[m.case for m in matches]}")
    result = matches[0]
    if (result.case, result.shape) not in _CELLS:
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


def _elementary_abelian_over(G: Group, N: Group) -> bool:
    """Whether G/N is elementary abelian, for N normal in G, read inside G:
    G/N is generated by the images of G's generators, so it is when |G:N|
    is 1 or a power of one prime q and their commutators and q-th powers
    lie in N."""
    primes = prime_factors(G.order // N.order)
    if len(primes) > 1:
        return False
    mul, gens = G.product(), G.generators
    pairs = [(a, ~a) for a in gens]  # each generator inverted once
    return (all(mul(mul(ia, ib), mul(a, b)) in N for a, ia in pairs for b, ib in pairs)
            and all(g ** q in N for q in primes for g in gens))


@_memoised
def _mod_p_core(G: Group, p: int) -> Group | None:
    """G/O_p(G) as a quotient group, or None when O_p(G) = 1 and it is G
    itself, which G's cache does not hold (see ``structure.is_soluble``)."""
    core = p_core(G, p)
    return None if core.order == 1 else quotient(G, core).group


def _primitive_root(r: int) -> int:
    for g in range(2, r):
        n, x = 1, g
        while x != 1:
            x = (x * g) % r
            n += 1
        if n == r - 1:
            return g
    raise ValueError(f"no primitive root mod {r}")


def _quotient_candidates(shape: str, p: int, n: int) -> list[Group]:
    """Constructible named quotients for the disconnected shapes (informational)."""
    out = []
    if shape == "a":
        if n == 6 and p not in (2, 3):
            out.append(construct.symmetric(3))
        s = 1
        while True:
            r = 2 * p ** s + 1
            if r * (r - 1) > max(n, 1024):
                break
            if is_prime(r) and n == r * (r - 1):
                out.append(construct.affine_prime_group(r, _primitive_root(r),
                                                        f"C{r}:C{r - 1}"))
            s += 1
        for l in (2, 3):
            q = 3 ** l
            half = (q - 1) // 2
            if n == q * (q - 1) and half > 1 and is_prime_power(half) \
                    and prime_factors(half)[0] == p:
                out.append(construct.one_dim_affine_group(
                    3, l, name=f"E{q}:C{q - 1}"))
    elif shape == "b":
        if n == 12 and p not in (2, 3):
            out.append(construct.alternating(4))
        if n == 10 and p not in (2, 5):
            out.append(construct.dihedral(10))
        if n == 240 and p == 5:
            out.append(construct.one_dim_affine_group(2, 4, name="E16:C15"))
        s = 1
        while True:
            r = 4 * p ** s + 1
            if r * (r - 1) // 2 > max(n, 1024):
                break
            if is_prime(r) and n == r * (r - 1) // 2:
                g = _primitive_root(r)
                out.append(construct.affine_prime_group(
                    r, (g * g) % r, f"C{r}:C{(r - 1) // 2}"))
            s += 1
    return out


# --- the paper's (case, shape) cells ------------------------------------------
# A cell's refinement takes (G, p, case, H, k), for H the p-complement and k the
# number of p-regular classes, and returns (ok, detail).  complement_case refuses
# a pair whose cell is not in _CELLS, and verify's shape-refinement check runs
# the refinement of the pair's cell.

def _refine_i_d(G: Group, p: int, case: ComplementCase, H: Group, k: int):
    meet = _central_meet(G, H)
    if not _elementary_abelian_over(H, meet):
        return False, "H modulo its central intersection is not elementary abelian"
    if len(prime_factors(G.order)) != 2:
        return False, f"|pi(G)| = {len(prime_factors(G.order))}, expected 2"
    return True, f"H/(HnZ) elementary abelian of order {H.order // meet.order}"


def _quotient_note(G: Group, p: int, shape: str) -> str:
    """The informational comparison of G/O_p(G) with the named candidates."""
    q_order = G.order // p_core(G, p).order
    if q_order > ISO_CAP:
        return (f"quotient order {q_order} exceeds the isomorphism cap "
                f"{ISO_CAP}; comparison skipped")
    Q = _mod_p_core(G, p) or G
    matched = [c.name for c in _quotient_candidates(shape, p, Q.order) if is_isomorphic(Q, c)]
    if matched:
        return f"quotient matches {matched[0]}"
    return (f"no constructible quotient candidate at order {Q.order}; "
            "comparison recorded as informational")


def _refine_ii_a(G: Group, p: int, case: ComplementCase, H: Group, k: int):
    w = is_frobenius(H)
    if w is None:
        return False, "p-complement is not Frobenius"
    if not (is_elementary_abelian(w.kernel) and is_prime_power(w.kernel.order)
            and w.complement.order == 2):
        return False, ("kernel/complement shape is wrong: kernel order "
                       f"{w.kernel.order}, complement order {w.complement.order}")
    if k != 3:
        return False, f"expected 3 p-regular classes, found {k}"
    return True, _quotient_note(G, p, "a")


def _refine_ii_b(G: Group, p: int, case: ComplementCase, H: Group, k: int):
    w = is_frobenius(H)
    if w is None:
        return False, "p-complement is not Frobenius"
    if not (w.kernel_abelian and w.complement_abelian and len(prime_factors(H.order)) == 2):
        return False, "not a two-prime Frobenius group with abelian parts"
    if k != 4:
        return False, f"expected 4 p-regular classes, found {k}"
    return True, _quotient_note(G, p, "b")


def _refine_ii_c(G: Group, p: int, case: ComplementCase, H: Group, k: int):
    if k not in (5, 6):
        return False, f"expected 5 or 6 p-regular classes, found {k}"
    return True, f"case ii with center order {case.details['center_order']}"


def _refine_ii_e(G: Group, p: int, case: ComplementCase, H: Group, k: int):
    w = is_frobenius(H)
    if w is None:
        return False, "case ii at shape e but H is not Frobenius"
    if not (is_elementary_abelian(w.kernel) and is_prime(w.complement.order)):
        return False, "kernel not elementary abelian or complement not prime"
    return True, "Frobenius with elementary abelian kernel, prime complement"


def _refine_iii_f(G: Group, p: int, case: ComplementCase, H: Group, k: int):
    if p != 3:
        return False, f"shape f at p={p}, expected p=3"
    if _central_meet(G, H).order != 1:
        return False, "H meets the center nontrivially"
    if k != 4:
        return False, f"expected 4 p-regular classes, found {k}"
    Q = _mod_p_core(G, p) or G
    target_order = construct.atlas_order("(C5xC5):SL(2,3)")
    if Q.order != target_order:
        return False, f"quotient order {Q.order}, expected {target_order}"
    if not is_isomorphic(Q, construct.atlas_group("(C5xC5):SL(2,3)")):
        return False, "quotient is not isomorphic to the order-600 target"
    return True, "quotient isomorphic to (C5xC5):SL(2,3)"


_CELLS = {  # the seven cells the paper allows
    ("i", "d"): _refine_i_d,
    ("i", "e"): lambda G, p, case, H, k: (True,
                                          f"prime-power p-complement, q={case.details['q']}"),
    ("ii", "a"): _refine_ii_a,
    ("ii", "b"): _refine_ii_b,
    ("ii", "c"): _refine_ii_c,
    ("ii", "e"): _refine_ii_e,
    ("iii", "f"): _refine_iii_f,
}
