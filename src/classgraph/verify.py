"""Batch verification: run every applicable structural check on (group, prime)
pairs and aggregate machine-readable reports."""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import construct
from .classify import (ComplementCase, count_p_regular_classes, intersection_subgroup,
                       is_elementary_abelian, is_frobenius, is_quasi_frobenius,
                       pi_class_size_criterion, complement_case)
from .errors import InvalidParameter
from .graph import (ClassGraph, build_graph, central_p_prime_part,
                    coprime_class_span, diameter, is_triangle_free)
from .numtheory import is_prime, is_prime_power, p_part, prime_factors
from .perm import ConjClass, Group, center, class_index, conjugacy_classes
from .structure import (ISO_CAP, _class_centralizers, _is_normal,
                        coset_classes, hall_subgroup, is_isomorphic, is_p_separable,
                        is_soluble, normal_subgroups, p_complement, p_core,
                        p_prime_core, quotient)

REPORT_SCHEMA = "classgraph-report-v1"

ALL_CHECK_IDS = (
    "class-equation",
    "normal-class-divisibility",
    "quotient-class-divisibility",
    "coprime-commuting-divisibility",
    "p-regular-count-stable",
    "graph-consistency",
    "two-complete-components",
    "diameter-bound",
    "disconnected-p-structure",
    "coprime-span-structure",
    "class-size-product-form",
    "class-size-abelian-hall",
    "central-intersection-bound",
    "triangle-free-soluble",
    "case-classification",
    "shape-refinement",
)

_COUNTEREXAMPLE_CHECKS = {"triangle-free-soluble", "case-classification",
                          "shape-refinement"}

_SAMPLE_LIMIT = 500


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str
    millis: float


@dataclass
class VerificationReport:
    group_name: str
    group_order: int
    prime: int
    hypotheses: dict[str, bool]
    checks: list[CheckResult]
    graph_summary: dict
    counterexample: bool = False

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json_dict(self, include_timings: bool = False) -> dict:
        checks = []
        for c in self.checks:
            entry = {"id": c.check_id, "status": c.status, "detail": c.detail}
            if include_timings:
                entry["millis"] = round(c.millis, 3)
            checks.append(entry)
        return {
            "group": self.group_name,
            "order": self.group_order,
            "prime": self.prime,
            "hypotheses": dict(self.hypotheses),
            "graph": dict(self.graph_summary),
            "checks": checks,
            "counterexample": self.counterexample,
        }


def _stride_sample(items: tuple, limit: int = _SAMPLE_LIMIT) -> list:
    if len(items) <= limit:
        return list(items)
    idx = sorted({i * len(items) // limit for i in range(limit)})
    return [items[i] for i in idx]


def _mod_p_core(G: Group, p: int) -> Group:
    """G/O_p(G): G itself when O_p(G) = 1, else the quotient group, memoised."""
    core = p_core(G, p)
    if core.order == 1:
        return G
    return G._memo(("quotient", core.element_set()), lambda: quotient(G, core)).group


# ---------------------------------------------------------------------------
# individual checks; each returns (ok, detail)

def _check_class_equation(G: Group):
    total = sum(c.size for c in conjugacy_classes(G))
    divides = all(G.order % c.size == 0 for c in conjugacy_classes(G))
    return (total == G.order and divides,
            f"sum of class sizes {total} vs order {G.order}")


def _normal_class_sizes(G: Group, N: Group) -> dict[ConjClass, int]:
    """|cl_N(x)| for each class of G inside N (N normal in G), keyed by the
    class of x.

    |cl_N(x)| = |N| / |C_G(x) n N|, and C_G(x^g) = C_G(x)^g with N^g = N,
    so it is the same for every x in one class of G: one centralizer per
    class of G.
    """
    members = N.element_set()
    return {c: N.order // len(cent & members)
            for c, cent in zip(conjugacy_classes(G), _class_centralizers(G))
            if c.representative in members}


def _check_normal_class_divisibility(G: Group):
    # a failure counts every element of its class, as a scan over N would
    def build():
        bad = 0
        for N in normal_subgroups(G):
            if N.order <= 1:
                continue
            for c, inner in _normal_class_sizes(G, N).items():
                if c.size % inner != 0:
                    bad += c.size
        return (bad == 0,
                f"{len(normal_subgroups(G))} normal subgroups sampled, "
                f"{bad} divisibility failures")
    return G._memo("normal_div_check", build)


def _check_quotient_class_divisibility(G: Group):
    # |cl_{G/N}(xN)| is the number of N-cosets that cl_G(x) meets
    def build():
        bad = 0
        classes = conjugacy_classes(G)
        for N in normal_subgroups(G):
            if N.order == 1 or N.order == G.order:
                continue
            for c, cosets in zip(classes, coset_classes(G, N)):
                if c.size % len(cosets) != 0:
                    bad += 1
        return bad == 0, f"{bad} coset-class divisibility failures"
    return G._memo("quotient_div_check", build)


def _prime_part_powers(z, n: int, mul) -> list:
    """The q-parts of z, of order n, for the primes q of n in increasing order
    (none for the identity).

    The q-part is z^(k * (k^-1 mod q^a)) for q^a the q-part of n and
    k = n / q^a, taken by repeated squaring through ``mul``.
    """
    qs = prime_factors(n)
    if len(qs) == 1:
        return [z]
    parts = []
    for q in qs:
        qa = p_part(n, q)
        k = n // qa
        e = k * pow(k, -1, qa)
        out, base = None, z
        while e:
            if e & 1:
                out = base if out is None else mul(out, base)
            e >>= 1
            if e:
                base = mul(base, base)
        parts.append(out)
    return parts


def _check_coprime_commuting_divisibility(G: Group):
    # commuting x, y of coprime orders are the pi- and pi'-parts of z = xy,
    # pi the primes of o(x); so each z in G gives one pair per subset pi of
    # the primes of o(z), and a pair counts when both parts are sampled
    def build():
        classes = class_index(G)
        mul = G.product()
        ident = G.identity
        sampled = set(_stride_sample(G.elements))
        bad = 0
        checked = 0
        for z in G.elements:
            cz = classes[z]
            n = cz.element_order
            pi_parts = [ident]  # pi_parts[m]: the product of the q-parts in bitmask m
            for zq in _prime_part_powers(z, n, mul):
                pi_parts += [zq] + [mul(x, zq) for x in pi_parts[1:]]
            full = len(pi_parts) - 1
            sz = cz.size
            for m, x in enumerate(pi_parts):
                y = pi_parts[full ^ m]
                if x in sampled and y in sampled:
                    checked += 1
                    if sz % classes[x].size != 0 or sz % classes[y].size != 0:
                        bad += 1
        return bad == 0, f"{checked} commuting coprime pairs, {bad} failures"
    return G._memo("coprime_div_check", build)


def _check_count_stable(G: Group, p: int):
    core = p_core(G, p)
    if core.order == 1:
        return (True, "trivial p-core; counts agree by construction")
    a = count_p_regular_classes(G, p)
    b = count_p_regular_classes(G, p, over=core)
    return a == b, f"{a} p-regular classes in the group, {b} in the quotient"


def _check_graph_consistency(G: Group, graph: ClassGraph):
    for i, j in graph.edges:
        if i == j:
            return False, "loop edge"
        share = graph.vertices[i].prime_support & graph.vertices[j].prime_support
        if not share:
            return False, f"edge ({i},{j}) without a shared prime"
    for i in range(len(graph.vertices)):
        for j in range(i + 1, len(graph.vertices)):
            share = graph.vertices[i].prime_support & graph.vertices[j].prime_support
            if share and (i, j) not in graph.edges:
                return False, f"missing edge ({i},{j})"
    component_of = {v: k for k, comp in enumerate(graph.components) for v in comp}
    covered = sorted(v for comp in graph.components for v in comp)
    if (covered != list(range(len(graph.vertices)))
            or any(component_of[i] != component_of[j] for i, j in graph.edges)):
        return False, "components do not partition the vertices"
    return True, (f"{len(graph.vertices)} vertices, {len(graph.edges)} edges, "
                  f"shape {graph.shape}")


def _check_two_complete_components(graph: ClassGraph):
    if len(graph.components) <= 1:
        return True, "graph connected or empty; nothing to check"
    if len(graph.components) != 2:
        return False, f"{len(graph.components)} components"
    nb = graph.neighbours
    for comp in graph.components:
        whole = sum(1 << v for v in comp)
        if any(nb[v] | 1 << v != whole for v in comp):
            return False, f"component {comp} is not complete"
    return True, "two components, both complete"


def _check_diameter_bound(graph: ClassGraph):
    if not graph.vertices or len(graph.components) != 1:
        return True, "graph empty or disconnected; nothing to check"
    d = diameter(graph)
    return d is not None and d <= 3, f"diameter {d}"


def _pi0(graph: ClassGraph) -> tuple[frozenset[int], int]:
    """Primes of the class sizes in the component of a maximal-size vertex."""
    best = max(range(len(graph.vertices)), key=lambda i: graph.vertices[i].size)
    comp = next(c for c in graph.components if best in c)
    primes: set[int] = set()
    for v in comp:
        primes |= graph.vertices[v].prime_support
    return frozenset(primes), best


def _check_disconnected_structure(G: Group, p: int, graph: ClassGraph):
    if len(graph.components) <= 1:
        return True, "graph connected or empty; nothing to check"
    pi0, _ = _pi0(graph)
    H = p_complement(G, p)
    qf = is_quasi_frobenius(H)
    zh = center(H)
    meet = intersection_subgroup(H, center(G), "HnZ(G)")

    def qf_ok():
        return (qf is not None and qf.kernel_abelian and qf.complement_abelian
                and zh.element_set() == meet.element_set())

    if p not in pi0:
        nilpotent = G.order // p_part(G.order, p) == p_prime_core(G, p).order
        if not nilpotent:
            return False, "group is not p-nilpotent"
        if not qf_ok():
            return False, "p-complement is not quasi-Frobenius with abelian parts"
        # the complement K found must be centralized by some Sylow p-subgroup,
        # which holds exactly when |C_G(K)| has the full p-part of |G|
        if p_part(G.order, p) == 1:
            return True, "p-nilpotent, quasi-Frobenius; Sylow p trivial"
        mul = G.product()
        gens = qf.complement.generators
        centralizer = sum(all(mul(g, c) is mul(c, g) for c in gens) for g in G.elements)
        if p_part(centralizer, p) == p_part(G.order, p):
            return True, ("p-nilpotent, quasi-Frobenius, complement "
                          "centralized by a Sylow p-subgroup")
        return False, "no Sylow p-subgroup centralizes the found complement"

    others = frozenset(q for q in pi0 if q != p)
    if len(pi0) >= 3:
        return (qf_ok(), "p in pi0, |pi0| >= 3: quasi-Frobenius structure "
                + ("holds" if qf_ok() else "fails"))
    # at most one prime: a Sylow subgroup or the trivial group
    if hall_subgroup(G, others).is_abelian():
        return (qf_ok(), "p in pi0 with abelian Hall subgroup: structure "
                + ("holds" if qf_ok() else "fails"))
    return True, ("unresolved configuration (p in pi0, two primes, "
                  "non-abelian Hall subgroup); reported without classification")


def _check_coprime_span(G: Group, p: int, graph: ClassGraph):
    noncentral = list(graph.vertices)
    best = max(c.size for c in noncentral)
    maximal = [c for c in noncentral if c.size == best]
    zp = central_p_prime_part(G, p)
    for b0 in maximal:
        span = coprime_class_span(G, p, max_class=b0).span
        if not span.is_abelian():
            return False, f"span for max class of size {b0.size} is not abelian"
        if not _is_normal(G, span):
            return False, "span is not normal"
        if math.gcd(span.order, p) != 1:
            return False, "span order is divisible by p"
        if not zp.element_set() <= span.element_set():
            return False, "span misses the p'-part of the center"
        ratio = span.order // zp.order
        extra = set(prime_factors(ratio)) - set(prime_factors(b0.size))
        if extra:
            return False, f"span/center has stray primes {sorted(extra)}"
    return True, (f"checked {len(maximal)} maximal class choice(s); "
                  f"span order {coprime_class_span(G, p).span.order}")


def _check_class_size_criterion(G: Group, p: int, mode: str):
    lhs, rhs = pi_class_size_criterion(G, frozenset({p}), mode)
    return lhs == rhs, f"lhs={lhs}, rhs={rhs}"


def _check_central_intersection(G: Group, p: int):
    H = p_complement(G, p)
    meet = intersection_subgroup(H, center(G), "HnZ(G)")
    return meet.order <= 2, f"|H n Z(G)| = {meet.order}"


def _check_soluble(G: Group):
    ok, cert = is_soluble(G)
    return ok, f"derived series lengths {[t.order for t in cert.terms]}"


# --- shape refinements ------------------------------------------------------

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


def _check_shape_refinement(G: Group, p: int, graph: ClassGraph,
                            case: ComplementCase):
    H = p_complement(G, p)
    shape = graph.shape
    k = count_p_regular_classes(G, p)
    notes = []

    if shape in ("a", "b"):
        w = is_frobenius(H)
        if w is None:
            return False, "p-complement is not Frobenius"
        if shape == "a":
            if not (is_elementary_abelian(w.kernel) and is_prime_power(w.kernel.order)
                    and w.complement.order == 2):
                return False, ("kernel/complement shape is wrong: kernel order "
                               f"{w.kernel.order}, complement order {w.complement.order}")
            if k != 3:
                return False, f"expected 3 p-regular classes, found {k}"
        else:
            if not (w.kernel_abelian and w.complement_abelian
                    and len(prime_factors(H.order)) == 2):
                return False, "not a two-prime Frobenius group with abelian parts"
            if k != 4:
                return False, f"expected 4 p-regular classes, found {k}"
        q_order = G.order // p_core(G, p).order
        if q_order > ISO_CAP:
            notes.append(f"quotient order {q_order} exceeds the isomorphism cap "
                         f"{ISO_CAP}; comparison skipped")
        else:
            Q = _mod_p_core(G, p)
            cands = _quotient_candidates(shape, p, Q.order)
            matched = [c.name for c in cands if is_isomorphic(Q, c)]
            if matched:
                notes.append(f"quotient matches {matched[0]}")
            else:
                notes.append("no constructible quotient candidate at order "
                             f"{Q.order}; comparison recorded as informational")
    elif shape == "c":
        if case.case != "ii":
            return False, f"case {case.case} with shape c"
        if k not in (5, 6):
            return False, f"expected 5 or 6 p-regular classes, found {k}"
        notes.append(f"case ii with center order {case.details['center_order']}")
    elif shape == "d":
        meet = intersection_subgroup(H, center(G), "HnZ(G)")
        if meet.order == 1:
            reduced = H
        else:
            Q, _ = quotient(H, meet)
            reduced = Q
        if not is_elementary_abelian(reduced):
            return False, "H modulo its central intersection is not elementary abelian"
        if len(prime_factors(G.order)) != 2:
            return False, f"|pi(G)| = {len(prime_factors(G.order))}, expected 2"
        notes.append(f"H/(HnZ) elementary abelian of order {reduced.order}")
    elif shape == "e":
        if case.case == "i":
            notes.append(f"prime-power p-complement, q={case.details['q']}")
        else:
            w = is_frobenius(H)
            if w is None:
                return False, "case ii at shape e but H is not Frobenius"
            if not (is_elementary_abelian(w.kernel)
                    and is_prime(w.complement.order)):
                return False, "kernel not elementary abelian or complement not prime"
            notes.append("Frobenius with elementary abelian kernel, prime complement")
    elif shape == "f":
        if p != 3:
            return False, f"shape f at p={p}, expected p=3"
        meet = intersection_subgroup(H, center(G), "HnZ(G)")
        if meet.order != 1:
            return False, "H meets the center nontrivially"
        if k != 4:
            return False, f"expected 4 p-regular classes, found {k}"
        Q = _mod_p_core(G, p)
        target_order = construct.atlas_order("(C5xC5):SL(2,3)")
        if Q.order != target_order:
            return False, f"quotient order {Q.order}, expected {target_order}"
        if not is_isomorphic(Q, construct.atlas_group("(C5xC5):SL(2,3)")):
            return False, "quotient is not isomorphic to the order-600 target"
        notes.append("quotient isomorphic to (C5xC5):SL(2,3)")
    else:
        return False, f"unclassifiable shape {shape!r}"
    return True, "; ".join(notes) if notes else "refinement holds"


# ---------------------------------------------------------------------------
# the per-pair driver

def _unverified_report(G: Group, p: int, exc: Exception) -> VerificationReport:
    """The report of a pair whose hypotheses could not be computed: no
    hypothesis or graph, and every check a failure naming the exception."""
    detail = f"hypotheses not computed: {type(exc).__name__}: {exc}"
    return VerificationReport(
        group_name=G.name, group_order=G.order, prime=p, hypotheses={},
        checks=[CheckResult(cid, "fail", detail, 0.0) for cid in ALL_CHECK_IDS],
        graph_summary={})


def verify_pair(G: Group, p: int) -> VerificationReport:
    """Run every applicable check for one (group, prime) pair.

    Checks whose hypotheses fail are recorded as skipped with the failed
    hypothesis named; genuine errors inside a check are recorded as
    failures, never raised.
    """
    try:
        separable, _ = is_p_separable(G, p)
        graph = build_graph(G, p)
        tf = is_triangle_free(graph)
    except Exception as exc:  # nor may a failure in the hypotheses
        return _unverified_report(G, p, exc)
    noncentral = bool(graph.vertices)

    report = VerificationReport(
        group_name=G.name,
        group_order=G.order,
        prime=p,
        hypotheses={
            "p_separable": separable,
            "triangle_free": tf,
            "H_noncentral": noncentral,
        },
        checks=[],
        graph_summary={
            "vertex_sizes": list(graph.vertex_sizes()),
            "vertex_orders": [v.element_order for v in graph.vertices],
            "edges": sorted(list(e) for e in graph.edges),
            "shape": graph.shape,
        },
    )

    case_holder: dict[str, ComplementCase] = {}

    def run(check_id: str, fn, gate: str | None = None):
        if gate is not None:
            report.checks.append(CheckResult(check_id, "skipped",
                                             f"hypothesis failed: {gate}", 0.0))
            return
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:  # one broken check must not abort a corpus run
            ok, status, detail = False, "fail", f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        report.checks.append(CheckResult(check_id, status, detail, ms))
        if status == "fail" and check_id in _COUNTEREXAMPLE_CHECKS:
            report.counterexample = True

    sep_gate = None if separable else "p-separability"
    tf_gate = None if tf else "triangle-freeness"
    nc_gate = None if noncentral else "H-noncentrality"

    run("class-equation", lambda: _check_class_equation(G))
    run("normal-class-divisibility", lambda: _check_normal_class_divisibility(G))
    run("quotient-class-divisibility", lambda: _check_quotient_class_divisibility(G))
    run("coprime-commuting-divisibility",
        lambda: _check_coprime_commuting_divisibility(G))
    run("p-regular-count-stable", lambda: _check_count_stable(G, p))
    run("graph-consistency", lambda: _check_graph_consistency(G, graph))
    run("two-complete-components", lambda: _check_two_complete_components(graph),
        gate=sep_gate)
    run("diameter-bound", lambda: _check_diameter_bound(graph), gate=sep_gate)
    run("disconnected-p-structure",
        lambda: _check_disconnected_structure(G, p, graph), gate=sep_gate)
    run("coprime-span-structure", lambda: _check_coprime_span(G, p, graph),
        gate=sep_gate or nc_gate)
    run("class-size-product-form",
        lambda: _check_class_size_criterion(G, p, "pi_number"), gate=sep_gate)
    run("class-size-abelian-hall",
        lambda: _check_class_size_criterion(G, p, "pi_prime_number"),
        gate=sep_gate)

    h_pp_gate = sep_gate or tf_gate or nc_gate
    if h_pp_gate is None:
        try:
            h_order = p_complement(G, p).order
        except Exception:  # the gate stays open: the check's own call records it
            pass
        else:
            if h_order == 1 or is_prime_power(h_order):
                h_pp_gate = "H-non-prime-power-order"
    run("central-intersection-bound",
        lambda: _check_central_intersection(G, p), gate=h_pp_gate)
    run("triangle-free-soluble", lambda: _check_soluble(G),
        gate=sep_gate or tf_gate)

    def run_case():
        case = complement_case(G, p)
        case_holder["case"] = case
        return True, f"case {case.case}, shape {case.shape}, {case.details}"

    run("case-classification", run_case, gate=sep_gate or tf_gate or nc_gate)

    if "case" in case_holder:
        run("shape-refinement",
            lambda: _check_shape_refinement(G, p, graph, case_holder["case"]))
    else:
        run("shape-refinement", lambda: (False, "unreachable"),
            gate=sep_gate or tf_gate or nc_gate or "case-classification-failed")

    return report


# ---------------------------------------------------------------------------
# corpus runs

@dataclass
class RunSummary:
    reports: list[VerificationReport] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.reports:
            for k, v in r.counts().items():
                out[k] += v
        return out

    def counterexamples(self) -> list[VerificationReport]:
        return [r for r in self.reports if r.counterexample]

    def failures(self) -> int:
        return self.counts()["fail"]

    def exit_code(self) -> int:
        return 1 if self.failures() else 0

    def to_json_dict(self, include_timings: bool = False) -> dict:
        ordered = (self.counterexamples()
                   + [r for r in self.reports if not r.counterexample])
        return {
            "schema": REPORT_SCHEMA,
            "summary": {
                "pairs": len(self.reports),
                **self.counts(),
                "counterexamples": [
                    {"group": r.group_name, "prime": r.prime}
                    for r in self.counterexamples()
                ],
            },
            "reports": [r.to_json_dict(include_timings) for r in ordered],
        }

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timings), indent=2) + "\n"


def default_primes(G: Group) -> tuple[int, ...]:
    """All primes dividing |G| plus the smallest prime that does not."""
    dividing = list(prime_factors(G.order))
    q = 2
    while q in dividing:
        q = next_prime(q)
    return tuple(sorted(dividing + [q]))


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def primes_for(G: Group, mode: tuple) -> tuple[int, ...]:
    kind = mode[0]
    if kind == "all":
        return default_primes(G)
    if kind == "upto":
        out, q = [], 2
        while q <= mode[1]:
            out.append(q)
            q = next_prime(q)
        return tuple(out)
    if kind == "list":
        primes = tuple(mode[1])
        for q in primes:
            if not is_prime(q):
                raise InvalidParameter(f"{q} is not prime")
        if len(set(primes)) != len(primes):
            raise InvalidParameter(f"a prime is repeated in {list(primes)}")
        return primes
    raise InvalidParameter(f"unknown prime mode {mode!r}")


def _verify_group_worker(args) -> list[VerificationReport]:
    # one task per group so the per-group caches are shared across its primes
    G, primes = args
    return [verify_pair(G, p) for p in primes]


def run_corpus(groups: list[Group], primes_mode: tuple = ("all",),
               _unused=None, jobs: int = 1) -> RunSummary:
    """One report per (group, prime); deterministic ordering regardless of jobs.

    The third parameter is ignored; it is kept for ``bench/worker.py``,
    which still passes a value there.
    """
    tasks = [(G, primes_for(G, primes_mode))
             for G in sorted(groups, key=lambda g: g.name)]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_verify_group_worker, tasks))
    else:
        chunks = [_verify_group_worker(t) for t in tasks]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=lambda r: (r.group_name, r.prime))
    return RunSummary(reports=reports)
