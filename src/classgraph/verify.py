"""Batch verification: run every applicable structural check on (group, prime)
pairs and aggregate machine-readable reports."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii  # json.dumps's escaper, in C

from .classify import (_CELLS, _abelian_quasi_frobenius, _central_meet,
                       _p_regular_coset_classes, count_p_regular_classes, is_quasi_frobenius,
                       pi_class_size_criterion, complement_case)
from .errors import InvalidParameter
from .graph import (ClassGraph, _higher, build_graph, central_p_prime_part,
                    coprime_class_span, diameter, is_triangle_free)
from .numtheory import is_prime, is_prime_power, p_part, prime_factors, require_primes
from .perm import Group, _memoised, class_index, conjugacy_classes
from .structure import (_ONE, _Member, _centralizer_meet, _class_data, _core_climb,
                        _coset_classes, _is_normal, _normal_lattice, _pi_core, hall_subgroup,
                        is_soluble, p_complement)

REPORT_SCHEMA = "classgraph-report-v1"

_SAMPLE_LIMIT = 500


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str
    millis: float  # kept in memory only; a report never holds timings


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

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.group_order,
            "prime": self.prime,
            "hypotheses": dict(self.hypotheses),
            "graph": dict(self.graph_summary),
            "checks": [{"id": c.check_id, "status": c.status, "detail": c.detail}
                       for c in self.checks],
            "counterexample": self.counterexample,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``, written in one
        pass (see ``_report_json``)."""
        return _report_json(self, 0) + "\n"


def _stride_sample(items: tuple, limit: int = _SAMPLE_LIMIT) -> list:
    if len(items) <= limit:
        return list(items)
    idx = sorted({i * len(items) // limit for i in range(limit)})
    return [items[i] for i in idx]


# ---------------------------------------------------------------------------
# individual checks; each returns (ok, detail)

def _check_class_equation(G: Group):
    total = sum(c.size for c in conjugacy_classes(G))
    divides = all(G.order % c.size == 0 for c in conjugacy_classes(G))
    return (total == G.order and divides,
            f"sum of class sizes {total} vs order {G.order}")


def _inner_class_size(G: Group, N: _Member, k: int) -> int:
    """|cl_N(x)| for x in the k-th class of G and N a lattice member holding
    it: |N| / |C_G(x) n N|, the same for every x in the class since
    C_G(x^g) = C_G(x)^g and N^g = N.  |C_G(x_k) n N| is read, for every k
    at once, off the class centralizer counts of N's classes
    (``structure._centralizer_meet``)."""
    return N.order // _centralizer_meet(G, N.classes)[k]


@_memoised
def _check_normal_class_divisibility(G: Group):
    # a failure counts every element of its class, as a scan over N would;
    # N = 1 and N = G have none, since |cl_N(x)| is 1 or |cl_G(x)| itself
    lattice, size = _normal_lattice(G), _class_data(G).sizes
    bad = sum(size[k] for N in lattice if 1 < N.order < G.order for k in N.classes
              if size[k] % _inner_class_size(G, N, k))
    return (bad == 0,
            f"{len(lattice)} normal subgroups sampled, {bad} divisibility failures")


@_memoised
def _check_quotient_class_divisibility(G: Group):
    # |cl_{G/N}(xN)| = |cl_G(x)N| / |N|, summed over the classes of cl_G(x)N
    size = _class_data(G).sizes
    bad = sum(1 for N in _normal_lattice(G) if 1 < N.order < G.order
              for s, over in zip(size, _coset_classes(G, N.classes))
              if s % (sum(map(size.__getitem__, over)) // N.order))
    return bad == 0, f"{bad} coset-class divisibility failures"


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


def _pi_parts(z, n: int, mul, ident) -> list:
    """The pi-parts of z, of order n, indexed by bitmask over the primes of
    n in increasing order: entry m is the product of the q-parts of z for
    the primes q in m, so entry 0 is ``ident``."""
    parts = [ident]
    for zq in _prime_part_powers(z, n, mul):
        parts += [zq] + [mul(x, zq) for x in parts[1:]]
    return parts


@_memoised
def _check_coprime_commuting_divisibility(G: Group):
    # commuting x, y of coprime orders are the pi- and pi'-parts of z = xy,
    # pi the primes of o(x); so each z in G gives one pair per subset pi of
    # the primes of o(z).  Whether a pair fails is a class function of z,
    # so the representative of each class, weighted by the class size,
    # stands for all of its elements
    if G.order > _SAMPLE_LIMIT:
        return _sampled_coprime_commuting(G, _stride_sample(G.elements))
    data = _class_data(G)
    position, size = data.position, data.sizes
    mul, ident = G.product(), G.identity
    bad = checked = 0
    for c in conjugacy_classes(G):
        parts, sz = _pi_parts(c.representative, c.element_order, mul, ident), c.size
        full = len(parts) - 1
        checked += sz * len(parts)
        bad += sz * sum(1 for m, x in enumerate(parts)
                        if sz % size[position(x)] or sz % size[position(parts[full ^ m])])
    return bad == 0, f"{checked} commuting coprime pairs, {bad} failures"


def _sampled_coprime_commuting(G: Group, sample) -> tuple[bool, str]:
    """The coprime-commuting check as a walk over every element z of G, a
    pair counting when both its parts are in ``sample``.

    It is kept only for groups above ``_SAMPLE_LIMIT``, whose pinned counts
    depend on where the sampled elements sit in the enumeration, so they
    cannot be read per class.  Making the check exhaustive for every group
    (one re-pin of the reports) deletes this walk together with
    ``_stride_sample``.
    """
    classes = class_index(G)
    mul, ident = G.product(), G.identity
    sampled = set(sample)
    bad = checked = 0
    for z in G.elements:
        cz = classes[z]
        parts = _pi_parts(z, cz.element_order, mul, ident)
        full = len(parts) - 1
        sz = cz.size
        for m, x in enumerate(parts):
            y = parts[full ^ m]
            if x in sampled and y in sampled:
                checked += 1
                if sz % classes[x].size != 0 or sz % classes[y].size != 0:
                    bad += 1
    return bad == 0, f"{checked} commuting coprime pairs, {bad} failures"


def _check_count_stable(G: Group, p: int):
    core = _pi_core(G, frozenset({p}), _ONE.classes)  # O_p(G) as a class set
    if core.order == 1:
        return (True, "trivial p-core; counts agree by construction")
    a = count_p_regular_classes(G, p)
    b = _p_regular_coset_classes(G, p, _coset_classes(G, core.classes))
    return a == b, f"{a} p-regular classes in the group, {b} in the quotient"


def _check_graph_consistency(G: Group, graph: ClassGraph):
    nb, verts = graph.neighbours, graph.vertices
    # i and j share a prime when their prime supports meet: one test per
    # pair of distinct supports gives each vertex's expected neighbour mask
    alike: dict[frozenset, int] = {}
    for v, c in enumerate(verts):
        alike[c.prime_support] = alike.get(c.prime_support, 0) | 1 << v
    meets = {a: sum(mask for b, mask in alike.items() if a & b) for a in alike}
    expected = [meets[c.prime_support] & ~(1 << v) for v, c in enumerate(verts)]
    inside = (1 << len(verts)) - 1  # a bit past the vertices fails the component test
    wrong = [(m ^ e) & inside for m, e in zip(nb, expected)]
    if any(wrong):  # name the first fault of a walk over the pairs i < j in order
        for i, w in enumerate(wrong):
            if w >> i & 1:
                return False, "loop edge"
            j = next((j for j in range(i + 1, len(verts)) if (w >> j | wrong[j] >> i) & 1), None)
            if j is not None:
                return False, (f"missing edge ({i},{j})" if expected[i] >> j & 1
                               else f"edge ({i},{j}) without a shared prime")
    edges = sum(map(int.bit_count, expected)) // 2
    comps = graph.components
    wholes = [sum(1 << v for v in comp) for comp in comps]
    if (sorted(v for comp in comps for v in comp) != list(range(len(verts)))
            or any(nb[v] & ~whole for comp, whole in zip(comps, wholes) for v in comp)):
        return False, "components do not partition the vertices"
    return True, f"{len(verts)} vertices, {edges} edges, shape {graph.shape}"


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
    abelian_qf = _abelian_quasi_frobenius(G, H, qf)
    if p not in pi0:
        p_prime = frozenset(prime_factors(G.order)) - {p}
        if _pi_core(G, p_prime, _ONE.classes).order != G.order // p_part(G.order, p):
            return False, "group is not p-nilpotent"
        if not abelian_qf:
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
        return (abelian_qf, "p in pi0, |pi0| >= 3: quasi-Frobenius structure "
                + ("holds" if abelian_qf else "fails"))
    # at most one prime: a Sylow subgroup or the trivial group
    if hall_subgroup(G, others).is_abelian():
        return (abelian_qf, "p in pi0 with abelian Hall subgroup: structure "
                + ("holds" if abelian_qf else "fails"))
    return True, ("unresolved configuration (p in pi0, two primes, "
                  "non-abelian Hall subgroup); reported without classification")


def _check_coprime_span(G: Group, p: int, graph: ClassGraph):
    best = max(c.size for c in graph.vertices)
    maximal = [c for c in graph.vertices if c.size == best]
    # the span, made of the classes of size coprime to |B0|, depends on the
    # maximal class B0 only through |B0| = best: one span serves every B0
    zp = central_p_prime_part(G, p)
    span = coprime_class_span(G, p).span
    if not span.is_abelian():
        return False, f"span for max class of size {best} is not abelian"
    if not _is_normal(G, span):
        return False, "span is not normal"
    if math.gcd(span.order, p) != 1:
        return False, "span order is divisible by p"
    if not zp.element_set() <= span.element_set():
        return False, "span misses the p'-part of the center"
    extra = set(prime_factors(span.order // zp.order)) - set(prime_factors(best))
    if extra:
        return False, f"span/center has stray primes {sorted(extra)}"
    return True, (f"checked {len(maximal)} maximal class choice(s); "
                  f"span order {span.order}")


def _check_class_size_criterion(G: Group, p: int, mode: str):
    lhs, rhs = pi_class_size_criterion(G, frozenset({p}), mode)
    return lhs == rhs, f"lhs={lhs}, rhs={rhs}"


def _check_central_intersection(G: Group, p: int):
    meet = _central_meet(G, p_complement(G, p))
    return meet.order <= 2, f"|H n Z(G)| = {meet.order}"


def _check_soluble(G: Group):
    ok, cert = is_soluble(G)
    return ok, f"derived series lengths {[t.order for t in cert.terms]}"


def _check_case(G: Group, p: int):
    case = complement_case(G, p)
    return True, f"case {case.case}, shape {case.shape}, {case.details}"


def _check_shape_refinement(G: Group, p: int):
    case = complement_case(G, p)  # memoised: the one case-classification made
    return _CELLS[case.case, case.shape](G, p, case, p_complement(G, p),
                                         count_p_regular_classes(G, p))


# ---------------------------------------------------------------------------
# the per-pair driver

# One row per check, in the order the checks run: its id, the hypotheses it
# needs (a skip names the first that fails), its check of (G, p, graph), and
# whether a fail marks the pair as a counterexample.  A row calls the check
# by name, so that a function replaced on the module is the one that runs.
_SEP = ("p-separability",)
_CLASSIFIED = ("p-separability", "triangle-freeness", "H-noncentrality")  # complement_case needs
_CHECKS = (
    ("class-equation", (), lambda G, p, graph: _check_class_equation(G), False),
    ("normal-class-divisibility", (),
     lambda G, p, graph: _check_normal_class_divisibility(G), False),
    ("quotient-class-divisibility", (),
     lambda G, p, graph: _check_quotient_class_divisibility(G), False),
    ("coprime-commuting-divisibility", (),
     lambda G, p, graph: _check_coprime_commuting_divisibility(G), False),
    ("p-regular-count-stable", (), lambda G, p, graph: _check_count_stable(G, p), False),
    ("graph-consistency", (), lambda G, p, graph: _check_graph_consistency(G, graph), False),
    ("two-complete-components", _SEP,
     lambda G, p, graph: _check_two_complete_components(graph), False),
    ("diameter-bound", _SEP, lambda G, p, graph: _check_diameter_bound(graph), False),
    ("disconnected-p-structure", _SEP,
     lambda G, p, graph: _check_disconnected_structure(G, p, graph), False),
    ("coprime-span-structure", _SEP + ("H-noncentrality",),
     lambda G, p, graph: _check_coprime_span(G, p, graph), False),
    ("class-size-product-form", _SEP,
     lambda G, p, graph: _check_class_size_criterion(G, p, "pi_number"), False),
    ("class-size-abelian-hall", _SEP,
     lambda G, p, graph: _check_class_size_criterion(G, p, "pi_prime_number"), False),
    ("central-intersection-bound", _CLASSIFIED + ("H-non-prime-power-order",),
     lambda G, p, graph: _check_central_intersection(G, p), False),
    ("triangle-free-soluble", _SEP + ("triangle-freeness",),
     lambda G, p, graph: _check_soluble(G), True),
    ("case-classification", _CLASSIFIED, lambda G, p, graph: _check_case(G, p), True),
    ("shape-refinement", _CLASSIFIED + ("case-classification-failed",),
     lambda G, p, graph: _check_shape_refinement(G, p), True),
)

ALL_CHECK_IDS = tuple(row[0] for row in _CHECKS)

# the pair's own hypotheses, by the name a skip gives them
_PAIR_HYPOTHESES = {"p-separability": "p_separable", "triangle-freeness": "triangle_free",
                    "H-noncentrality": "H_noncentral"}


def _failed_hypothesis(needs: tuple, G: Group, p: int,
                       report: VerificationReport) -> str | None:
    """The first hypothesis in ``needs`` that fails for the pair, or None.  The
    two derived ones are worked out only when a check that needs them is reached."""
    for name in needs:
        if name in _PAIR_HYPOTHESES:
            holds = report.hypotheses[_PAIR_HYPOTHESES[name]]
        elif name == "H-non-prime-power-order":
            try:
                h_order = p_complement(G, p).order
            except Exception:  # left open: the check's own call records the failure
                holds = True
            else:
                holds = h_order != 1 and not is_prime_power(h_order)
        else:  # "case-classification-failed", read off the check run just before
            holds = report.checks[-1].status == "pass"
        if not holds:
            return name
    return None


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
    failures, never raised.  A p that is not prime raises PreconditionViolated.
    """
    require_primes(p)
    try:
        separable = _core_climb(G, p)[0]
        graph = build_graph(G, p)
        tf = is_triangle_free(graph)
    except Exception as exc:  # nor may a failure in the hypotheses
        return _unverified_report(G, p, exc)

    ids = range(len(graph.vertices))
    report = VerificationReport(
        group_name=G.name,
        group_order=G.order,
        prime=p,
        hypotheses={
            "p_separable": separable,
            "triangle_free": tf,
            "H_noncentral": bool(graph.vertices),
        },
        checks=[],
        graph_summary={
            "vertex_sizes": list(graph.vertex_sizes()),
            "vertex_orders": [v.element_order for v in graph.vertices],
            "edges": [[i, j] for i in ids for j in _higher(graph.neighbours, i, ids)],
            "shape": graph.shape,
        },
    )
    for check_id, needs, check, severe in _CHECKS:
        failed = _failed_hypothesis(needs, G, p, report)
        if failed is not None:
            report.checks.append(CheckResult(check_id, "skipped",
                                             f"hypothesis failed: {failed}", 0.0))
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = check(G, p, graph)
            status = "pass" if ok else "fail"
        except Exception as exc:  # one broken check must not abort a corpus run
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        report.checks.append(CheckResult(check_id, status, detail, ms))
        if severe and status == "fail":
            report.counterexample = True
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

    def to_json_dict(self) -> dict:
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
            "reports": [r.to_json_dict() for r in ordered],
        }

    def to_json(self) -> str:
        """The report bytes: ``json.dumps(self.to_json_dict(), indent=2) + "\\n"``,
        written in one pass (see ``_summary_json``)."""
        return _summary_json(self) + "\n"


# ---------------------------------------------------------------------------
# report bytes
#
# json.dumps with an indent runs the pure-Python encoder, one generator frame
# per value.  These writers know the report's shape, so each value is one
# C-level encode (strings by json's own ASCII escaper, ints and floats by
# their repr, as json.dumps writes them) and each container one str.join.

_NL = tuple("\n" + "  " * depth for depth in range(8))  # newline and indent, per depth


def _ints(xs: list[int], depth: int) -> str:
    """An int list whose brackets sit at ``depth``."""
    if not xs:
        return "[]"
    inner = _NL[depth + 1]
    return "[" + inner + ("," + inner).join(map(int.__repr__, xs)) + _NL[depth] + "]"


def _report_json(r: VerificationReport, depth: int) -> str:
    """``r.to_json_dict()`` as ``json.dumps(..., indent=2)`` writes it
    with the report's braces at ``depth``."""
    n1, n2, n3 = _NL[depth + 1], _NL[depth + 2], _NL[depth + 3]
    hyp = "{}"
    if r.hypotheses:
        hyp = ("{" + n2 + ("," + n2).join([encode_basestring_ascii(k)
                                           + (": true" if v else ": false")
                                           for k, v in r.hypotheses.items()]) + n1 + "}")
    graph = "{}"
    if r.graph_summary:
        g = r.graph_summary
        edge = "[" + _NL[depth + 4] + "%d," + _NL[depth + 4] + "%d" + n3 + "]"
        edges = ("[" + n3 + ("," + n3).join([edge % (i, j) for i, j in g["edges"]]) + n2 + "]"
                 if g["edges"] else "[]")
        graph = (f'{{{n2}"vertex_sizes": {_ints(g["vertex_sizes"], depth + 2)},'
                 f'{n2}"vertex_orders": {_ints(g["vertex_orders"], depth + 2)},'
                 f'{n2}"edges": {edges},{n2}"shape": {encode_basestring_ascii(g["shape"])}{n1}}}')
    checks = "[]"
    if r.checks:
        checks = ("[" + n2 + ("," + n2).join([
            f'{{{n3}"id": {encode_basestring_ascii(c.check_id)},'
            f'{n3}"status": {encode_basestring_ascii(c.status)},'
            f'{n3}"detail": {encode_basestring_ascii(c.detail)}{n2}}}' for c in r.checks])
            + n1 + "]")
    return (f'{{{n1}"group": {encode_basestring_ascii(r.group_name)},'
            f'{n1}"order": {r.group_order!r},{n1}"prime": {r.prime!r},'
            f'{n1}"hypotheses": {hyp},{n1}"graph": {graph},{n1}"checks": {checks},'
            f'{n1}"counterexample": {"true" if r.counterexample else "false"}{_NL[depth]}}}')


def _summary_json(s: RunSummary) -> str:
    """``s.to_json_dict()`` as ``json.dumps(..., indent=2)`` writes it:
    counterexamples first, each report at depth 2."""
    counts, first = s.counts(), s.counterexamples()
    listed = "[]"
    if first:
        listed = ("[\n      " + ",\n      ".join([
            f'{{\n        "group": {encode_basestring_ascii(r.group_name)},'
            f'\n        "prime": {r.prime!r}\n      }}' for r in first]) + "\n    ]")
    ordered = first + [r for r in s.reports if not r.counterexample]
    reports = ("[\n    " + ",\n    ".join([_report_json(r, 2) for r in ordered])
               + "\n  ]" if ordered else "[]")
    return (f'{{\n  "schema": {encode_basestring_ascii(REPORT_SCHEMA)},\n  "summary": {{'
            f'\n    "pairs": {len(s.reports)!r},\n    "pass": {counts["pass"]!r},'
            f'\n    "fail": {counts["fail"]!r},\n    "skipped": {counts["skipped"]!r},'
            f'\n    "counterexamples": {listed}\n  }},\n  "reports": {reports}\n}}')


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
        if mode[1] < 2:  # no prime: a run that checks nothing must not pass
            raise InvalidParameter(f"'upto' needs a bound >= 2, not {mode[1]!r}")
        out, q = [], 2
        while q <= mode[1]:
            out.append(q)
            q = next_prime(q)
        return tuple(out)
    if kind == "list":
        primes = tuple(mode[1])
        if not primes:
            raise InvalidParameter("the prime list is empty")
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
    which still passes a value there.  An empty corpus is refused, as
    ``primes_for`` refuses a mode that names no prime: a run that checks
    nothing must not pass.
    """
    if not groups:
        raise InvalidParameter("the corpus has no group")
    tasks = [(G, primes_for(G, primes_mode))
             for G in sorted(groups, key=lambda g: g.name)]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: slow to import
        # largest orders first, so the costliest group does not start last;
        # the reports are sorted below
        by_cost = sorted(tasks, key=lambda task: -task[0].order)
        # the pool starts all its workers at once, so ask for no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_verify_group_worker, by_cost))
    else:
        chunks = [_verify_group_worker(t) for t in tasks]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=lambda r: (r.group_name, r.prime))
    return RunSummary(reports=reports)
