"""Solubility, Sylow/Hall machinery, cores, quotients, and isomorphism."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from classgraph import perm, structure
from classgraph.construct import (ActionSpec, alternating, atlas_group, cyclic, dihedral,
                                  direct_product, elementary_abelian, generalized_quaternion,
                                  one_dim_affine_group, semidirect_product, symmetric)
from classgraph.classify import is_frobenius
from classgraph.errors import (HallSearchExhausted, IsoCapExceeded, NotAMember, NotASubgroup,
                               NotNormal, PreconditionViolated)
from classgraph.numtheory import is_pi_number, p_part, pi_part, prime_factors, require_primes
from classgraph.perm import (Group, Permutation, center, class_elements, class_index,
                             closed_subgroup, conjugacy_classes, extend_hom, make_group,
                             mulclose, parse_cycle_string, subgroup_from_elements)
from classgraph.structure import (coset_classes, derived_subgroup, hall_subgroup,
                                  is_isomorphic, is_p_separable, is_soluble,
                                  normal_closure, normal_subgroups, p_complement, p_core,
                                  p_prime_core, pi_core, quotient, sylow)
from oracles import (naive_centralizer, naive_class_product, naive_closure,
                     naive_derived_subgroup, naive_is_normal, naive_is_p_separable,
                     naive_normal_closure, naive_normal_subgroups, naive_pi_core_over,
                     naive_sylow_conjugates)
from strategies import generating_sets, permutations, relabelled


def test_soluble_s3():
    ok, cert = is_soluble(symmetric(3))
    assert ok
    assert [t.order for t in cert.terms] == [6, 3, 1]
    assert cert.kind == "derived_series"


def test_soluble_a5_false():
    ok, cert = is_soluble(alternating(5))
    assert not ok
    assert cert.terms[-1].order == 60  # the series stalls at A5 itself


def test_soluble_abelian():
    ok, _ = is_soluble(cyclic(12))
    assert ok


def test_derived_subgroup_matches_naive():
    s4 = symmetric(4)
    assert derived_subgroup(s4).element_set() == \
        frozenset(naive_derived_subgroup(s4.elements))


def test_derived_series_terms_normal(atlas_groups):
    G = atlas_groups["C3:C4"]
    _, cert = is_soluble(G)
    for term in cert.terms[1:]:
        assert naive_is_normal(G.elements, term.elements)


def test_sylow_examples(atlas_groups):
    assert sylow(symmetric(3), 3).order == 3
    assert sylow(atlas_groups["GammaL(1,8)"], 7).order == 7
    assert sylow(symmetric(3), 5).order == 1  # p not dividing
    q8 = generalized_quaternion(8)
    assert sylow(q8, 2).element_set() == q8.element_set()


def test_sylow_orders_across_atlas(atlas_groups):
    for G in atlas_groups.values():
        for p in prime_factors(G.order):
            assert sylow(G, p).order == p_part(G.order, p)


def test_p_core_examples(atlas_groups):
    assert p_core(atlas_groups["E25:Sigma3"], 5).order == 25
    assert p_core(symmetric(3), 2).order == 1
    e9 = elementary_abelian(3, 2)
    assert p_core(e9, 3).element_set() == e9.element_set()


def test_p_core_properties(atlas_groups):
    G = atlas_groups["C2x(Q8:C9)"]
    for p in (2, 3):
        core = p_core(G, p)
        assert naive_is_normal(G.elements, core.elements)
        assert quotient(G, core) and p_core(quotient(G, core).group, p).order == 1
        assert core.element_set() <= sylow(G, p).element_set()


def test_p_core_agrees_with_pi_core(atlas):
    # O_p(G) by a second route: the intersection of the Sylow p-conjugates
    for entry in atlas.values():
        G = entry.group
        for p in entry.primes:
            core = p_core(G, p)
            assert core is pi_core(G, frozenset({p}))
            conjugates = naive_sylow_conjugates(G.generators, sylow(G, p).elements)
            assert core.element_set() == frozenset.intersection(*conjugates)


@given(generating_sets(max_degree=5), st.data())
def test_sylow_centralizes_exactly_at_full_p_part(gens, data):
    # the test of disconnected-p-structure: some Sylow p-subgroup centralizes
    # K exactly when |C_G(K)| has the full p-part of |G|
    G = make_group(gens, "G")
    K = data.draw(st.lists(st.sampled_from(G.elements), min_size=1, max_size=2))
    centralizer = [g for g in G.elements if all(g * k == k * g for k in K)]
    for p in prime_factors(G.order):
        conjugates = naive_sylow_conjugates(G.generators, sylow(G, p).elements)
        some = any(all(s * k == k * s for s in S for k in K) for S in conjugates)
        assert some == (p_part(len(centralizer), p) == p_part(G.order, p))


def test_p_prime_core_examples(atlas_groups):
    assert p_prime_core(atlas_groups["C7:C6"], 2).order == 21
    assert p_prime_core(generalized_quaternion(8), 2).order == 1
    c6 = direct_product(cyclic(2), cyclic(3))
    assert p_prime_core(c6, 2).order == 3


def test_p_separable(atlas_groups):
    for name in ["Sigma3", "A4", "GammaL(1,8)", "ES27:Q8"]:
        G = atlas_groups[name]
        for p in (2, 3, 5, 7):
            ok, cert = is_p_separable(G, p)
            assert ok
            assert cert.terms[0].order == G.order
            assert cert.terms[-1].order == 1
            assert all(lbl in ("p-group", "p'-group") for lbl in cert.step_labels)
            # factors alternate after the first step
            for a, b in zip(cert.step_labels, cert.step_labels[1:]):
                assert a != b
    a5 = alternating(5)
    for p in (2, 3, 5):
        ok, _ = is_p_separable(a5, p)
        assert not ok
    triv = make_group([], "1", degree=1)
    assert is_p_separable(triv, 5)[0]


A5_GENS = [parse_cycle_string("(1,2,3)", 5), parse_cycle_string("(1,2,3,4,5)", 5)]
S5_GENS = [parse_cycle_string("(1,2)", 5), parse_cycle_string("(1,2,3,4,5)", 5)]
A6_GENS = [parse_cycle_string("(1,2,3)", 6), parse_cycle_string("(2,3,4,5,6)", 6)]


@given(generating_sets())
@example(A5_GENS)
@example(S5_GENS)
@example(A6_GENS)
def test_one_greedy_pass_finds_sylow_and_p_complements(gens):
    # a pass rejects x only if <P', x> is no p-group for the closure P' so
    # far, and then <P, x> >= <P', x> is none either, so the pass cannot
    # stop below a Sylow subgroup (or, by Cunihin, a p-complement; by Hall,
    # a Hall subgroup of a soluble group; by Schur-Zassenhaus, a Frobenius
    # complement)
    G = make_group(gens, "G")
    primes = prime_factors(G.order)
    for p in primes:
        P = sylow(G, p)
        assert P.order == p_part(G.order, p)
        assert P.element_set() == naive_closure(list(P.generators))
        assert P.element_set() <= G.element_set()
        if is_p_separable(G, p)[0]:
            others = frozenset(primes) - {p}
            assert hall_subgroup(G, others).order == G.order // P.order
    if is_soluble(G)[0]:
        for k in range(2, len(primes) + 1):
            for pi in map(frozenset, combinations(primes, k)):
                H = hall_subgroup(G, pi)
                assert H.order == pi_part(G.order, pi)
                assert H.element_set() <= G.element_set()
    w = is_frobenius(G)
    if w is not None:
        assert w.complement.order == G.order // w.kernel.order


def test_one_greedy_pass_outside_the_hypotheses():
    A5, S5 = make_group(A5_GENS, "A5"), make_group(S5_GENS, "S5")
    assert hall_subgroup(A5, frozenset({2, 3})).order == 12  # A4
    # A5 has no subgroup of order 15; S5, which is not {2, 3}-separable, has
    # S4, but one pass misses it: either way a miss raises, never returns
    with pytest.raises(HallSearchExhausted):
        p_complement(A5, 2)
    with pytest.raises(HallSearchExhausted):
        hall_subgroup(S5, frozenset({2, 3}))


@pytest.mark.parametrize("primes", [{4}, {6}, {1}, {2, 4}])
def test_hall_subgroup_rejects_non_primes(primes):
    with pytest.raises(PreconditionViolated):
        hall_subgroup(symmetric(4), frozenset(primes))


@pytest.mark.parametrize("primes", [{4}, {1}, {0}, {2, 4}, {3, 9}])
def test_pi_core_rejects_non_primes(primes):
    # a non-prime member of pi is refused, not read as a prime dividing nothing
    bad = min(q for q in primes if q not in (2, 3))
    with pytest.raises(PreconditionViolated, match=f"^{bad} is not prime$"):
        require_primes(*sorted(primes))
    with pytest.raises(PreconditionViolated, match=f"^{bad} is not prime$"):
        pi_core(symmetric(4), frozenset(primes))


def test_require_primes_accepts_primes():
    require_primes()
    require_primes(2, 3, 5, 7, 97)


@given(generating_sets(max_degree=5))
@example(A5_GENS)
@example(S5_GENS)
def test_is_p_separable_matches_naive(gens):
    G = make_group(gens, "G")
    for p in (2, 3, 5, 7):
        ok, cert = is_p_separable(G, p)
        assert ok == naive_is_p_separable(G.elements, p)
        assert cert.terms[0].element_set() == G.element_set()
        for term in cert.terms:
            assert naive_is_normal(G.elements, term.elements)
        # a stalled series puts G in front of the part that was climbed
        series = cert.terms if ok else cert.terms[1:]
        assert series[-1].order == 1
        assert len(cert.step_labels) == len(series) - 1
        for big, small, label in zip(series, series[1:], cert.step_labels):
            index = big.order // small.order
            assert index > 1
            assert label == ("p-group" if index % p == 0 else "p'-group")
            assert is_pi_number(index, {p}) or index % p != 0
        if not ok:
            others = frozenset(prime_factors(G.order)) - {p}
            top = series[0].element_set()
            assert len(top) < G.order
            assert naive_pi_core_over(G.elements, {p}, top) == top
            assert naive_pi_core_over(G.elements, others, top) == top


def _member_elements(G, m):
    classes = conjugacy_classes(G)
    return frozenset(x for k in m.classes for x in class_elements(G, classes[k]))


@given(generating_sets(max_degree=5))
@example(A5_GENS)
@example(S5_GENS)
def test_pi_core_over_matches_naive(gens):
    G = make_group(gens, "G")
    primes = prime_factors(G.order)
    for N in structure._normal_lattice(G):
        for p in primes:
            for pi in (frozenset({p}), frozenset(primes) - {p}):
                core = structure._pi_core(G, pi, N.classes)
                expected = naive_pi_core_over(G.elements, pi, _member_elements(G, N))
                assert _member_elements(G, core) == expected
                assert core.order == len(expected)


def test_a_pi_core_memo_hit_builds_no_group(monkeypatch):
    # _pi_core is memoised on N's classes (equal sets, not one object) and
    # builds no Group, and pi_core builds its one Group through the
    # per-member memo: a repeat call of either grows and builds nothing
    s4 = symmetric(4)
    built, grown = [], []
    real_build, real_grow = structure._normal_subgroup, structure._grow

    def recording(G, m):
        N = real_build(G, m)
        built.append(N)
        return N

    def growing(*args, **kwargs):
        grown.append(args)
        return real_grow(*args, **kwargs)
    monkeypatch.setattr(structure, "_normal_subgroup", recording)
    monkeypatch.setattr(structure, "_grow", growing)
    member = structure._pi_core(s4, frozenset({2}), frozenset({0}))
    assert member.order == 4 and grown and built == []
    grown.clear()
    assert structure._pi_core(s4, frozenset({2}), frozenset([0])) is member
    core = pi_core(s4, frozenset({2}))
    assert built == [core] and core.name == member.name
    assert pi_core(s4, frozenset({2})) is core and p_core(s4, 2) is core
    assert grown == []


def test_core_name_does_not_depend_on_first_caller():
    fresh = symmetric(3)
    name = p_prime_core(fresh, 2).name
    after = symmetric(3)
    is_p_separable(after, 2)
    assert p_prime_core(after, 2).name == name == "O_{3}(Sigma3)"
    assert pi_core(after, frozenset({2, 3})).name == "O_{2,3}(Sigma3)"
    N = structure._pi_core(after, frozenset({3}), structure._ONE.classes)
    assert structure._pi_core(after, frozenset({2}), N.classes).name == "O_{2}(Sigma3 mod |N|=3)"
    assert p_prime_core(cyclic(4), 2).name == "1<C4"  # no other prime divides |C4|


def test_is_p_separable_builds_only_its_terms(atlas, monkeypatch):
    # the climb is held as class sets: no core is checked for normality or
    # mapped back to class positions, and one Group is built per term that
    # is not G itself; its O_p(G) term is p_core's own object
    calls, built = [], []
    real_require, real_build = structure._require_normal, structure._normal_subgroup

    def require(*args):
        calls.append(args)
        return real_require(*args)

    def recording(G, m):
        N = real_build(G, m)
        built.append(N)
        return N
    monkeypatch.setattr(structure, "_require_normal", require)
    monkeypatch.setattr(structure, "_normal_subgroup", recording)
    for entry in atlas.values():
        for p in entry.primes:
            G = entry.group
            fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
            built.clear()
            _, cert = is_p_separable(fresh, p)
            assert built == [t for t in cert.terms if t is not fresh]
            if cert.step_labels[-1:] == ("p-group",):
                assert cert.terms[-2] is p_core(fresh, p)
    assert calls == []


def test_is_p_separable_builds_no_quotient(atlas, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("is_p_separable left G")
    for fn in ("quotient", "p_core", "p_prime_core"):
        monkeypatch.setattr(structure, fn, refuse)
    for entry in atlas.values():
        G = entry.group
        fresh = Group(G.name, G.degree, G.generators, G.elements)  # no caches
        for p in entry.primes:
            assert is_p_separable(fresh, p)[0]


def test_soluble_implies_separable(atlas_groups):
    for G in atlas_groups.values():
        assert is_soluble(G)[0]
        for p in (2, 3, 5, 7):
            assert is_p_separable(G, p)[0]


def test_p_complement_examples(atlas_groups):
    assert p_complement(symmetric(3), 3).order == 2
    h = p_complement(atlas_groups["GammaL(1,8)"], 7)
    assert h.order == 24
    c12 = cyclic(12)
    assert p_complement(c12, 2).order == 3


def test_p_complement_involution_class_sizes(atlas_groups):
    # one distinguished involution has class length 3 in H and 7 in G
    G = atlas_groups["GammaL(1,8)"]
    H = p_complement(G, 7)
    found = False
    for cls in conjugacy_classes(H):
        if cls.element_order == 2 and cls.size == 3:
            assert class_index(G)[cls.representative].size == 7
            found = True
    assert found


def _uncached(G: Group) -> Group:
    return Group(G.name, G.degree, G.generators, G.elements)


def test_hall_search_is_deterministic(atlas_groups):
    G = atlas_groups["GammaL(1,8)"]
    a = p_complement(_uncached(G), 7)
    b = p_complement(_uncached(G), 7)
    assert a is not b
    assert a.element_set() == b.element_set()
    assert a.generators == b.generators


def test_p_complement_memoised_per_config(atlas_groups, monkeypatch):
    # a repeat call returns the same object and searches once
    searched = []
    search = structure._search_subgroup

    def recording(G, *rest):
        searched.append(G)
        return search(G, *rest)
    monkeypatch.setattr(structure, "_search_subgroup", recording)
    G = _uncached(atlas_groups["GammaL(1,8)"])
    a = p_complement(G, 7)
    assert p_complement(G, 7) is a
    assert searched == [G]


def test_pi_elements_sorted_by_order_then_images_on_the_atlas(atlas_groups):
    # each element order's elements are sorted apart, in descending order:
    # the same sequence as one sort by (-order, images), for every prime set
    # a Hall search can ask of an atlas group
    for G in atlas_groups.values():
        primes = prime_factors(G.order)
        for r in range(1, len(primes) + 1):
            for pi in map(frozenset, combinations(primes, r)):
                one_sort = [x for _, _, x in sorted(
                    (-c.element_order, x.images, x) for c in conjugacy_classes(G)
                    if is_pi_number(c.element_order, pi) for x in class_elements(G, c))]
                assert structure._pi_elements(G, pi) == one_sort, (G.name, pi)


def test_hall_subgroup_general(atlas_groups):
    G = atlas_groups["GammaL(1,8)"]
    h = hall_subgroup(G, frozenset({2, 7}))
    assert h.order == 56


def test_sylow_times_complement(atlas_groups):
    for G in atlas_groups.values():
        for p in prime_factors(G.order):
            if not is_p_separable(G, p)[0]:
                continue
            assert sylow(G, p).order * p_complement(G, p).order == G.order


def test_quotient_examples(atlas_groups):
    G = atlas_groups["E25:Sigma3"]
    Q, proj = quotient(G, p_core(G, 5))
    assert Q.order == 6
    assert is_isomorphic(Q, symmetric(3))
    # trivial kernel: the regular image
    s3 = symmetric(3)
    triv = make_group([], "1", degree=3)
    Q2, _ = quotient(s3, triv)
    assert Q2.order == 6 and Q2.degree == 6
    # full kernel: the trivial group
    Q3, _ = quotient(s3, s3)
    assert Q3.order == 1


def test_quotient_projection_is_homomorphism():
    s4 = symmetric(4)
    v4 = make_group([parse_cycle_string("(1,2)(3,4)", 4),
                     parse_cycle_string("(1,3)(2,4)", 4)], "V4")
    Q, proj = quotient(s4, v4)
    assert Q.order == 6
    for a in s4.elements:
        for b in s4.generators:
            assert proj[a * b] == proj[a] * proj[b]


def test_quotient_rejects_bad_inputs():
    s3 = symmetric(3)
    c2 = make_group([parse_cycle_string("(1,2)", 3)], "C2")
    with pytest.raises(NotNormal):
        quotient(s3, c2)
    with pytest.raises(NotASubgroup):
        quotient(s3, cyclic(2))  # wrong degree


@given(generating_sets())
@example(S5_GENS)
def test_coset_classes_match_the_quotient(gens):
    # entry k holds the classes that make up C_k*N: their sizes sum to |N|
    # times the size of x_k's class in Q, and two entries are equal exactly
    # when the representatives project to one class of Q
    G = make_group(gens, "G")
    classes = conjugacy_classes(G)
    for N in normal_subgroups(G):
        Q, proj = quotient(G, N)
        q_classes = class_index(Q)
        entries = coset_classes(G, N)
        assert len(entries) == len(classes)
        over = [q_classes[proj[c.representative]] for c in classes]
        for entry, qc in zip(entries, over):
            assert sum(classes[i].size for i in entry) == N.order * qc.size
        for (e1, q1), (e2, q2) in combinations(zip(entries, over), 2):
            assert (e1 == e2) == (q1 == q2)
        # the right cosets, numbered by their least elements, and the action
        # of each g on them, made directly
        right_cosets = sorted({frozenset(n * g for n in N.elements) for g in G.elements},
                              key=min)
        number = {x: i for i, coset in enumerate(right_cosets) for x in coset}
        for g in G.elements:
            assert proj[g].images == tuple(number[min(coset) * g] for coset in right_cosets)


def test_coset_classes_require_a_normal_subgroup():
    s3 = symmetric(3)
    c2 = make_group([parse_cycle_string("(1,2)", 3)], "C2")
    with pytest.raises(NotNormal):
        coset_classes(s3, c2)


def test_normal_closures_conjugate_by_maps_made_once(monkeypatch):
    # only _is_normal conjugates, with maps made at most once per group and
    # only for its generators; normal closures are grown on classes
    made = []
    maps = structure.conjugation_maps

    def recording(gens):
        made.append(tuple(gens))
        return maps(gens)
    monkeypatch.setattr(structure, "conjugation_maps", recording)
    G = symmetric(4)
    normal_subgroups(G)
    p_core(G, 2)
    assert made in ([], [G.generators])


def test_normal_closure_minimal():
    s3 = symmetric(3)
    t = parse_cycle_string("(1,2,3)", 3)
    assert normal_closure(s3, [t], "A3").order == 3
    assert normal_closure(s3, [parse_cycle_string("(1,2)", 3)], "all").order == 6


@given(generating_sets(), st.data())
def test_normal_closure_matches_naive(gens, data):
    G = make_group(gens, "G")
    seeds = data.draw(st.lists(st.sampled_from(G.elements), min_size=1, max_size=2))
    assert normal_closure(G, seeds, "N").element_set() == \
        frozenset(naive_normal_closure(G.elements, seeds))


def test_grown_subgroups_keep_their_generators(monkeypatch):
    # no grown subgroup is rescanned by subgroup_from_elements, which calls
    # perm's own name; a normal subgroup takes its generators from exactly
    # one greedy pass, through the name structure imported
    def refuse(*args, **kwargs):
        raise AssertionError("a grown subgroup was rescanned for generators")
    monkeypatch.setattr(perm, "generating_set", refuse)
    passes, built = [], []
    real_pass, real_build = structure.generating_set, structure._normal_subgroup

    def one_pass(*args, **kwargs):
        passes.append(args)
        return real_pass(*args, **kwargs)

    def normal_subgroup(G, m):
        before = len(passes)
        N = real_build(G, m)
        assert len(passes) == before + 1
        built.append(N.name)
        return N
    monkeypatch.setattr(structure, "generating_set", one_pass)
    monkeypatch.setattr(structure, "_normal_subgroup", normal_subgroup)
    s4 = symmetric(4)
    grown = [normal_closure(s4, [parse_cycle_string("(1,2,3)", 4)], "A4"),
             sylow(s4, 2), p_complement(s4, 2), *normal_subgroups(s4)[1:],
             # the whole of E4 is only reached as a join of two C2s
             normal_subgroups(elementary_abelian(2, 2))[-1]]
    assert built == ["A4", "1<Sigma4", "ncl1<Sigma4", "ncl2<Sigma4", "ncl3<Sigma4",
                     "1<E4", "ncl1<E4", "ncl2<E4", "ncl3<E4", "join4<E4"]
    # one pass per normal subgroup built and one per Sylow or Hall search
    assert len(passes) == len(built) + 2
    for H in grown:
        assert H.elements == tuple(sorted(H.elements))
        assert mulclose(list(H.generators), group=H) == set(H.elements)
        assert H.identity not in H.generators


@given(generating_sets(), st.data())
def test_subgroups_multiply_through_their_ambient_group(gens, data):
    G = make_group(gens, "G")
    seeds = data.draw(st.lists(st.sampled_from(G.elements), min_size=1, max_size=2))
    p = data.draw(st.sampled_from(prime_factors(G.order) or [2]))
    H = mulclose(seeds, group=G)
    copies = [Permutation(x.images) for x in H]  # equal to G's elements, not the same objects
    for S in (closed_subgroup(G, seeds, H, "H"), subgroup_from_elements(G, H, "H"),
              subgroup_from_elements(G, copies, "H"), normal_closure(G, seeds, "N"),
              sylow(G, p)):
        assert S.base() is G.base() and S.product() is G.product()
        own = {id(x) for x in S.elements}
        mul = S.product()
        for a in S.elements:
            for b in S.elements:
                ab = mul(a, b)
                assert ab == a * b and id(ab) in own
        assert len({tuple(x.images[b] for b in S.base()) for x in S.elements}) == S.order


def test_normal_subgroups_examples(atlas_groups):
    s3 = symmetric(3)
    assert [N.order for N in normal_subgroups(s3)] == [1, 3, 6]
    q8 = atlas_groups["Q8"]
    assert [N.order for N in normal_subgroups(q8)] == [1, 2, 4, 4, 4, 8]
    a5 = alternating(5)
    assert [N.order for N in normal_subgroups(a5)] == [1, 60]


@given(generating_sets())
@example(S5_GENS)
def test_normal_subgroups_match_naive(gens):
    G = make_group(gens, "G")
    normals = [N.element_set() for N in normal_subgroups(G)]
    assert len(set(normals)) == len(normals)
    assert set(normals) == set(naive_normal_subgroups(G.elements))


@given(generating_sets())
@example(S5_GENS)
def test_class_supports_match_naive(gens):
    G = make_group(gens, "G")
    members = [class_elements(G, c) for c in conjugacy_classes(G)]
    for i, A in enumerate(members):
        for k, B in enumerate(members):
            assert {members[j] for j in structure._support(G, [i], k)} == \
                naive_class_product(G.elements, A, B)


def _assert_centralizer_counts_match_naive(G):
    # M[k][j] = |C_G(x_k) n C_j| from the one walk of G, against the
    # elements of each class that commute with the representative x_k
    classes = conjugacy_classes(G)
    members = [class_elements(G, c) for c in classes]
    columns = [structure._centralizer_meet(G, frozenset({j})) for j in range(len(classes))]
    M = [[column[k] for column in columns] for k in range(len(classes))]
    for k, c in enumerate(classes):
        centralizer = naive_centralizer(G.elements, c.representative)
        assert M[k] == [len(centralizer & C) for C in members]
        assert sum(M[k]) == G.order // c.size
        # both count the commuting pairs in C_k x C_j
        assert all(c.size * M[k][j] == d.size * M[j][k] for j, d in enumerate(classes))


@given(generating_sets())
@example(S5_GENS)
def test_centralizer_counts_match_naive(gens):
    _assert_centralizer_counts_match_naive(make_group(gens, "G"))


def test_centralizer_counts_of_sorted_trivial_and_tuple_image_groups():
    s5 = symmetric(5)
    gens = [parse_cycle_string("(1,2,3)", 5), parse_cycle_string("(1,2,3,4,5)", 5)]
    a5 = subgroup_from_elements(s5, mulclose(gens, group=s5), "A5")  # sorted, base images
    trivial = make_group([], "1", degree=3)
    ident = trivial.identity
    sorted_trivial = Group("1'", 3, (ident,), (ident,))  # empty base
    c13, c24 = cyclic(13), cyclic(24)
    x = c13.generators[0]
    # regular on 312 points, so its images are tuples; x -> x^2 has order 12,
    # so the center has order 2, and the classes have sizes 1, 12 and 13
    big = semidirect_product(c13, c24, ActionSpec({c24.generators[0]: {x: x * x}}),
                             "C13:C24")
    assert big.degree > 256 and sorted({c.size for c in conjugacy_classes(big)}) == [1, 12, 13]
    for G in (a5, trivial, sorted_trivial, big):
        _assert_centralizer_counts_match_naive(G)


def _assert_growth_matches_naive(G, N, k):
    classes = conjugacy_classes(G)
    inside = structure._class_positions(G, N)
    assert {x for i in inside for x in class_elements(G, classes[i])} == N.element_set()
    grown, order = structure._grow(G, inside, k)
    expected = frozenset(naive_normal_closure(
        G.elements, [*N.generators, classes[k].representative]))
    assert {x for i in grown for x in class_elements(G, classes[i])} == expected
    assert order == len(expected)
    assert structure._grow(G, inside, k, cap=order) == (grown, order)
    if order > N.order:
        assert structure._grow(G, inside, k, cap=order - 1) is None


@given(generating_sets(), st.data())
def test_growth_from_a_normal_subgroup_matches_naive(gens, data):
    G = make_group(gens, "G")
    N = data.draw(st.sampled_from(normal_subgroups(G)))
    k = data.draw(st.integers(0, len(conjugacy_classes(G)) - 1))
    _assert_growth_matches_naive(G, N, k)


def test_growth_in_s5_matches_naive():
    G = make_group(S5_GENS, "S5")
    for N in normal_subgroups(G):
        for k in range(len(conjugacy_classes(G))):
            _assert_growth_matches_naive(G, N, k)


def test_cores_and_lattice_joins_close_only_what_they_return(monkeypatch):
    # every mulclose runs inside a _normal_subgroup, one per generator its
    # greedy pass takes; trial closures and lattice joins are grown on
    # classes, and the lattice's members are built once it is complete
    built, open_builds, calls, outside, events = [], [], [], [], []
    real_build, real_mulclose, real_grow = (structure._normal_subgroup, perm.mulclose,
                                            structure._grow)

    def normal_subgroup(G, m):
        events.append("build")
        open_builds.append(m.name)
        try:
            N = real_build(G, m)
        finally:
            open_builds.pop()
        built.append(N)
        return N

    def mulclose(*args, **kwargs):
        (calls if open_builds else outside).append(args)
        return real_mulclose(*args, **kwargs)

    def grow(*args, **kwargs):
        events.append("grow")
        return real_grow(*args, **kwargs)
    monkeypatch.setattr(structure, "_normal_subgroup", normal_subgroup)
    monkeypatch.setattr(perm, "mulclose", mulclose)
    monkeypatch.setattr(structure, "_grow", grow)
    G = symmetric(4)
    core = pi_core(G, frozenset({2}))
    assert core.order == 4
    assert [N.name for N in built] == ["O_{2}(Sigma4)"]
    cores = built[:]
    built.clear()
    events.clear()
    normals = normal_subgroups(G)
    assert [N.order for N in normals] == [1, 4, 12, 24]
    assert [N.name for N in built] == ["1<Sigma4", "ncl1<Sigma4", "ncl2<Sigma4",
                                       "ncl3<Sigma4"]
    assert events == ["grow"] * events.count("grow") + ["build"] * len(built)
    assert outside == []
    assert len(calls) == sum(len(N.generators) for N in [*cores, *built])


def test_no_class_set_is_grown_twice(atlas_groups, monkeypatch):
    # the lattice and the core series pass each (classes, k) to _grow once:
    # a member is built from the classes in hand, and neither kind of
    # core step follows itself, O_pi(G/M) being 1 for M/N = O_pi(G/N)
    grown = []
    real_grow = structure._grow

    def grow(G, classes, k, cap=None):
        grown.append((frozenset(classes), k))
        return real_grow(G, classes, k, cap)
    monkeypatch.setattr(structure, "_grow", grow)
    for name in ["Sigma4", "D12", "Q8:C9", "C2x(Q8:C9)", "E25:Sigma3"]:
        A = atlas_groups[name]
        G = make_group(A.generators, name)  # a copy with nothing memoised
        runs = [lambda: normal_subgroups(G)]
        runs += [lambda p=p: is_p_separable(G, p) for p in prime_factors(G.order)]
        for run in runs:
            grown.clear()
            run()
            assert grown
            assert len(set(grown)) == len(grown)


def test_class_products_and_coset_classes_are_each_made_once(atlas_groups, monkeypatch):
    # a class product is made on its first _support() and read after that
    G = make_group(atlas_groups["Sigma4"].generators, "Sigma4")  # nothing memoised
    data = structure._class_data(G)
    made = []

    def counted(step):
        return lambda images: made.append(None) or step(images)
    data.steps[:] = map(counted, data.steps)
    pairs = [(i, k) for i in range(len(data.sizes)) for k in range(len(data.sizes))]
    first = [structure._support(G, [i], k) for i, k in pairs]
    assert len(made) == len(data.sizes) * G.order  # |C_i| products per (i, k)
    assert [structure._support(G, [i], k) for i, k in pairs] == first
    assert len(made) == len(data.sizes) * G.order

    # C_k*N is read off the class products once per class of G/N, for the
    # first class it holds, not once per class of G
    real_support = structure._support
    asked = []

    def support(G, positions, k):
        asked.append(k)
        return real_support(G, positions, k)
    monkeypatch.setattr(structure, "_support", support)
    for name in ["Sigma4", "D12", "C2x(Q8:C9)", "E25:Sigma3"]:
        H = atlas_groups[name]
        for N in structure._normal_lattice(H):
            asked.clear()
            entries = structure._coset_classes.__wrapped__(H, N.classes)
            assert len(asked) == len(set(entries)), (name, N.name)


def test_normal_subgroups_of_a_cyclic_group():
    # one subgroup per divisor of 840 = 2^3 * 3 * 5 * 7
    normals = normal_subgroups(cyclic(840))
    assert len(normals) == 32
    assert [N.order for N in normals] == [d for d in range(1, 841) if 840 % d == 0]


def test_normal_subgroups_of_a_large_lattice():
    # every subgroup of the abelian E16 x C4 is normal
    G = direct_product(elementary_abelian(2, 4), cyclic(4))
    normals = normal_subgroups(G)
    assert len(normals) == 681
    assert len({N.element_set() for N in normals}) == 681


def test_normal_subgroups_are_normal(atlas_groups):
    G = atlas_groups["C2x(Q8:C9)"]
    for N in normal_subgroups(G):
        assert naive_is_normal(G.elements, N.elements)


def test_is_isomorphic_examples(atlas_groups):
    assert not is_isomorphic(cyclic(4), elementary_abelian(2, 2))
    assert is_isomorphic(atlas_groups["A4"], alternating(4))
    assert is_isomorphic(cyclic(6), direct_product(cyclic(2), cyclic(3)))
    assert not is_isomorphic(dihedral(12), atlas_groups["C3:C4"])
    assert is_isomorphic(dihedral(12), direct_product(symmetric(3), cyclic(2)))


def _refuse(*args, **kwargs):
    raise AssertionError("reached the isomorphism search")


def test_is_isomorphic_reflexive_symmetric(atlas_groups, monkeypatch):
    small = [G for G in atlas_groups.values() if G.order <= 72]
    for G, H in zip(small, map(relabelled, small)):
        assert is_isomorphic(G, H) and is_isomorphic(H, G), G.name
    for A in small[:5]:
        for B in small[:5]:
            assert is_isomorphic(A, B) == is_isomorphic(B, A)
    monkeypatch.setattr(structure, "extend_hom", _refuse)
    for G in small:  # one group: no search
        assert is_isomorphic(G, G)


def test_is_isomorphic_of_one_group_built_twice_skips_the_search(monkeypatch):
    A, B = symmetric(4), symmetric(4)
    assert A is not B and A.element_set() == B.element_set()
    monkeypatch.setattr(structure, "extend_hom", _refuse)
    monkeypatch.setattr(structure, "_fingerprint", _refuse)
    assert is_isomorphic(A, B) and is_isomorphic(B, A)


def test_is_isomorphic_fixes_the_first_generator_up_to_conjugacy(monkeypatch):
    # AGL(1,16) relabelled: the first generator's class fixes its image up to
    # conjugacy, so almost every trial gets past the second generator
    A = one_dim_affine_group(2, 4)
    c = Permutation([10, 5, 12, 9, 14, 3, 0, 8, 13, 2, 15, 6, 11, 1, 4, 7])
    A = make_group([g.conjugate(c) for g in A.generators], "AGL(1,16)^c")
    B = atlas_group("E16:C15")
    calls = []

    def counted(*args):
        calls.append(args)
        return extend_hom(*args)

    monkeypatch.setattr(structure, "extend_hom", counted)
    assert is_isomorphic(A, B)
    assert len(calls) <= 20


def test_iso_cap(monkeypatch):
    monkeypatch.setattr(structure, "ISO_CAP", 2)  # read at call time
    with pytest.raises(IsoCapExceeded):
        is_isomorphic(cyclic(3), cyclic(3))
    assert not is_isomorphic(cyclic(3), cyclic(4))  # orders differ


def test_center_quotient_of_q8():
    q8 = generalized_quaternion(8)
    Q, _ = quotient(q8, center(q8))
    assert is_isomorphic(Q, elementary_abelian(2, 2))


def test_products_in_a_group_reject_non_members():
    s3 = symmetric(3)
    c3 = make_group([parse_cycle_string("(1,2,3)", 3)], "C3")
    t = parse_cycle_string("(1,2)", 3)  # in S3, not in C3
    with pytest.raises(NotAMember):
        mulclose([t], group=c3)
    with pytest.raises(NotAMember):
        mulclose(list(c3.generators), start={c3.identity, t}, group=c3)
    with pytest.raises(NotAMember):
        subgroup_from_elements(c3, s3.elements, "S3")
    with pytest.raises(NotAMember):  # also when the closure reaches the set's size first
        subgroup_from_elements(c3, [*c3.elements[:2], t], "bad")
    with pytest.raises(NotAMember):
        extend_hom([t], [t], c3, s3)  # generator outside A
    with pytest.raises(NotAMember):
        extend_hom(list(c3.generators), [t], c3, c3)  # image outside B
    bad = Group("bad", 3, (t,), c3.elements)  # lists a generator it does not contain
    with pytest.raises(NotAMember):
        quotient(bad, closed_subgroup(c3, (), [c3.identity], "1"))


def test_products_inside_a_group_compose_no_permutations(atlas_groups, monkeypatch):
    G = atlas_groups["(C5xC5):SL(2,3)"]  # order 600, regular action of degree 600
    G = Group(G.name, G.degree, G.generators, G.elements)  # no caches

    def refuse(*args, **kwargs):
        raise AssertionError("Permutation.__mul__ called inside a group")

    monkeypatch.setattr(Permutation, "__mul__", refuse)
    normals = normal_subgroups(G)
    assert [N.order for N in normals] == [1, 25, 50, 200, 600]
    Q, proj = quotient(G, normals[1])
    assert Q.order == 24 and len(proj) == 600
    assert p_complement(G, 5).order == 24


@given(generating_sets(), st.data())
def test_is_isomorphic_to_relabelled_copy(gens, data):
    c = data.draw(permutations(gens[0].degree))
    G = make_group(gens, "G")
    H = make_group([g.conjugate(c) for g in gens], "G^c")
    assert is_isomorphic(G, H) and is_isomorphic(H, G)


@pytest.mark.parametrize("prefilter", [True, False])
def test_is_isomorphic_rejects_equal_orders(atlas_groups, monkeypatch, prefilter):
    if not prefilter:  # let every pair reach the backtracking search
        monkeypatch.setattr(structure, "_fingerprint", lambda G: G.order)
    pairs = [(cyclic(4), elementary_abelian(2, 2)),
             (dihedral(8), generalized_quaternion(8)),
             (alternating(4), dihedral(12)),
             (atlas_groups["C3:C4"], dihedral(12))]
    for A, B in pairs:
        A = Group(A.name, A.degree, A.generators, A.elements)  # no cached fingerprint
        assert not is_isomorphic(A, B) and not is_isomorphic(B, A)
