"""Negative controls: each check, handed a fault, reports ``fail``.

``CONTROLS`` has one row per check id: the pair to verify, the fault put
into a layer below the check (one function replaced through
``monkeypatch``), and the detail that the failing check must give, which
names the counts it compared.  The same pair without the fault passes, or,
for a gated check, is skipped at the hypothesis that the fault forges.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from classgraph import perm, verify
from classgraph.construct import alternating, atlas_group, cyclic, direct_product, symmetric
from classgraph.perm import ConjClass, Group, conjugacy_classes


class Control(NamedTuple):
    make: Callable[[], Group]
    p: int
    fault: Callable[[pytest.MonkeyPatch], None]
    detail: str
    skipped_at: str | None = None  # the hypothesis that skips the check without the fault
    counterexample: bool = False  # whether the report with the fault is marked as one


def _class_size_off_by_one(monkeypatch):
    """A split product's largest class, read off its factors, one too big."""
    factor_classes = perm._factor_classes

    def forged(G):
        *rest, last = factor_classes(G)
        return (*rest, ConjClass(last.representative, last.size + 1, last.element_order))
    monkeypatch.setattr(perm, "_factor_classes", forged)


def _merged_p_regular_cosets(p: int):
    """The first two p-regular classes of G made to lie over one class of G/N."""
    def fault(monkeypatch):
        coset_classes = verify._coset_classes

        def forged(G, inside):
            out = list(coset_classes(G, inside))
            i, j = [k for k, c in enumerate(conjugacy_classes(G)) if c.element_order % p][:2]
            merged = out[i] | out[j]
            for k in merged:
                out[k] = merged
            return tuple(out)
        monkeypatch.setattr(verify, "_coset_classes", forged)
    return fault


def _forged(name: str, value):
    """``verify.<name>`` made to return ``value``: a hypothesis forged where
    ``verify_pair`` reads it, so the checks it gates run on the pair."""
    def fault(monkeypatch):
        monkeypatch.setattr(verify, name, lambda *args: value)
    return fault


def _split_classes_read() -> Group:
    """S3 x C4, split into its factors, with its classes read off theirs
    before ``verify_pair`` enumerates it."""
    G = direct_product(symmetric(3), cyclic(4))
    conjugacy_classes(G)
    return G


CONTROLS = {
    "class-equation": Control(_split_classes_read, 3,
                              _class_size_off_by_one, "sum of class sizes 25 vs order 24"),
    # O_2(S4) = V4 and S4/V4 = S3: the identity and the 3-cycles are 2-regular
    "p-regular-count-stable": Control(lambda: symmetric(4), 2, _merged_p_regular_cosets(2),
                                      "2 p-regular classes in the group, 1 in the quotient"),
    # Gamma_5(A5) is triangle-free, but A5 is not 5-separable, let alone soluble
    "triangle-free-soluble": Control(lambda: alternating(5), 5,
                                     _forged("_core_climb", (True, (), ())),
                                     "derived series lengths [60]",
                                     skipped_at="p-separability", counterexample=True),
    # ES27:Q8 is 5-separable with H = ES27:Q8 itself and Z = C3, but Gamma_5 has
    # a triangle; case-classification then refuses the pair, which marks the report
    "central-intersection-bound": Control(lambda: atlas_group("ES27:Q8"), 5,
                                          _forged("is_triangle_free", True),
                                          "|H n Z(G)| = 3",
                                          skipped_at="triangle-freeness", counterexample=True),
}

_SEVERE = {check_id: severe for check_id, _, _, severe in verify._CHECKS}


def _result(G: Group, p: int, check_id: str) -> tuple[bool, verify.CheckResult]:
    """Whether the pair's report is marked as a counterexample, and the check's result."""
    report = verify.verify_pair(G, p)
    return report.counterexample, next(r for r in report.checks if r.check_id == check_id)


@pytest.mark.parametrize("check_id", CONTROLS)
def test_a_check_fails_on_its_fault(monkeypatch, check_id):
    make, p, fault, detail, skipped_at, counterexample = CONTROLS[check_id]
    marked, result = _result(make(), p, check_id)
    assert not marked
    if skipped_at is None:
        assert result.status == "pass"
    else:
        assert (result.status, result.detail) == ("skipped", f"hypothesis failed: {skipped_at}")
    fault(monkeypatch)
    marked, result = _result(make(), p, check_id)
    assert (result.status, result.detail) == ("fail", detail)
    assert marked == counterexample
    assert counterexample or not _SEVERE[check_id]  # a severe check's fail marks the report
