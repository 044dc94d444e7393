"""Exception types raised across the package."""

from __future__ import annotations


class ClassGraphError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(ClassGraphError):
    """Permutations of different degrees were combined."""


class OrderCapExceeded(ClassGraphError):
    """A closure grew past the configured maximum group order."""

    def __init__(self, name: str, cap: int):
        super().__init__(f"closure of {name!r} exceeds the order cap {cap}")
        self.name = name
        self.cap = cap


class NotAMember(ClassGraphError):
    """An element was expected to lie in a group but does not."""


class InvalidParameter(ClassGraphError):
    """Not a group of the requested family, or an invalid setting (a cap, a prime mode)."""


class UnknownAtlasGroup(ClassGraphError, KeyError):
    """No built-in atlas group has the requested name.

    Also a KeyError, for callers that look names up with ``except KeyError``;
    its message reads as written, not quoted as a KeyError's would be.
    """

    __str__ = Exception.__str__


class NotAnAutomorphism(ClassGraphError):
    """A generator assignment does not extend to an automorphism."""


class NotAHomomorphism(ClassGraphError):
    """A generator assignment does not extend to a homomorphism."""


class CorpusSyntaxError(ClassGraphError):
    """A corpus file failed to parse; carries a 1-based position."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class DuplicateName(ClassGraphError):
    """Two corpus records share a name."""


class BadCycle(ClassGraphError):
    """A cycle string has an out-of-range or repeated point."""


class NotNormal(ClassGraphError):
    """A subgroup expected to be normal is not."""


class NotASubgroup(ClassGraphError):
    """An alleged subgroup is not contained in the ambient group."""


class LatticeCapExceeded(ClassGraphError):
    """Normal-subgroup enumeration exceeded its cap."""


class IsoCapExceeded(ClassGraphError):
    """Isomorphism testing was asked about groups above its cap."""


class HallSearchExhausted(ClassGraphError):
    """One greedy pass over the pi-elements found no subgroup of the target
    order: a Hall subgroup, a p-complement or a Frobenius complement.

    Under the documented preconditions the pass always finds one, so there
    this signals a defect.  Outside them it signals a violated
    precondition; such a subgroup may still exist.
    """


class NoVertices(ClassGraphError):
    """The class graph has no vertices, but one was required."""


class PreconditionViolated(ClassGraphError):
    """An operation was called outside its stated precondition."""


class NoCaseMatches(ClassGraphError):
    """No structural case applies; counterexample-severity finding."""


class InvariantViolated(ClassGraphError):
    """A property that a construction or a theorem guarantees does not hold.

    Signals a defect, like a failed assert, but survives ``python -O``.
    """


def require(ok: bool, what: str) -> None:
    """Raise InvariantViolated(what) unless ok."""
    if not ok:
        raise InvariantViolated(what)
