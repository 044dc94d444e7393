"""Small-integer arithmetic helpers (trial division is ample at this scale)."""

from __future__ import annotations

from functools import lru_cache

from .errors import PreconditionViolated


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct prime divisors of n (empty for n = 1)."""
    if n < 1:
        raise ValueError(f"positive integer expected, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


def require_primes(*qs: int) -> None:
    """Raise PreconditionViolated for the first of ``qs`` that is not prime."""
    for q in qs:
        if not is_prime(q):
            raise PreconditionViolated(f"{q} is not prime")


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def pi_part(n: int, primes: frozenset[int] | set[int]) -> int:
    """Largest divisor of n whose prime divisors all lie in `primes`."""
    out = 1
    for q in prime_factors(n):
        if q in primes:
            out *= p_part(n, q)
    return out


def is_pi_number(n: int, primes: frozenset[int] | set[int]) -> bool:
    """True iff every prime divisor of n lies in `primes`."""
    return primes.issuperset(prime_factors(n))


def is_prime_power(n: int) -> bool:
    """True iff n = q^k for a prime q and k >= 1."""
    return n > 1 and len(prime_factors(n)) == 1
