"""Exact integer and rational arithmetic for totient-sum computations.

Everything here is deterministic and exact.  Primality is a strong
probable-prime test on the first 13 prime bases, which is a proof below
psi_13 (Sorenson & Webster 2015) and is confirmed by trial division at or
above it.  Factorization divides out the primes below 1000 and splits what
is left with Pollard's rho in Brent's form, using fixed constants, so both
the factors and the running time repeat from run to run.  Totients come
from the prime factorization, and every inequality is decided exactly,
with `fractions.Fraction` or by cross-multiplying integers (never floats).
All integers are arbitrary precision, so products of many prime powers
cannot overflow.  The module holds no state: nothing is cached, and every
value is computed from the arguments on each call.  Every integer argument
is a Python or numpy integer, never a bool, and is held as an `int`;
anything else raises `ValueError` naming the argument.  `_integer` holds
this rule for `groups` too.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np


class HypothesisViolation(ValueError):
    """The input falls outside the hypothesis of the requested check."""


def _integer(value, what: str) -> int:
    """`value` as an int; numpy integers pass, bools and non-integers raise."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


# --- primes ---


# The first 13 primes: for trial division and as strong-probable-prime bases.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least odd composite that is a strong probable prime to every base in
# _BASES (Sorenson & Webster, Math. Comp. 2015); below it the test is a proof.
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every integer.

    Divides by the primes up to 41, then runs a strong-probable-prime test
    on those 13 bases.  Below psi_13 = 3317044064679887385961981 a number
    that passes every base is prime; at or above it, a number that passes
    is confirmed by trial division up to its square root, which is slow.
    """
    n = _integer(n, "n")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _is_prime_by_trial_division(n)


def _is_prime_by_trial_division(n: int) -> bool:
    """Trial division by every odd number up to sqrt(n); n is odd and > 2."""
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def nth_prime(i: int) -> int:
    """Return the i-th prime, 1-indexed (nth_prime(1) == 2)."""
    if _integer(i, "i") < 1:
        raise ValueError("prime index must be >= 1")
    return first_primes(i)[-1]


def first_primes(ell: int) -> tuple[int, ...]:
    """The set of the first `ell` primes, ascending; () for ell <= 0.

    The first 13 are `_BASES`; any past those are found with `is_prime`
    on each call.
    """
    ell = _integer(ell, "ell")
    primes = _BASES[: max(ell, 0)]
    candidate = _BASES[-1]
    while len(primes) < ell:
        candidate += 2
        if is_prime(candidate):
            primes += (candidate,)
    return primes


def skip_primes(ell: int) -> tuple[int, ...]:
    """The first `ell - 1` primes together with the (ell+1)-th prime.

    This is the "skip one prime" family used alongside `first_primes` in
    the tabulated special values of the rational invariant Q.
    """
    ell = _integer(ell, "ell")
    return first_primes(ell - 1) + (nth_prime(ell + 1),)


# --- factorization ---


@dataclass(frozen=True)
class Factorization:
    """A positive integer with its prime factorization.

    `factors` is an ascending tuple of (prime, exponent) pairs whose product
    of prime powers equals `n`; it is empty exactly for n == 1.  The
    constructor checks the product and the ordering; primality of the
    factors is the producer's responsibility (checked by `factorize`).
    """

    n: int
    factors: tuple[tuple[int, int], ...]
    # the distinct primes, ascending; derived from `factors` on construction
    primes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Every entry is held as an int first, so a type error comes before
        any order error: an entry that is not an int sends every entry
        through `_integer`, which holds numpy integers as ints and raises on
        anything else.  Then one pass checks the order, the exponents and the
        product, and collects the primes."""
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ValueError(f"not a positive integer: {self.n}")
        if any(type(p) is not int or type(a) is not int for p, a in self.factors):
            object.__setattr__(self, "factors", tuple(
                (_integer(p, "prime"), _integer(a, "exponent")) for p, a in self.factors))
        primes = []
        prod = last = 1
        for p, a in self.factors:
            if p <= last or a < 1:
                raise ValueError(f"malformed factorization of {self.n}")
            prod *= p**a
            last = p
            primes.append(p)
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, not {self.n}")
        object.__setattr__(self, "primes", tuple(primes))

    @property
    def k(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def largest_prime(self) -> int:
        if not self.factors:
            raise ValueError("1 has no prime factors")
        return self.factors[-1][0]


IntLike = Union[int, Factorization]


# factorize divides by 2 and the odd numbers below this bound; a cofactor
# left above the bound's square goes to is_prime and Pollard's rho.
_TRIAL_BOUND = 1000
# Brent's rho multiplies this many differences together between gcds.
_RHO_BATCH = 128


def factorize(n: int) -> Factorization:
    """Prime factorization: trial division below 1000, then Pollard-Brent rho.

    n == 1 yields an empty factor list; n < 1 is rejected.  Every n below
    10^6 is factored by trial division alone.  A cofactor with no prime
    factor below 1000 is tested with `is_prime` and, if composite, split by
    Brent's rho, recursively.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    m = n
    factors = []
    p = 2
    while p * p <= m and p < _TRIAL_BOUND:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if p * p <= m:
        factors.extend(sorted(Counter(_large_prime_factors(m)).items()))
    elif m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _large_prime_factors(m: int) -> list[int]:
    """The prime factors of m > 1, with multiplicity, in no set order."""
    if is_prime(m):
        return [m]
    d = _brent_rho(m)
    return _large_prime_factors(d) + _large_prime_factors(m // d)


def _brent_rho(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor below 1000.

    Pollard's rho in Brent's form (BIT 1980): iterate x -> x^2 + c mod n
    from 2, compare against the value saved at each power of two, and take
    one gcd per _RHO_BATCH differences.  When a batch overshoots to gcd n,
    the batch is replayed one step at a time; when that also gives n, the
    next c is tried.  The constants are fixed, so the result repeats.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def _coerce(n: IntLike) -> Factorization:
    return n if isinstance(n, Factorization) else factorize(n)


def smallest_prime_factors(limit: int) -> list[int]:
    """Sieve of smallest prime factors for 0..limit (spf[1] == 1).

    Used to factor every n in a range sweep in O(log n) each, where one
    sieve serves the whole range; a single n goes to `factorize`.
    """
    limit = _integer(limit, "limit")
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def factorization_from_spf(n: int, spf: list[int]) -> Factorization:
    """Rebuild a Factorization for n using a smallest-prime-factor sieve."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    m = n
    factors = []
    while m > 1:
        p = spf[m]
        if p < 2 or m % p:
            raise ValueError(f"spf[{m}] = {p} is not a prime factor of {m}")
        m //= p
        a = 1
        while m % p == 0:
            m //= p
            a += 1
        factors.append((p, a))
    return Factorization(n, tuple(factors))


# --- totients ---


def totient(n: IntLike) -> int:
    """Euler's totient via phi(n) = prod p^(a-1)(p-1); phi(1) == 1."""
    fact = _coerce(n)
    result = 1
    for p, a in fact.factors:
        result *= p ** (a - 1) * (p - 1)
    return result


def totient_table(values: Iterable[int]) -> dict[int, int]:
    """phi(v) for each distinct v in values, each computed once."""
    return {v: totient(v) for v in set(values)}


def phi_cyclic_sum(n: IntLike) -> int:
    """Totient sum of the cyclic group of order n, as the divisor sum.

    Each divisor d contributes phi(d) elements of order d, each worth
    phi(d), so the value is sum over d | n of phi(d)^2.  Both phi and the
    divisor sum are multiplicative, so the sum is taken one prime power at
    a time: the product over p^a dividing n exactly of
    1 + sum_{i=1..a} (p^(i-1)(p-1))^2.  The cost follows the number of
    prime factors of n, not its divisor count, and no divisor is
    listed.  This is still a summation, independent of the closed form in
    `phi_cyclic_product`.
    """
    result = 1
    for p, a in _coerce(n).factors:
        ph = p - 1  # phi(p^i), from i = 1
        part = 1  # phi(1)^2
        for _ in range(a):
            part += ph * ph
            ph *= p
        result *= part
    return result


def phi_cyclic_product(n: IntLike) -> int:
    """Totient sum of the cyclic group of order n, in closed product form.

    The value is the product over prime powers p^a dividing n exactly of
    (p^(2a)(p-1) + 2) / (p+1); each factor is an integer because
    p = -1 (mod p+1) makes the numerator divisible by p+1.  Must agree
    with `phi_cyclic_sum` for every n.
    """
    fact = _coerce(n)
    result = 1
    for p, a in fact.factors:
        num = p ** (2 * a) * (p - 1) + 2
        q, r = divmod(num, p + 1)
        if r:
            raise AssertionError(f"non-integral factor at p={p}, a={a}")
        result *= q
    return result


# --- the rational invariant Q ---


def _q_terms(primes: tuple[int, ...]) -> tuple[int, int]:
    """Q's unreduced numerator prod (p+1) and denominator prod (p-1).

    The denominator is positive, so Q compares with an integer x exactly
    as the numerator compares with x times the denominator.
    """
    num = den = 1
    for p in primes:
        num *= p + 1
        den *= p - 1
    return num, den


def q_of_primes(primes: Iterable[int]) -> Fraction:
    """Q over an explicit set of primes: prod (p+1)/(p-1), exact."""
    return Fraction(*_q_terms(tuple(primes)))


def q_of(n: IntLike) -> Fraction:
    """The reduced rational Q(n) = prod (p+1)/(p-1) over distinct prime
    factors of n.  Q(1) == 1 (empty product)."""
    return q_of_primes(_coerce(n).primes)


@dataclass(frozen=True)
class QBounds:
    """Outcome of the two Q upper bounds; None means hypothesis not met."""

    q_le_p_plus_1: Optional[bool]
    q_lt_p_odd: Optional[bool]


def lemma_Q_bounds(n: IntLike) -> QBounds:
    """Evaluate the two conditional upper bounds on Q.

    Part one (Q <= p+1, p the largest prime factor) applies only when n has
    at least nine distinct prime factors or its prime set is not an initial
    segment of the primes.  Part two (Q < p) applies only when n is odd.
    """
    fact = _coerce(n)
    if fact.n < 2:
        raise ValueError("need n >= 2")
    p = fact.largest_prime
    num, den = _q_terms(fact.primes)
    part_one = None
    if fact.k >= 9 or fact.primes != first_primes(fact.k):
        part_one = num <= (p + 1) * den
    part_two = None
    if fact.n % 2 == 1:
        part_two = num < p * den
    return QBounds(part_one, part_two)


def lemma_n_geq_check(n: IntLike) -> tuple[bool, bool]:
    """Check n >= Q * phi(n / p^a) * p^(a-1) exactly, p^a the largest
    prime-power part of n.  Returns (holds, equality).

    Powers of two (and n < 2) violate the hypothesis and are rejected;
    equality is expected exactly when n = 2^a * 3^b with a, b >= 1, which
    callers verify as a property.
    """
    fact = _coerce(n)
    if fact.n < 2:
        raise HypothesisViolation(f"n={fact.n}: need n >= 2")
    if fact.primes == (2,):
        raise HypothesisViolation(f"n={fact.n}: powers of two are excluded")
    p = fact.largest_prime
    num, den = _q_terms(fact.primes)
    # phi(n / p^a) * p^(a-1) = phi(n) / (p - 1), as phi(p^a) = p^(a-1) * (p - 1)
    lhs, rhs = fact.n * den, num * (totient(fact) // (p - 1))
    return lhs >= rhs, lhs == rhs


# --- tabulated special values ---


class Table1Row(NamedTuple):
    ell: int
    prime: int
    q_first: Fraction
    q_skip: Optional[Fraction]


def table1() -> list[Table1Row]:
    """Q over the first-primes and skip-primes families, for ell = 1..9.

    The skip value of the last row is left untabulated (None), matching
    the published table's asterisk.
    """
    rows = []
    for ell in range(1, 10):
        q_first = q_of_primes(first_primes(ell))
        q_skip = q_of_primes(skip_primes(ell)) if ell <= 8 else None
        rows.append(Table1Row(ell, nth_prime(ell), q_first, q_skip))
    return rows


def format_rational(x: Union[int, Fraction]) -> str:
    """Reduced "a/b", or plain "a" for integers (no "/1")."""
    return str(Fraction(x))
