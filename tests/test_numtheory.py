import math
from fractions import Fraction

import pytest

from groupsum import numtheory as nt


# --- independent oracles ---


def naive_totient(n):
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def naive_factor(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_phi_cyclic(n):
    return sum(naive_totient(d) ** 2 for d in naive_divisors(n))


# --- factorize ---


def test_factorize_examples():
    assert nt.factorize(1).factors == ()
    assert nt.factorize(12).factors == ((2, 2), (3, 1))
    assert nt.factorize(360).factors == ((2, 3), (3, 2), (5, 1))


@pytest.mark.parametrize("bad", [0, -1, -12])
def test_factorize_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        nt.factorize(bad)


def test_factorize_against_trial_division_oracle():
    for n in range(1, 2000):
        fact = nt.factorize(n)
        flat = [p for p, a in fact.factors for _ in range(a)]
        assert flat == naive_factor(n)
        assert math.prod(p**a for p, a in fact.factors) == n


def test_factorization_validation():
    with pytest.raises(ValueError):
        nt.Factorization(12, ((2, 1), (3, 1)))  # product is 6
    with pytest.raises(ValueError):
        nt.Factorization(6, ((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        nt.Factorization(0, ())


def test_factorization_properties():
    fact = nt.factorize(360)
    assert fact.primes == (2, 3, 5)
    assert fact.primes is fact.primes  # computed once, then cached
    fresh = nt.factorize(360)
    assert fact == fresh and hash(fact) == hash(fresh)  # the cache is not compared
    assert fact.k == 3
    assert fact.largest_prime == 5


def test_spf_sieve_matches_factorize():
    spf = nt.smallest_prime_factors(500)
    for n in range(1, 501):
        assert nt.factorization_from_spf(n, spf) == nt.factorize(n)


def test_divisors():
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert nt.divisors(1) == [1]
    for n in range(1, 200):
        assert nt.divisors(n) == naive_divisors(n)


# --- primes ---


def test_is_prime_small():
    primes = [n for n in range(60) if nt.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# --- differential tests against sympy ---

CARMICHAEL = (561, 41041, 825265)
STRONG_PSEUDOPRIMES_BASE_2 = (2047, 1373653, 3215031751)
# psi_12: the least odd composite that is a strong probable prime to every
# prime base up to 37; only base 41 exposes it.
PSI_12 = 318665857834031151167461


def _sympy_factors(sympy, n):
    return tuple(sorted(sympy.factorint(n).items()))


def _large_inputs(sympy):
    primes = [sympy.nextprime(10**e) for e in (3, 6, 9, 12, 18)]
    powers = [p**k for p in primes[:3] for k in (2, 3)] + [1009**5]
    semiprimes = [
        sympy.nextprime(10**a) * sympy.nextprime(10**b)
        for a, b in ((4, 20), (6, 18), (8, 15), (10, 13), (11, 12))
    ]
    mixed = [2**5 * 3 * 997 * primes[2] ** 2 * primes[3]]
    return [*CARMICHAEL, *STRONG_PSEUDOPRIMES_BASE_2, *primes, *powers, *semiprimes, *mixed, PSI_12]


def test_is_prime_and_factorize_match_sympy_up_to_20000():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 20001):
        assert nt.is_prime(n) == sympy.isprime(n), n
        assert nt.factorize(n).factors == _sympy_factors(sympy, n), n


def test_is_prime_and_factorize_match_sympy_on_large_inputs():
    sympy = pytest.importorskip("sympy")
    for n in _large_inputs(sympy):
        assert nt.is_prime(n) == sympy.isprime(n), n
        assert nt.factorize(n).factors == _sympy_factors(sympy, n), n


def test_factorize_matches_sympy_on_drawn_integers():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(hypothesis.strategies.integers(min_value=1, max_value=10**20 - 1))
    def check(n):
        assert nt.is_prime(n) == sympy.isprime(n)
        assert nt.factorize(n).factors == _sympy_factors(sympy, n)

    check()


def test_is_prime_needs_base_41():
    assert nt.is_prime(PSI_12) is False


def test_is_prime_certifies_by_trial_division_at_or_above_psi_13(monkeypatch):
    # With base 2 alone and the boundary moved to 0, every base-2 strong
    # probable prime takes the certification path of numbers at or above
    # psi_13, and the base-2 strong pseudoprimes must be rejected there.
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(nt, "_BASES", (2,))
    monkeypatch.setattr(nt, "_PSI_13", 0)
    candidates = [*range(1, 5000), *CARMICHAEL, *STRONG_PSEUDOPRIMES_BASE_2, 10**9 + 7]
    for n in candidates:
        assert nt.is_prime(n) == sympy.isprime(n), n


def test_nth_prime_and_families():
    assert [nt.nth_prime(i) for i in range(1, 10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert nt.first_primes(4) == (2, 3, 5, 7)
    assert nt.skip_primes(1) == (3,)
    assert nt.skip_primes(3) == (2, 3, 7)
    with pytest.raises(ValueError):
        nt.nth_prime(0)


# --- totient ---


def test_totient_examples():
    assert nt.totient(1) == 1
    assert nt.totient(12) == 4
    assert nt.totient(54) == 18  # 2 * 3^3


def test_totient_counting_oracle():
    for n in range(1, 300):
        assert nt.totient(n) == naive_totient(n)


def test_totient_rejects_zero():
    with pytest.raises(ValueError):
        nt.totient(0)


def test_totient_multiplicative_on_coprime():
    for m in range(1, 60):
        for n in range(1, 60):
            if math.gcd(m, n) == 1:
                assert nt.totient(m * n) == nt.totient(m) * nt.totient(n)


def test_totient_divides_along_divisibility():
    for b in range(1, 400):
        tb = nt.totient(b)
        for a in range(1, b + 1):
            if b % a == 0:
                assert tb % nt.totient(a) == 0


# --- the two closed forms for phi(C_n) ---


def test_phi_cyclic_sum_examples():
    assert nt.phi_cyclic_sum(1) == 1
    assert nt.phi_cyclic_sum(6) == 10  # 1 + 1 + 4 + 4
    assert nt.phi_cyclic_sum(16) == 86  # 1 + 1 + 4 + 16 + 64
    assert nt.phi_cyclic_sum(12) == 30  # divisor-sum oracle


def test_phi_cyclic_product_examples():
    assert nt.phi_cyclic_product(1) == 1
    assert nt.phi_cyclic_product(6) == 10
    assert nt.phi_cyclic_product(4) == 6  # (2^4 * 1 + 2) / 3


def test_phi_cyclic_sum_against_oracle():
    for n in range(1, 200):
        assert nt.phi_cyclic_sum(n) == naive_phi_cyclic(n)


def test_two_forms_agree():
    for n in range(1, 5000):
        assert nt.phi_cyclic_sum(n) == nt.phi_cyclic_product(n)


# --- Q ---


def test_q_of_table_values():
    assert nt.q_of(12) == Fraction(6)
    assert nt.q_of(2 * 3 * 5 * 7 * 11) == Fraction(72, 5)
    assert nt.q_of(2 * 3 * 7) == Fraction(8)
    assert nt.q_of(1) == Fraction(1)


def test_q_of_primes():
    assert nt.q_of_primes([2]) == Fraction(3)
    assert nt.q_of_primes([3]) == Fraction(2)
    assert nt.q_of_primes([]) == Fraction(1)


def test_q_lower_bound_check():
    holds, gap = nt.q_lower_bound_check(6)
    assert holds and gap == Fraction(4)  # 10 - 36/6
    holds, gap = nt.q_lower_bound_check(1)
    assert not holds and gap == 0  # boundary case, not a counterexample
    holds, gap = nt.q_lower_bound_check(12)
    assert holds and gap == Fraction(6)  # 30 - 144/6


def test_q_lower_bound_strict_for_small_range():
    for n in range(2, 3000):
        holds, gap = nt.q_lower_bound_check(n)
        assert holds and gap > 0


# --- conditional Q bounds ---


def test_lemma_Q_bounds_examples():
    b = nt.lemma_Q_bounds(15)  # {3, 5} is not an initial prime segment
    assert b.q_le_p_plus_1 is True
    assert b.q_lt_p_odd is True
    b = nt.lemma_Q_bounds(6)  # {2, 3} = first two primes, even
    assert b.q_le_p_plus_1 is None
    assert b.q_lt_p_odd is None
    b = nt.lemma_Q_bounds(105)  # 3 * 5 * 7
    assert b.q_lt_p_odd is True
    with pytest.raises(ValueError):
        nt.lemma_Q_bounds(1)


def test_lemma_Q_bounds_sweep():
    for n in range(2, 3000):
        b = nt.lemma_Q_bounds(n)
        assert b.q_le_p_plus_1 in (None, True)
        assert b.q_lt_p_odd in (None, True)
        if n % 2 == 1:
            assert b.q_lt_p_odd is True


# --- the n >= Q phi(n/p^a) p^(a-1) inequality ---


def test_lemma_n_geq_examples():
    assert nt.lemma_n_geq_check(12) == (True, True)  # equality at 2^2 * 3
    assert nt.lemma_n_geq_check(9) == (True, False)
    for bad in (8, 2, 1, 64):
        with pytest.raises(nt.HypothesisViolation):
            nt.lemma_n_geq_check(bad)


def test_lemma_n_geq_equality_classification():
    for n in range(2, 5000):
        fact = nt.factorize(n)
        if fact.primes == (2,):
            continue
        holds, equality = nt.lemma_n_geq_check(fact)
        p, a = fact.factors[-1]
        rhs = nt.q_of(n) * nt.totient(n // p**a) * p ** (a - 1)
        assert (holds, equality) == (n >= rhs, n == rhs)
        assert holds
        assert equality == (fact.primes == (2, 3))


# --- tables and formatting ---


def test_table1_paper_values():
    expected_first = ["3", "6", "9", "12", "72/5", "84/5", "189/10", "21", "252/11"]
    expected_skip = ["2", "9/2", "8", "54/5", "14", "81/5", "56/3", "1134/55", None]
    rows = nt.table1()
    assert [r.ell for r in rows] == list(range(1, 10))
    assert [nt.format_rational(r.q_first) for r in rows] == expected_first
    got_skip = [None if r.q_skip is None else nt.format_rational(r.q_skip) for r in rows]
    assert got_skip == expected_skip


def test_format_rational():
    assert nt.format_rational(Fraction(6)) == "6"
    assert nt.format_rational(Fraction(72, 5)) == "72/5"
    assert nt.format_rational(7) == "7"
