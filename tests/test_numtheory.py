import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from groupsum import numtheory as nt
from groupsum import verify


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
    assert fact.primes is fact.primes  # derived once, on construction
    assert nt.q_of(fact) == 9 == Fraction(3 * 4 * 6, 1 * 2 * 4)
    fresh = nt.factorize(360)
    assert fact == fresh and hash(fact) == hash(fresh)
    assert fact.k == 3
    assert fact.largest_prime == 5
    with pytest.raises(ValueError, match="1 has no prime factors"):
        nt.factorize(1).largest_prime


def test_integer_arguments_are_checked_at_the_boundary():
    # ints and numpy integers are accepted, held as int; bools, floats and
    # strings raise, naming the argument
    bad = [2.5, 6.0, True, False, "6", None, np.float64(6.0), np.bool_(True)]
    spf = nt.smallest_prime_factors(10)
    calls = {
        "n": [nt.is_prime, nt.factorize, nt.totient, nt.phi_cyclic_sum,
              nt.phi_cyclic_product, nt.q_of, nt.lemma_Q_bounds, nt.lemma_n_geq_check,
              lambda x: nt.factorization_from_spf(x, spf), lambda x: nt.Factorization(x, ())],
        # a type error comes before an order error, even at a later entry
        "prime": [lambda x: nt.Factorization(6, ((x, 1), (3, 1))),
                  lambda x: nt.Factorization(6, ((3, 1), (x, 1))),
                  lambda x: nt.Factorization(6, ((3, 1), (2, 1), (x, 1)))],
        "exponent": [lambda x: nt.Factorization(6, ((2, x), (3, 1))),
                     lambda x: nt.Factorization(6, ((3, 1), (2, 1), (5, x)))],
        "i": [nt.nth_prime],
        "ell": [nt.first_primes, nt.skip_primes],
        "limit": [nt.smallest_prime_factors],
    }
    for what, functions in calls.items():
        for call in functions:
            for value in bad:
                with pytest.raises(ValueError, match=f"^{what} must be an integer, got "):
                    call(value)
    assert nt.is_prime(np.int64(7)) and not nt.is_prime(np.uint8(1))
    fact = nt.factorize(np.int64(12))
    assert fact == nt.factorize(12) == nt.Factorization(np.int16(12), ((np.int8(2), 2), (3, 1)))
    assert fact == nt.factorization_from_spf(np.int32(12), nt.smallest_prime_factors(12))
    for held in (fact, nt.Factorization(np.int16(12), ((np.int8(2), np.int64(2)), (3, 1)))):
        assert type(held.n) is int
        assert {type(x) for pair in held.factors for x in pair} | {type(held.primes[0])} == {int}
    assert nt.totient(np.int64(12)) == 4 and nt.phi_cyclic_sum(np.int32(6)) == 10
    assert nt.nth_prime(np.int64(3)) == 5 and nt.first_primes(np.int8(2)) == (2, 3)
    assert nt.skip_primes(np.int64(2)) == (2, 5)
    assert nt.smallest_prime_factors(np.int64(6)) == [0, 1, 2, 3, 2, 5, 2]


def test_spf_sieve_matches_factorize():
    spf = nt.smallest_prime_factors(500)
    for n in range(1, 501):
        assert nt.factorization_from_spf(n, spf) == nt.factorize(n)
    with pytest.raises(ValueError, match="cannot factor 0"):
        nt.factorization_from_spf(0, spf)


def test_spf_sieve_entry_that_is_no_prime_factor_raises():
    # an entry of 1 divided forever, one that does not divide its index
    # looped forever and 0 divided by zero, so the cases run in a child
    # process bounded by a timeout
    code = """if True:
        from groupsum import numtheory as nt
        for n, m, p in ((18, 9, 1), (9, 9, 2), (12, 3, 0)):
            spf = nt.smallest_prime_factors(n)
            spf[m] = p
            try:
                nt.factorization_from_spf(n, spf)
            except ValueError as exc:
                print(exc)
    """
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "spf[9] = 1 is not a prime factor of 9",
        "spf[9] = 2 is not a prime factor of 9",
        "spf[3] = 0 is not a prime factor of 3",
    ]


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


# psi_k for k = 1..12 (OEIS A014233): the least odd composite that is a
# strong probable prime to each of the first k primes
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, PSI_12)
FIRST_12_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(s))


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_stops_at_psi_k(k):
    # psi_k is composite and passes the first k bases, so is_prime may stop
    # after base k only below it; at and beside it is_prime matches sympy
    sympy = pytest.importorskip("sympy")
    psi = PSI[k - 1]
    assert nt._PSI[k - 1] == psi
    assert not sympy.isprime(psi)
    assert all(_strong_probable_prime(psi, a) for a in FIRST_12_PRIMES[:k])
    for n in (psi - 2, psi, psi + 2):
        assert nt.is_prime(n) == sympy.isprime(n), n


def test_factorize_matches_sympy_around_the_trial_division_bound():
    sympy = pytest.importorskip("sympy")
    for n in (997**2, 997 * 1009, 1009**2, 999983, 10**6, 2**40, *PSI[:9]):
        assert nt.factorize(n).factors == _sympy_factors(sympy, n), n


def test_factorize_matches_sympy_on_drawn_integers_below_10_to_15():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(hypothesis.strategies.integers(min_value=1, max_value=10**15 - 1))
    def check(n):
        assert nt.factorize(n).factors == _sympy_factors(sympy, n)

    check()


def test_is_prime_certifies_by_trial_division_at_or_above_psi_13(monkeypatch):
    # With base 2 alone, no psi_k table and the boundary moved to 0, every
    # base-2 strong probable prime takes the certification path of numbers
    # at or above psi_13, and the base-2 strong pseudoprimes must be
    # rejected there.
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(nt, "_BASES", (2,))
    monkeypatch.setattr(nt, "_PSI", ())
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


def _fresh_first_primes(ell):
    primes, candidate = [], 1
    while len(primes) < ell:
        candidate += 1
        if all(candidate % p for p in primes):
            primes.append(candidate)
    return tuple(primes)


def test_first_primes_and_skip_primes_match_trial_division():
    for ell in (-3, 0, 1, 9, 13, 14, 25):
        assert nt.first_primes(ell) == _fresh_first_primes(max(ell, 0)), ell
    for ell in (0, 1, 2, 9, 14):
        expected = _fresh_first_primes(max(ell - 1, 0)) + _fresh_first_primes(ell + 1)[-1:]
        assert nt.skip_primes(ell) == expected, ell
    assert nt.skip_primes(9) == (2, 3, 5, 7, 11, 13, 17, 19, 29)
    with pytest.raises(ValueError):
        nt.skip_primes(-1)


def test_numtheory_holds_no_state():
    # Nothing is cached: the module's names stay bound to the same objects
    # and a Factorization holds only its fields, whatever was computed.
    before = dict(vars(nt))
    fact = nt.factorize(360)
    verify.verify_numtheory_sweep(300)
    nt.table1()
    verify.table2_spot_check()
    nt.first_primes(30)
    nt.nth_prime(20)
    nt.skip_primes(14)
    nt.q_of(fact)
    nt.totient(fact)
    nt.lemma_Q_bounds(fact)
    nt.lemma_n_geq_check(fact)
    after = vars(nt)
    assert after.keys() == before.keys()
    assert [name for name in before if after[name] is not before[name]] == []
    assert sorted(vars(fact)) == ["factors", "n", "primes"]


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


def test_totient_table_reads_divisors_off_the_order_without_factoring_them(monkeypatch):
    fact = nt.factorize(2**4 * 3**2 * 5 * 7)
    divisors = [d for d in range(1, fact.n + 1) if fact.n % d == 0]
    expected = {d: naive_totient(d) for d in divisors}
    factorize = nt.factorize
    seen = []
    monkeypatch.setattr(nt, "factorize", lambda n: seen.append(n) or factorize(n))
    assert nt.totient_table(fact, divisors + divisors[::-1]) == expected
    assert seen == []
    # an int order is factored once, and no divisor is
    assert nt.totient_table(fact.n, divisors) == expected
    assert seen == [fact.n]


def test_totient_table_factors_a_value_that_does_not_divide_the_order():
    # 2 and 10 do not divide 21; 9 shares the prime 3 with it but not the power
    assert nt.totient_table(21, [1, 2, 3, 9, 10, 21]) == {
        1: 1, 2: 1, 3: 2, 9: 6, 10: 4, 21: 12}


@pytest.mark.parametrize("value", [0, -3, True, 2.0, "3", None])
def test_totient_table_rejects_a_value_that_is_not_a_positive_integer(value):
    with pytest.raises(ValueError):
        nt.totient_table(12, [4, value])


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


def test_phi_cyclic_sum_against_its_oracle_on_drawn_n():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(hypothesis.strategies.integers(1, 20000))
    def check(n):
        assert nt.phi_cyclic_sum(n) == naive_phi_cyclic(n)

    check()


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


def test_lemma_Q_bounds_match_fraction_comparisons():
    # The bounds compare by cross-multiplying; Fraction is the reference.
    primorial = math.prod(nt.first_primes(9))
    samples = [*range(2, 2000), primorial, primorial * 29, primorial // 2,
               math.prod(nt.skip_primes(9)), math.prod(nt.first_primes(12)) // 3]
    for n in samples:
        fact = nt.factorize(n)
        q, p = nt.q_of(fact), fact.largest_prime
        applies = fact.k >= 9 or fact.primes != nt.first_primes(fact.k)
        expected = nt.QBounds(q <= p + 1 if applies else None, q < p if n % 2 else None)
        assert nt.lemma_Q_bounds(fact) == expected, n


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
    assert nt.format_rational(Fraction(-3, 6)) == "-1/2"
    assert nt.format_rational(Fraction(0)) == "0"
    assert nt.format_rational(-4) == "-4"
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # against the numerator/denominator formula it replaced
    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(st.fractions(), st.integers().map(Fraction), st.integers()))
    def check(x):
        f = Fraction(x)
        want = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        assert nt.format_rational(x) == want

    check()
