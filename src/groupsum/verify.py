"""Executable checks for every totient-sum statement, over constructed groups.

Each check produces a Verdict keyed by a stable statement id ("thm-main",
"lem-3.5", "table-2-k3-q6-a2eq1", ...) so a report can say exactly which
claim broke and on which group.  A failing statement is a verdict with a
counterexample payload, not an exception.  An internal inconsistency, where
the checker disagrees with itself rather than with the paper, raises
AssertionError: `verify_main`'s cyclic-entry check, `table2_spot_check`'s
checks on each instantiated case, `FiniteGroup.count_sylow`'s counting laws
and `powergraph.undirected_edge_count`'s identity 2*edges + |G| = phi(G).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import numtheory, powergraph
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    OrderCapError,
    SemidirectSpec,
    catalog,
    cyclic,
    direct_product,
    enumerate_semidirect_units,
    semidirect_cyclic,
)


@dataclass
class Verdict:
    passed: bool
    detail: str = ""
    counterexample: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class GroupRow:
    """Per-group record inside a per-order verification report."""

    name: str
    order: int
    phi_g: int
    cyclic: bool
    undirected_edges: int
    max_phi_order: int
    witnesses: list[int]
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "phi_G": self.phi_g,
            "is_cyclic": self.cyclic,
            "undirected_edges": self.undirected_edges,
            "max_phi_order": self.max_phi_order,
            "witnesses": self.witnesses,
            "verdict": "pass" if self.ok else "fail",
        }


@dataclass
class VerificationReport:
    n: int
    phi_cyclic: int
    rows: list[GroupRow]
    verdicts: dict[str, Verdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "phi_cyclic": self.phi_cyclic,
            "rows": [r.to_json_dict() for r in self.rows],
            "verdicts": {k: v.to_json_dict() for k, v in self.verdicts.items()},
        }


def _witnesses(group: FiniteGroup, q: Fraction) -> list[int]:
    """The elements g with |G| < Q * phi(order(g)), ascending; q is Q(|G|).
    The inequality is decided once per distinct element order, in integers."""
    n, num, den = group.order, q.numerator, q.denominator
    hits = {m for m, phi_m in group.order_totients().items() if num * phi_m > n * den}
    if not hits:
        return []
    return [g for g, m in enumerate(group.element_orders()) if m in hits]


def verify_main(n: int, cap: int = DEFAULT_ORDER_CAP) -> VerificationReport:
    """Check, over the whole catalog of order n, that the cyclic group
    maximizes the totient sum (equality exactly on cyclic entries) and
    therefore the undirected edge count of the directed power graph."""
    if n > cap and n >= 1:  # before factoring n; an order below 1 fails there
        raise OrderCapError(n, cap)
    fact = numtheory.factorize(n)
    phi_cn = numtheory.phi_cyclic_sum(fact)
    q = numtheory.q_of(fact)
    rows = []
    for group in catalog(n, cap):
        # the graph first: its walk of the cyclic subgroups gives the orders
        edges = powergraph.undirected_edge_count(powergraph.build(group))
        phi_g = group.phi()
        cyclic_flag = group.is_cyclic()
        max_phi = max(group.order_totients().values())
        witnesses = _witnesses(group, q)
        ok = phi_cn >= phi_g and (phi_g == phi_cn) == cyclic_flag
        rows.append(
            GroupRow(group.name, n, phi_g, cyclic_flag, edges, max_phi, witnesses, ok)
        )

    cyclic_row = next(r for r in rows if r.name == f"cyclic:{n}")
    if cyclic_row.phi_g != phi_cn:
        raise AssertionError(
            f"cyclic group of order {n} has totient sum {cyclic_row.phi_g}, "
            f"expected {phi_cn}"
        )

    bad = next((r for r in rows if not r.ok), None)
    verdicts = {
        "thm-main": Verdict(
            bad is None,
            f"checked {len(rows)} groups of order {n}",
            None if bad is None else {"group": bad.name, "phi_G": bad.phi_g},
        )
    }
    worst = max(rows, key=lambda r: r.undirected_edges)
    max_edges = worst.undirected_edges
    expected_edges = (phi_cn - n) // 2
    edge_ok = cyclic_row.undirected_edges == max_edges == expected_edges
    verdicts["thm-edge-max"] = Verdict(
        edge_ok,
        f"cyclic entry has {cyclic_row.undirected_edges} undirected edges, "
        f"max is {max_edges}, expected {expected_edges}",
        None if edge_ok else {"group": worst.name, "edges": worst.undirected_edges},
    )
    return VerificationReport(n, phi_cn, rows, verdicts)


# --- the normal-Sylow criterion ---


@dataclass
class CriterionOutcome:
    """What the normal-Sylow criterion promises for one witness element.

    A witness is g with |G| < Q * phi(order(g)).  The promised conclusion
    is a unique, normal, cyclic Sylow subgroup for the largest prime,
    contained in the cyclic subgroup generated by g.  The lone documented
    exception: in the group of order 2 the identity also satisfies the
    witness inequality but generates nothing (identity_exception).
    `satisfied` is the verdict for g, decided by `check_witnesses`.
    """

    witness: int
    witness_order: int
    sylow_prime: int
    sylow_order: int
    unique: bool
    normal: bool
    cyclic: bool
    contained_in_gen: bool
    identity_exception: bool
    satisfied: bool


def check_witnesses(group: FiniteGroup) -> list[CriterionOutcome]:
    """Find every witness element and decide, in one rule, whether the
    criterion holds for it (stored as `CriterionOutcome.satisfied`).

    Besides the promised conclusions, the rule checks the side consequences,
    each as "hypothesis false, or conclusion true": a witness is never the
    identity (except in order 2); in a prime-power group of order > 2 a
    witness generates; the full largest-prime power divides the witness
    order when the order exceeds 2; and an even-order witness g has
    |G|/order(g) below the largest prime.  Whether the Sylow subgroup lies
    in <g> is decided once per witness subgroup, by walking <g> with
    `cyclic_subgroup`: the answer holds for every generator of <g>, the
    elements of the walk of order o(g), and those are witnesses together
    with g.  A walk whose length is not o(g) raises AssertionError.
    """
    n = group.order
    fact = group._order_factorization()
    witnesses = _witnesses(group, numtheory.q_of(fact))
    if not witnesses:
        return []
    p, alpha = fact.factors[-1]
    p_alpha = p**alpha
    prime_power = fact.k == 1
    orders = group.element_orders()
    sylow = group.sylow_subgroup(p)
    unique = group.count_sylow(p) == 1
    normal = group.is_normal(sylow)
    cyc = sylow.is_cyclic()
    size = len(sylow)
    contained: dict[int, bool] = {}  # generator of a walked <g> -> whether <g> holds P
    outcomes = []
    for g in witnesses:
        og = orders[g]
        if g not in contained:
            walk = group.cyclic_subgroup(g)
            if len(walk) != og:
                raise AssertionError(
                    f"the walk from {g} in {group.name} has length {len(walk)}, "
                    f"not its order {og}"
                )
            held = int(np.count_nonzero(sylow.mask[list(walk)])) == size
            for h in walk:
                if orders[h] == og:
                    contained[h] = held
        exception = g == group.identity and n == 2
        satisfied = (
            unique and normal and cyc
            and (g != group.identity or n == 2)
            and (contained[g] or exception)
            and (n <= 2 or og % p_alpha == 0)
            and (not prime_power or n <= 2 or og == n)
            and (og % 2 == 1 or n // og < p)
        )
        outcomes.append(CriterionOutcome(
            g, og, p, size, unique, normal, cyc, contained[g], exception, satisfied
        ))
    return outcomes


def verify_criterion(
    group: FiniteGroup,
) -> tuple[dict[str, Verdict], list[CriterionOutcome]]:
    """The criterion's verdicts on one group, by statement id, and the
    outcome for each witness: "thm-overall" passes when every witness
    satisfies the criterion, and "cor-contrapositive" is
    `verify_contrapositive(group)`."""
    outcomes = check_witnesses(group)
    bad = next((o for o in outcomes if not o.satisfied), None)
    verdicts = {
        "thm-overall": Verdict(
            bad is None,
            f"{group.name}: {len(outcomes)} witness(es)",
            None if bad is None else {"group": group.name, "witness": bad.witness},
        ),
        "cor-contrapositive": verify_contrapositive(group),
    }
    return verdicts, outcomes


def verify_contrapositive(group: FiniteGroup) -> Verdict:
    """If the largest-prime Sylow subgroup is not unique, no element can
    satisfy the witness inequality (vacuous when it is unique)."""
    n = group.order
    if n == 1:
        return Verdict(True, f"{group.name}: trivial group")
    fact = group._order_factorization()
    p = fact.largest_prime
    count = group.count_sylow(p)
    if count == 1:
        return Verdict(True, f"{group.name}: unique Sylow-{p}, vacuous")
    witnesses = _witnesses(group, numtheory.q_of(fact))
    if witnesses:
        return Verdict(
            False,
            f"{group.name}: {count} Sylow-{p} subgroups but a witness exists",
            {"group": group.name, "witness": witnesses[0]},
        )
    return Verdict(True, f"{group.name}: {count} Sylow-{p} subgroups, no witness")


def criterion_sweep(max_order: int) -> dict[str, Verdict]:
    """Run `verify_criterion` over every catalog group of order up to
    max_order; keep the first counterexample for each statement id."""
    checked = 0
    witnesses_seen = 0
    first_bad: dict[str, Optional[dict]] = {}
    for n in range(1, max_order + 1):
        for group in catalog(n):
            checked += 1
            verdicts, outcomes = verify_criterion(group)
            witnesses_seen += len(outcomes)
            for key, verdict in verdicts.items():
                if not verdict.passed:
                    first_bad.setdefault(key, verdict.counterexample)
    details = {
        "thm-overall": f"{checked} groups, {witnesses_seen} witnesses",
        "cor-contrapositive": f"{checked} groups",
    }
    return {key: Verdict(key not in first_bad, detail, first_bad.get(key))
            for key, detail in details.items()}


# --- product lemmas ---


def verify_product_lemmas(u: FiniteGroup, t: FiniteGroup) -> Verdict:
    """Totient sum of a direct product is at most the product of totient
    sums, with equality under any of: coprime orders, first factor an
    elementary abelian 2-group, or gcd of orders 2 with the first factor's
    order twice an odd number."""
    product = direct_product(u, t)
    phi_u, phi_t, phi_g = u.phi(), t.phi(), product.phi()
    bound = phi_u * phi_t
    gcd_orders = math.gcd(u.order, t.order)
    hypotheses = []
    if gcd_orders == 1:
        hypotheses.append("coprime orders")
    if all(o <= 2 for o in u.element_orders()):
        hypotheses.append("elementary abelian 2-group factor")
    if gcd_orders == 2 and u.order % 4 == 2:
        hypotheses.append("gcd 2 with twice-odd factor")
    passed = phi_g <= bound and (not hypotheses or phi_g == bound)
    return Verdict(
        passed,
        f"phi({product.name}) = {phi_g} vs {phi_u}*{phi_t} = {bound}"
        + (f"; equality expected ({', '.join(hypotheses)})" if hypotheses else ""),
        None
        if passed
        else {"U": u.name, "T": t.name, "phi_G": phi_g, "bound": bound},
    )


def verify_semidirect_lemmas(spec: SemidirectSpec) -> dict[str, Verdict]:
    """For coprime a, b: element orders in the twisted product divide the
    orders of the same pairs in the direct product; totient sums satisfy
    phi(twisted) <= phi(direct); equality exactly when the action is
    trivial."""
    if not spec.coprime:
        raise ValueError(f"need coprime a, b; got a={spec.a}, b={spec.b}")
    twisted = semidirect_cyclic(spec)
    straight = direct_product(cyclic(spec.a), cyclic(spec.b))
    orders_g = twisted.element_orders()
    orders_h = straight.element_orders()
    tot_g = twisted.order_totients()
    tot_h = straight.order_totients()

    divide_bad = next(
        (
            i
            for i in range(twisted.order)
            if orders_h[i] % orders_g[i] != 0
            or tot_h[orders_h[i]] % tot_g[orders_g[i]] != 0
        ),
        None,
    )
    verdicts = {
        "lem-3.2": Verdict(
            divide_bad is None,
            f"{twisted.name}: orders divide the direct-product orders",
            None if divide_bad is None else {"group": twisted.name, "pair": divide_bad},
        )
    }
    phi_g = twisted.phi()
    phi_h = straight.phi()
    verdicts["cor-3.3"] = Verdict(
        phi_g <= phi_h,
        f"phi({twisted.name}) = {phi_g} <= phi({straight.name}) = {phi_h}",
        None if phi_g <= phi_h else {"group": twisted.name},
    )
    equality_ok = (phi_g == phi_h) == spec.is_direct
    verdicts["lem-3.5"] = Verdict(
        equality_ok,
        f"{twisted.name}: equality {'expected' if spec.is_direct else 'excluded'}"
        f" (phi {phi_g} vs {phi_h})",
        None if equality_ok else {"group": twisted.name, "r": spec.r},
    )
    return verdicts


def semidirect_sweep(max_product: int) -> dict[str, Verdict]:
    """All coprime a, b >= 2 with a*b <= max_product, every valid action."""
    merged: dict[str, Verdict] = {}
    checked = 0
    for a in range(2, max_product + 1):
        for b in range(2, max_product // a + 1):
            if math.gcd(a, b) != 1:
                continue
            for r in enumerate_semidirect_units(a, b):
                checked += 1
                for key, verdict in verify_semidirect_lemmas(SemidirectSpec(a, b, r)).items():
                    if key not in merged:
                        merged[key] = Verdict(True)
                    if not verdict.passed and merged[key].passed:
                        merged[key] = verdict
    for key in merged:
        if merged[key].passed:
            merged[key].detail = f"{checked} twisted products checked"
    return merged


# --- tabulated spot checks ---

_TABLE1_EXPECTED = [
    # (ell, prime, Q over first primes, Q over the skip family)
    (1, 2, Fraction(3), Fraction(2)),
    (2, 3, Fraction(6), Fraction(9, 2)),
    (3, 5, Fraction(9), Fraction(8)),
    (4, 7, Fraction(12), Fraction(54, 5)),
    (5, 11, Fraction(72, 5), Fraction(14)),
    (6, 13, Fraction(84, 5), Fraction(81, 5)),
    (7, 17, Fraction(189, 10), Fraction(56, 3)),
    (8, 19, Fraction(21), Fraction(1134, 55)),
    (9, 23, Fraction(252, 11), None),
]


@dataclass(frozen=True)
class Table2Case:
    """One symbolic exceptional case, checked at its minimal exponents.

    `quotient` is the tabulated value of n / order(g); `overrides` raises
    selected exponents (1-based prime position) above the minimum of 1 to
    match the case named by the `row_id` suffix (`a2gt1`: alpha2 > 1, and
    so on); `printed` and `relation` record the published
    comparison of n / phi(order(g)) against Q.
    """

    row_id: str
    k: int
    quotient: int
    overrides: tuple[tuple[int, int], ...]
    printed: str
    relation: str
    note: str = ""


TABLE2_CASES = [
    Table2Case(
        "table-2-k2-q4", 2, 4, (), "6", "=",
        "order read as a power of 3 (the printed subscript follows the 2-part case column)",
    ),
    Table2Case("table-2-k3-q6-a2eq1", 3, 6, (), "7.4", "<"),
    Table2Case("table-2-k3-q6-a2gt1", 3, 6, ((2, 2),), "11", ">"),
    Table2Case("table-2-k3-q8", 3, 8, (), "15", ">"),
    Table2Case("table-2-k4-q8", 4, 8, (), "17", ">"),
    Table2Case("table-2-k4-q10-a3eq1", 4, 10, (), "14", ">"),
    Table2Case("table-2-k4-q10-a3gt1", 4, 10, ((3, 2),), "21", ">"),
    Table2Case("table-2-k5-q12-a2eq1", 5, 12, (), "19", ">"),
    Table2Case("table-2-k5-q12-a2gt1", 5, 12, ((2, 2),), "28", ">"),
    Table2Case("table-2-k5-q14-a4eq1", 5, 14, (), "28", ">"),
    Table2Case("table-2-k5-q14-a4gt1", 5, 14, ((4, 2),), "33", ">"),
    Table2Case("table-2-k6-q14-a4eq1", 6, 14, (), "62", ">"),
    Table2Case("table-2-k6-q14-a4gt1", 6, 14, ((4, 2),), "36", ">"),
    Table2Case("table-2-k6-q16", 6, 16, (), "41", ">"),
    Table2Case("table-2-k7-q18-a2eq2", 7, 18, (), "33", ">"),
    Table2Case("table-2-k7-q18-a2gt2", 7, 18, ((2, 3),), "49", ">"),
    Table2Case("table-2-k8-q20-a3eq1", 8, 20, (), "46", ">"),
    Table2Case("table-2-k8-q20-a3gt1", 8, 20, ((3, 2),), "58", ">"),
]


@dataclass
class Table2Verdict:
    case: Table2Case
    n: int
    witness_order: int
    phi_witness_order: int
    ratio: Fraction
    q: Fraction
    passed: bool
    printed_matches: bool
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "order": self.witness_order,
            "phi_order": self.phi_witness_order,
            "ratio": numtheory.format_rational(self.ratio),
            "Q": numtheory.format_rational(self.q),
            "printed": self.case.printed,
            "relation": self.case.relation,
            "passed": self.passed,
            "printed_matches": self.printed_matches,
            "notes": self.notes,
        }


def table2_spot_check() -> dict[str, Table2Verdict]:
    """Instantiate every exceptional case at its minimal exponents and
    compare n / phi(order(g)) against Q exactly.

    The verdict reproduces the printed comparison; when the printed number
    itself disagrees with the exact value (notably the 7.4 entry, exactly
    15/2), the row is flagged in `notes` but the comparison still decides
    pass/fail.
    """
    results: dict[str, Table2Verdict] = {}
    for case in TABLE2_CASES:
        primes = numtheory.first_primes(case.k)
        overrides = dict(case.overrides)
        in_quotient = dict(numtheory.factorize(case.quotient).factors)
        exponents = [
            max(1, in_quotient.get(p, 0), overrides.get(i, 1))
            for i, p in enumerate(primes, start=1)
        ]
        n = math.prod(p**a for p, a in zip(primes, exponents))
        if n % case.quotient != 0:
            raise AssertionError(f"{case.row_id}: quotient does not divide n")
        witness_order = n // case.quotient
        if witness_order % 2 == 0:
            raise AssertionError(f"{case.row_id}: witness order must be odd")
        if witness_order % primes[-1] ** exponents[-1] != 0:
            raise AssertionError(
                f"{case.row_id}: witness order must absorb the largest prime power"
            )
        phi_order = numtheory.totient(witness_order)
        ratio = Fraction(n, phi_order)
        q = numtheory.q_of_primes(primes)
        passed = {"=": ratio == q, ">": ratio > q, "<": ratio < q}[case.relation]
        if "." in case.printed:
            printed_matches = Fraction(case.printed) == ratio
        else:
            printed_matches = int(case.printed) == ratio.numerator // ratio.denominator
        notes = []
        if case.note:
            notes.append(case.note)
        if not printed_matches:
            notes.append(
                f"printed {case.printed} differs from exact "
                f"{numtheory.format_rational(ratio)}"
            )
        results[case.row_id] = Table2Verdict(
            case, n, witness_order, phi_order, ratio, q, passed, printed_matches, notes
        )
    return results


# --- exhaustive arithmetic sweeps ---


def _totient_sieve(bound: int) -> np.ndarray:
    """phi(0..bound) from a sieve of its own, never from `numtheory.totient`.

    2 and each odd prime p <= sqrt(bound) take the factor (1 - 1/p) off
    their multiples, and their powers are divided out of `rest`.  What is
    left in `rest` is 1 or the one prime factor above sqrt(bound), which
    divides t; one pass over the whole array takes it off.  phi(0) is left
    at 0.

    Every quotient by p is exact: an entry of t at a multiple m of p is m
    times (q - 1)/q over the smaller primes q dividing m, and p divides
    neither q nor q - 1 < p; an entry of rest at a multiple of p^j has lost
    only j - 1 factors p so far.  So x // p is taken as x times the inverse
    of p modulo 2^32 (x >> 1 for p = 2), which uint32 arithmetic wraps to
    exactly.  The sweep's bound is at most 10^6, so every value and every
    product phi(m) phi(n) its check forms is below 2^31.
    """
    t = np.arange(bound + 1, dtype=np.uint32)
    rest = t.copy()
    evens = t[2::2]  # views, updated in place
    evens -= evens >> 1
    power = 2
    while power <= bound:
        powers = rest[power::power]
        powers >>= 1
        power *= 2
    for p in range(3, math.isqrt(bound) + 1, 2):
        if t[p] == p:  # no smaller prime divides p
            inverse = np.uint32(pow(p, -1, 1 << 32))
            multiples = t[p::p]
            multiples -= multiples * inverse
            power = p
            while power <= bound:
                powers = rest[power::power]
                powers *= inverse
                power *= p
    rest[0] = 1  # t[0] = 0 stays 0; no division by zero
    t -= t // rest * (rest > 1)
    return t


def verify_numtheory_sweep(limit: int) -> dict[str, Verdict]:
    """Run every arithmetic invariant over 1..limit (0 <= limit <= 10^6).

    Uses a smallest-prime-factor sieve to hand precomputed factorizations
    to the public operations; the divisibility and multiplicativity
    properties run at their own caps (10^4 and 10^3, clipped to limit).
    Q is compared by cross-multiplying its numerator and denominator; a
    `Fraction` is built only to print a failure.
    """
    if limit < 0:
        raise ValueError(f"sweep limit must be >= 0, got {limit}")
    if limit > 10**6:
        raise ValueError("sweep limit capped at 10^6")
    table_bad = next((row for row, expected in zip(numtheory.table1(), _TABLE1_EXPECTED)
                      if row != expected), None)
    verdicts = {"table-1": Verdict(table_bad is None, "9 rows compared exactly",
                                   None if table_bad is None else {"ell": table_bad.ell})}
    if limit < 1:
        verdicts["eq5-two-forms"] = Verdict(True, "empty range")
        return verdicts

    spf = numtheory.smallest_prime_factors(limit)
    # phi(n) for n up to the divisibility and sieve checks' cap, all they read
    tot_limit = min(limit, 10**4)
    tot = [0] * (tot_limit + 1)

    failures: dict[str, dict] = {}
    # values checked per hypothesis-limited statement; eq5 checks every n
    # in 1..limit and eq6 every n in 2..limit
    n_24i = n_24ii = n_26 = 0

    def fail(key: str, n: int, info: str):
        failures.setdefault(key, {"n": n, "info": info})

    for n in range(1, limit + 1):
        fact = numtheory.factorization_from_spf(n, spf)
        if n <= tot_limit:
            tot[n] = numtheory.totient(fact)
        sum_form = numtheory.phi_cyclic_sum(fact)
        product_form = numtheory.phi_cyclic_product(fact)
        if sum_form != product_form:
            fail("eq5-two-forms", n, f"{sum_form} != {product_form}")
        if n == 1:
            continue

        num, den = numtheory._q_terms(fact.primes)
        p = fact.largest_prime

        if not sum_form * num > n * n * den:
            q = numtheory.q_of(fact)
            fail("eq6-lower-bound", n, f"phi(C_n)*Q = {sum_form * q} <= n^2")

        bounds = numtheory.lemma_Q_bounds(fact)
        if bounds.q_le_p_plus_1 is not None:
            n_24i += 1
            if not bounds.q_le_p_plus_1:
                fail("lem-2.4i", n, f"Q = {numtheory.q_of(fact)} > {p + 1}")
        if bounds.q_lt_p_odd is not None:
            n_24ii += 1
            if not bounds.q_lt_p_odd:
                fail("lem-2.4ii", n, f"Q = {numtheory.q_of(fact)} >= {p}")

        if fact.primes != (2,):
            n_26 += 1
            holds, equality = numtheory.lemma_n_geq_check(fact)
            if not holds or equality != (fact.primes == (2, 3)):
                fail("lem-2.6", n, f"holds = {holds}, equality = {equality}")

    counts = {"eq5-two-forms": limit, "eq6-lower-bound": limit - 1,
              "lem-2.4i": n_24i, "lem-2.4ii": n_24ii, "lem-2.6": n_26}
    for key, count in counts.items():
        verdicts[key] = Verdict(
            key not in failures, f"{count} values checked up to {limit}", failures.get(key)
        )

    div_bad = None
    pairs = 0
    for a in range(1, tot_limit + 1):
        ta = tot[a]
        for b in range(2 * a, tot_limit + 1, a):
            pairs += 1
            if tot[b] % ta != 0:
                div_bad = {"a": a, "b": b}
                break
        if div_bad:
            break
    verdicts["phi-divisibility"] = Verdict(
        div_bad is None, f"{pairs} divisor pairs up to {tot_limit}", div_bad
    )

    # An independent sieve is checked against totient() up to 10^4, then
    # phi(mn) = phi(m) phi(n) on every coprime pair m <= n up to 10^3.  The
    # first failure is the one a row-by-row walk over the pairs meets, and
    # `pairs` counts the pairs that walk checks up to and including it.
    mul_limit = min(limit, 10**3)
    sieve_tot = _totient_sieve(mul_limit * mul_limit)
    mul_bad = None
    pairs = 0
    disagree = np.flatnonzero(sieve_tot[1 : tot_limit + 1] != tot[1 : tot_limit + 1])
    if disagree.size:
        mul_bad = {"n": int(disagree[0]) + 1, "info": "sieve disagrees with totient()"}
    else:
        # Cell (m-1, n-1) is marked when m > n or a prime divides both m
        # and n; the unmarked cells, read row by row, are the walk's pairs.
        # The primes come from spf, so the pairs do not depend on the sieve
        # under test.
        shared = np.tri(mul_limit, k=-1, dtype=bool)
        for p in range(2, mul_limit + 1):
            if spf[p] == p:
                shared[p - 1 :: p, p - 1 :: p] = True
        m, n2 = np.nonzero(~shared)
        m += 1
        n2 += 1
        bad = np.flatnonzero(sieve_tot[m] * sieve_tot[n2] != sieve_tot[m * n2])
        pairs = m.size
        if bad.size:
            i = int(bad[0])
            mul_bad = {"m": int(m[i]), "n": int(n2[i])}
            pairs = i + 1
    verdicts["phi-multiplicativity"] = Verdict(
        mul_bad is None, f"{pairs} coprime pairs up to {mul_limit}", mul_bad
    )
    return verdicts


# --- report emission ---

CSV_COLUMNS = [
    "n",
    "group",
    "phi_G",
    "is_cyclic",
    "undirected_edges",
    "verdict",
    "phi_cyclic",
    "max_phi_order",
    "witnesses",
]


def reports_to_csv(reports: list[VerificationReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for row in report.rows:
            writer.writerow(
                [
                    report.n,
                    row.name,
                    row.phi_g,
                    str(row.cyclic).lower(),
                    row.undirected_edges,
                    "pass" if row.ok else "fail",
                    report.phi_cyclic,
                    row.max_phi_order,
                    ";".join(map(str, row.witnesses)),
                ]
            )
    return out.getvalue()


def reports_to_json(reports: list[VerificationReport]) -> str:
    payload = {"reports": [r.to_json_dict() for r in reports]}
    return json.dumps(payload, sort_keys=True)

