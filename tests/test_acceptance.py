"""Acceptance suite: every criterion is exact (no float tolerances) and has
a wall-clock budget.  Run with `pytest tests/test_acceptance.py -v -s` to
see one PASS/FAIL line per criterion.
"""

import math
import time
from fractions import Fraction

import groupsum as gs
from groupsum import numtheory as nt
from groupsum import powergraph as pg
from groupsum import verify


def _report(number, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.2f}s, budget {budget:g}s): {description}")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"


def test_acceptance_1_table1_reproduction():
    t0 = time.monotonic()
    expected_first = ["3", "6", "9", "12", "72/5", "84/5", "189/10", "21", "252/11"]
    expected_skip = ["2", "9/2", "8", "54/5", "14", "81/5", "56/3", "1134/55"]
    ok = True
    for ell, want in enumerate(expected_first, start=1):
        got = nt.q_of_primes(nt.first_primes(ell))
        ok = ok and nt.format_rational(got) == want
    for ell, want in enumerate(expected_skip, start=1):
        got = nt.q_of_primes(nt.skip_primes(ell))
        ok = ok and nt.format_rational(got) == want
    rows = nt.table1()
    ok = ok and [nt.format_rational(r.q_first) for r in rows] == expected_first
    _report(1, "tabulated Q values over both prime families, exact",
            ok, time.monotonic() - t0, 1.0)


def test_acceptance_2_phi_coincidence():
    t0 = time.monotonic()
    a = gs.phi_of_group(gs.direct_product(gs.cyclic(4), gs.cyclic(4)))
    b = gs.phi_of_group(gs.direct_product(gs.cyclic(2), gs.dicyclic(2)))
    ok = a == b == 28
    _report(2, "totient-sum coincidence of the two order-16 groups at 28",
            ok, time.monotonic() - t0, 1.0)


def test_acceptance_3_a4_tightness():
    t0 = time.monotonic()
    a4 = gs.alternating(4)
    q = nt.q_of(12)
    max_phi = max(nt.totient(o) for o in a4.element_orders())
    ok = (
        q == Fraction(6)
        and max_phi == 2
        and q * max_phi == 12
        and a4.count_sylow(3) == 4
        and verify.check_witnesses(a4) == []
    )
    _report(3, "order-12 alternating group: Q=6, max phi(o(g))=2, n = Q*phi exactly, 4 Sylow-3",
            ok, time.monotonic() - t0, 1.0)


def test_acceptance_4_main_theorem_sweep():
    t0 = time.monotonic()
    ok = True
    first_bad = None
    for n in range(1, 101):
        report = verify.verify_main(n)
        if not report.passed:
            ok = False
            first_bad = (n, report.verdicts)
            break
        cyclic_row = next(r for r in report.rows if r.name == f"cyclic:{n}")
        max_edges = max(r.undirected_edges for r in report.rows)
        if not (
            cyclic_row.undirected_edges == max_edges == (report.phi_cyclic - n) // 2
        ):
            ok = False
            first_bad = (n, "edge maximality")
            break
    _report(4, f"cyclic maximality of totient sum and undirected edges for n <= 100 {first_bad or ''}",
            ok, time.monotonic() - t0, 60.0)


def test_acceptance_5_arithmetic_sweep_to_1e5():
    t0 = time.monotonic()
    verdicts = verify.verify_numtheory_sweep(100_000)
    keys = ("eq5-two-forms", "eq6-lower-bound", "lem-2.6", "lem-2.4ii")
    ok = all(verdicts[k].passed for k in keys)
    bad = {k: verdicts[k].counterexample for k in keys if not verdicts[k].passed}
    _report(5, f"two totient-sum forms, strict n^2/Q bound, conditional equalities to 1e5 {bad or ''}",
            ok, time.monotonic() - t0, 60.0)


def test_acceptance_6_criterion_soundness_to_200():
    t0 = time.monotonic()
    verdicts = verify.criterion_sweep(200)
    ok = verdicts["thm-overall"].passed and verdicts["cor-contrapositive"].passed
    bad = {k: v.counterexample for k, v in verdicts.items() if not v.passed}
    _report(6, f"every witness yields a unique normal cyclic Sylow subgroup inside <g>, orders <= 200 {bad or ''}",
            ok, time.monotonic() - t0, 300.0)


def test_acceptance_7_product_lemmas():
    t0 = time.monotonic()
    sdp_verdicts = verify.semidirect_sweep(200)
    ok = all(v.passed for v in sdp_verdicts.values())

    coprime_pairs = [
        (gs.cyclic(2), gs.cyclic(3)),
        (gs.cyclic(4), gs.cyclic(9)),
        (gs.cyclic(8), gs.cyclic(15)),
        (gs.symmetric(3), gs.cyclic(5)),
        (gs.dihedral(3), gs.cyclic(5)),
        (gs.alternating(4), gs.cyclic(5)),
        (gs.dicyclic(2), gs.cyclic(3)),
    ]
    elementary_abelian_pairs = [
        (gs.abelian([2]), gs.cyclic(4)),
        (gs.abelian([2, 2]), gs.cyclic(4)),
        (gs.abelian([2, 2]), gs.symmetric(3)),
        (gs.abelian([2, 2, 2]), gs.cyclic(6)),
        (gs.abelian([2, 2]), gs.dicyclic(2)),
        (gs.cyclic(2), gs.dihedral(4)),
    ]
    twice_odd_pairs = [
        (gs.cyclic(6), gs.cyclic(4)),
        (gs.cyclic(2), gs.cyclic(4)),
        (gs.cyclic(10), gs.cyclic(4)),
        (gs.dihedral(3), gs.cyclic(2)),
        (gs.cyclic(6), gs.cyclic(2)),
        (gs.cyclic(14), gs.cyclic(4)),
        (gs.symmetric(3), gs.cyclic(8)),
    ]
    grid = coprime_pairs + elementary_abelian_pairs + twice_odd_pairs
    assert len(grid) == 20
    for u, t in grid:
        verdict = verify.verify_product_lemmas(u, t)
        ok = ok and verdict.passed and "equality expected" in verdict.detail
    # and the plain inequality on a case with no equality hypothesis
    ok = ok and verify.verify_product_lemmas(gs.cyclic(4), gs.cyclic(4)).passed
    _report(7, "twisted-product order divisibility and totient-sum bounds; equality grid of 20 pairs",
            ok, time.monotonic() - t0, 60.0)


def test_acceptance_8_degree_law_to_100():
    t0 = time.monotonic()
    ok = True
    first_bad = None
    for n in range(1, 101):
        for group in gs.catalog(n):
            graph = pg.build(group)
            # independent oracle: mutual generation by raw power walks
            powers = []
            for g in range(n):
                seen = {g}
                x = int(group.table[g, g])
                while x != g:
                    seen.add(x)
                    x = int(group.table[x, g])
                powers.append(frozenset(seen))
            for g in range(n):
                oracle_degree = sum(
                    1
                    for h in range(n)
                    if h != g and powers[g] == powers[h]
                )
                expected = nt.totient(group.element_order(g)) - 1
                if not oracle_degree == pg.undirected_degree(graph, g) == expected:
                    ok = False
                    first_bad = (group.name, g)
                    break
            if not ok:
                break
        if not ok:
            break
    _report(8, f"undirected degree phi(o(g)) - 1 vs mutual-generation oracle, orders <= 100 {first_bad or ''}",
            ok, time.monotonic() - t0, 60.0)


def test_acceptance_9_table2_spot_checks():
    t0 = time.monotonic()
    spot = verify.table2_spot_check()
    ok = len(spot) == 18 and all(v.passed for v in spot.values())
    flagged = spot["table-2-k3-q6-a2eq1"]
    ok = ok and not flagged.printed_matches
    ok = ok and flagged.ratio == Fraction(15, 2)
    ok = ok and flagged.q == 9 and flagged.ratio < flagged.q
    _report(9, "exceptional-case table reproduced at minimal exponents (7.4 row flagged, 15/2 < 9)",
            ok, time.monotonic() - t0, 1.0)
