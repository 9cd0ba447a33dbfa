import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import groupsum as gs
from groupsum import cli, verify


# --- per-order maximality reports ---


def test_verify_main_order_four():
    report = verify.verify_main(4)
    assert report.passed
    assert report.phi_cyclic == 6
    by_name = {r.name: r for r in report.rows}
    assert by_name["cyclic:4"].phi_g == 6
    assert by_name["abelian:2x2"].phi_g == 4
    assert not by_name["abelian:2x2"].cyclic


def test_verify_main_order_six():
    report = verify.verify_main(6)
    by_name = {r.name: r.phi_g for r in report.rows}
    assert by_name["cyclic:6"] == 10
    assert by_name["sym:3"] == 8
    assert report.passed


def test_verify_main_order_sixteen():
    report = verify.verify_main(16)
    by_name = {r.name: r.phi_g for r in report.rows}
    assert by_name["abelian:4x4"] == 28
    assert by_name["cyclic:16"] == 86
    assert report.passed


def test_verify_main_edge_counts():
    report = verify.verify_main(12)
    cyclic_row = next(r for r in report.rows if r.name == "cyclic:12")
    assert cyclic_row.undirected_edges == (report.phi_cyclic - 12) // 2
    assert all(
        r.undirected_edges <= cyclic_row.undirected_edges for r in report.rows
    )
    assert report.verdicts["thm-edge-max"].passed


def test_verify_main_sweep_small():
    for n in range(1, 31):
        assert verify.verify_main(n).passed


def test_thm_main_reports_a_non_cyclic_group_with_the_cyclic_flag(monkeypatch):
    real = gs.FiniteGroup.is_cyclic
    monkeypatch.setattr(gs.FiniteGroup, "is_cyclic",
                        lambda self: self.name == "abelian:2x2" or real(self))
    verdict = verify.verify_main(4).verdicts["thm-main"]
    assert not verdict.passed
    assert verdict.detail == "checked 2 groups of order 4"
    assert verdict.counterexample == {"group": "abelian:2x2", "phi_G": 4}


def test_thm_edge_max_reports_a_non_cyclic_group_above_the_cyclic_count(monkeypatch):
    # cyclic:4 has 1 undirected edge and abelian:2x2 none; the theorem is
    # strict, so one extra edge only ties and two put abelian:2x2 above
    real = gs.powergraph.undirected_edge_count
    monkeypatch.setattr(gs.powergraph, "undirected_edge_count",
                        lambda graph: real(graph) + 2 * (not graph.group.is_cyclic()))
    verdict = verify.verify_main(4).verdicts["thm-edge-max"]
    assert not verdict.passed
    assert verdict.detail == "cyclic entry has 1 undirected edges, max is 2, expected 1"
    assert verdict.counterexample == {"group": "abelian:2x2", "edges": 2}


# --- witnesses and the normal-Sylow criterion ---


def test_c12_witnesses():
    outcomes = verify.check_witnesses(gs.cyclic(12))
    # Q = 6 and phi(12) = 4, so 12 < 24: exactly the four generators
    assert [o.witness for o in outcomes] == [1, 5, 7, 11]
    for o in outcomes:
        assert o.sylow_prime == 3 and o.sylow_order == 3
        assert o.unique and o.normal and o.cyclic and o.contained_in_gen
        assert o.satisfied and not o.identity_exception
        assert o.witness_order % 3 == 0


def test_a4_has_no_witness():
    a4 = gs.alternating(4)
    outcomes = verify.check_witnesses(a4)
    assert outcomes == []
    orders = a4.element_orders()
    q = gs.q_of(12)
    assert q == 6
    assert max(gs.totient(o) for o in orders) == 2
    assert max(q * gs.totient(o) for o in orders) == 12  # exactly n, not above


def test_c2_identity_exception():
    outcomes = verify.check_witnesses(gs.cyclic(2))
    assert [o.witness for o in outcomes] == [0, 1]
    identity_outcome = outcomes[0]
    assert identity_outcome.identity_exception
    assert not identity_outcome.contained_in_gen
    assert identity_outcome.satisfied  # exempt by the order-2 exception
    assert outcomes[1].contained_in_gen and outcomes[1].satisfied


def test_witness_never_identity_above_order_two():
    for n in range(3, 60):
        for group in gs.catalog(n):
            for o in verify.check_witnesses(group):
                assert o.witness != group.identity


def test_verify_criterion_verdict():
    verdicts, outcomes = verify.verify_criterion(gs.cyclic(20))
    assert verdicts["thm-overall"].passed and verdicts["cor-contrapositive"].passed
    assert all(o.satisfied for o in outcomes)


def test_verify_criterion_returns_both_verdicts_by_id():
    for group in (gs.cyclic(1), gs.cyclic(20), gs.alternating(4), gs.symmetric(4)):
        verdicts, _ = verify.verify_criterion(group)
        assert list(verdicts) == ["thm-overall", "cor-contrapositive"], group.name
        assert verdicts["cor-contrapositive"] == verify.verify_contrapositive(group), group.name
    # the trivial group has no witness: Q = 1 and phi(1) = 1
    for spec in ("cyclic:1", "abelian:1"):
        group = cli.parse_group_spec(spec)
        assert verify.check_witnesses(group) == []
        assert verify.verify_criterion(group) == ({
            "thm-overall": verify.Verdict(True, f"{spec}: 0 witness(es)"),
            "cor-contrapositive": verify.Verdict(True, f"{spec}: trivial group"),
        }, [])


def count_criterion_calls(monkeypatch):
    """Wrap `check_witnesses` and `verify_contrapositive` to count, by
    group name, the calls each one gets."""
    calls = {"check_witnesses": [], "verify_contrapositive": []}
    for name, seen in calls.items():
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda group, real=real, seen=seen: seen.append(group.name)
                            or real(group))
    return calls


def test_criterion_command_calls_each_check_once(monkeypatch, capsys):
    for fmt in ("text", "json"):
        calls = count_criterion_calls(monkeypatch)
        assert cli.run(["criterion", "--group", "dihedral:6", "--format", fmt]) == 0
        capsys.readouterr()
        assert calls == {"check_witnesses": ["dihedral:6"],
                         "verify_contrapositive": ["dihedral:6"]}, fmt


def test_criterion_json_writes_the_verdicts_of_one_call(capsys):
    for spec in ("dihedral:6", "alt:4", "cyclic:1"):
        assert cli.run(["criterion", "--group", spec, "--format", "json"]) == 0
        written = json.loads(capsys.readouterr().out)["verdicts"]
        verdicts, _ = verify.verify_criterion(cli.parse_group_spec(spec))
        assert written == {k: v.to_json_dict() for k, v in verdicts.items()}, spec


def test_criterion_sweep_calls_each_check_once_per_group(monkeypatch):
    calls = count_criterion_calls(monkeypatch)
    verdicts = verify.criterion_sweep(12)
    names = [g.name for n in range(1, 13) for g in gs.catalog(n)]
    assert len(names) == 35
    assert calls == {"check_witnesses": names, "verify_contrapositive": names}
    assert verdicts["thm-overall"].passed and verdicts["cor-contrapositive"].passed


def test_verification_records_store_the_verdicts_they_print():
    # each verdict is a stored field decided where the record is built,
    # not a property recombining stored ingredients
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(verify.CriterionOutcome) == [
        "witness", "witness_order", "sylow_prime", "sylow_order", "unique",
        "normal", "cyclic", "contained_in_gen", "identity_exception", "satisfied",
    ]
    assert "satisfied" not in vars(verify.CriterionOutcome)
    assert "passed" in names(verify.Table2Verdict)
    assert "passed" not in vars(verify.Table2Verdict)
    assert "relation_holds" not in names(verify.Table2Verdict)
    assert "case_label" not in names(verify.Table2Case)
    nested = {"group": "cyclic:12", "witness": {"element": 1, "orders": [12, 6]}}
    assert verify.Verdict(True).to_json_dict() == {
        "passed": True, "detail": "", "counterexample": None}
    assert verify.Verdict(False, "cyclic:12 fails", nested).to_json_dict() == {
        "passed": False, "detail": "cyclic:12 fails", "counterexample": nested}


def test_contrapositive_a4():
    verdict = verify.verify_contrapositive(gs.alternating(4))
    assert verdict.passed
    assert "4 Sylow-3" in verdict.detail


def test_contrapositive_vacuous_cases():
    assert verify.verify_contrapositive(gs.symmetric(3)).passed  # unique Sylow-3
    assert verify.verify_contrapositive(gs.dihedral(5)).passed  # unique Sylow-5
    assert verify.verify_contrapositive(gs.cyclic(1)).passed


def test_verify_main_checks_the_cap_before_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factorize({n}) ran before the cap check")

    monkeypatch.setattr(gs.numtheory, "factorize", no_factoring)
    for n, cap in [(3000000000130000000000507, gs.DEFAULT_ORDER_CAP), (7, 6), (1, 0)]:
        with pytest.raises(gs.OrderCapError, match=f"order {n} exceeds cap {cap}"):
            verify.verify_main(n, cap)
    monkeypatch.undo()
    for n in (0, -5):  # an order below 1 keeps the factorization's error, whatever the cap
        for cap in (gs.DEFAULT_ORDER_CAP, -10):
            with pytest.raises(ValueError, match=f"cannot factor {n}: need n >= 1"):
                verify.verify_main(n, cap)


def test_criterion_builds_each_sylow_subgroup_once(monkeypatch):
    # P and N(P) are built by the first run and read back from the group
    for spec in ("cyclic:64", "dihedral:21", "sdp:7:3:2"):
        group = cli.parse_group_spec(spec)
        verify.verify_criterion(group)
        p = gs.factorize(group.order).largest_prime
        sylow = group.sylow_subgroup(p)
        assert group.sylow_subgroup(p) is sylow, spec
        assert group.normalizer(sylow) is group.normalizer(sylow), spec
        closures = []
        closure_of = gs.groups._closure_of
        with monkeypatch.context() as patch:
            patch.setattr(gs.groups, "_closure_of",
                          lambda *args, **kw: closures.append(args) or closure_of(*args, **kw))
            verdicts, _ = verify.verify_criterion(group)
        assert all(v.passed for v in verdicts.values()) and closures == [], spec


def test_verify_main_builds_one_totient_table_per_group(monkeypatch):
    tables = []
    totient_table = gs.numtheory.totient_table
    monkeypatch.setattr(gs.numtheory, "totient_table",
                        lambda order, values: tables.append(values) or totient_table(order, values))
    report = verify.verify_main(24)
    assert report.passed and len(tables) == len(report.rows) == len(gs.catalog(24))


def test_verify_main_factors_only_the_order_once_per_group_and_calls_no_totient(monkeypatch):
    # once for phi(C_24) and Q(24), once for the catalog's specs, and once per
    # catalog group, whose element-order totients are read off 24's primes
    factorize = gs.numtheory.factorize
    seen = []
    monkeypatch.setattr(gs.numtheory, "factorize", lambda n: seen.append(n) or factorize(n))

    def no_totient(n):
        raise AssertionError(f"totient({n}) called")

    monkeypatch.setattr(gs.numtheory, "totient", no_totient)
    report = verify.verify_main(24)
    assert report.passed and len(report.rows) == 9
    assert seen == [24] * 11


def test_verify_main_reads_the_orders_off_the_power_graph_walk(monkeypatch):
    # verify_main builds each power graph before it reads an order, so the
    # walk its edge count needs gives the orders: none is computed by powers
    def by_powers(group):
        raise AssertionError(f"orders of {group.name} computed by powers")

    monkeypatch.setattr(gs.FiniteGroup, "_orders_by_powers", by_powers)
    with pytest.raises(AssertionError, match="by powers"):
        gs.cyclic(4).element_orders()
    for n in (1, 2, 12, 48, 60, 210):
        assert verify.verify_main(n).passed, n


def test_criterion_sweep_small():
    verdicts = verify.criterion_sweep(40)
    assert verdicts["thm-overall"].passed
    assert verdicts["cor-contrapositive"].passed


def test_cor_contrapositive_reports_a_witness_beside_several_sylow_subgroups(monkeypatch):
    real = gs.FiniteGroup.count_sylow
    monkeypatch.setattr(gs.FiniteGroup, "count_sylow",
                        lambda self, q: 4 if self.name == "cyclic:12" else real(self, q))
    verdict = verify.criterion_sweep(12)["cor-contrapositive"]
    assert not verdict.passed
    assert verdict.detail == "35 groups"
    # the generators 1, 5, 7, 11 of cyclic:12 are its witnesses
    assert verdict.counterexample == {"group": "cyclic:12", "witness": 1}
    assert verify.verify_contrapositive(gs.cyclic(12)).detail == (
        "cyclic:12: 4 Sylow-3 subgroups but a witness exists")


# --- product lemmas ---


def test_product_lemma_coprime_equality():
    verdict = verify.verify_product_lemmas(gs.cyclic(2), gs.cyclic(3))
    assert verdict.passed and "coprime" in verdict.detail


def test_product_lemma_elementary_abelian_equality():
    verdict = verify.verify_product_lemmas(gs.abelian([2, 2]), gs.cyclic(4))
    assert verdict.passed and "elementary abelian" in verdict.detail


def test_product_lemma_twice_odd_equality():
    verdict = verify.verify_product_lemmas(gs.cyclic(6), gs.cyclic(4))
    assert verdict.passed and "twice-odd" in verdict.detail


def test_product_lemma_strict_case():
    # no equality hypothesis applies; 28 <= 36 strictly
    u = gs.cyclic(4)
    verdict = verify.verify_product_lemmas(u, gs.cyclic(4))
    assert verdict.passed
    assert gs.phi_of_group(gs.direct_product(u, u)) == 28 < 36


def test_product_lemma_inequality_grid():
    pool = [gs.cyclic(4), gs.cyclic(6), gs.symmetric(3), gs.dicyclic(2),
            gs.abelian([2, 2]), gs.cyclic(9)]
    for u in pool:
        for t in pool:
            assert verify.verify_product_lemmas(u, t).passed


# --- semidirect lemmas ---


def test_semidirect_lemmas_s3():
    verdicts = verify.verify_semidirect_lemmas(gs.SemidirectSpec(3, 2, 2))
    assert all(v.passed for v in verdicts.values())
    assert set(verdicts) == {"lem-3.2", "cor-3.3", "lem-3.5"}


def test_semidirect_lemmas_trivial_action_equality():
    verdicts = verify.verify_semidirect_lemmas(gs.SemidirectSpec(9, 2, 1))
    assert all(v.passed for v in verdicts.values())


def test_semidirect_lemmas_strict():
    twisted = gs.semidirect_cyclic(gs.SemidirectSpec(7, 3, 2))
    straight = gs.direct_product(gs.cyclic(7), gs.cyclic(3))
    assert gs.phi_of_group(twisted) < gs.phi_of_group(straight)
    verdicts = verify.verify_semidirect_lemmas(gs.SemidirectSpec(7, 3, 2))
    assert all(v.passed for v in verdicts.values())


def test_semidirect_lemmas_require_coprime():
    with pytest.raises(ValueError):
        verify.verify_semidirect_lemmas(gs.SemidirectSpec(4, 2, 3))


def test_semidirect_sweep_small():
    verdicts = verify.semidirect_sweep(60)
    assert set(verdicts) == {"lem-3.2", "cor-3.3", "lem-3.5"}
    assert all(v.passed for v in verdicts.values())


def test_semidirect_sweep_keeps_the_first_failing_verdict_per_id(monkeypatch):
    # to 12 the sweep checks sdp:2:3:1, sdp:2:5:1, sdp:3:2:1, ... (9 in all)
    def lemmas(spec):
        name = f"sdp:{spec.a}:{spec.b}:{spec.r}"
        return {
            "lem-3.2": verify.Verdict(False, f"{name} fails", {"group": name}),
            "cor-3.3": verify.Verdict(spec.a == 2, f"{name} checked", {"group": name}),
            "lem-3.5": verify.Verdict(True, f"{name} holds"),
        }

    monkeypatch.setattr(verify, "verify_semidirect_lemmas", lemmas)
    verdicts = verify.semidirect_sweep(12)
    assert {k: (v.passed, v.detail, v.counterexample) for k, v in verdicts.items()} == {
        "lem-3.2": (False, "sdp:2:3:1 fails", {"group": "sdp:2:3:1"}),
        "cor-3.3": (False, "sdp:3:2:1 checked", {"group": "sdp:3:2:1"}),
        "lem-3.5": (True, "9 twisted products checked", None),
    }


# sdp:7:3:2 against prod:cyclic:7,cyclic:3: every statement holds, with
# totient sums 65 < 185.  Each test below makes one ingredient false for
# the twisted group and checks that only its own verdict fails.
TWISTED = gs.SemidirectSpec(7, 3, 2)


def failing_semidirect_verdicts():
    verdicts = verify.verify_semidirect_lemmas(TWISTED)
    return {k: (v.detail, v.counterexample) for k, v in verdicts.items() if not v.passed}


def test_lem_3_2_reports_the_first_pair_whose_order_does_not_divide(monkeypatch):
    # pair 1 = (0, 1) has order 3 in both groups; order 2 does not divide 3,
    # and phi(2) = 1 divides every totient, so only the order test can fire
    real = gs.FiniteGroup.element_orders

    def wrong_at_pair_1(self):
        orders = real(self)
        return orders[:1] + (2,) + orders[2:] if self.name == "sdp:7:3:2" else orders

    monkeypatch.setattr(gs.FiniteGroup, "element_orders", wrong_at_pair_1)
    assert failing_semidirect_verdicts() == {"lem-3.2": (
        "sdp:7:3:2: orders divide the direct-product orders",
        {"group": "sdp:7:3:2", "pair": 1})}


def test_cor_3_3_reports_a_twisted_sum_above_the_direct_one(monkeypatch):
    real = gs.FiniteGroup.phi
    monkeypatch.setattr(gs.FiniteGroup, "phi",
                        lambda self: 186 if self.name == "sdp:7:3:2" else real(self))
    assert failing_semidirect_verdicts() == {"cor-3.3": (
        "phi(sdp:7:3:2) = 186 <= phi(prod:cyclic:7,cyclic:3) = 185",
        {"group": "sdp:7:3:2"})}


def test_lem_3_5_reports_an_action_whose_equality_case_is_flipped(monkeypatch):
    real = gs.SemidirectSpec.is_direct
    monkeypatch.setattr(gs.SemidirectSpec, "is_direct",
                        property(lambda self: not real.fget(self)))
    assert failing_semidirect_verdicts() == {"lem-3.5": (
        "sdp:7:3:2: equality expected (phi 65 vs 185)",
        {"group": "sdp:7:3:2", "r": 2})}


# --- tabulated spot checks ---


def test_table2_all_relations_reproduced():
    spot = verify.table2_spot_check()
    assert len(spot) == 18
    assert all(v.passed for v in spot.values())


def test_table2_first_row_equality():
    row = verify.table2_spot_check()["table-2-k2-q4"]
    assert row.n == 12 and row.witness_order == 3
    assert row.ratio == Fraction(6) == row.q
    assert row.printed_matches


def test_table2_flagged_decimal_row():
    row = verify.table2_spot_check()["table-2-k3-q6-a2eq1"]
    assert row.n == 30 and row.witness_order == 5
    assert row.ratio == Fraction(15, 2)
    assert row.q == 9 and row.ratio < row.q
    assert not row.printed_matches
    assert any("7.4" in note for note in row.notes)


def test_table2_other_flagged_rows():
    spot = verify.table2_spot_check()
    mismatched = {key for key, v in spot.items() if not v.printed_matches}
    assert mismatched == {
        "table-2-k3-q6-a2eq1",
        "table-2-k4-q10-a3eq1",
        "table-2-k6-q14-a4eq1",
    }
    # the comparisons still hold for every flagged row
    assert all(spot[key].passed for key in mismatched)


def test_table2_sample_values():
    spot = verify.table2_spot_check()
    assert spot["table-2-k3-q8"].n == 120
    assert spot["table-2-k3-q8"].ratio == Fraction(15)
    assert spot["table-2-k3-q6-a2gt1"].n == 90
    assert spot["table-2-k3-q6-a2gt1"].ratio == Fraction(45, 4)
    assert spot["table-2-k8-q20-a3gt1"].ratio == Fraction(1616615, 27648)


def test_table2_witness_orders_are_odd_multiples_of_top_prime_power():
    for key, row in verify.table2_spot_check().items():
        assert row.witness_order % 2 == 1
        assert row.n % row.witness_order == 0
        assert row.n // row.witness_order == row.case.quotient


@pytest.mark.parametrize("case", verify.TABLE2_CASES, ids=lambda case: case.row_id)
def test_table2_row_fails_on_a_wrong_witness_totient(monkeypatch, case):
    # phi(o(g)) = 1 puts n / phi above Q and phi = n puts it at 1, below Q;
    # rows that share the witness order (15, 105, 1155, 15015) fail together
    clean = verify.table2_spot_check()
    row = clean[case.row_id]
    wrong = 1 if case.relation == "<" else row.n
    real = gs.numtheory.totient
    monkeypatch.setattr(gs.numtheory, "totient",
                        lambda m: wrong if m == row.witness_order else real(m))
    spot = verify.table2_spot_check()
    for key, verdict in spot.items():
        if verdict.witness_order == row.witness_order:
            assert not verdict.passed, key
            assert (verdict.n, verdict.phi_witness_order) == (clean[key].n, wrong), key
        else:
            assert verdict.to_json_dict() == clean[key].to_json_dict(), key


# --- arithmetic sweeps ---


def test_numtheory_sweep_small():
    verdicts = verify.verify_numtheory_sweep(2000)
    assert {k: v.detail for k, v in verdicts.items()} == {
        "table-1": "9 rows compared exactly",
        "eq5-two-forms": "2000 values checked up to 2000",
        "eq6-lower-bound": "1999 values checked up to 2000",
        "lem-2.4i": "1923 values checked up to 2000",
        "lem-2.4ii": "999 values checked up to 2000",
        "lem-2.6": "1989 values checked up to 2000",
        "phi-divisibility": "13518 divisor pairs up to 2000",
        "phi-multiplicativity": "304192 coprime pairs up to 1000",
    }
    assert all(v.passed for v in verdicts.values())


def _old_totient_sieve(bound):
    """The pure-Python sieve the phi-multiplicativity oracle used to run."""
    sieve = list(range(bound + 1))
    for p in range(2, bound + 1):
        if sieve[p] == p:
            for m in range(p, bound + 1, p):
                sieve[m] -= sieve[m] // p
    return sieve


def _old_multiplicativity(limit, tot, sieve):
    """The old row-by-row check: (counterexample, pairs checked)."""
    mul_limit = min(limit, 10**3)
    for i in range(1, min(limit, 10**4) + 1):
        if sieve[i] != tot[i]:
            return {"n": i, "info": "sieve disagrees with totient()"}, 0
    pairs = 0
    for m in range(1, mul_limit + 1):
        for n in range(m, mul_limit + 1):
            if math.gcd(m, n) == 1:
                pairs += 1
                if sieve[m] * sieve[n] != sieve[m * n]:
                    return {"m": m, "n": n}, pairs
    return None, pairs


def _expected_multiplicativity(limit, sieve):
    tot = [0] + [gs.numtheory.totient(n) for n in range(1, min(limit, 10**4) + 1)]
    bad, pairs = _old_multiplicativity(limit, tot, sieve)
    return bad is None, f"{pairs} coprime pairs up to {min(limit, 10**3)}", bad


def _multiplicativity(verdicts):
    v = verdicts["phi-multiplicativity"]
    return v.passed, v.detail, v.counterexample


def test_totient_sieve_matches_the_old_sieve():
    for bound in range(200):
        assert verify._totient_sieve(bound).tolist() == _old_totient_sieve(bound), bound


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 62500, 10**6])
def test_totient_sieve_matches_an_int64_sieve_with_floor_division(bound):
    # the sieve's quotients are products by inverses modulo 2^32; this
    # reference divides every multiple of every prime by floor division
    reference = np.arange(bound + 1, dtype=np.int64)
    for p in range(2, bound + 1):
        if reference[p] == p:
            multiples = reference[p::p]
            multiples -= multiples // p
    assert np.array_equal(verify._totient_sieve(bound), reference)


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 31, 250, 1000])
def test_multiplicativity_oracle_matches_the_old_loop(limit):
    old_sieve = _old_totient_sieve(min(limit, 10**3) ** 2)
    assert verify._totient_sieve(min(limit, 10**3) ** 2).tolist() == old_sieve
    verdicts = verify.verify_numtheory_sweep(limit)
    assert _multiplicativity(verdicts) == _expected_multiplicativity(limit, old_sieve)
    assert verdicts["phi-multiplicativity"].passed


def test_multiplicativity_reports_a_wrong_totient_as_the_old_loop_did(monkeypatch):
    real = gs.numtheory.totient

    def wrong_at_97(n):
        value = real(n)
        return value + 1 if getattr(n, "n", n) == 97 else value

    monkeypatch.setattr(gs.numtheory, "totient", wrong_at_97)
    verdicts = verify.verify_numtheory_sweep(300)
    expected = _expected_multiplicativity(300, _old_totient_sieve(300**2))
    assert _multiplicativity(verdicts) == expected
    assert expected == (False, "0 coprime pairs up to 300",
                        {"n": 97, "info": "sieve disagrees with totient()"})


def test_eq6_lower_bound_reports_the_first_n_it_fails_at(monkeypatch):
    real = gs.numtheory.phi_cyclic_sum

    def short_at_97(n):
        # phi(C_97) = 9217 is the least integer above 97^2 / Q(97) = 9216.9...
        value = real(n)
        return value - 1 if getattr(n, "n", n) == 97 else value

    monkeypatch.setattr(gs.numtheory, "phi_cyclic_sum", short_at_97)
    verdict = verify.verify_numtheory_sweep(300)["eq6-lower-bound"]
    assert not verdict.passed
    assert verdict.detail == "299 values checked up to 300"
    assert verdict.counterexample == {"n": 97, "info": "phi(C_n)*Q = 9408 <= n^2"}


def test_eq5_reports_the_n_where_the_two_forms_differ(monkeypatch):
    real = gs.numtheory.phi_cyclic_product

    def long_at_97(n):
        value = real(n)
        return value + 1 if getattr(n, "n", n) == 97 else value

    monkeypatch.setattr(gs.numtheory, "phi_cyclic_product", long_at_97)
    verdict = verify.verify_numtheory_sweep(300)["eq5-two-forms"]
    assert not verdict.passed
    assert verdict.detail == "300 values checked up to 300"
    assert verdict.counterexample == {"n": 97, "info": "9217 != 9218"}


def test_phi_divisibility_reports_the_first_pair_in_loop_order(monkeypatch):
    real = gs.numtheory.totient

    def odd_at_100(n):
        # phi(100) = 40 becomes 41, which phi(4) = 2 no longer divides
        value = real(n)
        return value + 1 if getattr(n, "n", n) == 100 else value

    monkeypatch.setattr(gs.numtheory, "totient", odd_at_100)
    verdict = verify.verify_numtheory_sweep(300)["phi-divisibility"]
    assert not verdict.passed
    # phi(1) = phi(2) = 1 divides everything and 3 does not divide 100, so
    # the walk passes every b for a = 1, 2, 3 (299 + 149 + 99 pairs) and
    # fails at a = 4 on its 24th multiple, b = 100
    assert verdict.detail == "571 divisor pairs up to 300"
    assert verdict.counterexample == {"a": 4, "b": 100}


@pytest.mark.parametrize("key, detail, counterexample", [
    ("lem-2.4i", "266 values checked up to 300", {"n": 15, "info": "Q = 30 > 6"}),
    ("lem-2.4ii", "149 values checked up to 300", {"n": 15, "info": "Q = 30 >= 5"}),
    ("lem-2.6", "291 values checked up to 300",
     {"n": 15, "info": "holds = False, equality = False"}),
])
def test_q_lemmas_report_the_first_n_with_an_inflated_q(
    monkeypatch, key, detail, counterexample
):
    # Q over {3, 5} is 3; ten times that breaks all three statements at
    # every n with that prime set (15, 45, 75, ...), and 15 is the first.
    real = gs.numtheory._q_terms

    def inflated(primes):
        num, den = real(primes)
        return (10 * num, den) if primes == (3, 5) else (num, den)

    monkeypatch.setattr(gs.numtheory, "_q_terms", inflated)
    verdict = verify.verify_numtheory_sweep(300)[key]
    assert not verdict.passed
    assert verdict.detail == detail
    assert verdict.counterexample == counterexample


@pytest.mark.parametrize("index, counterexample", [
    (1, {"n": 1, "info": "sieve disagrees with totient()"}),
    (250, {"n": 250, "info": "sieve disagrees with totient()"}),
    (1400, {"m": 7, "n": 200}),  # 1400 = 7 * 200 = 8 * 175 = 25 * 56
    (89700, {"m": 299, "n": 300}),  # the last pair of the walk
    (350, {"m": 2, "n": 175}),  # above the agreement range; 350 = 2 * 175 = 14 * 25
])
def test_multiplicativity_reports_a_bad_sieve_entry_as_the_old_loop_did(
    monkeypatch, index, counterexample
):
    real = verify._totient_sieve

    def corrupted(bound):
        sieve = real(bound)
        sieve[index] += 2
        return sieve

    monkeypatch.setattr(verify, "_totient_sieve", corrupted)
    old_sieve = _old_totient_sieve(300**2)
    old_sieve[index] += 2
    verdicts = verify.verify_numtheory_sweep(300)
    expected = _expected_multiplicativity(300, old_sieve)
    assert expected[2] == counterexample
    assert _multiplicativity(verdicts) == expected


def test_table_1_reports_the_first_altered_row(monkeypatch):
    real = gs.numtheory.table1

    def altered():
        rows = list(real())
        rows[4] = rows[4]._replace(q_skip=rows[4].q_skip + 1)
        return rows

    monkeypatch.setattr(gs.numtheory, "table1", altered)
    verdict = verify.verify_numtheory_sweep(0)["table-1"]
    assert not verdict.passed
    assert verdict.detail == "9 rows compared exactly"
    assert verdict.counterexample == {"ell": 5}


def test_numtheory_sweep_computes_totients_only_up_to_their_checks(monkeypatch):
    # tot[n] is read up to 10^4; past it, totient runs only inside lem-2.6,
    # once for each n that is not a power of two (none in 10001..10040)
    totient = gs.numtheory.totient
    seen = []
    monkeypatch.setattr(gs.numtheory, "totient", lambda n: seen.append(n) or totient(n))
    verdicts = verify.verify_numtheory_sweep(10**4 + 40)
    assert all(v.passed for v in verdicts.values())
    assert sum(1 for fact in seen if fact.n > 10**4) == 40


def test_numtheory_sweep_limit_cap():
    with pytest.raises(ValueError):
        verify.verify_numtheory_sweep(10**6 + 1)


def test_numtheory_sweep_rejects_negative_limit():
    with pytest.raises(ValueError, match="limit"):
        verify.verify_numtheory_sweep(-1)


def test_numtheory_sweep_trivial_limit():
    verdicts = verify.verify_numtheory_sweep(1)
    assert all(v.passed for v in verdicts.values())


# --- report emission ---


def test_csv_report_shape():
    reports = [verify.verify_main(n) for n in (4, 6)]
    text = verify.reports_to_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == verify.CSV_COLUMNS
    assert rows[0][:6] == ["n", "group", "phi_G", "is_cyclic", "undirected_edges", "verdict"]
    assert rows[1][:3] == ["4", "cyclic:4", "6"]
    assert all(row[5] == "pass" for row in rows[1:])


def test_json_report_shape():
    reports = [verify.verify_main(6)]
    data = json.loads(verify.reports_to_json(reports))
    report = data["reports"][0]
    assert report["n"] == 6
    assert set(report["verdicts"]) == {"thm-main", "thm-edge-max"}
    assert all(v["passed"] for v in report["verdicts"].values())
    assert report["rows"][0]["name"] == "cyclic:6"


def test_reports_deterministic():
    a = verify.reports_to_json([verify.verify_main(12)])
    b = verify.reports_to_json([verify.verify_main(12)])
    assert a == b
