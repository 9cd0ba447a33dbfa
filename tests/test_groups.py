import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

import groupsum as gs
from groupsum import numtheory as nt
from groupsum import verify


# --- independent oracles ---


def naive_order(group, g):
    x = g
    m = 1
    while x != group.identity:
        x = int(group.table[x, g])
        m += 1
    return m


def naive_census(group):
    return Counter(naive_order(group, g) for g in range(group.order))


def naive_phi(group):
    return sum(nt.totient(naive_order(group, g)) for g in range(group.order))


def naive_closure(group, gens):
    members = {group.identity, *gens}
    changed = True
    while changed:
        changed = False
        for x in list(members):
            for y in list(members):
                z = int(group.table[x, y])
                if z not in members:
                    members.add(z)
                    changed = True
    return members


def naive_normalizer(group, members):
    e = group.identity
    n = group.order
    inverse = [next(x for x in range(n) if int(group.table[g, x]) == e) for g in range(n)]
    hset = set(members)
    return {
        g for g in range(n)
        if {int(group.table[group.table[g, h], inverse[g]]) for h in members} == hset
    }


def reference_closure(arr, seed):
    # closure by squaring the whole set each round, recomputed per generator:
    # the reference for the incremental `_closure_of`
    cur = np.unique(np.asarray(seed, dtype=np.intp))
    while True:
        prods = np.unique(arr[np.ix_(cur, cur)])
        if prods.size == cur.size:
            return cur
        cur = prods


def reference_associativity_witness(table, identity):
    # the generator loop and translation test, with closures from scratch;
    # returns the (x, g, y) a NotAssociativeError must name, or None
    arr = np.asarray(table)
    n = arr.shape[0]
    gens = []
    closed = reference_closure(arr, [identity])
    while closed.size < n:
        outside = np.ones(n, dtype=bool)
        outside[closed] = False
        gens.append(int(np.nonzero(outside)[0][0]))
        closed = reference_closure(arr, [identity, *gens])
    for g in gens:
        left = arr[arr[:, g], :]
        right = arr[:, arr[g, :]]
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            return (x, g, y)
    return None


def all_subgroups(group):
    # every subgroup, grown one naive-closure generator at a time from {e}
    found = {frozenset([group.identity])}
    frontier = list(found)
    while frontier:
        grown = {
            frozenset(naive_closure(group, [*sub, g]))
            for sub in frontier for g in range(group.order) if g not in sub
        }
        frontier = list(grown - found)
        found |= grown
    return found


def small_groups():
    return [gs.symmetric(4), gs.dicyclic(3), gs.dihedral(6), gs.abelian([2, 2, 2])]


def one_or_two_generators(group):
    n = group.order
    return [[g] for g in range(n)] + [[g, h] for g in range(n) for h in range(g + 1, n)]


# --- table validation ---


def test_trivial_and_c2_tables():
    assert gs.from_cayley([[0]], 0).order == 1
    g = gs.from_cayley([[0, 1], [1, 0]], 0)
    assert g.order == 2 and g.element_order(1) == 2


def test_missing_inverse_rejected():
    with pytest.raises(gs.NoInverseError):
        gs.from_cayley([[0, 1], [1, 1]], 0)


def test_not_closed_rejected():
    with pytest.raises(gs.NotClosedError):
        gs.from_cayley([[0, 1], [1, 7]], 0)


def test_bad_identity_rejected():
    with pytest.raises(gs.NoIdentityError):
        gs.from_cayley([[0, 1], [1, 0]], 1)
    with pytest.raises(gs.NoIdentityError):
        gs.from_cayley([[0, 1], [1, 0]], 5)


def test_nonassociative_loop_rejected():
    # a Latin square with two-sided identity 0 that is not associative:
    # (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(gs.NotAssociativeError):
        gs.from_cayley(loop, 0)


def test_nonsquare_rejected():
    for table in ([[0, 1]], [[0, 1], [1]], [[0], [1, 0]]):  # the last two are ragged
        with pytest.raises(gs.GroupValidationError, match="table must be a nonempty square"):
            gs.from_cayley(table, 0)


def test_out_of_range_entries_rejected_before_narrowing():
    # 2**32 + 1 wraps to 1 in 32 bits, which would make this table C2
    for big in (2**32 + 1, -(2**32) + 1):
        with pytest.raises(gs.NotClosedError):
            gs.from_cayley([[0, big], [big, 0]], 0)


def test_table_is_read_only():
    g = gs.cyclic(4)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    assert g.table.dtype == np.int32 and g.table.tolist()[1] == [1, 2, 3, 0]


def test_caller_table_is_not_aliased():
    idx = np.arange(5)
    raw = ((idx[:, None] + idx[None, :]) % 5).astype(np.int32)
    expected = raw.copy()
    group = gs.from_cayley(raw, 0)
    raw[:] = 0
    assert np.array_equal(group.table, expected)
    assert group.element_orders() == (1, 5, 5, 5, 5)


def test_non_integer_identity_rejected():
    for identity in ("0", 0.0, None, True):
        with pytest.raises(gs.GroupValidationError):
            gs.from_cayley([[0, 1], [1, 0]], identity)


# --- element orders ---


def test_element_order_basics():
    c6 = gs.cyclic(6)
    assert c6.element_order(0) == 1
    assert c6.element_order(1) == 6
    with pytest.raises(IndexError):
        c6.element_order(6)


def test_order_census_against_oracle():
    for group in [gs.symmetric(3), gs.alternating(4), gs.dihedral(5), gs.dicyclic(3)]:
        assert Counter(group.element_orders()) == naive_census(group)


def test_s3_has_three_cycles_of_order_three():
    census = Counter(gs.symmetric(3).element_orders())
    assert census == {1: 1, 2: 3, 3: 2}


def test_lagrange_over_catalog():
    for n in range(1, 41):
        for group in gs.catalog(n):
            for o in group.element_orders():
                assert n % o == 0


def test_order_class_sizes_divisible_by_totient():
    for n in range(1, 41):
        for group in gs.catalog(n):
            census = Counter(group.element_orders())
            for d, count in census.items():
                assert count % nt.totient(d) == 0


# --- subgroups ---


def test_generated_subgroup():
    c6 = gs.cyclic(6)
    assert gs.Subgroup(c6, [0]) == c6.generated_subgroup([0])
    assert len(c6.generated_subgroup([2])) == 3
    v4 = gs.abelian([2, 2])
    assert len(v4.generated_subgroup([1, 2])) == 4
    with pytest.raises(IndexError):
        c6.generated_subgroup([9])
    with pytest.raises(ValueError):
        c6.generated_subgroup([])


def test_cyclic_subgroup_powers():
    c12 = gs.cyclic(12)
    assert set(c12.cyclic_subgroup(3)) == {0, 3, 6, 9}
    assert set(c12.cyclic_subgroup(0)) == {0}


def test_subgroup_validation():
    c6 = gs.cyclic(6)
    with pytest.raises(ValueError, match=re.escape("not closed: 1*1 = 2 escapes the subgroup")):
        gs.Subgroup(c6, [0, 1])
    with pytest.raises(ValueError, match=re.escape("not closed: 1*2 = 3 escapes the subgroup")):
        gs.Subgroup(c6, [0, 1, 2])  # 2*1 and 2*2 escape too; the first in row-major order is named
    with pytest.raises(ValueError):
        gs.Subgroup(c6, [2, 4])  # missing identity
    with pytest.raises(IndexError):
        gs.Subgroup(gs.cyclic(8), [-8, -4, 0, 4])  # negative indices alias 0 and 4
    with pytest.raises(IndexError):
        gs.Subgroup(c6, [-1, 0, 1, 2, 3, 4])  # |G| members, one out of range: not G
    sub = gs.Subgroup(c6, [0, 2, 4])
    assert c6.order // len(sub) == 2 and 2 in sub
    assert gs.Subgroup(c6, [5, *range(6)]).members == tuple(range(6))


def test_is_cyclic():
    assert gs.is_cyclic(gs.cyclic(12))
    assert not gs.is_cyclic(gs.abelian([2, 2]))
    assert not gs.is_cyclic(gs.alternating(4))
    assert gs.is_cyclic(gs.direct_product(gs.cyclic(2), gs.cyclic(3)))


def test_phi_of_group_paper_examples():
    assert gs.phi_of_group(gs.direct_product(gs.cyclic(4), gs.cyclic(4))) == 28
    assert gs.phi_of_group(gs.direct_product(gs.cyclic(2), gs.dicyclic(2))) == 28
    assert gs.phi_of_group(gs.symmetric(3)) == 8


def test_phi_of_group_against_oracle():
    for group in [gs.cyclic(12), gs.dihedral(6), gs.alternating(4), gs.dicyclic(5)]:
        assert gs.phi_of_group(group) == naive_phi(group)


# --- normalizer ---


def test_a4_sylow3_normalizer_has_index_four():
    a4 = gs.alternating(4)
    sylow3 = a4.sylow_subgroup(3)
    assert len(sylow3) == 3
    assert a4.order // len(a4.normalizer(sylow3)) == 4
    assert not a4.is_normal(sylow3)


def test_index_two_subgroup_is_normal():
    d4 = gs.dihedral(4)
    rotations = d4.generated_subgroup([1])
    assert d4.order // len(rotations) == 2
    assert d4.is_normal(rotations)


def test_normalizer_and_is_normal_match_naive_conjugation():
    for group in small_groups():
        subgroups = {group.generated_subgroup(gens) for gens in one_or_two_generators(group)}
        for sub in subgroups:
            expected = naive_normalizer(group, sub.members)
            assert set(group.normalizer(sub)) == expected, (group.name, sub.members)
            assert group.is_normal(sub) == (len(expected) == group.order), (group.name, sub.members)


def test_subgroup_mask_is_read_only_and_matches_members():
    for group in small_groups():
        n = group.order
        subgroups = [group.generated_subgroup(gens) for gens in one_or_two_generators(group)]
        subgroups += [group.normalizer(sub) for sub in subgroups]
        subgroups += [group.sylow_subgroup(q) for q, _ in nt.factorize(n).factors]
        for sub in subgroups:
            assert not sub.mask.flags.writeable, (group.name, sub.members)
            assert np.flatnonzero(sub.mask).tolist() == list(sub.members), (group.name, sub.members)
            for g in range(-1, n + 1):
                assert (g in sub) == (g in set(sub.members)), (group.name, sub.members, g)


def test_foreign_subgroup_rejected():
    c6a, c6b = gs.cyclic(6), gs.cyclic(6)
    sub = gs.Subgroup(c6a, [0, 2, 4])
    with pytest.raises(ValueError):
        c6b.normalizer(sub)


# --- Sylow machinery ---


def test_sylow_of_c12():
    c12 = gs.cyclic(12)
    assert c12.sylow_subgroup(2).members == (0, 3, 6, 9)
    assert c12.count_sylow(3) == 1


def test_sylow_of_a4():
    a4 = gs.alternating(4)
    assert len(a4.sylow_subgroup(3)) == 3
    assert a4.count_sylow(3) == 4
    assert len(a4.sylow_subgroup(2)) == 4
    assert a4.count_sylow(2) == 1


def test_sylow_of_s3():
    assert gs.symmetric(3).count_sylow(2) == 3


def test_sylow_nondivisor_and_errors():
    c12 = gs.cyclic(12)
    assert len(c12.sylow_subgroup(5)) == 1
    with pytest.raises(ValueError):
        c12.sylow_subgroup(4)
    with pytest.raises(ValueError):
        c12.count_sylow(5)


def test_sylow_orders_and_counts_over_catalog():
    for n in range(2, 61):
        fact = nt.factorize(n)
        for group in gs.catalog(n):
            for q, a in fact.factors:
                sylow = group.sylow_subgroup(q)
                assert len(sylow) == q**a
                count = group.count_sylow(q)
                assert count % q == 1
                assert (n // q**a) % count == 0


def sylow_answers(group, p):
    sylow = group.sylow_subgroup(p)
    return sylow.members, group.count_sylow(p), group.is_normal(sylow)


def test_sylow_memo_matches_brute_force_conjugates():
    # on groups whose memo the criterion has filled and on fresh ones alike
    for n in range(2, 61):
        warm = gs.catalog(n)
        for group in warm:
            verify.verify_criterion(group)
            verify.verify_contrapositive(group)
        for group, fresh in zip(warm, gs.catalog(n)):
            t = fresh.table
            inverse = np.nonzero(t == fresh.identity)[1]  # one identity per row
            for p, a in nt.factorize(n).factors:
                answers = sylow_answers(fresh, p)
                assert sylow_answers(group, p) == answers, (group.name, p)
                members, count, normal = answers
                assert len(members) == p**a, (group.name, p)
                conjugates = {
                    frozenset(int(t[t[g, h], inverse[g]]) for h in members) for g in range(n)
                }
                assert count == len(conjugates), (group.name, p)
                assert normal == (count == 1), (group.name, p)


def test_named_groups_match_sympy_oracle():
    named = pytest.importorskip("sympy.combinatorics.named_groups")
    pairs = (
        [(gs.cyclic(n), named.CyclicGroup(n)) for n in range(1, 13)]
        + [(gs.dihedral(m), named.DihedralGroup(m)) for m in range(1, 9)]
        + [(gs.abelian(f), named.AbelianGroup(*f))
           for f in ([2, 2], [2, 4], [3, 3], [2, 2, 2], [2, 6], [2, 2, 3])]
        + [(gs.symmetric(k), named.SymmetricGroup(k)) for k in range(1, 6)]
        + [(gs.alternating(k), named.AlternatingGroup(k)) for k in range(1, 6)]
    )
    for ours, theirs in pairs:
        elements = theirs.elements
        assert Counter(ours.element_orders()) == Counter(g.order() for g in elements), ours.name
        assert ours.is_cyclic() == theirs.is_cyclic, ours.name
        for q, a in nt.factorize(ours.order).factors:
            sylow = theirs.sylow_subgroup(q).elements
            conjugates = {frozenset(g**-1 * h * g for h in sylow) for g in elements}
            assert len(ours.sylow_subgroup(q)) == len(sylow) == q**a, ours.name
            assert ours.count_sylow(q) == len(conjugates), (ours.name, q)


# --- constructions ---


def test_cyclic_trivial():
    assert gs.cyclic(1).order == 1


def test_dihedral_census():
    census = Counter(gs.dihedral(4).element_orders())
    assert census[2] == 5  # four reflections plus the half turn


def test_dihedral_and_dicyclic_match_presentations():
    for m in range(1, 41):
        g = gs.dihedral(m)
        for i in range(2 * m):
            for j in range(2 * m):
                (s1, r1), (s2, r2) = divmod(i, m), divmod(j, m)
                r = (r1 - r2) % m if s1 else (r1 + r2) % m
                assert int(g.table[i, j]) == r + m * ((s1 + s2) % 2), (m, i, j)
        assert g.labels == tuple([f"r{r}" for r in range(m)] + [f"sr{r}" for r in range(m)])
    for m in range(1, 21):
        g = gs.dicyclic(m)
        for i in range(4 * m):
            for j in range(4 * m):
                (s1, r1), (s2, r2) = divmod(i, 2 * m), divmod(j, 2 * m)
                r = (r1 - r2) % (2 * m) if s1 else (r1 + r2) % (2 * m)
                if s1 and s2:  # b^2 = a^m
                    r, s = (r + m) % (2 * m), 0
                else:
                    s = s1 + s2
                assert int(g.table[i, j]) == r + 2 * m * s, (m, i, j)
        assert g.labels == tuple([f"a{r}" for r in range(2 * m)] + [f"ba{r}" for r in range(2 * m)])


def test_semidirect_products_match_presentation():
    # every valid (a, b, r) with a*b <= 120, coprime or not; (u, t) sits at u*b + t
    checked = 0
    for a in range(1, 121):
        for b in range(1, 120 // a + 1):
            u, t = np.divmod(np.arange(a * b), b)
            for r in gs.enumerate_semidirect_units(a, b):
                g = gs.semidirect_cyclic(gs.SemidirectSpec(a, b, r))
                r_pow = np.array([pow(r, k, a) for k in range(b)])
                expected = ((u[:, None] + r_pow[t][:, None] * u[None, :]) % a) * b + (
                    t[:, None] + t[None, :]) % b
                assert np.array_equal(g.table, expected), g.name
                assert g.identity == 0 and g.name == f"sdp:{a}:{b}:{r}"
                assert g.labels == tuple(f"({x},{y})" for x in range(a) for y in range(b))
                checked += 1
    assert checked > 1000
    assert not gs.semidirect_cyclic(gs.SemidirectSpec(8, 2, 3)).is_cyclic()  # non-coprime
    # an r past int64 acts as r mod a
    huge = gs.semidirect_cyclic(gs.SemidirectSpec(7, 3, 10**20 + 2))
    assert np.array_equal(huge.table, gs.semidirect_cyclic(gs.SemidirectSpec(7, 3, 4)).table)


def test_abelian_groups_match_componentwise_addition():
    # digits of an index, first factor most significant, add componentwise
    for n in range(1, 65):
        for factors in gs.groups.abelian_invariant_factor_lists(n):
            g = gs.abelian(factors)

            def digits(i):
                out = []
                for d in reversed(factors):
                    i, x = divmod(i, d)
                    out.append(x)
                return out[::-1]

            def index(xs):
                i = 0
                for d, x in zip(factors, xs):
                    i = i * d + x
                return i

            for i in range(n):
                for j in range(n):
                    total = [(x + y) % d for d, x, y in zip(factors, digits(i), digits(j))]
                    assert int(g.table[i, j]) == index(total), (factors, i, j)
            assert g.identity == 0 and g.name == "abelian:" + "x".join(map(str, factors))


def test_permutation_groups_compose_tuples():
    # table[i][j] is the index of p_i o p_j, x -> p_i[p_j[x]], among the
    # lexicographically sorted permutations; the identity sorts first
    for k in range(1, 6):
        every = sorted(itertools.permutations(range(k)))
        even = [p for p in every
                if sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 0]
        for g, perms in [(gs.symmetric(k), every), (gs.alternating(k), even)]:
            index = {p: i for i, p in enumerate(perms)}
            for i, p in enumerate(perms):
                for j, q in enumerate(perms):
                    assert int(g.table[i, j]) == index[tuple(p[q[x]] for x in range(k))]
            assert g.identity == 0 and perms[0] == tuple(range(k))
            assert g.labels == tuple("".join(map(str, p)) for p in perms)


def test_direct_product_indexes_pairs_first_factor_major():
    for g1, g2 in [(gs.symmetric(3), gs.cyclic(4)), (gs.dicyclic(2), gs.alternating(4)),
                   (gs.cyclic(1), gs.dihedral(5)), (gs.abelian([2, 2]), gs.cyclic(1))]:
        n2 = g2.order
        prod = gs.direct_product(g1, g2)
        for i in range(prod.order):
            for j in range(prod.order):
                (i1, i2), (j1, j2) = divmod(i, n2), divmod(j, n2)
                expected = int(g1.table[i1, j1]) * n2 + int(g2.table[i2, j2])
                assert int(prod.table[i, j]) == expected, (prod.name, i, j)
        assert prod.identity == g1.identity * n2 + g2.identity
        assert prod.labels == tuple(f"({x},{y})" for x in g1.labels for y in g2.labels)


def test_direct_product_order_law_names_the_first_failure(monkeypatch):
    element_orders = gs.FiniteGroup.element_orders

    def corrupted(group):
        orders = list(element_orders(group))
        if group.name.startswith("prod:"):
            orders[9] += 1  # (2, 1) with |C4| = 4
            orders[5] += 1  # (1, 1), first in row-major order
        return tuple(orders)

    monkeypatch.setattr(gs.FiniteGroup, "element_orders", corrupted)
    with pytest.raises(AssertionError, match=r"order law fails at \(1,1\) in prod:sym:3,cyclic:4"):
        gs.direct_product(gs.symmetric(3), gs.cyclic(4))


def test_integer_arguments_are_checked_at_the_boundary():
    # ints and numpy integers are accepted; bools, floats and strings are not
    bad = [2.5, 3.0, True, False, "3", None, np.float64(3.0), np.bool_(True)]
    constructors = [
        gs.cyclic, gs.dihedral, gs.dicyclic, gs.symmetric, gs.alternating, gs.catalog,
        lambda x: gs.abelian([x, 2]), lambda x: gs.abelian([2, x]),
        lambda x: gs.SemidirectSpec(x, 2, 1), lambda x: gs.SemidirectSpec(3, x, 1),
        lambda x: gs.SemidirectSpec(7, 3, x),
        lambda x: gs.enumerate_semidirect_units(x, 2),
        lambda x: gs.enumerate_semidirect_units(3, x),
    ]
    for make in constructors:
        for value in bad:
            with pytest.raises(ValueError, match="must be an integer"):
                make(value)
    assert gs.cyclic(np.int64(5)).name == "cyclic:5"
    assert gs.abelian([np.int32(2), 2]).name == "abelian:2x2"
    assert gs.dihedral(np.int16(3)).order == 6
    assert gs.symmetric(np.uint8(3)).order == 6
    assert gs.semidirect_cyclic(gs.SemidirectSpec(np.int64(7), 3, np.int8(2))).name == "sdp:7:3:2"
    assert [g.name for g in gs.catalog(np.int64(4))] == ["cyclic:4", "abelian:2x2"]


# sha256 over every catalog group of order 1..200 and sym/alt 1..6, in that
# order: name, identity, labels and the table's int32 bytes
PINNED_TABLES = "0dae6014e82c7113478e13d0a190bc49b5e2fb483c1f57be82f7407719eb0e3c"


def test_constructed_tables_are_pinned():
    groups = [g for n in range(1, 201) for g in gs.catalog(n)]
    groups += [make(k) for k in range(1, 7) for make in (gs.symmetric, gs.alternating)]
    digest = hashlib.sha256()
    for g in groups:
        digest.update(f"{g.name}\n{g.identity}\n{' '.join(g.labels)}\n".encode())
        digest.update(g.table.astype("<i4").tobytes())
    assert len(groups) == 1339
    assert digest.hexdigest() == PINNED_TABLES


def test_dicyclic_is_quaternion_at_two():
    census = Counter(gs.dicyclic(2).element_orders())
    assert census == {1: 1, 2: 1, 4: 6}


def test_symmetric_alternating_sizes():
    assert gs.symmetric(4).order == 24
    assert gs.alternating(4).order == 12
    assert gs.alternating(5).order == 60
    with pytest.raises(ValueError):
        gs.symmetric(7)


def test_order_cap():
    with pytest.raises(gs.OrderCapError):
        gs.cyclic(10, cap=5)
    with pytest.raises(gs.OrderCapError):
        gs.direct_product(gs.cyclic(50), gs.cyclic(50), cap=100)


def test_direct_product_with_trivial_group():
    s3 = gs.symmetric(3)
    prod = gs.direct_product(s3, gs.cyclic(1))
    assert np.array_equal(prod.table, s3.table)


def test_direct_product_coprime_is_cyclic():
    assert gs.is_cyclic(gs.direct_product(gs.cyclic(2), gs.cyclic(3)))


def test_direct_product_order_law():
    g = gs.direct_product(gs.symmetric(3), gs.cyclic(4))
    orders1 = gs.symmetric(3).element_orders()
    orders2 = gs.cyclic(4).element_orders()
    for i, o in enumerate(g.element_orders()):
        o1, o2 = orders1[i // 4], orders2[i % 4]
        assert o == o1 * o2 // math.gcd(o1, o2)


def test_semidirect_s3():
    g = gs.semidirect_cyclic(gs.SemidirectSpec(3, 2, 2))
    assert Counter(g.element_orders()) == {1: 1, 2: 3, 3: 2}
    assert gs.phi_of_group(g) == 8


def test_semidirect_trivial_action_is_direct():
    spec = gs.SemidirectSpec(5, 4, 1)
    assert spec.is_direct
    g = gs.semidirect_cyclic(spec)
    assert gs.phi_of_group(g) == gs.phi_of_group(gs.cyclic(5)) * gs.phi_of_group(gs.cyclic(4))
    assert Counter(g.element_orders()) == Counter(
        gs.direct_product(gs.cyclic(5), gs.cyclic(4)).element_orders()
    )


def test_semidirect_order_twenty():
    g = gs.semidirect_cyclic(gs.SemidirectSpec(5, 4, 2))  # 2^4 = 16 = 1 mod 5
    assert g.order == 20
    assert not g.is_cyclic()


def test_semidirect_spec_validation():
    with pytest.raises(ValueError):
        gs.SemidirectSpec(4, 2, 2)  # not a unit
    with pytest.raises(ValueError):
        gs.SemidirectSpec(5, 2, 2)  # 2^2 = 4 != 1 mod 5
    with pytest.raises(ValueError):
        gs.SemidirectSpec(0, 2, 1)


def test_enumerate_semidirect_units():
    assert gs.enumerate_semidirect_units(3, 2) == [1, 2]
    assert gs.enumerate_semidirect_units(5, 3) == [1]
    assert gs.enumerate_semidirect_units(7, 3) == [1, 2, 4]
    assert gs.enumerate_semidirect_units(1, 5) == [1]
    assert all(1 in gs.enumerate_semidirect_units(a, b)
               for a in range(1, 20) for b in range(1, 8))


def test_semidirect_r1_matches_direct_product_orders():
    for a, b in [(3, 4), (5, 2), (9, 2), (7, 3)]:
        twisted = gs.semidirect_cyclic(gs.SemidirectSpec(a, b, 1))
        straight = gs.direct_product(gs.cyclic(a), gs.cyclic(b))
        assert twisted.element_orders() == straight.element_orders()


def test_semidirect_cyclic_iff_trivial_action():
    for a in range(2, 16):
        for b in range(2, 16):
            if a * b > 120 or math.gcd(a, b) != 1:
                continue
            for r in gs.enumerate_semidirect_units(a, b):
                g = gs.semidirect_cyclic(gs.SemidirectSpec(a, b, r))
                assert g.is_cyclic() == (r == 1)


# --- catalog ---


def test_catalog_order_four_is_exactly_two_abelians():
    assert [g.name for g in gs.catalog(4)] == ["cyclic:4", "abelian:2x2"]


def test_catalog_order_six():
    names = [g.name for g in gs.catalog(6)]
    assert "cyclic:6" in names
    assert "sdp:3:2:2" in names  # isomorphic to sym:3 and dihedral:3
    assert "dihedral:3" in names


def test_catalog_order_twelve():
    names = [g.name for g in gs.catalog(12)]
    for expected in ["cyclic:12", "abelian:2x6", "dihedral:6", "dicyclic:3",
                     "alt:4", "sdp:3:4:2"]:
        assert expected in names


def test_catalog_names_unique_and_orders_match():
    for n in range(1, 101):
        groups = gs.catalog(n)
        names = [g.name for g in groups]
        assert len(names) == len(set(names))
        assert all(g.order == n for g in groups)


def test_catalog_always_contains_cyclic():
    for n in range(1, 50):
        assert any(g.name == f"cyclic:{n}" for g in gs.catalog(n))


# --- JSON wire format ---


def test_json_round_trip():
    g = gs.dihedral(4)
    restored = gs.FiniteGroup.from_json(g.to_json())
    assert np.array_equal(restored.table, g.table)
    assert restored.identity == g.identity
    assert restored.name == g.name
    assert restored.order == g.order


def test_json_schema_fields():
    data = json.loads(gs.cyclic(3).to_json())
    assert set(data) == {"name", "order", "identity", "table"}
    assert data["order"] == 3
    assert data["table"][0] == [0, 1, 2]


def test_json_import_validates():
    payload = {"name": "broken", "order": 2, "identity": 0, "table": [[0, 1], [1, 1]]}
    with pytest.raises(gs.GroupValidationError):
        gs.FiniteGroup.from_json_dict(payload)
    with pytest.raises(gs.GroupValidationError):
        gs.FiniteGroup.from_json_dict(
            {"name": "x", "order": 3, "identity": 0, "table": [[0, 1], [1, 0]]}
        )
    with pytest.raises(gs.GroupValidationError):
        gs.FiniteGroup.from_json_dict({"name": "x", "order": 2})
    with pytest.raises(gs.GroupValidationError):
        gs.FiniteGroup.from_json_dict(
            {"name": "x", "order": 2, "identity": "0", "table": [[0, 1], [1, 0]]}
        )
    for text in ("[[0, 1], [1, 0]]", "[]", "0", '"table"'):
        with pytest.raises(gs.GroupValidationError):
            gs.FiniteGroup.from_json(text)
    for declared in (True, 1.0, "1", None):
        with pytest.raises(gs.GroupValidationError, match="order must be an integer"):
            gs.FiniteGroup.from_json_dict(
                {"name": "x", "order": declared, "identity": 0, "table": [[0]]}
            )


def test_non_integer_table_rejected():
    with pytest.raises(gs.GroupValidationError):
        gs.from_cayley([[0.5, 1.0], [1.0, 0.0]], 0)


def test_boolean_table_entries_rejected():
    # numpy reads a list that mixes ints and bools as int64, so these would be C2 and C3
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for i, j in [(0, 0), (0, 1), (1, 0), (2, 1)]:
        for flag in (bool, np.bool_):
            table = [list(row) for row in c3]
            table[i][j] = flag(table[i][j])
            with pytest.raises(gs.GroupValidationError, match="bool"):
                gs.from_cayley(table, 0)
            with pytest.raises(gs.GroupValidationError, match="bool"):
                gs.from_cayley(tuple(map(tuple, table)), 0)
    with pytest.raises(gs.GroupValidationError, match="bool"):
        gs.from_cayley([[0, True], [True, 0]], 0)
    with pytest.raises(gs.GroupValidationError):
        gs.from_cayley([[True]], 0)  # all bools: numpy's bool dtype, not an integer one


def test_generated_subgroup_matches_naive_closure():
    for group in small_groups():
        for gens in one_or_two_generators(group):
            assert set(group.generated_subgroup(gens)) == naive_closure(group, gens), (
                group.name, gens)


def test_closure_extends_a_closed_mask():
    for group in [gs.symmetric(4), gs.dicyclic(3), gs.abelian([2, 2, 2])]:
        n = group.order
        for sub in all_subgroups(group):
            inside = np.zeros(n, dtype=bool)
            inside[list(sub)] = True
            for x in range(n):
                grown = gs.groups._closure_of(group.table, inside, sorted(sub), x)
                assert set(np.flatnonzero(grown)) == naive_closure(group, [*sub, x]), (
                    group.name, sorted(sub), x)
            assert set(np.flatnonzero(inside)) == sub  # the caller's mask is kept


# --- randomized validation fuzzing (fixed seed) ---


def test_relabelled_tables_still_validate():
    import random

    rng = random.Random(20240817)
    for base in [gs.cyclic(9), gs.dihedral(5), gs.dicyclic(3), gs.symmetric(3)]:
        n = base.order
        for _ in range(5):
            sigma = list(range(n))
            rng.shuffle(sigma)
            table = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    table[sigma[i]][sigma[j]] = sigma[int(base.table[i, j])]
            relabelled = gs.from_cayley(table, sigma[base.identity])
            assert sorted(relabelled.element_orders()) == sorted(base.element_orders())


def test_single_cell_corruption_always_rejected():
    # two distinct group tables cannot differ in exactly one cell, so every
    # one-cell corruption must trip some axiom check
    import random

    rng = random.Random(987123)
    for base in [gs.cyclic(8), gs.abelian([2, 4]), gs.symmetric(3), gs.dicyclic(2)]:
        n = base.order
        for _ in range(20):
            table = [list(row) for row in base.table]
            i, j = rng.randrange(n), rng.randrange(n)
            old = table[i][j]
            table[i][j] = rng.choice([v for v in range(n) if v != old])
            with pytest.raises(gs.GroupValidationError):
                gs.from_cayley(table, base.identity)


def intercalate_swaps(base, rng, count):
    # swapping the two symbols of a 2x2 Latin subsquare away from the
    # identity's row and column keeps a Latin square with identity
    t = base.table
    others = [x for x in range(base.order) if x != base.identity]
    intercalates = [
        (i, j, k, l)
        for i in others for j in others if i < j
        for k in others for l in others if k < l
        if t[i, k] == t[j, l] and t[i, l] == t[j, k]
    ]
    assert intercalates, base.name
    for i, j, k, l in rng.sample(intercalates, min(count, len(intercalates))):
        table = t.copy()
        table[i, k], table[i, l] = t[i, l], t[i, k]
        table[j, k], table[j, l] = t[j, l], t[j, k]
        yield table


SWAP_BASES = [gs.dihedral(4), gs.dicyclic(2), gs.abelian([2, 4]), gs.symmetric(4)]


def test_intercalate_swaps_name_the_reference_witness():
    # the associativity failure must be named as the reference loop names it
    import random

    rng = random.Random(31415)
    for base in SWAP_BASES:
        for table in intercalate_swaps(base, rng, 12):
            witness = reference_associativity_witness(table, base.identity)
            assert witness is not None, base.name
            with pytest.raises(gs.NotAssociativeError) as caught:
                gs.from_cayley(table, base.identity)
            assert caught.value.witness == witness, base.name


def test_closure_matches_reference_on_group_tables():
    # <H, g> grown by cosets of H from a generating set of H, against
    # closure by squaring from scratch
    import random

    rng = random.Random(27182)
    for base in SWAP_BASES + [gs.dihedral(9), gs.symmetric(5), gs.abelian([3, 6])]:
        e = base.identity
        for x in range(base.order):
            gens = [x, rng.randrange(base.order), rng.randrange(base.order)]
            inside = gs.groups._member_mask(base.order, [e])
            for i, g in enumerate(gens):
                inside = gs.groups._closure_of(base.table, inside, gens[:i], g)
                want = reference_closure(base.table, [e, *gens[:i + 1]])
                assert np.flatnonzero(inside).tolist() == want.tolist(), (base.name, gens[:i + 1])


def test_swap_failing_at_a_later_generator_names_the_reference_witness():
    # C_k x L for an intercalate-swapped L, indexed l*k + c: element 1 is
    # (e, 1), central, so it passes the translation test and validation
    # closes <1> before it tests the next generator
    import random

    rng = random.Random(16180)
    for k in (2, 3):
        idx = np.arange(k)
        ck = (idx[:, None] + idx[None, :]) % k
        for base in SWAP_BASES:
            for swapped in intercalate_swaps(base, rng, 6):
                table = gs.groups._combine_tables(swapped, ck)
                identity = base.identity * k
                witness = reference_associativity_witness(table, identity)
                assert witness is not None and witness[1] != 1, base.name
                with pytest.raises(gs.NotAssociativeError) as caught:
                    gs.from_cayley(table, identity)
                assert caught.value.witness == witness, (base.name, k)


def reference_validation(table, identity):
    # the checks, in order, as they ran when associativity was tested only
    # after closing all generators on the raw table: the outcome as
    # (error class, witness), or (None, None) for a group
    arr = np.asarray(table)
    n = arr.shape[0]
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        return gs.NotClosedError, tuple(map(int, np.argwhere(bad)[0]))
    idx = np.arange(n)
    row_bad = np.flatnonzero(arr[identity] != idx)
    col_bad = np.flatnonzero(arr[:, identity] != idx)
    if row_bad.size or col_bad.size:
        return gs.NoIdentityError, int(row_bad[0]) if row_bad.size else int(col_bad[0])
    is_identity = arr == identity
    missing = np.flatnonzero(~(is_identity.any(axis=1) & is_identity.any(axis=0)))
    if missing.size:
        return gs.NoInverseError, int(missing[0])
    witness = reference_associativity_witness(arr, identity)
    return (None, None) if witness is None else (gs.NotAssociativeError, witness)


FUZZ_BASES = [gs.cyclic(k) for k in range(1, 9)] + [
    gs.dihedral(3), gs.dihedral(4), gs.dicyclic(2), gs.abelian([2, 2]),
    gs.abelian([2, 4]), gs.abelian([2, 2, 2]),
]


def test_validation_matches_reference_on_drawn_tables():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def tables(draw):
        base = draw(st.sampled_from(FUZZ_BASES))
        n = base.order
        # a small table may be taken times C2, indexed l*2 + c, with its
        # identity relabelled 0: then the central (0, 1) is the first
        # generator and passes, so a rewrite shows at a later generator
        times_c2 = n <= 4 and draw(st.booleans())
        sigma = draw(st.permutations(range(n)))
        if times_c2:
            k = sigma.index(0)
            sigma[k], sigma[base.identity] = sigma[base.identity], 0
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[sigma[i]][sigma[j]] = sigma[int(base.table[i, j])]
        cell = st.integers(0, n - 1)
        for i, j, value in draw(st.lists(st.tuples(cell, cell, st.integers(-1, n)), max_size=3)):
            table[i][j] = value
        if times_c2:
            return gs.groups._combine_tables(np.array(table), np.array([[0, 1], [1, 0]])).tolist(), 0
        return table, sigma[base.identity]

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(tables())
    def check(drawn):
        table, identity = drawn
        try:
            gs.from_cayley(table, identity)
            got = (None, None)
        except gs.GroupValidationError as exc:
            got = (type(exc), exc.witness)
        assert got == reference_validation(table, identity)

    check()


# --- the JSON reader against the json.loads path ---


def reference_from_json(text):
    """The json.loads path, which `from_json` takes for any document its
    numpy read does not decide: the reference the read must agree with."""
    return gs.FiniteGroup.from_json_dict(json.loads(text))


def outcome(read, text):
    try:
        group = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return group.name, group.order, group.identity, group.table.dtype, group.table.tolist()


def write_group(fields, rng=None, cell_sep=", ", duplicate=None):
    """A group document from (key, value) pairs in order: the layout
    `to_json` writes (cell_sep ", ") or the compact one (cell_sep ","), or,
    given a random.Random, with JSON whitespace drawn between all tokens.
    `duplicate` is one more (key, value) pair written first."""

    def space():
        return "".join(rng.choice(" \t\n\r") for _ in range(rng.randrange(3))) if rng else ""

    def value(v):
        if isinstance(v, list):
            sep = (space() + "," + space()) if rng else cell_sep
            return "[" + space() + sep.join(value(x) for x in v) + space() + "]"
        return json.dumps(v)

    pairs = ([duplicate] if duplicate else []) + list(fields)
    members = [f'{space()}{json.dumps(k)}{space()}:{space() or " "}{value(v)}{space()}'
               for k, v in pairs]
    return "{" + ("," if rng else ", ").join(members) + "}" + space()


def test_numpy_read_takes_both_wire_layouts():
    for n in (1, 2, 12, 60):
        for group in gs.catalog(n):
            data = group.to_json_dict()
            compact = write_group(
                [(k, data[k]) for k in ("name", "order", "identity", "table")], cell_sep=",")
            for text in (group.to_json(), compact):
                assert gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP) is not None
                assert outcome(gs.FiniteGroup.from_json, text) == outcome(
                    reference_from_json, text)


def test_numpy_read_agrees_with_json_loads_on_drawn_documents():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    groups = [g for n in range(1, 61) for g in gs.catalog(n)]

    @st.composite
    def documents(draw):
        group = draw(st.sampled_from(groups))
        n = group.order
        sigma = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[sigma[i]][sigma[j]] = sigma[int(group.table[i, j])]
        fields = {"name": group.name, "order": n, "identity": sigma[group.identity],
                  "table": table}
        keys = draw(st.sampled_from([
            ["identity", "name", "order", "table"], ["name", "order", "identity", "table"],
        ]) | st.permutations(sorted(fields)))
        rng = random.Random(draw(st.integers(0, 2**32))) if draw(st.booleans()) else None
        duplicate = draw(st.sampled_from([
            None, ("name", "other"), ("identity", 0), ("table", [[0]]), ("order", 1),
        ]))
        return write_group([(k, fields[k]) for k in keys], rng,
                           draw(st.sampled_from([", ", ","])), duplicate)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(documents())
    def check(text):
        assert outcome(gs.FiniteGroup.from_json, text) == outcome(reference_from_json, text)

    check()


def test_numpy_read_leaves_undecided_documents_to_json_loads():
    c11 = gs.cyclic(11)
    good = c11.to_json()
    row = ", ".join(map(str, c11.table[10].tolist()))  # "10, 0, 1, ..., 9"
    assert good.count(row) == 1 and good.endswith(row + "]]}")
    edits = {
        "space in a number": ("[10, 0,", "[1 0, 0,"),
        "leading zero": ("[10, 0,", "[010, 0,"),
        "minus zero": ("[10, 0,", "[10, -0,"),
        "minus one": ("[10, 0,", "[10, -1,"),
        "fraction": ("[10, 0,", "[10, 0.0,"),
        "exponent": ("[10, 0,", "[10, 0e0,"),
        "bool": ("[10, 0, 1,", "[10, 0, true,"),
        "empty slot": ("[10, 0,", "[10, , 0,"),
        "trailing comma in a row": ("9]]}", "9,]]}"),
        "trailing comma in the table": ("9]]}", "9],]}"),
        "ragged rows": ("8, 9]]}", "8]]}"),
        "nineteen digits": ("[10, 0,", "[1000000000000000010, 0,"),
        "too long for int32": ("[10, 0,", "[4294967306, 0,"),
        "non-ASCII name": ('"name": "cyclic:11"', '"name": "cyclic:١١"'),
        "escaped key": ('"table"', '"t\\u0061ble"'),
        "duplicate key": ('"table"', '"table": [[0]], "table"'),
        "nested table": ("]]}", "]]]}"),
        "two objects": ("]]}", "]]}}"),
        "nan identity": ('"identity": 0', '"identity": NaN'),
        "bad head": ('"identity": 0', '"identity": 0,'),
    }
    texts = {what: good.replace(old, new, 1) for what, (old, new) in edits.items()}
    texts["table not last"] = good.replace('"identity": 0, ', "").replace(
        "]]}", ']], "identity": 0}')
    for what, text in texts.items():
        assert text != good, what
        assert gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP) is None, what
        assert outcome(gs.FiniteGroup.from_json, text) == outcome(reference_from_json, text), what
