import copy
import functools
import hashlib
import itertools
import json
import math
import pickle
import random
import re
from collections import Counter

import numpy as np
import pytest

import groupsum as gs
from groupsum import cli
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
    assert gs.FiniteGroup([[0]], 0).order == 1
    g = gs.FiniteGroup([[0, 1], [1, 0]], 0)
    assert g.order == 2 and g.element_order(1) == 2


def test_missing_inverse_rejected():
    with pytest.raises(gs.NoInverseError):
        gs.FiniteGroup([[0, 1], [1, 1]], 0)


def test_not_closed_rejected():
    with pytest.raises(gs.NotClosedError):
        gs.FiniteGroup([[0, 1], [1, 7]], 0)


def test_bad_identity_rejected():
    with pytest.raises(gs.NoIdentityError):
        gs.FiniteGroup([[0, 1], [1, 0]], 1)
    with pytest.raises(gs.NoIdentityError):
        gs.FiniteGroup([[0, 1], [1, 0]], 5)


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
        gs.FiniteGroup(loop, 0)


def test_every_error_survives_pickle():
    # a --jobs worker hands its error to the parent by pickle
    errors = [
        gs.GroupValidationError("order must be an integer, got True"),
        gs.NotClosedError(0, 1, 7, 2),
        gs.NoIdentityError(1, (0, 1)),
        gs.NoInverseError(3),
        gs.NotAssociativeError(1, 1, 2),
        gs.OrderCapError(4000, 2000),
        gs.groups.SpecError("unknown group spec kind 'nonsense'", "nonsense:4"),
        gs.groups.SpecError("phi needs exactly one of --group or --n"),
        gs.HypothesisViolation("n=8: powers of two are excluded"),
    ]
    missing = object()
    for error in errors:
        twin = pickle.loads(pickle.dumps(error))
        assert type(twin) is type(error) and str(twin) == str(error), repr(error)
        for attr in ("witness", "order", "spec"):
            assert getattr(twin, attr, missing) == getattr(error, attr, missing), (error, attr)


def test_nonsquare_rejected():
    for table in ([[0, 1]], [[0, 1], [1]], [[0], [1, 0]]):  # the last two are ragged
        with pytest.raises(gs.GroupValidationError, match="table must be a nonempty square"):
            gs.FiniteGroup(table, 0)


def test_out_of_range_entries_rejected_before_narrowing(monkeypatch):
    # 2**32 + k and -(2**32) + k wrap to k in 32 bits, which would give back
    # C_5's own table; each block of rows is range-checked on the caller's
    # values before it is narrowed, so in a later block too the first bad
    # cell in row-major order is named with the value the caller wrote
    table = gs.cyclic(5).table.astype(np.int64)
    table[3, 4] += 2**32
    table[3, 1] -= 2**32
    table[4, 0] += 2**32
    for rows in (1, 2):
        monkeypatch.setattr(gs.groups, "_BLOCK_CELLS", rows * 5)
        for raw in (table, table.tolist()):
            with pytest.raises(gs.NotClosedError) as caught:
                gs.FiniteGroup(raw, 0)
            assert caught.value.witness == (3, 1), (rows, type(raw))
            assert str(caught.value) == f"not closed: table[3][1] = {4 - 2**32} outside [0, 5)"


def test_table_is_read_only():
    g = gs.cyclic(4)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    assert g.table.dtype == np.int32 and g.table.tolist()[1] == [1, 2, 3, 0]


def relabel(base, sigma):
    # the table of `base` with element i renamed sigma[i]
    s = np.asarray(sigma)
    table = np.empty_like(base.table)
    table[np.ix_(s, s)] = s[base.table]
    return gs.FiniteGroup(table, s[base.identity])


def test_inverse_is_a_two_sided_inverse_stored_read_only():
    rng = random.Random(4242)
    groups = small_groups()
    for base in small_groups():
        sigma = list(range(base.order))
        while sigma[base.identity] == 0:  # the identity away from index 0
            rng.shuffle(sigma)
        groups.append(relabel(base, sigma))
    for group in groups:
        t, e, n = group.table, group.identity, group.order
        for g in range(n):
            h = group.inverse(g)
            assert t[g, h] == t[h, g] == e, (group.name, e, g)
        assert sorted(group.inverse(g) for g in range(n)) == list(range(n))
        assert not group._inverses.flags.writeable
        with pytest.raises(ValueError):
            group._inverses[0] = 1
        for bad in (-1, n):
            with pytest.raises(IndexError):
                group.inverse(bad)


def test_pickle_and_deepcopy_rebuild_validated_read_only_groups(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(gs.dicyclic(3).to_json())
    groups = [g for n in range(1, 31) for g in gs.catalog(n)]
    groups += [gs.symmetric(4), gs.alternating(4),
               gs.direct_product(gs.dihedral(3), gs.abelian([2, 2])),
               cli.parse_group_spec(f"file:{path}"),
               gs.FiniteGroup([[0, 1], [1, 0]], name="labelled", labels=["e", 7])]
    for group in groups:
        sub = group.sylow_subgroup(max(nt.factorize(group.order).primes, default=2))
        for twin, twin_sub in (pickle.loads(pickle.dumps((group, sub))), copy.deepcopy((group, sub))):
            assert twin is not group and twin_sub.parent is twin
            assert (twin.name, twin.identity, twin.labels) == (group.name, group.identity, group.labels)
            assert np.array_equal(twin.table, group.table) and twin.table.dtype == np.int32
            assert twin_sub.members == sub.members
            for array in (twin.table, twin._inverses, twin_sub.mask):
                assert not array.flags.writeable, group.name
            with pytest.raises(ValueError):
                twin.table[0, 0] = 0
            assert twin.phi() == group.phi()


def test_unpickling_validates_the_table_and_the_members():
    group = gs.dihedral(5)
    rebuild, args = group.__reduce__()
    broken = args[0].copy()
    broken[0, 0] = 3
    with pytest.raises(gs.GroupValidationError):
        rebuild(broken, *args[1:])
    rebuild, (parent, members) = group.sylow_subgroup(5).__reduce__()
    with pytest.raises(ValueError, match="not closed"):
        rebuild(parent, members + (5,))


def test_caller_table_is_not_aliased():
    idx = np.arange(5)
    raw = ((idx[:, None] + idx[None, :]) % 5).astype(np.int32)
    expected = raw.copy()
    group = gs.FiniteGroup(raw, 0)
    raw[:] = 0
    assert np.array_equal(group.table, expected)
    assert group.element_orders() == (1, 5, 5, 5, 5)


@pytest.mark.parametrize("layout", ["read-only int32", "Fortran order", "strided view", "int64"])
def test_caller_table_of_any_layout_is_copied(layout):
    # a caller's array is copied by every way in, in any layout, and then
    # changed through the array the caller still holds
    idx = np.arange(5)
    expected = ((idx[:, None] + idx[None, :]) % 5).astype(np.int32)
    builds = {
        "FiniteGroup": lambda raw: gs.FiniteGroup(raw, 0),
        "from_json_dict": lambda raw: gs.FiniteGroup.from_json_dict({"table": raw, "identity": 0}),
        "_validate_table": lambda raw: gs.groups._validate_table(raw, 0)[0],
    }
    for way, build in builds.items():
        if layout == "strided view":
            owner = np.zeros((10, 15), dtype=np.int32)
            raw = owner[::2, ::3]
            raw[:] = expected
        else:
            owner = {"read-only int32": expected, "Fortran order": np.asfortranarray(expected),
                     "int64": expected.astype(np.int64)}[layout].copy(order="K")
            raw = owner.view()
            raw.flags.writeable = layout != "read-only int32"
        built = build(raw)
        table = built if way == "_validate_table" else built.table
        owner[...] = 0
        assert np.array_equal(table, expected), way
        assert table.dtype == np.int32 and table.flags.c_contiguous, way
        assert not np.shares_memory(table, owner), way


def test_non_integer_identity_rejected():
    for identity in ("0", 0.0, None, True, np.True_, np.float64(0.0)):
        with pytest.raises(gs.GroupValidationError):
            gs.FiniteGroup([[0, 1], [1, 0]], identity)
    # numpy integers pass, as for every other integer argument, and are kept as int
    for identity in (np.int64(1), np.int32(1), np.uint8(1)):
        group = gs.FiniteGroup([[1, 0], [0, 1]], identity)
        assert type(group.identity) is int and group.identity == 1
        restored = gs.FiniteGroup.from_json(group.to_json())
        assert restored.identity == 1 and np.array_equal(restored.table, group.table)


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


def cyclic_orders(m):
    return [m // math.gcd(m, x) for x in range(m)]


def permutation_order(perm):
    # the lcm of the cycle lengths, walked by hand
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return math.lcm(*lengths), len(lengths)


def closed_form_orders(name):
    # Element orders in the constructions' index order, from the name alone
    family, _, args = name.partition(":")
    if family in ("cyclic", "abelian"):
        # mixed-radix digits, first factor most significant
        radices = [int(d) for d in args.split("x")]
        return [math.lcm(*(d // math.gcd(d, x) for d, x in zip(radices, digits)))
                for digits in itertools.product(*map(range, radices))]
    if family == "dihedral":
        m = int(args)
        return cyclic_orders(m) + [2] * m
    if family == "dicyclic":
        m = int(args)
        return cyclic_orders(2 * m) + [4] * (2 * m)
    if family == "sdp":
        # (u, t) at u*b + t; its k-th power, k = b / gcd(b, t), is (u*N_t, 0)
        a, b, r = map(int, args.split(":"))
        powers = []
        for t in range(b):
            k = b // math.gcd(b, t)
            powers.append((k, sum(pow(r, t * i, a) for i in range(k)) % a))
        return [k * a // math.gcd(a, u * n_t) for u in range(a) for k, n_t in powers]
    # sym/alt: rows sorted lexicographically; a permutation of k points with
    # c cycles is even when k - c is
    k = int(args)
    orders = []
    for perm in itertools.permutations(range(k)):
        order, cycles = permutation_order(perm)
        if family == "sym" or (k - cycles) % 2 == 0:
            orders.append(order)
    return orders


def test_element_orders_match_closed_forms_in_index_order():
    groups = [group for n in range(1, 201) for group in gs.catalog(n)]
    groups += [make(k) for k in range(1, 7) for make in (gs.symmetric, gs.alternating)]
    assert len(groups) == 1339
    for group in groups:
        assert list(group.element_orders()) == closed_form_orders(group.name), group.name


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
    with pytest.raises(ValueError, match="a subgroup cannot be empty"):
        gs.Subgroup(c6, [])
    sub = gs.Subgroup(c6, [0, 2, 4])
    assert c6.order // len(sub) == 2 and 2 in sub
    assert repr(sub) == "Subgroup(order=3 of 'cyclic:6')"
    assert gs.Subgroup(c6, [5, *range(6)]).members == tuple(range(6))


def test_is_cyclic():
    assert gs.cyclic(12).is_cyclic()
    assert not gs.abelian([2, 2]).is_cyclic()
    assert not gs.alternating(4).is_cyclic()
    assert gs.direct_product(gs.cyclic(2), gs.cyclic(3)).is_cyclic()


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


def members_normalizer_mask(group, inside):
    # the all-members conjugation: every element against every member of H
    t = group.table
    members = np.flatnonzero(inside)
    inverse = np.nonzero(t == group.identity)[1]  # one identity per row
    return inside[t[t[:, members], inverse[:, None]]].all(axis=1)


def recorded_normalizer_masks(monkeypatch):
    # every (group, H's mask, gens, N(H)'s mask) the Sylow search computes
    calls = []
    real = gs.FiniteGroup._normalizer_mask

    def record(self, inside, gens):
        mask = real(self, inside, gens)
        calls.append((self, inside.copy(), list(gens), mask))
        return mask

    monkeypatch.setattr(gs.FiniteGroup, "_normalizer_mask", record)
    return calls


def test_generator_normalizer_matches_all_members_on_every_sylow_step(monkeypatch):
    calls = recorded_normalizer_masks(monkeypatch)
    pairs = 0
    for n in range(2, 61):
        for group in gs.catalog(n):
            for q, _ in nt.factorize(n).factors:
                sylow, normalizer = group._sylow_pair(q)
                assert set(normalizer) == naive_normalizer(group, sylow.members), (group.name, q)
                pairs += 1
    assert pairs and len(calls) >= pairs
    for group, inside, gens, mask in calls:
        assert naive_closure(group, gens) == set(np.flatnonzero(inside).tolist()), group.name
        assert np.array_equal(mask, members_normalizer_mask(group, inside)), (group.name, gens)


@pytest.mark.parametrize(
    "spec", ["dihedral:256", "dicyclic:128", "abelian:2x2x2x2x2x2x2x2x2", "cyclic:512"]
)
def test_generator_normalizer_matches_all_members_on_large_prime_powers(monkeypatch, spec):
    group = cli.parse_group_spec(spec)
    calls = recorded_normalizer_masks(monkeypatch)
    group._sylow_pair(2)
    assert calls
    for _, inside, gens, mask in calls:
        assert np.array_equal(group.generated_subgroup(gens).mask, inside), (spec, gens)
        assert np.array_equal(mask, members_normalizer_mask(group, inside)), (spec, gens)


def test_generator_normalizer_matches_all_members_on_drawn_generators():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    groups = small_groups()

    @st.composite
    def generated(draw):
        group = draw(st.sampled_from(groups))
        gens = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=3))
        return group, gens

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(generated())
    def check(drawn):
        group, gens = drawn
        sub = group.generated_subgroup(gens)
        mask = group._normalizer_mask(sub.mask, gens)
        assert np.array_equal(mask, members_normalizer_mask(group, sub.mask))
        assert set(np.flatnonzero(mask).tolist()) == naive_normalizer(group, sub.members)

    check()


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
    with pytest.raises(ValueError, match="4 is not prime"):
        c12.count_sylow(4)


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
    with pytest.raises(ValueError, match="order must be positive"):
        gs.cyclic(0)


def test_dihedral_census():
    census = Counter(gs.dihedral(4).element_orders())
    assert census[2] == 5  # four reflections plus the half turn
    with pytest.raises(ValueError, match="need m >= 1"):
        gs.dihedral(0)


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


def test_labels_are_built_when_read():
    for group in [gs.cyclic(6), gs.abelian([2, 3]), gs.dihedral(4), gs.dicyclic(2),
                  gs.symmetric(3), gs.semidirect_cyclic(gs.SemidirectSpec(7, 3, 2)),
                  gs.direct_product(gs.symmetric(3), gs.dihedral(2))]:
        assert group.labels == group.labels and group.labels is not group.labels
        assert len(group.labels) == group.order
    assert "labels" not in gs.FiniteGroup.__slots__


def test_wrong_length_labels_rejected_at_construction():
    for labels in (["e"], ["e", "x", "y"], []):
        with pytest.raises(ValueError, match="one label per element"):
            gs.FiniteGroup([[0, 1], [1, 0]], labels=labels)
    assert gs.FiniteGroup([[0, 1], [1, 0]], labels=("e", 1)).labels == ("e", "1")


def reference_extension_rows(a, b, r, c, t_major, rows):
    """Rows of the extension table in int64 with %, cell by cell formula."""
    n = a * b
    x = np.asarray(rows, dtype=np.int64)[:, None]
    y = np.arange(n, dtype=np.int64)[None, :]
    (u1, t1), (u2, t2) = [(v % a, v // a) if t_major else (v // b, v % b) for v in (x, y)]
    r_pow = np.array([r**k % a for k in range(b)], dtype=np.int64)
    new_u = (u1 + r_pow[t1] * u2 + c * (t1 + t2 >= b)) % a
    new_t = (t1 + t2) % b
    return new_u + a * new_t if t_major else new_u * b + new_t


def test_extension_table_matches_int64_reference():
    rng = random.Random(2213)
    drawn = [(a, 2, -1, a // 2, True) for a in (2, 4, 6, 10)]  # dicyclic carries
    for _ in range(300):
        a, b = rng.randint(1, 30), rng.randint(1, 8)
        r = rng.choice([-1, 0, 1, a, a + 1, 2 * a + 3, rng.randint(-3 * a, 3 * a)])
        c = rng.choice([0, 0, rng.randint(0, 2 * a)])
        drawn.append((a, b, r, c, rng.random() < 0.5))
    for a, b, r, c, t_major in drawn:
        table = gs.groups._extension_table(a, b, r, c=c, t_major=t_major)
        expected = reference_extension_rows(a, b, r, c, t_major, range(a * b))
        assert table.dtype == np.int32 and np.array_equal(table, expected), (a, b, r, c, t_major)


@pytest.mark.parametrize("args", [
    (2000, 1, 1, 0, True),     # cyclic:2000, built from its first row
    (1000, 2, -1, 500, True),  # dicyclic:500, the t-major broadcast
    (999, 2, 998, 0, False),   # sdp:999:2:998, from its first rows
    (125, 16, 57, 0, False),   # sdp:125:16:57 (57 has order 4 mod 125), from its first rows
    (15, 128, 14, 0, False),   # sdp:15:128:14, the u-major broadcast
])
def test_extension_table_matches_int64_reference_at_order_2000(args):
    # orders 1920 to 2000, compared 250 rows at a time
    table = gs.groups._extension_table(*args)
    n = args[0] * args[1]
    assert table.dtype == np.int32 and table.shape == (n, n)
    for start in range(0, n, 250):
        rows = range(start, min(start + 250, n))
        assert np.array_equal(table[rows.start:rows.stop], reference_extension_rows(*args, rows))


def reference_combined_table(t1, t2):
    """The product table by one broadcast add over (i1, i2, j1, j2), in int64."""
    n = len(t1) * len(t2)
    t1, t2 = np.asarray(t1, dtype=np.int64), np.asarray(t2, dtype=np.int64)
    return (t1[:, None, :, None] * len(t2) + t2[None, :, None, :]).reshape(n, n)


@pytest.mark.parametrize("factors", [
    ["abelian:2"] * 10, ["dihedral:3", "cyclic:4"], ["cyclic:1", "dihedral:5"],
    ["dihedral:5", "cyclic:1"], ["sym:5", "dicyclic:4"],  # the last of order 1920
])
def test_combine_tables_matches_int64_reference(factors):
    tables = [cli.parse_group_spec(spec).table for spec in factors]
    table = functools.reduce(gs.groups._combine_tables, tables)
    expected = functools.reduce(reference_combined_table, tables)
    assert table.dtype == np.int32 and np.array_equal(table, expected)


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
    assert gs.direct_product(gs.cyclic(2), gs.cyclic(3)).is_cyclic()


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
    with pytest.raises(ValueError, match=re.escape("need a, b >= 1")):
        gs.enumerate_semidirect_units(0, 2)


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


# sha256 over the lines "n:lists" for n = 1..20000, joined by newlines,
# recorded while the lists were still built by hand-written nested loops.
PINNED_INVARIANT_LISTS = "7812466a4f56dd6ffbd506e27686b1ee5e3d7fb89644243bebc22195b190dbcc"


def test_invariant_factor_lists_are_every_divisor_chain_up_to_20000():
    # the chains d1 | d2 | ... with product n and every d > 1 are one per
    # choice of a partition of each prime's exponent, so distinct valid
    # chains, as many as that product of partition counts, are all of them
    partition_count = [1] + [0] * 14  # 2^14 < 20000 < 2^15
    for part in range(1, 15):
        for k in range(part, 15):
            partition_count[k] += partition_count[k - part]
    lines = []
    for n in range(1, 20001):
        lists = gs.groups.abelian_invariant_factor_lists(n)
        assert lists[0] == [n]
        for factors in lists:
            assert math.prod(factors) == n, (n, factors)
            assert all(b % a == 0 for a, b in zip(factors, factors[1:])), (n, factors)
            assert n == 1 or factors[0] > 1, (n, factors)
        assert len(set(map(tuple, lists))) == len(lists) == math.prod(
            partition_count[a] for _, a in nt.factorize(n).factors), n
        lines.append(f"{n}:{lists}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_INVARIANT_LISTS


def test_catalog_splits_past_order_300_follow_the_divisor_rule():
    # four distinct primes each: fourteen coprime splits, in ascending a
    for n in (330, 390, 462, 510):
        expected = [
            f"sdp:{a}:{n // a}:{r}"
            for a in range(2, n) if n % a == 0 and math.gcd(a, n // a) == 1
            for r in gs.enumerate_semidirect_units(a, n // a)
        ]
        names = [g.name for g in gs.catalog(n) if g.name.startswith("sdp:")]
        assert names == expected, n


# sha256 over the lines "n:spec,spec,..." for n = 1..N, joined by newlines,
# recorded from the names of the built catalog before it was built from specs
PINNED_CATALOG_SPECS = {
    300: "f125d1305dda4c8fb2fe6fe212d2a1737063313f804e02b6e95973c2ea889399",
    2000: "f1e37d9d86ee3528faafbb54abaabfe9164c25ece5a541148f76eaff49f68cd9",
}


def test_catalog_specs_are_the_catalog_names():
    for n in range(1, 301):
        assert gs.groups.catalog_specs(n) == [g.name for g in gs.catalog(n)], n
    for limit, digest in PINNED_CATALOG_SPECS.items():
        lines = "\n".join(f"{n}:{','.join(gs.groups.catalog_specs(n))}"
                          for n in range(1, limit + 1))
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, limit


def test_catalog_specs_build_no_table_and_check_the_order_as_catalog_does(monkeypatch):
    def outcome(make, n):
        try:
            return [getattr(g, "name", g) for g in make(n)]
        except ValueError as exc:
            return type(exc), str(exc)

    for n in (0, -1, True, 2.5, np.int64(4), 2001):
        assert outcome(gs.groups.catalog_specs, n) == outcome(gs.catalog, n), n
    assert outcome(gs.catalog, np.int64(4)) == ["cyclic:4", "abelian:2x2"]

    def refuse(*args, **kwargs):
        raise AssertionError("no table may be built or factored here")

    monkeypatch.setattr(gs.groups, "_validate_table", refuse)
    assert len(gs.groups.catalog_specs(1920)) == 34
    monkeypatch.setattr(gs.groups.numtheory, "factorize", refuse)
    for make in (gs.groups.catalog_specs, gs.catalog):
        with pytest.raises(gs.OrderCapError, match="order 2001 exceeds cap 2000"):
            make(2001)


@pytest.mark.parametrize("spec, order, tables", [
    ("prod:cyclic:2000,cyclic:2000", 4000000, 1),
    ("prod:cyclic:400,dihedral:3", 2400, 1),
    ("prod:cyclic:3,abelian:2x700", 4200, 1),
    ("prod:cyclic:3,prod:cyclic:30,cyclic:30", 2700, 2),
])
def test_product_over_the_cap_builds_no_right_factor_past_it(monkeypatch, spec, order, tables):
    # the right factor is built under what the left leaves of the cap, and
    # the error still names the whole product's order
    validated = []
    validate = gs.groups._validate_table
    monkeypatch.setattr(gs.groups, "_validate_table",
                        lambda *args: validated.append(1) or validate(*args))
    with pytest.raises(gs.OrderCapError, match=f"^order {order} exceeds cap 2000$") as info:
        gs.FiniteGroup.from_spec(spec)
    assert info.value.order == order and len(validated) == tables


def test_product_names_build_their_group():
    # every name direct_product writes, nested products included, is a
    # spec that builds the same group
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.sampled_from([
        gs.cyclic(1), gs.cyclic(2), gs.cyclic(3), gs.abelian([2, 2]), gs.dihedral(3),
        gs.dicyclic(1), gs.symmetric(2), gs.alternating(3),
        gs.semidirect_cyclic(gs.SemidirectSpec(3, 2, 2)),
    ])

    @st.composite
    def trees(draw, size=4):
        """A direct product tree of at most `size` leaves: of depth at most 3."""
        if size == 1 or draw(st.booleans()):
            return draw(leaves)
        left = draw(st.integers(1, size - 1))
        return gs.direct_product(draw(trees(left)), draw(trees(size - left)))

    c2, c3, c5, c7 = (gs.cyclic(p) for p in (2, 3, 5, 7))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(trees())
    @hypothesis.example(gs.direct_product(gs.direct_product(gs.direct_product(c2, c3), c5), c7))
    @hypothesis.example(gs.direct_product(gs.direct_product(c2, gs.direct_product(c3, c5)), c7))
    def check(group):
        built = gs.FiniteGroup.from_spec(group.name)
        assert built.name == group.name
        assert built.identity == group.identity
        assert np.array_equal(built.table, group.table)

    check()


def test_product_over_the_cap_names_its_exact_order(tmp_path, monkeypatch):
    # a well-formed product over the cap, of leaves of every kind, names the
    # product of its leaves' orders and validates no table past the cap
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cap = 100
    small, large = tmp_path / "d3.json", tmp_path / "c120.json"
    small.write_text(gs.dihedral(3).to_json())
    large.write_text(gs.cyclic(120).to_json())
    leaves = ["cyclic:1", "cyclic:7", "cyclic:101", "abelian:2x3", "abelian:4x40",
              "dihedral:3", "dihedral:60", "dicyclic:2", "dicyclic:30", "sym:3", "sym:5",
              "alt:4", "alt:6", "sdp:7:3:2", "sdp:11:10:2", f"file:{small}", f"file:{large}"]
    orders = {leaf: gs.FiniteGroup.from_spec(leaf, 10**6).order for leaf in leaves}
    assert any(order > cap for order in orders.values())

    @st.composite
    def trees(draw, size=4):
        """(spec, order) of a product tree of at most `size` leaves: of depth at most 3."""
        if size == 1 or draw(st.booleans()):
            leaf = draw(st.sampled_from(leaves))
            return leaf, orders[leaf]
        left = draw(st.integers(1, size - 1))
        (first, m), (second, n) = draw(trees(left)), draw(trees(size - left))
        return f"prod:{first},{second}", m * n

    validated = []
    validate = gs.groups._validate_table

    def counted(table, identity):
        validated.append(len(table.table if isinstance(table, gs.groups._Fresh) else table))
        return validate(table, identity)

    monkeypatch.setattr(gs.groups, "_validate_table", counted)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(trees().filter(lambda tree: tree[1] > cap))
    @hypothesis.example((f"prod:prod:cyclic:7,file:{large},prod:sym:3,alt:4", 7 * 120 * 6 * 12))
    @hypothesis.example((f"prod:sdp:7:3:2,prod:file:{small},dicyclic:30", 21 * 6 * 120))
    def check(tree):
        spec, order = tree
        validated.clear()
        with pytest.raises(gs.OrderCapError) as info:
            gs.FiniteGroup.from_spec(spec, cap)
        assert info.value.order == order, spec
        assert str(info.value) == f"order {order} exceeds cap {cap}"
        assert max(validated, default=0) <= cap, (spec, validated)

    check()


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


def test_json_numpy_integers_pass_as_identity_and_declared_order():
    # one integer rule for both fields: numpy integers pass, as they do everywhere
    group = gs.FiniteGroup.from_json_dict(
        {"table": [[0]], "identity": np.int64(0), "order": np.int64(1)})
    assert (group.order, group.identity) == (1, 0)
    for field, value, message in [
        ("identity", np.float64(0), "identity must be an integer index, got"),
        ("order", np.float64(1), "declared order must be an integer, got"),
    ]:
        with pytest.raises(gs.GroupValidationError, match=message):
            gs.FiniteGroup.from_json_dict({"table": [[0]], "identity": 0, field: value})


def test_non_integer_table_rejected():
    with pytest.raises(gs.GroupValidationError):
        gs.FiniteGroup([[0.5, 1.0], [1.0, 0.0]], 0)


def test_boolean_table_entries_rejected():
    # numpy reads a list that mixes ints and bools as int64, so these would be C2 and C3
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for i, j in [(0, 0), (0, 1), (1, 0), (2, 1)]:
        for flag in (bool, np.bool_):
            table = [list(row) for row in c3]
            table[i][j] = flag(table[i][j])
            with pytest.raises(gs.GroupValidationError, match="bool"):
                gs.FiniteGroup(table, 0)
            with pytest.raises(gs.GroupValidationError, match="bool"):
                gs.FiniteGroup(tuple(map(tuple, table)), 0)
    with pytest.raises(gs.GroupValidationError, match="bool"):
        gs.FiniteGroup([[0, True], [True, 0]], 0)
    with pytest.raises(gs.GroupValidationError):
        gs.FiniteGroup([[True]], 0)  # all bools: numpy's bool dtype, not an integer one


def test_generated_subgroup_matches_naive_closure():
    for group in small_groups():
        for gens in one_or_two_generators(group):
            assert set(group.generated_subgroup(gens)) == naive_closure(group, gens), (
                group.name, gens)
    c6 = gs.cyclic(6)
    for gens in ([2, 4], [3, 3], [0, 1]):  # a generator inside what the earlier ones generate
        assert set(c6.generated_subgroup(gens)) == naive_closure(c6, gens), gens


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
            relabelled = gs.FiniteGroup(table, sigma[base.identity])
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
                gs.FiniteGroup(table, base.identity)


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


def in_row_blocks(monkeypatch, rows):
    """A `FiniteGroup` constructor whose validation runs over blocks of
    `rows` rows, so that tables smaller than one block of cells still span
    several."""
    def build(table, identity):
        monkeypatch.setattr(gs.groups, "_BLOCK_CELLS", rows * len(table))
        return gs.FiniteGroup(table, identity)

    return build


def check_intercalate_swaps(build):
    # the associativity failure must be named as the reference loop names it
    import random

    rng = random.Random(31415)
    for base in SWAP_BASES:
        for table in intercalate_swaps(base, rng, 12):
            witness = reference_associativity_witness(table, base.identity)
            assert witness is not None, base.name
            with pytest.raises(gs.NotAssociativeError) as caught:
                build(table, base.identity)
            assert caught.value.witness == witness, base.name


def test_intercalate_swaps_name_the_reference_witness():
    check_intercalate_swaps(gs.FiniteGroup)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_intercalate_swaps_name_the_reference_witness_in_row_blocks(monkeypatch, rows):
    check_intercalate_swaps(in_row_blocks(monkeypatch, rows))


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
    check_swaps_at_a_later_generator(gs.FiniteGroup)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_swap_failing_at_a_later_generator_names_the_reference_witness_in_row_blocks(
        monkeypatch, rows):
    check_swaps_at_a_later_generator(in_row_blocks(monkeypatch, rows))


def check_swaps_at_a_later_generator(build):
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
                    build(table, identity)
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


def drawn_tables(st):
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

    return tables()


def validation_outcome(build, table, identity):
    try:
        build(table, identity)
        return (None, None)
    except gs.GroupValidationError as exc:
        return (type(exc), exc.witness)


def test_validation_matches_reference_on_drawn_tables():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(drawn_tables(hypothesis.strategies))
    def check(drawn):
        table, identity = drawn
        got = validation_outcome(gs.FiniteGroup, table, identity)
        assert got == reference_validation(table, identity)

    check()


def test_validation_matches_reference_on_drawn_tables_in_row_blocks(monkeypatch):
    # every witness, a missing inverse's included, is named as the whole-table
    # reference names it when the blocks hold 1 to 3 rows
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(drawn_tables(st), st.integers(1, 3))
    def check(drawn, rows):
        table, identity = drawn
        got = validation_outcome(in_row_blocks(monkeypatch, rows), table, identity)
        assert got == reference_validation(table, identity)

    check()


def test_adopted_tables_match_reference_on_drawn_tables_in_row_blocks(monkeypatch):
    # a constructor's fresh table is checked in place, its range block by
    # block in the inverse pass: the same checks raise in the same order,
    # naming the same witnesses, as on a copied table
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(drawn_tables(st), st.integers(1, 8))
    def check(drawn, rows):
        table, identity = drawn

        def adopt(table, identity):
            monkeypatch.setattr(gs.groups, "_BLOCK_CELLS", rows * len(table))
            return gs.FiniteGroup(gs.groups._Fresh(np.array(table, dtype=np.int32)), identity)

        assert validation_outcome(adopt, table, identity) == reference_validation(table, identity)

    check()


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_missing_inverse_is_the_smallest_after_every_block(monkeypatch, rows):
    # in C_5 with 3*2 rewritten to 4, row 3 lacks the identity and so does
    # column 2; the column is known lacking only once every block is checked,
    # and the error must name 2, as the reference does, not row 3's 3
    table = gs.cyclic(5).table.tolist()
    table[3][2] = 4
    assert reference_validation(table, 0) == (gs.NoInverseError, 2)
    with pytest.raises(gs.NoInverseError) as caught:
        in_row_blocks(monkeypatch, rows)(table, 0)
    assert caught.value.witness == 2


@pytest.mark.parametrize("spec", ["dihedral:960", "cyclic:1920"])
def test_validation_allocates_no_table_beyond_the_kept_copy(spec):
    # the int32 copy is 4n^2 bytes; the row blocks' scratch fits in the
    # 2 MiB beside it, where whole-table temporaries took 3.25-4 x 4n^2
    import tracemalloc

    group = cli.parse_group_spec(spec)
    n = group.order
    tracemalloc.start()
    try:
        arr, _ = gs.groups._validate_table(group.table, group.identity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(arr, group.table)
    assert peak <= 4 * n * n + 2 * 2**20, (spec, peak)


@pytest.mark.parametrize("build, arg, size, scratch", [
    (gs.cyclic, 1920, 1920, 2), (gs.dihedral, 960, 1920, 2), (gs.dicyclic, 480, 1920, 4),
    (gs.symmetric, 6, 720, 1),
], ids=["cyclic-1920", "dihedral-960", "dicyclic-480", "symmetric-6"])
def test_constructed_group_holds_one_table(build, arg, size, scratch):
    # the table a constructor builds is validated in place and kept, so the
    # peak is that one int32 table (4n^2 bytes) and the construction's own
    # scratch of `scratch` bytes a cell: an n^2 bool mask for cyclic, the
    # u-part on half the cells for dihedral, the n^2 u-part chosen with or
    # without the carry from two such halves for dicyclic, the n^2 int8
    # gather of the images of one point for symmetric (searchsorted's intp
    # lookup runs a block of rows at a time); a copy of the table would add
    # another 4n^2
    import tracemalloc

    tracemalloc.start()
    try:
        group = build(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = group.order
    assert n == size and not group.table.flags.writeable
    assert peak <= (4 + scratch) * n * n + 2 * 2**20, (build.__name__, peak)


# --- the JSON reader against the json.loads path ---


def reference_from_json(text, cap=gs.DEFAULT_ORDER_CAP):
    """The json.loads path, which `from_json` takes for any document its
    numpy read does not decide: the reference the read must agree with."""
    return gs.FiniteGroup.from_json_dict(json.loads(text), cap)


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


def drawn_documents(st):
    """Documents of relabelled catalog groups of order <= 60, each with its
    keys in a drawn order, perhaps drawn JSON whitespace, and perhaps a
    duplicate key."""
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

    return documents()


def test_numpy_read_agrees_with_json_loads_on_drawn_documents():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(drawn_documents(hypothesis.strategies))
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
    texts.update({f"{what}, compact": text.replace(", ", ",") for what, text in texts.items()})
    for what, text in texts.items():
        assert text != good, what
        assert gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP) is None, what
        # below the cap too: the cap is checked only after json.loads has
        # read the whole document, so json.loads' own errors come first
        for cap in (gs.DEFAULT_ORDER_CAP, 5):
            read = functools.partial(gs.FiniteGroup.from_json, cap=cap)
            reference = functools.partial(reference_from_json, cap=cap)
            assert outcome(read, text) == outcome(reference, text), (what, cap)
    # under the cap, whitespace inside a number gives one more run of digits
    # than the n * n slots: the read stops at the run past them
    text = '{"identity": 0, "table": [[0, 1], [1, 0 0]]}'
    assert gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP) is None
    error = outcome(gs.FiniteGroup.from_json, text)
    assert error == outcome(reference_from_json, text)
    assert error[1].startswith("Expecting ',' delimiter"), error


# --- the JSON reader across the chunk cuts of its number read ---


def test_numpy_read_agrees_with_json_loads_across_chunk_cuts(monkeypatch):
    # the read cuts its text at the first comma at least _CHUNK_BYTES past
    # the last cut, so at 5 bytes nearly every number sits next to a cut
    hypothesis = pytest.importorskip("hypothesis")
    monkeypatch.setattr(gs.groups, "_CHUNK_BYTES", 5)
    for group in [*gs.catalog(1), *gs.catalog(2), *gs.catalog(12), gs.cyclic(101)]:
        for text in (group.to_json(), group.to_json().replace(", ", ",")):
            assert gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP) is not None
            assert outcome(gs.FiniteGroup.from_json, text) == outcome(reference_from_json, text)

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(drawn_documents(hypothesis.strategies))
    def check(text):
        assert outcome(gs.FiniteGroup.from_json, text) == outcome(reference_from_json, text)

    check()


@pytest.mark.parametrize("side", ["before", "after"])
def test_numpy_read_rejects_edits_right_at_a_chunk_cut(monkeypatch, side):
    # Each edit goes into the number just before or just after one comma,
    # and _CHUNK_BYTES is that comma's offset in the matrix text, so the
    # read's first chunk ends at it.  In C_101 row 50 holds 99 then 100.
    group = gs.cyclic(101)
    rows = [[str(x) for x in row] for row in group.table.tolist()]
    head = '{"identity": 0, "name": "cyclic:101", "order": 101, "table": '

    def document(rows, r, j=None, outside=""):
        """The compact document, and the offset in its matrix of the comma
        after slot (r, j), or after row r with the digit `outside` on
        `side` of it when j is None."""
        texts = ["[" + ",".join(row) + "]" for row in rows]
        if j is None:
            left = "[" + ",".join(texts[:r + 1]) + (outside if side == "before" else "")
            right = (outside if side == "after" else "") + ",".join(texts[r + 1:]) + "]"
        else:
            left = "[" + "".join(t + "," for t in texts[:r]) + "[" + ",".join(rows[r][:j + 1])
            right = ",".join(rows[r][j + 1:]) + "]" + "".join("," + t for t in texts[r + 1:]) + "]"
        return head + left + "," + right + "}", len(left)

    r, j = 50, 49
    assert rows[r][j:j + 2] == ["99", "100"]
    slot = (r, j) if side == "before" else (r, j + 1)
    edits = {
        "space in a number": lambda x: x[:1] + " " + x[1:],
        "leading zero": lambda x: "0" + x,
        "nineteen digits ending in the number": lambda x: "1" + x.rjust(18, "0"),
        "empty slot": lambda x: "",
    }
    texts = {"unedited": document(rows, r, j)}
    for what, edit in edits.items():
        edited = [row[:] for row in rows]
        edited[slot[0]][slot[1]] = edit(rows[slot[0]][slot[1]])
        texts[what] = document(edited, r, j)
    both = [row[:] for row in rows]
    both[r][j], both[r][j + 1] = "", "1 0"  # one run short and one too many: n * n runs
    texts["empty slot beside a space in a number"] = document(both, r, j)
    texts["digit outside a slot"] = document(rows, r, outside="7")
    for what, (text, cut) in texts.items():
        monkeypatch.setattr(gs.groups, "_CHUNK_BYTES", cut)
        read = gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP)
        assert (read is not None) == (what == "unedited"), what
        assert outcome(gs.FiniteGroup.from_json, text) == outcome(reference_from_json, text), what


@pytest.mark.parametrize("layout", [", ", ","])
def test_numpy_read_rejects_a_digit_moved_outside_its_slot(monkeypatch, layout):
    # Each edit moves one number out of its slot: between "[[", between "]]",
    # or to either side of the comma that joins two rows.  The slot it leaves
    # is empty, so the text still holds n * n runs of digits and the same
    # skeleton, and only the rule that no digit sits outside a slot rejects
    # it; read in order, the numbers would still spell C_11's table.
    group = gs.cyclic(11)
    good = group.to_json().replace(", ", layout)
    sep = layout
    edits = {  # row 0 starts with 0, row 7 with 7, and row 10 ends with 9
        "between [[": ("[[0" + sep, "[0[" + sep),
        "between ]]": (sep + "9]]", sep + "]9]"),
        "before a junction": ("]" + sep + "[7" + sep, "]7" + sep + "[" + sep),
        "after a junction": ("]" + sep + "[7" + sep, "]" + sep + "7[" + sep),
    }
    for what, (old, new) in edits.items():
        assert good.count(old) == 1, what
        text = good.replace(old, new)
        start = text.index("[", text.index('"table"'))
        # the matrix offset of the comma in the edit: the read's first chunk
        # ends there when _CHUNK_BYTES is set to it
        cut = text.index(new) + new.index(",") - start
        for chunk_bytes in (gs.groups._CHUNK_BYTES, cut):
            monkeypatch.setattr(gs.groups, "_CHUNK_BYTES", chunk_bytes)
            assert gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP) is None, what
            assert outcome(gs.FiniteGroup.from_json, text) == outcome(
                reference_from_json, text), what
            with pytest.raises(json.JSONDecodeError):
                gs.FiniteGroup.from_json(text)


def relabelled(group, seed):
    """`group` with its elements renamed by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(group.order)
    table = np.empty_like(group.table)
    table[perm[:, None], perm] = perm[group.table]
    return gs.FiniteGroup(table, int(perm[group.identity]), name=group.name)


def test_numpy_read_agrees_with_json_loads_on_large_relabelled_tables():
    # tables of several chunks each, as the graph-export benchmark reads
    # them: the order-981 one is 3.7 MB of compact text
    rng = random.Random(0)
    for spec, layout in (("sdp:109:9:16", "compact"), ("dihedral:257", "to_json"),
                         ("abelian:20x20", "drawn")):
        text = relabelled(cli.parse_group_spec(spec), 1).to_json()
        if layout == "compact":
            text = text.replace(", ", ",")
        elif layout == "drawn":  # JSON whitespace drawn around every comma
            pieces = text.split(", ")
            spaces = rng.choices([",", ", ", " ,", "\n,\t", "\r\n,  "], k=len(pieces) - 1)
            text = "".join(itertools.chain.from_iterable(zip(pieces, spaces))) + pieces[-1]
        assert gs.groups._read_square_table(text, gs.DEFAULT_ORDER_CAP) is not None, spec
        assert outcome(gs.FiniteGroup.from_json, text) == outcome(reference_from_json, text), spec
