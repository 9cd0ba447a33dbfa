import json
import random
from collections import Counter

import numpy as np
import pytest

import groupsum as gs
from groupsum import numtheory as nt
from groupsum import powergraph as pg
from groupsum import verify


# --- independent brute-force oracle ---


def naive_power_set(group, g):
    """All powers of g, by repeated multiplication (no library helpers)."""
    powers = {g}
    x = int(group.table[g, g])
    while x != g:
        powers.add(x)
        x = int(group.table[x, g])
    return frozenset(powers)


def naive_edges(group):
    n = group.order
    powers = [naive_power_set(group, g) for g in range(n)]
    directed = {
        (g, h) for g in range(n) for h in powers[g] if h != g
    }
    undirected = {
        (g, h)
        for g in range(n)
        for h in range(g + 1, n)
        if (g, h) in directed and (h, g) in directed
    }
    return directed, undirected


def test_trivial_group_has_no_edges():
    graph = pg.build(gs.cyclic(1))
    assert graph.directed_edges == frozenset()
    assert graph.undirected_edges == frozenset()


def test_c2_single_directed_edge():
    graph = pg.build(gs.cyclic(2))
    assert graph.directed_edges == {(1, 0)}
    assert pg.undirected_edge_count(graph) == 0


def test_c6_undirected_edges():
    graph = pg.build(gs.cyclic(6))
    assert pg.undirected_edge_count(graph) == 2
    assert graph.undirected_edges == {(1, 5), (2, 4)}


def test_klein_four_no_undirected():
    graph = pg.build(gs.abelian([2, 2]))
    assert pg.undirected_edge_count(graph) == 0


def test_c5_six_undirected():
    # all four generators of C5 pairwise mutual: C(4, 2) = 6
    graph = pg.build(gs.cyclic(5))
    assert pg.undirected_edge_count(graph) == 6


def test_degrees():
    graph = pg.build(gs.cyclic(6))
    assert pg.undirected_degree(graph, 0) == 0
    assert pg.undirected_degree(graph, 1) == 1
    graph5 = pg.build(gs.cyclic(5))
    assert pg.undirected_degree(graph5, 1) == 3
    with pytest.raises(IndexError):
        pg.undirected_degree(graph5, 5)


def test_degree_takes_the_groups_element_index_rule():
    graph = pg.build(gs.cyclic(6))
    for index in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="element index must be an integer"):
            pg.undirected_degree(graph, index)
    for index in (6, -1):
        with pytest.raises(IndexError, match=f"element index {index} out of range for order 6"):
            pg.undirected_degree(graph, index)
    assert pg.undirected_degree(graph, np.int64(1)) == 1


def test_edges_match_brute_force_oracle():
    for n in range(1, 41):
        for group in gs.catalog(n):
            graph = pg.build(group)
            directed, undirected = naive_edges(group)
            assert graph.directed_edges == directed
            assert graph.undirected_edges == undirected


def test_edges_match_networkx_oracle():
    nx = pytest.importorskip("networkx")
    for n in range(1, 41):
        for group in gs.catalog(n):
            graph = pg.build(group)
            digraph = nx.DiGraph()
            digraph.add_nodes_from(range(n))
            for g in range(n):
                digraph.add_edges_from((g, h) for h in naive_power_set(group, g) if h != g)
            reciprocal = {
                (g, h) for g, h in digraph.edges if g < h and digraph.has_edge(h, g)
            }
            assert set(digraph.edges) == graph.directed_edges, group.name
            assert reciprocal == graph.undirected_edges, group.name


# --- the group's memo of its cyclic subgroups ---


def relabelled(base, rng):
    """`base` with its elements renamed by a shuffle that moves the identity off 0."""
    sigma = list(range(base.order))
    while sigma[base.identity] == 0:
        rng.shuffle(sigma)
    s = np.asarray(sigma)
    table = np.empty_like(base.table)
    table[np.ix_(s, s)] = s[base.table]
    return gs.FiniteGroup(table, s[base.identity], name=f"relabelled {base.name}")


def test_cyclic_memo_matches_naive_oracle():
    groups = [group for n in range(1, 61) for group in gs.catalog(n)]
    groups += [
        gs.semidirect_cyclic(gs.SemidirectSpec(8, 2, 3)),
        gs.direct_product(gs.dihedral(3), gs.cyclic(4)),
        gs.symmetric(4),
        # many cyclic subgroups of one length
        gs.abelian([2, 2, 2, 2, 2, 2]),
        gs.abelian([3, 3, 3, 3]),
    ]
    rng = random.Random(61)
    groups += [relabelled(group, rng) for group in groups if group.order > 1]
    for group in groups:
        subgroups = [naive_power_set(group, g) for g in range(group.order)]
        smallest = {}  # <g> -> its smallest generator
        for h, sub in enumerate(subgroups):
            smallest.setdefault(sub, h)
        key, powers = group._cyclic_classes()
        assert group.element_orders() == tuple(len(sub) for sub in subgroups), group.name
        assert key == tuple(smallest[sub] for sub in subgroups), group.name
        assert powers == {k: tuple(sorted(sub)) for sub, k in smallest.items()}, group.name


def _count_walks(monkeypatch) -> Counter:
    """Count FiniteGroup.cyclic_subgroup calls by (group name, subgroup walked)."""
    walks = Counter()
    walk = gs.FiniteGroup.cyclic_subgroup

    def counted(group, g):
        powers = walk(group, g)
        walks[group.name, frozenset(powers)] += 1
        return powers

    monkeypatch.setattr(gs.FiniteGroup, "cyclic_subgroup", counted)
    return walks


def test_verify_main_walks_each_cyclic_subgroup_once(monkeypatch):
    distinct = {
        (group.name, naive_power_set(group, g)) for group in gs.catalog(48) for g in range(48)
    }
    walks = _count_walks(monkeypatch)
    assert verify.verify_main(48).passed
    assert set(walks) == distinct
    assert set(walks.values()) == {1}


def test_verify_main_reads_no_labels(monkeypatch):
    def unread(group):
        raise AssertionError(f"labels of {group.name} read")

    monkeypatch.setattr(gs.FiniteGroup, "labels", property(unread))
    with pytest.raises(AssertionError, match="labels of"):
        gs.cyclic(2).labels
    for n in (48, 210):
        assert verify.verify_main(n).passed


def test_orders_walk_nothing_and_build_and_witness_check_walk_once_each(monkeypatch):
    # the element orders come without a walk; the graph walks each cyclic
    # subgroup once, and the witness check each witness subgroup once more
    group = gs.cyclic(60)
    walks = _count_walks(monkeypatch)
    group.element_orders()
    assert not walks
    assert pg.undirected_edge_count(pg.build(group)) == (gs.phi_of_group(group) - 60) // 2
    assert set(walks.values()) == {1} and len(walks) == 12  # one per divisor of 60
    walks.clear()
    outcomes = verify.check_witnesses(group)
    assert outcomes and all(o.satisfied for o in outcomes)
    subgroups = {frozenset(naive_power_set(group, o.witness)) for o in outcomes}
    assert set(walks.values()) == {1} and {sub for _, sub in walks} == subgroups


def test_build_checks_keys_against_element_orders(monkeypatch):
    group = gs.cyclic(6)
    walks = _count_walks(monkeypatch)
    group.element_orders()  # without a walk, so the build's walk comes after
    assert not walks
    group._orders = (1,) * 6  # corrupt the cached orders the check reads
    with pytest.raises(AssertionError, match="mutual generation"):
        pg.build(group)
    assert walks


def test_build_checks_each_element_against_its_key(monkeypatch):
    group = gs.cyclic(6)
    walks = _count_walks(monkeypatch)
    group.element_orders()
    assert not walks
    # 5 shares the key 1 of <1> = <5>, but no longer the order of 1
    group._orders = (1, 6, 3, 2, 3, 3)
    with pytest.raises(AssertionError, match="mutual generation"):
        pg.build(group)
    assert walks


def test_walk_that_disagrees_with_the_stored_orders_raises(monkeypatch):
    # doubled orders: every element keeps its key's order and every power
    # of a key with its order keeps that key, but no walk has its key's order
    group = gs.cyclic(12)
    group._orders = tuple(2 * m for m in group.element_orders())
    with pytest.raises(AssertionError, match="mutual generation"):
        pg.build(group)
    # the witness check compares each walk it makes with the witness's order
    walk = gs.FiniteGroup.cyclic_subgroup
    monkeypatch.setattr(gs.FiniteGroup, "cyclic_subgroup", lambda group, g: walk(group, g)[1:])
    with pytest.raises(AssertionError, match="not its order"):
        verify.check_witnesses(gs.cyclic(12))


def test_edge_count_identity_over_catalog():
    for n in range(1, 41):
        for group in gs.catalog(n):
            graph = pg.build(group)
            count = pg.undirected_edge_count(graph)
            assert 2 * count + n == gs.phi_of_group(group)


def test_directed_count_is_sum_of_orders_minus_one():
    groups = [gs.cyclic(12), gs.symmetric(3), gs.dicyclic(3), gs.alternating(4)]
    for group in groups + [g for n in range(1, 61) for g in gs.catalog(n)]:
        directed = pg.build(group).directed_edges
        n, psi = group.order, sum(group.element_orders())
        assert len(directed) == psi - n, group.name
        # the paper's application: an undirected edge is two opposite directed
        # ones, so the pairs {x, y} joined either way number psi - n - (phi - n)/2
        pairs = {frozenset(edge) for edge in directed}
        assert len(pairs) == psi - n - (gs.phi_of_group(group) - n) // 2, group.name


def test_degree_law_over_catalog():
    for n in range(1, 31):
        for group in gs.catalog(n):
            graph = pg.build(group)
            orders = group.element_orders()
            for g in range(n):
                assert pg.undirected_degree(graph, g) == nt.totient(orders[g]) - 1


# --- exports ---


def test_dot_export_c2():
    text = pg.export_dot(pg.build(gs.cyclic(2)))
    assert text == (
        'digraph "cyclic:2" {\n'
        '  0 [label="0"];\n'
        '  1 [label="1"];\n'
        "  1 -> 0;\n"
        "}\n"
    )


def test_dot_export_trivial():
    text = pg.export_dot(pg.build(gs.cyclic(1)))
    assert "->" not in text
    assert '0 [label="0"];' in text


def test_dot_export_escapes_quotes_and_backslashes():
    group = gs.FiniteGroup([[0, 1], [1, 0]], name='a"b\\c', labels=['e"', "x\\"])
    text = pg.export_dot(pg.build(group))
    assert text == (
        'digraph "a\\"b\\\\c" {\n'
        '  0 [label="e\\""];\n'
        '  1 [label="x\\\\"];\n'
        "  1 -> 0;\n"
        "}\n"
    )


def test_json_export_shape():
    data = json.loads(pg.export_json(pg.build(gs.cyclic(6))))
    assert set(data) == {"group", "n", "directed", "undirected"}
    assert data["group"] == "cyclic:6"
    assert data["n"] == 6
    assert len(data["undirected"]) == 2
    assert data["directed"] == sorted(data["directed"])


def test_json_round_trip():
    for group in [gs.cyclic(8), gs.dihedral(4), gs.alternating(4)]:
        graph = pg.build(group)
        parsed = json.loads(pg.export_json(graph))
        assert {tuple(e) for e in parsed["directed"]} == graph.directed_edges
        assert {tuple(e) for e in parsed["undirected"]} == graph.undirected_edges
        assert parsed["n"] == group.order


def test_json_export_escapes_name():
    for name in ['a"b', "back\\slash", "new\nline", "tab\there", "café", "ctrl\x01"]:
        graph = pg.build(gs.FiniteGroup(gs.cyclic(6).table.tolist(), name=name))
        expected = json.dumps(
            {
                "group": name,
                "n": 6,
                "directed": sorted(graph.directed_edges),
                "undirected": sorted(graph.undirected_edges),
            },
            sort_keys=True,
        )
        assert pg.export_json(graph) == expected, name


def test_exports_match_text_rebuilt_from_oracle():
    for n in range(1, 41):
        for group in gs.catalog(n):
            graph = pg.build(group)
            directed, undirected = naive_edges(group)
            dot = [f'digraph "{group.name}" {{']
            dot += [f'  {g} [label="{group.labels[g]}"];' for g in range(n)]
            dot += [f"  {g} -> {h};" for g, h in sorted(directed)]
            assert pg.export_dot(graph) == "\n".join(dot + ["}"]) + "\n", group.name
            expected_json = json.dumps(
                {
                    "group": group.name,
                    "n": n,
                    "directed": sorted(list(e) for e in directed),
                    "undirected": sorted(list(e) for e in undirected),
                },
                sort_keys=True,
            )
            assert pg.export_json(graph) == expected_json, group.name


def test_exports_are_byte_stable():
    g = gs.dicyclic(3)
    assert pg.export_json(pg.build(g)) == pg.export_json(pg.build(g))
    assert pg.export_dot(pg.build(g)) == pg.export_dot(pg.build(g))
