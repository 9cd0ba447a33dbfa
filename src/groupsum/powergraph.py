"""Directed power graphs of finite groups, and their undirected edge sets.

The directed power graph has an edge (g, h) whenever h is a power of g
other than g itself.  A pair of opposite edges ("undirected edge") joins
exactly two distinct elements generating the same cyclic subgroup, so a
graph is held as one key per element, the smallest generator of its cyclic
subgroup; edges, counts, degrees and exports are derived from the keys.
The keys and each key's subgroup come from the group's memo of its cyclic
subgroups, which walks each of them once; a group whose orders are not yet
known reads them off that walk.
The exports write one block of text per element: the decimal name of each
element is made once per graph, and an element's out-neighbours (its cyclic
subgroup without it) or its undirected partners above it (the rest of its
key class) are joined into that block with one `str.join`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from typing import FrozenSet, Iterator, Sequence, Tuple

from .groups import FiniteGroup

Edge = Tuple[int, int]


class PowerGraph:
    """Immutable directed power graph over a group's element indices:
    `key[g]` is the smallest generator of <g>, `powers[k]` lists <k> ascending.
    Both are the group's memo of its cyclic subgroups, not copies of it."""

    __slots__ = ("group", "key", "powers")

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.key, self.powers = group._cyclic_classes()

    def _out_neighbours(self, names: Sequence) -> Iterator[Tuple[int, list]]:
        """Yield (g, [names[h] for each out-neighbour h of g]) for g ascending;
        the out-neighbours of g are <g> without g, ascending."""
        powers = self.powers
        named = {k: [names[h] for h in members] for k, members in powers.items()}
        for g, k in enumerate(self.key):
            i = bisect_left(powers[k], g)
            yield g, named[k][:i] + named[k][i + 1:]

    def _partners(self, names: Sequence) -> Iterator[Tuple[int, list]]:
        """Yield (g, [names[h] for each h > g with key[h] = key[g]]) for g
        ascending: the undirected neighbours of g above g, ascending."""
        classes = {}
        for g, k in enumerate(self.key):
            classes.setdefault(k, []).append(names[g])
        seen = Counter()
        for g, k in enumerate(self.key):
            seen[k] += 1
            yield g, classes[k][seen[k]:]

    @property
    def directed_edges(self) -> FrozenSet[Edge]:
        """Pairs (g, h) with h a power of g other than g."""
        return frozenset(
            (g, h) for g, hs in self._out_neighbours(range(self.group.order)) for h in hs
        )

    @property
    def undirected_edges(self) -> FrozenSet[Edge]:
        """Unordered pairs {g, h}, g < h, with both (g, h) and (h, g) directed."""
        return frozenset(
            (g, h) for g, hs in self._partners(range(self.group.order)) for h in hs
        )


def build(group: FiniteGroup) -> PowerGraph:
    """Construct the directed power graph of a group, one cyclic subgroup per
    key, and check the keys against mutual generation: for h in <k>, k lies
    in <h> exactly when o(h) = o(k) (Lagrange), and exactly then must h have
    key k.  Every element lies in its key's subgroup, so two clauses check
    this once per key class, at cost the sum of |<k>| over the keys: every
    element has the order of its key, and every power of a key k with the
    order of k has key k.  A third checks the walk against the orders when
    they were computed without it: each key's subgroup has the key's order."""
    graph = PowerGraph(group)
    orders, key = group.element_orders(), graph.key
    if tuple(map(orders.__getitem__, key)) != orders or any(
        key[h] != k or len(powers) != orders[k]
        for k, powers in graph.powers.items()
        for h in powers
        if orders[h] == orders[k]
    ):
        raise AssertionError(
            f"undirected edges disagree with mutual generation in {group.name}"
        )
    return graph


def undirected_edge_count(graph: PowerGraph) -> int:
    """Number of undirected edges; equals (phi(G) - |G|) / 2, asserted."""
    count = sum(math.comb(size, 2) for size in Counter(graph.key).values())
    n = graph.group.order
    phi_g = graph.group.phi()
    if 2 * count + n != phi_g:
        raise AssertionError(
            f"{graph.group.name}: 2*{count} + {n} != totient sum {phi_g}"
        )
    return count


def undirected_degree(graph: PowerGraph, g: int) -> int:
    """Undirected degree of g; equals phi(order(g)) - 1, asserted.  The
    group checks g, as it does every element index."""
    expected = graph.group.order_totients()[graph.group.element_order(g)] - 1
    degree = graph.key.count(graph.key[g]) - 1
    if degree != expected:
        raise AssertionError(
            f"{graph.group.name}: degree of {g} is {degree}, expected {expected}"
        )
    return degree


def _dot_string(text: str) -> str:
    """Escape backslashes and double quotes for a quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: PowerGraph) -> str:
    """Graphviz digraph; one node line per element, one '->' line per
    directed edge, in ascending index order (byte-stable).  The group name
    and the labels are escaped as quoted DOT strings.  Each element's edge
    lines are written as one block."""
    group = graph.group
    names = [str(g) for g in range(group.order)]
    parts = [f'digraph "{_dot_string(group.name)}" {{\n']
    parts += [
        f'  {g} [label="{_dot_string(label)}"];\n' for g, label in enumerate(group.labels)
    ]
    for g, heads in graph._out_neighbours(names):
        if heads:
            lead = f"  {g} -> "
            parts.append(lead + (";\n" + lead).join(heads) + ";\n")
    parts.append("}\n")
    return "".join(parts)


def _json_pairs(blocks: Iterator[Tuple[int, list]]) -> str:
    """The pairs [g, h] of a JSON list, ", "-separated, one block per g."""
    return ", ".join(f"[{g}, " + f"], [{g}, ".join(hs) + "]" for g, hs in blocks if hs)


def export_json(graph: PowerGraph) -> str:
    """JSON edge lists, pairs sorted ascending for byte-stable output: the
    text of `json.dumps(payload, sort_keys=True)`, written directly."""
    group = graph.group
    names = [str(g) for g in range(group.order)]
    return (
        f'{{"directed": [{_json_pairs(graph._out_neighbours(names))}], '
        f'"group": {json.dumps(group.name)}, "n": {group.order}, '
        f'"undirected": [{_json_pairs(graph._partners(names))}]}}'
    )
