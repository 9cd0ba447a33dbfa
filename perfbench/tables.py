"""Cayley tables made by the benchmark itself, independently of groupsum.

graph-export feeds these tables to the program as JSON group files, and the
output checks use them again to count power-graph edges from element
orders. Every table is relabelled by a seeded permutation, so the program
sees a table whose identity and element order it has never built itself.
"""

from __future__ import annotations

import math

import numpy as np


def _cyclic(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _product(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    n1, n2 = t1.shape[0], t2.shape[0]
    return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)


def _dihedral(m: int) -> np.ndarray:
    # element r + m*s is rotation^r * flip^s
    r = np.arange(m)
    out = np.empty((2, m, 2, m), dtype=np.int64)
    for s1 in (0, 1):
        for s2 in (0, 1):
            rot = (r[:, None] - r[None, :]) if s1 else (r[:, None] + r[None, :])
            out[s1, :, s2, :] = rot % m + m * (s1 ^ s2)
    return out.reshape(2 * m, 2 * m)


def _dicyclic(m: int) -> np.ndarray:
    # element r + 2m*s is a^r * b^s, with b^2 = a^m and b a b^-1 = a^-1
    two_m = 2 * m
    r = np.arange(two_m)
    out = np.empty((2, two_m, 2, two_m), dtype=np.int64)
    for s1 in (0, 1):
        for s2 in (0, 1):
            rot = (r[:, None] - r[None, :]) if s1 else (r[:, None] + r[None, :])
            if s1 and s2:
                out[s1, :, s2, :] = (rot + m) % two_m
            else:
                out[s1, :, s2, :] = rot % two_m + two_m * (s1 ^ s2)
    return out.reshape(2 * two_m, 2 * two_m)


def _semidirect(a: int, b: int, r: int) -> np.ndarray:
    # (u1, t1)(u2, t2) = (u1 + r^t1 u2 mod a, t1 + t2 mod b), indexed u*b + t
    r_pow = np.array([pow(r, t, a) for t in range(b)], dtype=np.int64)
    u1, t1, u2, t2 = np.ix_(np.arange(a), np.arange(b), np.arange(a), np.arange(b))
    return (((u1 + r_pow[t1] * u2) % a) * b + (t1 + t2) % b).reshape(a * b, a * b)


def base_table(family: str, params: list) -> np.ndarray:
    """Multiplication table of a named family, identity at index 0."""
    if family == "cyclic":
        return _cyclic(params[0])
    if family == "abelian":
        table = np.zeros((1, 1), dtype=np.int64)
        for d in params:
            table = _product(table, _cyclic(d))
        return table
    if family == "dihedral":
        return _dihedral(params[0])
    if family == "dicyclic":
        return _dicyclic(params[0])
    if family == "sdp":
        return _semidirect(*params)
    if family == "prod":
        return _product(base_table(*params[0]), base_table(*params[1]))
    raise ValueError(f"unknown family {family!r}")


def relabelled(family: str, params: list, perm_seed: int) -> tuple[np.ndarray, int]:
    """The family's table under a seeded relabelling, and its identity."""
    base = base_table(family, params)
    perm = np.random.default_rng(perm_seed).permutation(base.shape[0])
    table = np.empty_like(base)
    table[perm[:, None], perm[None, :]] = perm[base]
    return table, int(perm[0])


def write_group_json(path, name: str, table: np.ndarray, identity: int) -> None:
    """Write the groupsum wire format one row at a time (small peak memory)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"name": "{name}", "order": {table.shape[0]}, '
                     f'"identity": {identity}, "table": [')
        for i, row in enumerate(table):
            handle.write(("," if i else "") + "[" + ",".join(map(str, row.tolist())) + "]")
        handle.write("]}")


def element_orders(table: np.ndarray, identity: int) -> np.ndarray:
    """Order of every element, by repeated right multiplication."""
    n = table.shape[0]
    g = np.arange(n)
    x = g.copy()
    orders = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        hit = (x == identity) & (orders == 0)
        orders[hit] = k
        if (orders > 0).all():
            return orders
        x = table[x, g]
        k += 1


def totient(m: int) -> int:
    result, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def edge_counts(table: np.ndarray, identity: int) -> tuple[int, int]:
    """Directed and undirected power-graph edge counts from element orders:
    sum of (o(g) - 1), and (sum of phi(o(g)) - n) / 2."""
    orders = element_orders(table, identity).tolist()
    phis = {o: totient(o) for o in set(orders)}
    directed = sum(o - 1 for o in orders)
    undirected = (sum(phis[o] for o in orders) - len(orders)) // 2
    return directed, undirected


def units(a: int, b: int) -> list[int]:
    """Nontrivial r with gcd(r, a) = 1 and r^b = 1 (mod a)."""
    return [r for r in range(2, a) if math.gcd(r, a) == 1 and pow(r, b, a) == 1]
