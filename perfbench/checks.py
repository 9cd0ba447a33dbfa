"""Output checks, run in the parent after the child has ended.

Each check returns None when an item's stdout is right and a reason when it
is not. Expected values come from sympy's factorizations and from the
benchmark's own tables, never from groupsum.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import sympy

import tables

VERIFY_COLUMNS = ["n", "group", "phi_G", "is_cyclic", "undirected_edges", "verdict",
                  "phi_cyclic", "max_phi_order", "witnesses"]
SWEEP_KEYS = {"table-1", "eq5-two-forms", "eq6-lower-bound", "lem-2.4i", "lem-2.4ii",
              "lem-2.6", "phi-divisibility", "phi-multiplicativity"}


def phi_cyclic(n: int) -> int:
    """Sum of phi(d)^2 over the divisors d of n, one prime power at a time."""
    total = 1
    for p, a in sympy.factorint(n).items():
        total *= 1 + sum((p ** (j - 1) * (p - 1)) ** 2 for j in range(1, a + 1))
    return total


def q_text(n: int) -> str:
    q = Fraction(1)
    for p in sympy.factorint(n):
        q *= Fraction(p + 1, p - 1)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def spec_order(spec: str) -> int:
    kind, _, rest = spec.partition(":")
    if kind == "cyclic":
        return int(rest)
    if kind == "abelian":
        return math.prod(int(d) for d in rest.split("x"))
    if kind == "dihedral":
        return 2 * int(rest)
    if kind == "dicyclic":
        return 4 * int(rest)
    if kind == "sym":
        return math.factorial(int(rest))
    if kind == "alt":
        return math.factorial(int(rest)) // 2
    if kind == "sdp":
        a, b, _ = rest.split(":")
        return int(a) * int(b)
    if kind == "prod":
        left, right = rest.split(",")
        return spec_order(left) * spec_order(right)
    raise ValueError(f"unknown spec {spec!r}")


def check_verify_main(text: str, n: int) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != VERIFY_COLUMNS:
        return "missing CSV header"
    expected = phi_cyclic(n)
    found_cyclic = False
    for row in rows[1:]:
        record = dict(zip(VERIFY_COLUMNS, row))
        phi_g = int(record["phi_G"])
        if int(record["n"]) != n or record["verdict"] != "pass":
            return f"row {row}: wrong order or failed verdict"
        if int(record["phi_cyclic"]) != expected or phi_g > expected:
            return f"row {row}: phi(C_n) is {expected}"
        if (record["is_cyclic"] == "true") != (phi_g == expected):
            return f"row {row}: cyclicity disagrees with the totient sum"
        if 2 * int(record["undirected_edges"]) != phi_g - n:
            return f"row {row}: edge count is not (phi_G - n) / 2"
        found_cyclic |= record["group"] == f"cyclic:{n}"
    return None if found_cyclic else "no cyclic row"


def check_criterion(text: str, spec: str) -> str | None:
    data = json.loads(text)
    n = spec_order(spec)
    if data["group"] != spec or data["n"] != n:
        return f"group {data['group']!r} of order {data['n']}, expected {spec!r} of order {n}"
    if not all(v["passed"] for v in data["verdicts"].values()):
        return "a verdict failed"
    if n > 1:
        p, a = max(sympy.factorint(n).items())
        for w in data["witnesses"]:
            if not w["satisfied"] or (w["sylow_prime"], w["sylow_order"]) != (p, p ** a):
                return f"witness {w['element']}: wrong Sylow-{p} subgroup or unsatisfied"
    return None


def check_sweep(text: str, limit: int) -> str | None:
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    if set(lines) != SWEEP_KEYS or not all(v.startswith("pass") for v in lines.values()):
        return "missing or failing sweep verdicts"
    if lines["eq5-two-forms"] != f"pass ({limit} values checked up to {limit})":
        return "eq5 did not check every value"
    return None


def graph_expectation(spec: dict) -> tuple[str, int, int, int]:
    table, identity = tables.relabelled(spec["family"], spec["params"], spec["perm_seed"])
    directed, undirected = tables.edge_counts(table, identity)
    return spec["name"], table.shape[0], directed, undirected


def check_graph_dot(text: str, expected: tuple) -> str | None:
    name, n, directed, _ = expected
    lines = text.splitlines()
    if lines[0] != f'digraph "{name}" {{' or lines[-1] != "}":
        return "not a digraph of the expected group"
    nodes = sum(1 for line in lines if line.endswith('"];'))
    edges = sum(1 for line in lines if " -> " in line)
    if (nodes, edges) != (n, directed):
        return f"{nodes} nodes and {edges} edges, expected {n} and {directed}"
    return None


def check_graph_json(text: str, expected: tuple) -> str | None:
    name, n, directed, undirected = expected
    data = json.loads(text)
    got = (data["group"], data["n"], len(data["directed"]), len(data["undirected"]))
    return None if got == expected else f"got {got}, expected {expected}"


def check_item(item: dict, text: str, graph_expected: list) -> str | None:
    check = item["check"]
    kind = check["kind"]
    try:
        if kind == "verify-main":
            return check_verify_main(text, check["n"])
        if kind == "criterion":
            return check_criterion(text, check["spec"])
        if kind == "q":
            return None if text == q_text(check["n"]) + "\n" else "wrong Q"
        if kind == "phi":
            return None if text == f"{phi_cyclic(check['n'])}\n" else "wrong phi(C_n)"
        if kind == "sweep":
            return check_sweep(text, check["limit"])
        if kind == "graph-dot":
            return check_graph_dot(text, graph_expected[check["file"]])
        if kind == "graph-json":
            return check_graph_json(text, graph_expected[check["file"]])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    raise ValueError(f"no check for item kind {kind!r}")
