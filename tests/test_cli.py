import argparse
import ast
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # the module is POSIX-only
    resource = None

import groupsum as gs
from groupsum import cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- phi ---


def test_phi_cyclic_16(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "cyclic:16")
    assert code == 0 and out == "86\n"


def test_phi_by_n(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "16")
    assert code == 0 and out == "86\n"


def test_phi_of_a_highly_composite_n_lists_no_divisors(capsys):
    # 7,096,320 divisors: the sum is taken one prime power at a time
    n = 67006300653005242387098240000
    expected = 141709693259111404075505308508913228442411024531518693750
    assert gs.numtheory.phi_cyclic_sum(n) == expected == gs.numtheory.phi_cyclic_product(n)
    code, out, _ = run_cli(capsys, "phi", "--n", str(n))
    assert code == 0 and out == f"{expected}\n"


def test_phi_json(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "alt:4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"group": "alt:4", "phi": 20}


def test_phi_needs_exactly_one_source(capsys):
    code, out, err = run_cli(capsys, "phi", "--group", "cyclic:4", "--n", "4")
    assert code == 2 and "error" in err
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "groupsum phi: error: argument --n: not allowed with argument --group")
    code, out, err = run_cli(capsys, "phi")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "groupsum phi: error: one of the arguments --group --n is required")


# --- q ---


def test_q_reduced_fraction(capsys):
    code, out, _ = run_cli(capsys, "q", "--n", "2310")
    assert code == 0 and out == "72/5\n"


def test_q_integer_without_denominator(capsys):
    code, out, _ = run_cli(capsys, "q", "--n", "12")
    assert code == 0 and out == "6\n"


def test_q_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "q", "--n", "0")
    assert code == 2 and "error" in err


# --- graph ---


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--group", "cyclic:2")
    assert code == 0
    assert "  1 -> 0;" in out
    assert out.count("->") == 1


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--group", "cyclic:6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6 and len(data["undirected"]) == 2


def test_graph_to_file(tmp_path, capsys):
    path = tmp_path / "graph.dot"
    code, out, _ = run_cli(capsys, "graph", "--group", "cyclic:3", "--out", str(path))
    assert code == 0 and out == ""
    assert "digraph" in path.read_text()


def test_out_to_a_path_that_cannot_be_written_is_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing" / "x.txt"):
        for argv in (["q", "--n", "5"], ["graph", "--group", "cyclic:3"]):
            code, out, err = run_cli(capsys, *argv, "--out", str(path))
            assert (code, out) == (2, ""), (argv, path)
            assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# --- group specs ---


def test_prod_spec(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "prod:cyclic:4,cyclic:4")
    assert code == 0 and out == "28\n"


def test_nested_prod_spec(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "prod:cyclic:2,prod:cyclic:3,cyclic:5")
    assert code == 0 and out == f"{gs.phi_cyclic_sum(30)}\n"
    # names direct_product writes, with a product nested in the left factor
    for spec in ["prod:prod:prod:cyclic:2,cyclic:3,cyclic:5,cyclic:7",
                 "prod:prod:cyclic:2,prod:cyclic:3,cyclic:5,cyclic:7"]:
        assert run_cli(capsys, "phi", "--group", spec) == (0, "6290\n", ""), spec
        code, out, _ = run_cli(capsys, "criterion", "--group", spec, "--format", "json")
        assert json.loads(out)["group"] == spec, spec


def test_file_path_with_a_comma_inside_a_product(tmp_path, capsys):
    # a piece that starts no kind continues the path of the file: spec before it
    folder = tmp_path / "x"
    folder.mkdir()
    path = folder / "a,b.json"
    path.write_text(gs.cyclic(3).to_json())
    for spec, phi in [(f"prod:file:{path},cyclic:2", 10),
                      (f"prod:prod:file:{path},cyclic:2,cyclic:5", 170)]:
        assert run_cli(capsys, "phi", "--group", spec) == (0, f"{phi}\n", ""), spec


def test_unknown_kind_inside_a_product_is_named(capsys):
    for spec in ["prod:cyclic:2,nonsense:4", "prod:nonsense:4,cyclic:2"]:
        assert run_cli(capsys, "phi", "--group", spec) == (
            2, "", "error: bad group spec 'nonsense:4': unknown group spec kind 'nonsense'\n"
        ), spec


def test_sdp_spec(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "sdp:3:2:2")
    assert code == 0 and out == "8\n"


def test_each_spec_kind(capsys):
    for spec, phi in [
        ("abelian:2x6", 20),
        ("dihedral:6", 16),
        ("dicyclic:3", 22),
        ("sym:4", gs.symmetric(4).phi()),
        ("alt:5", gs.alternating(5).phi()),
    ]:
        code, out, _ = run_cli(capsys, "phi", "--group", spec)
        assert code == 0 and out == f"{phi}\n", spec


def test_file_spec_round_trip(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(gs.dicyclic(2).to_json())
    code, out, _ = run_cli(capsys, "phi", "--group", f"file:{path}")
    assert code == 0 and out == f"{gs.dicyclic(2).phi()}\n"


def test_file_spec_reads_a_bounded_prefix(tmp_path, capsys):
    # at --cap 4 a file: spec holds at most 16 * 4**2 + 2**20 characters
    limit = 16 * 4**2 + 2**20
    document = gs.cyclic(2).to_json()
    path = tmp_path / "padded.json"
    spec = f"file:{path}"
    for padding, code in [(limit - len(document), 0), (limit - len(document) + 1, 2),
                          (8 * 2**20, 2)]:
        path.write_text(document + " " * padding)
        expected = (code, f"{gs.cyclic(2).phi()}\n", "") if code == 0 else (
            code, "", f"error: bad group spec {spec!r}: longer than {limit} characters\n")
        assert run_cli(capsys, "phi", "--group", spec, "--cap", "4") == expected, padding


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_group_file_is_usage_error():
    # in a child whose address space is capped, so an unbounded read fails fast
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))"
    result = subprocess.run(
        [sys.executable, "-c", f"{limit}\nfrom groupsum import cli\nraise SystemExit("
         "cli.run(['phi', '--group', 'file:/dev/zero', '--cap', '4']))"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: bad group spec 'file:/dev/zero': longer than ")


def test_malformed_group_files(tmp_path, capsys):
    table = [[0, 1], [1, 0]]
    payloads = [
        {"name": "x", "order": 2, "identity": "0", "table": table},
        {"name": "x", "order": 2, "identity": 0.0, "table": table},
        [table],
        {"name": "x", "order": True, "identity": 0, "table": [[0]]},
        {"name": "x", "order": 1.0, "identity": 0, "table": [[0]]},
        {"name": "x", "order": "2", "identity": 0, "table": table},
        {"name": "x", "order": 2, "identity": 0, "table": [[0, 1], [1]]},
        {"name": "x", "order": 2, "identity": 0, "table": [[0, True], [True, 0]]},
        {"name": "x", "order": 2, "identity": 0, "table": [[False, 1], [1, 0]]},
    ] + [
        {"name": name, "order": 2, "identity": 0, "table": table}
        for name in (5, None, ["a"], True)
    ]
    for i, payload in enumerate(payloads):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(payload))
        for argv in (["phi"], ["criterion"], ["graph"], ["graph", "--format", "json"]):
            code, out, err = run_cli(capsys, *argv, "--group", f"file:{path}")
            assert code == 2 and out == "", (payload, argv)
            assert "error" in err


def test_deeply_nested_group_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"identity": 0, "table": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, "phi", "--group", f"file:{path}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad group spec 'file:{path}': maximum recursion depth")


def test_graph_dot_escapes_group_name_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"name": 'a"b', "order": 2, "identity": 0,
                                "table": [[0, 1], [1, 0]]}))
    code, out, _ = run_cli(capsys, "graph", "--group", f"file:{path}")
    assert code == 0
    assert out.splitlines()[0] == 'digraph "a\\"b" {'


def test_malformed_specs(capsys):
    # spec integers are ASCII digits with an optional minus sign, nothing else
    for spec in ["nonsense:4", "cyclic:x", "sdp:3:2", "abelian:", "file:/no/such.json",
                 "cyclic:\u0663", "cyclic: 4", "cyclic:4 ", "cyclic:1_0", "cyclic:+4",
                 "abelian:2x\uff13", "dihedral:1_0", "sdp:5:4:+1", "prod:cyclic:2,cyclic: 3",
                 "abelian:2x", "prod:cyclic:2", "prod:cyclic:2,abelian:2x", "prod:sym:3,sdp:3:2"]:
        code, out, err = run_cli(capsys, "phi", "--group", spec)
        assert code == 2, spec
        assert out == "" and "error" in err and "Traceback" not in err, spec
        # every error names the innermost piece of the spec at fault
        named = re.match(r"error: bad group spec ('.*?'): ", err)
        assert named and err.count("\n") == 1, (spec, err)
        assert ast.literal_eval(named.group(1)) in spec, (spec, err)


def test_each_spec_kind_error_line(capsys):
    # one malformed spec per kind, and its whole error line
    lines = {
        "cyclic:x": "bad group spec 'cyclic:x': not an integer: 'x'",
        "cyclic:0": "bad group spec 'cyclic:0': order must be positive",
        "abelian:2x": "bad group spec 'abelian:2x': not an integer: ''",
        "abelian:0x2": "bad group spec 'abelian:0x2': need positive cyclic factors",
        "dihedral:0": "bad group spec 'dihedral:0': need m >= 1",
        "dicyclic:-1": "bad group spec 'dicyclic:-1': need m >= 1",
        "sym:7": "bad group spec 'sym:7': supported for 1 <= k <= 6",
        "alt:0": "bad group spec 'alt:0': supported for 1 <= k <= 6",
        "sdp:1:2": "bad group spec 'sdp:1:2': sdp spec needs A:B:R",
        "sdp:4:2:3:1": "bad group spec 'sdp:4:2:3:1': sdp spec needs A:B:R",
        "sdp:4:2:2": "bad group spec 'sdp:4:2:2': r=2 is not a unit modulo 4",
        "file:/nonexistent.json": "bad group spec 'file:/nonexistent.json': "
                                  "[Errno 2] No such file or directory: '/nonexistent.json'",
        "nonsense:4": "bad group spec 'nonsense:4': unknown group spec kind 'nonsense'",
        "prod:cyclic:2": "bad group spec 'prod:cyclic:2': prod spec needs two comma-separated specs",
        "cyclic:3000": "order 3000 exceeds cap 2000",
    }
    for spec, line in lines.items():
        assert run_cli(capsys, "phi", "--group", spec) == (2, "", f"error: {line}\n"), spec


@pytest.mark.parametrize("spec", [
    "prod:cyclic:3,prod:cyclic:1000,cyclic:2",
    "prod:cyclic:3000,cyclic:2",
    "prod:prod:cyclic:3,cyclic:1000,cyclic:2",
])
def test_product_over_the_cap_names_its_whole_order(capsys, spec):
    # whichever factor meets the cap, the error names the product's order
    with pytest.raises(gs.OrderCapError) as info:
        gs.FiniteGroup.from_spec(spec)
    assert info.value.order == 6000
    assert run_cli(capsys, "phi", "--group", spec) == (
        2, "", "error: order 6000 exceeds cap 2000\n")


def test_product_over_the_cap_reads_each_kind_order_from_its_text(tmp_path, capsys):
    # the left factor meets the cap, so the right one is checked under cap 0:
    # its own cap check names its group's exact order before any table is built
    path = tmp_path / "c2.json"
    path.write_text(gs.cyclic(2).to_json())
    for spec in ["cyclic:5", "abelian:2x3x3", "dihedral:4", "dicyclic:3", "sym:1", "sym:4",
                 "alt:1", "alt:2", "alt:4", "sdp:7:3:2", "sdp:1:1:5", "prod:cyclic:2,dihedral:3",
                 "prod:prod:cyclic:2,cyclic:3,sdp:5:4:-1"]:
        order = 3000 * gs.FiniteGroup.from_spec(spec).order
        with pytest.raises(gs.OrderCapError) as info:
            gs.FiniteGroup.from_spec(f"prod:cyclic:3000,{spec}")
        assert info.value.order == order, spec
    # a file: factor is read under cap 0, and a product reads its factors left
    # to right up to its first malformed one
    for spec, order in [(f"file:{path}", 6000), ("prod:cyclic:2,cyclic:x", 6000),
                        (f"prod:file:{path},cyclic:2", 12000)]:
        with pytest.raises(gs.OrderCapError) as info:
            gs.FiniteGroup.from_spec(f"prod:cyclic:3000,{spec}")
        assert info.value.order == order, spec
        assert run_cli(capsys, "phi", "--group", f"prod:cyclic:3000,{spec}") == (
            2, "", f"error: order {order} exceeds cap 2000\n"), spec
    # a malformed right factor names no order: the error names the order met
    # so far; sym:1000000000 is never factorialled
    for spec in ["sdp:x", "cyclic:0", "abelian:-2x-3", "dihedral:-1", "sdp:-2:-3:1",
                 "sym:1000000000", "alt:7", "nonsense:4", "sdp:4:2:2", "prod:cyclic:2"]:
        with pytest.raises(gs.OrderCapError) as info:
            gs.FiniteGroup.from_spec(f"prod:cyclic:3000,{spec}")
        assert info.value.order == 3000, spec
        assert run_cli(capsys, "phi", "--group", f"prod:cyclic:3000,{spec}") == (
            2, "", "error: order 3000 exceeds cap 2000\n"), spec
    # a right factor past what the left leaves: the product of the left
    # factor's order and the right factor's, from the right factor's cap check
    for spec, order in [(f"prod:file:{path},cyclic:1000", 3 * 2 * 1000),
                        ("prod:cyclic:1000,cyclic:1000", 3 * 1000 * 1000)]:
        with pytest.raises(gs.OrderCapError) as info:
            gs.FiniteGroup.from_spec(f"prod:cyclic:3,{spec}")
        assert info.value.order == order, spec


def test_order_past_the_int_string_limit_is_named_by_its_digit_count(capsys):
    # Python turns no int of more than 4300 digits into a string, so such an
    # order is named by its digit count; a well-formed spec stays a cap error
    nines = "9" * 3000
    for spec, order, digits in [
        (f"abelian:{nines}x{nines}", (10**3000 - 1) ** 2, 6000),
        ("dihedral:" + "9" * 4300, 2 * (10**4300 - 1), 4301),
        (f"prod:cyclic:{'9' * 4000},cyclic:{'9' * 4000}", (10**4000 - 1) ** 2, 8000),
    ]:
        with pytest.raises(gs.OrderCapError) as info:
            gs.FiniteGroup.from_spec(spec)
        assert info.value.order == order
        assert run_cli(capsys, "phi", "--group", spec) == (
            2, "", f"error: order of {digits} digits exceeds cap 2000\n")
    # an order that prints keeps its digits
    assert run_cli(capsys, "phi", "--group", "cyclic:" + "9" * 4300) == (
        2, "", f"error: order {'9' * 4300} exceeds cap 2000\n")
    for order, digits in [(10**4300, 4301), (10**4301 - 1, 4301), (10**5000 + 1, 5001)]:
        assert str(gs.OrderCapError(order, 7)) == f"order of {digits} digits exceeds cap 7"


def test_negative_spec_integer_stays_valid(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "sdp:5:4:-1")
    assert code == 0 and out == run_cli(capsys, "phi", "--group", "sdp:5:4:4")[1]


def test_range_bounds_and_integer_flags_are_ascii_digits(capsys):
    for argv in [
        ("verify-main", "--range", "1..1_0"),
        ("verify-main", "--range", "\u0661..3"),
        ("verify-main", "--range", " 1..3"),
        ("verify-main", "--range", "1..+3"),
        ("verify-main", "--n", "1_2"),
        ("verify-main", "--n", "4", "--jobs", "\u0661"),
        ("q", "--n", "1_000"),
        ("q", "--n", " 12"),
        ("phi", "--n", "+16"),
        ("phi", "--group", "cyclic:4", "--cap", "1_0"),
        ("sweep", "--limit", "\u0661\u0660"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err, argv
        assert "_ascii_int" not in err, argv  # the error names the flag, not a function
    code, out, _ = run_cli(capsys, "q", "--n", "1000")
    assert code == 0 and out == "9/2\n"
    assert run_cli(capsys, "phi", "--n", "+5")[2].endswith(
        "groupsum phi: error: argument --n: not an integer: '+5'\n")


def test_integer_past_the_int_string_limit_is_named_by_its_digit_count(capsys):
    # Python reads no int of more than 4300 digits from a string by default;
    # such an integer is a usage error named by its digit count, whose own
    # message neither repeats the digits nor names Python's settings
    nines = "9" * 4301
    message = "integer of 4301 digits is too long"
    for text in (nines, "-" + nines):
        with pytest.raises(gs.groups.SpecError, match=f"^{message}$"):
            gs.groups._ascii_int(text)
    assert gs.groups._ascii_int("9" * 4300) == 10**4300 - 1
    spec_error = f"error: bad group spec 'cyclic:{nines}': {message}\n"  # names its piece
    for argv, err in [(("phi", "--group", f"cyclic:{nines}"), spec_error),
                      (("phi", "--group", f"prod:cyclic:2,cyclic:{nines}"), spec_error),
                      (("verify-main", "--range", f"1..{nines}"), f"error: {message}\n")]:
        assert run_cli(capsys, *argv) == (2, "", err), argv[:2]
    for flag, argv in [("--cap", ("phi", "--n", "5")), ("--n", ("q",)),
                       ("--jobs", ("verify-main", "--n", "4")), ("--limit", ("sweep",))]:
        code, out, err = run_cli(capsys, *argv, flag, nines)
        assert (code, out) == (2, "") and nines not in err, flag
        assert err.endswith(f": error: argument {flag}: {message}\n"), flag


def test_cap_exceeded_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "phi", "--group", "cyclic:50", "--cap", "10")
    assert code == 2 and "cap" in err


def test_cap_bounds_file_groups(tmp_path, capsys):
    # "table" last takes the numpy read, "table" first the json.loads read
    data = gs.dihedral(8).to_json_dict()
    table_first = {"table": data.pop("table"), **data}
    for i, text in enumerate([gs.dihedral(8).to_json(), json.dumps(table_first)]):
        path = tmp_path / f"d8-{i}.json"
        path.write_text(text)
        for argv in (["phi"], ["graph"], ["criterion"]):
            code, out, err = run_cli(capsys, *argv, "--group", f"file:{path}", "--cap", "10")
            assert (code, out) == (2, ""), (text[:20], argv)
            assert err == "error: order 16 exceeds cap 10\n"
        code, out, _ = run_cli(capsys, "phi", "--group", f"file:{path}", "--cap", "16")
        assert (code, out) == (0, f"{gs.dihedral(8).phi()}\n")


def linear_permutation(matrix, points, modulus):
    # the permutation of `points` (tuples) under x -> matrix . x mod modulus
    index = {p: i for i, p in enumerate(points)}
    return [index[tuple(sum(a * x for a, x in zip(row, p)) % modulus for row in matrix)]
            for p in points]


def outside_catalog_groups():
    # (name, generators as permutation lists, phi, Sylow counts by prime)
    plane = [p for p in itertools.product(range(3), repeat=2) if any(p)]
    space = list(itertools.product(range(3), repeat=3))
    return [
        ("SL(2,3)", [linear_permutation([[1, 1], [0, 1]], plane, 3),
                     linear_permutation([[0, 2], [1, 0]], plane, 3)], 46, {2: 1, 3: 4}),
        ("Heisenberg mod 3", [linear_permutation([[1, 1, 0], [0, 1, 0], [0, 0, 1]], space, 3),
                              linear_permutation([[1, 0, 0], [0, 1, 1], [0, 0, 1]], space, 3)],
         53, {3: 1}),
        ("M16", [[(x + 1) % 8 for x in range(8)], [5 * x % 8 for x in range(8)]], 44, {2: 1}),
    ]


def test_groups_outside_the_catalog_run_through_file_specs(tmp_path, capsys):
    sympy = pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup

    rng = random.Random(2813)
    for name, gens, phi, sylow_counts in outside_catalog_groups():
        theirs = PermutationGroup([Permutation(g) for g in gens])
        elements = list(theirs.generate())
        n = len(elements)
        assert sum(sympy.totient(g.order()) for g in elements) == phi, name
        for q, count in sylow_counts.items():
            sylow = theirs.sylow_subgroup(q).elements
            conjugates = {frozenset(g**-1 * h * g for h in sylow) for g in elements}
            assert len(conjugates) == count, (name, q)

        index = {g: i for i, g in enumerate(elements)}
        table = [[index[g * h] for h in elements] for g in elements]
        sigma = list(range(n))
        while sigma[index[theirs.identity]] == 0:
            rng.shuffle(sigma)
        relabelled = [[0] * n for _ in range(n)]
        for i, row in enumerate(table):
            for j, k in enumerate(row):
                relabelled[sigma[i]][sigma[j]] = sigma[k]
        moved = gs.FiniteGroup(relabelled, sigma[index[theirs.identity]], name=name)
        assert moved.identity != 0
        data = gs.FiniteGroup(table, index[theirs.identity], name=name).to_json_dict()
        for i, text in enumerate([moved.to_json(),
                                  json.dumps({"table": data.pop("table"), **data})]):
            path = tmp_path / f"outside-{i}.json"
            path.write_text(text)
            spec = f"file:{path}"
            assert run_cli(capsys, "phi", "--group", spec) == (0, f"{phi}\n", ""), name
            code, out, _ = run_cli(capsys, "graph", "--group", spec, "--format", "json")
            graph = json.loads(out)
            assert (code, graph["n"]) == (0, n)
            assert len(graph["undirected"]) == (phi - n) // 2, name
            code, out, _ = run_cli(capsys, "criterion", "--group", spec, "--format", "json")
            verdicts = json.loads(out)["verdicts"]
            assert code == 0 and all(v["passed"] for v in verdicts.values()), name
            group = gs.FiniteGroup.from_json(text)
            for q, count in sylow_counts.items():
                assert group.count_sylow(q) == count, (name, q)


# --- verify-main ---


def test_verify_main_single(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--n", "12")
    assert code == 0
    assert "n=12" in out and "pass" in out


def test_verify_main_requires_one_selector(capsys):
    code, out, err = run_cli(capsys, "verify-main")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "groupsum verify-main: error: one of the arguments --n --range is required")
    code, out, err = run_cli(capsys, "verify-main", "--n", "4", "--range", "1..5")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "groupsum verify-main: error: argument --range: not allowed with argument --n")


def test_verify_main_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--range", "1..8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,group,phi_G,is_cyclic,undirected_edges,verdict")
    assert any(line.startswith("4,cyclic:4,6,true,1,pass") for line in lines)


def test_verify_main_json(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--n", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["n"] == 6


def test_verify_main_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-3"):
        for selector in (["--n", "4"], ["--range", "1..3"]):
            code, out, err = run_cli(capsys, "verify-main", *selector, "--jobs", jobs)
            assert (code, out) == (2, ""), (jobs, selector)
            assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_verify_main_jobs_matches_serial(capsys):
    code1, out1, _ = run_cli(capsys, "verify-main", "--range", "1..12", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "verify-main", "--range", "1..12", "--format", "csv",
                             "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_main_jobs_clamped_to_cpus_and_orders(monkeypatch, capsys):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            # one order per task: consecutive chunks would hand one worker
            # all of the dearest orders
            assert chunksize == 1
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    _, serial, _ = run_cli(capsys, "verify-main", "--range", "1..6", "--format", "csv")
    for argv, size in [(["1..6", "--jobs", "1000"], 4), (["1..3", "--jobs", "1000"], 3),
                       (["1..6", "--jobs", "2"], 2)]:
        code, out, _ = run_cli(capsys, "verify-main", "--range", argv[0], "--format", "csv",
                               *argv[1:])
        assert code == 0 and sizes[-1] == size
        assert serial.startswith(out)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run_cli(capsys, "verify-main", "--range", "1..6", "--jobs", "8")
    assert len(sizes) == 3


def test_cli_import_leaves_multiprocessing_unloaded():
    # only verify-main with --jobs above 1 uses it, and importing it costs
    # every other command's start-up about 10 ms
    result = subprocess.run(
        [sys.executable, "-c", "import sys, groupsum.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_verify_main_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify-main", "--range", "1..10", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify-main", "--range", "1..10", "--format", "json")
    assert out1 == out2


# --- criterion ---


def test_criterion_a4(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--group", "alt:4")
    assert code == 0
    assert "no witness" in out
    assert "n = Q*phi(o(g)) = 12" in out
    assert "Sylow-3 count = 4" in out


def test_criterion_c12(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--group", "cyclic:12")
    assert code == 0
    assert "witness" in out and "[ok]" in out


def test_criterion_json(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--group", "cyclic:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert len(data["witnesses"]) == 2
    assert all(w["satisfied"] for w in data["witnesses"])


@pytest.mark.parametrize("spec, calls", [
    # check_witnesses, verify_contrapositive and totient(12) of a generator
    ("cyclic:12", 3),
    # no witness: check_witnesses and verify_contrapositive
    ("alt:4", 2),
])
def test_criterion_sylow_search_does_not_factor_the_order(monkeypatch, capsys, spec, calls):
    factorize = gs.numtheory.factorize
    seen = []
    monkeypatch.setattr(gs.numtheory, "factorize", lambda n: seen.append(n) or factorize(n))
    code, _, _ = run_cli(capsys, "criterion", "--group", spec, "--format", "json")
    assert code == 0 and seen.count(12) == calls


# --- pinned output bytes ---

# sha256 of stdout, recorded before the Cayley table moved from nested tuples
# to one read-only int32 array; any change to these bytes is a wire-format change.
PINNED_CRITERION_JSON = {
    "alt:4": "8f58c1464158b4eb4995c8a49568e9e3b5ee5f3976100eaa253b8af2b0c77d30",
    "sym:4": "370e92b2719f943aa64e5cb27dcfb09a07c549d5f86ad0eb4d2de429b794b7d6",
    "dicyclic:6": "27c387cfce8fd32c4dc799bc6928fe2d07d9eef25a6c13139595b932c04e20e8",
    "dihedral:6": "ce6345c19dd126d9f486cf28d11963bd3f1707eed1713310027bdafb3f790779",
    "abelian:2x4x8": "26a16d8d1b7c619010fe5882987551bfc96177c758406d3b3a6f9c6e156d1791",
    "prod:cyclic:3,sym:3": "b57621c1b02be75484260bff10487ba2f91a27c3f0917a163ec5bf49c633ed59",
    "sdp:7:3:2": "600f5bcc9feca02a57a76a144bde833c6bf0a7f3141a25bf0043a9421f5251d0",
    "cyclic:64": "d6fcd87a3028a595e473fa8c115ae70c54c5bc104965d9010bfb8155d1fdd005",
    # large prime-power Sylow cases, recorded before normalizers were found
    # by conjugating a subgroup's generators instead of all its members
    "dihedral:256": "e0c296310ed6edacdb63c55590f1e8246ddf2f5f41f0f73e40d0a648f865c109",
    "dicyclic:128": "b4b56f5894ad0373288a18248ef1f78918bd8cbbab7f141f0a47c5d330cff0d9",
    "abelian:2x2x2x2x2x2x2x2x2": "b5346422038797cd8d014ab2975b8970a1b562464349f7cc207aeacc56375ab6",
    "sdp:243:2:242": "989b98365837f9bea69bafccee5a732cb3d913be10aa4661728fb02bd0858c2c",
    "cyclic:512": "c63f36013cdd9a8dc8d3eb8f2f89a2d2645112e3cfbe07b4ab9f2e5eea9425a1",
    # the trivial group and the order-2 identity exception, recorded before
    # every command returned its text for `cli.run` to write once
    "cyclic:1": "cdf7ad8b343f40897e352ab56873eec7fec1828a89aa27ff83c32aec22e2d312",
    "cyclic:2": "818c8f9854673e49ca6e2dd66cda1c5fc65ae80a9ef781939fb171f62f24d7c0",
}
# sha256 of `criterion` text stdout for the same specs, recorded before each
# group kept its Sylow subgroup and normalizer in a memo.
PINNED_CRITERION_TEXT = {
    "alt:4": "5843a2c92239ad01094694a10d56c5fa69b9e6ff2856c42437d591ff34271c92",
    "sym:4": "13ccd911e4a9e471ad999d1c52b10c7466cc90d34e9919ef0d2b253129250fe0",
    "dicyclic:6": "6536c0d6890c5863268fc3a77a0d94f62b2deddf027bc64aa92cfd45273f9fbe",
    "dihedral:6": "f2614545f0643bb407e3d5a0b05212b7b97e2b9c5e3175bd170330943e431268",
    "abelian:2x4x8": "43b4b2527f3d61823730394cd97c2144d927135466acf444ebd70f18c224a55a",
    "prod:cyclic:3,sym:3": "29a27302578625af3fffcda87d7574cf9ef1983cd0817c10411a7c1f5530d590",
    "sdp:7:3:2": "1b21d1413ee424626fe464a164aa50b20c17563220bdf961650eef81e9e4f8e7",
    "cyclic:64": "0e9c247ebf1df2e0a6c0d5612e0a7165507b510d91bb8e05f7e1f7e7a8f394e1",
    # recorded with the large JSON cases above
    "dihedral:256": "14e3089a713198f3c54f361fc4de428b7df4f29c3d7700b6dd247b5c32e9bbf9",
    "dicyclic:128": "949be5010cfcf3670afd4a1003829363a75a76d6d428a08f6652dc009c4683f7",
    "abelian:2x2x2x2x2x2x2x2x2": "6f3570ba1558d75c69e9da6c21703211a1b1d106e1ce1ccea7ed665f11f2cecc",
    "sdp:243:2:242": "b5fd40e1ee10e1e45fa97e2fcf284a307c15944c8fe44c94a2073ea838707979",
    "cyclic:512": "16211d69533f22afe336fc282e64e56ca8d5bbd596a95fa2fc3293fafcfd16cd",
    # recorded with the two JSON cases above
    "cyclic:1": "eab16f6a1d2320d16ba0f8bcdffb619eb628f1c4bd8fed4ebbf6d28ef21e5809",
    "cyclic:2": "4b83a3a15adf76b452484d3e1b982fc46bb9cfc49d979fb253795473202f9ee1",
}
PINNED_VERIFY_MAIN_CSV_1_100 = "8cbdb236f25ea8daa5527e64855e4d21c0a58ed4f1ca451b5b2ad1bf520f59cb"
# recorded before table validation grew its closures incrementally
PINNED_VERIFY_MAIN_CSV_101_300 = "64accd255a55da96030433e70ad333eb1a5a7443d6ced5906a4b456933a42ba6"

# sha256 of `graph` stdout, recorded before the exports were written one
# element block at a time.
PINNED_GRAPH = {
    ("cyclic:2000", "dot"): "c2eb8fa663099db854e92789777978fc5fd8a91aa9a399b380b4d86d794f782c",
    ("cyclic:2000", "json"): "c4709b4c904c0f1eb42175994790222403d26ec7d428cb0cafb0c1bd219b37f8",
    ("dihedral:257", "dot"): "72b474c3c81e2fe2fa2f8035ae7b55ec8d848459219aae98b1717cefb72c4497",
    ("dihedral:257", "json"): "aa6a75deab99b1cec7ff653ea7c2b374b3a075e87d50c08494b1bc4a4a33f029",
    ("dicyclic:79", "dot"): "c0e8b80aafeeb69065e3b0011b2c03e216ff78af590fe09b74a0c4eeed7de38a",
    ("dicyclic:79", "json"): "3b7399d699c7571618cbca5d5e78985cd9f4f16540e0beeef19b22f654ad284f",
    # 16 has multiplicative order 9 mod 109
    ("sdp:109:9:16", "dot"): "623dc089851349ed22fbdedb1434bcfd6265c3a34d1a8ebe4266e6dcd60a4a70",
    ("sdp:109:9:16", "json"): "5c961fbf9c27237d996495d72c67b8d851efcde4a27bf3f4e8cd23c1ee54b607",
    ("abelian:4x10x10", "dot"): "c7afa940e61932a0463041e6802ad10aeaa03401bd5a303f575641cdf9aabfb4",
    ("abelian:4x10x10", "json"): "73f781925e43eb1f678b2aa890f46bdf8324ca4b8a9ce1fb7c2de99958e292e0",
    ("prod:cyclic:10,dihedral:25", "dot"):
        "ca641f24dd342118d26070600c6c7a5adef29461522513a7e0b107bd0a95704e",
    ("prod:cyclic:10,dihedral:25", "json"):
        "9247f274be30fd979c5f103436389c38257a27728abb2cbc731038c4fb1f821e",
}

# sha256 of `sweep --limit N` stdout and of `tables --format json`, recorded
# before the multiplicativity oracle's sieve moved to numpy and Q was
# compared by cross-multiplying.
PINNED_SWEEP = {
    (0, "json"): "5a4283d50871f40208bd52c61b784e8af89148e1c3cb8b9b23f6d01204bcd8c6",
    (0, "text"): "707f285f426973ae3b5bb461be558e41bf28edc23fd2ef044c32a1106da5a73d",
    (1, "json"): "deaa68e92d424e7884310af36efc6390024be026ef36a46857ea315bf3ac72f3",
    (1, "text"): "46dad653ffd2ec4135546521f7863ec7714adc458edad3d669674a7496f58f40",
    (2, "json"): "e4fe6653770ea7e04274fabc52d1c7724a9bf18a842c454a533ee583900e59b5",
    (2, "text"): "c78d76707bc77acbc3034187ba9709467929225e21595f2ef5a599176240364a",
    (250, "json"): "ace4e9ee2143cddb245932cbe3053e5d89f2d07003a538b8b411f194411cc9f8",
    (250, "text"): "c344058ab08f8e0f8c55ee178cc4a000a38b97521f07d515ea10317fc8fa2189",
    (2000, "json"): "6ced454be956798ff1011091ab126961cc226f1a1afec605a336a17b02bb707b",
    (2000, "text"): "603e63d4a2f120b111c6eb97fffac845eef5bc352c54682442f08904ef99e0df",
}
PINNED_TABLES_JSON = "35b6a105d3335a6ae376733ad3134ce6e757614f944e25c0743ebdfe5d0bffae"

# sha256 of stdout for the command lines no digest above covers, recorded
# before every command returned its text for `cli.run` to write once.
PINNED_OUTPUTS = {
    ("verify-main", "--range", "1..60"):
        "2a5fd2dbe8c197a25fea306a429d7ebc59748a10c7d151a436fb7b2d26578f5a",
    ("verify-main", "--range", "1..60", "--format", "json"):
        "509d401fe9582175bf01c3fa5d155d1e14b1b992710e9a0ba752f5741250f0f5",
    ("tables",): "219a456163af6eba016ce1c9d897073470d37c2ecf7560d270be7b70a1118dc2",
    ("phi", "--group", "alt:4"):
        "5378796307535df3ec8d8b15a2e2dc5641419c3d3060cfe32238c0fa973f7aa3",
    ("phi", "--group", "alt:4", "--format", "json"):
        "199ffba55794174160222a516e12e4fbc5a7346fb7b37b5709bccf92dd2ed1e8",
    ("phi", "--n", "2310"): "071d609300f68fe1e53e8156d3e605e4a7642d57886cedc84d4cb3ba6e57b174",
    ("phi", "--n", "2310", "--format", "json"):
        "5e362a41db3187ecc3b8993e680a27c93567ce4050c074fd97a2143efaeeeb47",
    ("q", "--n", "2310"): "9b5fcd37eb34648970071ca690643f14f3fbdf03663934c7313dfca125a2c6f5",
    ("q", "--n", "2310", "--format", "json"):
        "f2dfaeeeaf8dd747797c6659d1fe1af62019748dd602b9303f3506f4e9b0dce3",
    ("q", "--n", "1"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("q", "--n", "1", "--format", "json"):
        "86698009168c265a0b1fc137f0547f8cee8aa271ddaa12b00afce8173db80d22",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_main_csv_bytes_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--range", "1..100", "--format", "csv")
    assert code == 0 and sha256(out) == PINNED_VERIFY_MAIN_CSV_1_100


def test_verify_main_csv_101_300_bytes_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "verify-main", "--range", "101..300", "--format", "csv", "--jobs", "1"
    )
    assert code == 0 and sha256(out) == PINNED_VERIFY_MAIN_CSV_101_300


def test_criterion_json_bytes_pinned(capsys):
    for spec, digest in PINNED_CRITERION_JSON.items():
        code, out, _ = run_cli(capsys, "criterion", "--group", spec, "--format", "json")
        assert code == 0 and sha256(out) == digest, spec


def test_criterion_text_bytes_pinned(capsys):
    for spec, digest in PINNED_CRITERION_TEXT.items():
        code, out, _ = run_cli(capsys, "criterion", "--group", spec)
        assert code == 0 and sha256(out) == digest, spec


# --- tables ---


def test_tables_text(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    for value in ["72/5", "1134/55", "252/11", "54/5"]:
        assert value in out
    assert "6 = Q reproduced" in out
    assert "7.4" in out  # flagged row is reported


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["table1"]) == 9
    assert data["table1"][4]["q_first"] == "72/5"
    assert len(data["table2"]) == 18


# --- sweep ---


def test_sweep_small(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--limit", "300")
    assert code == 0
    assert "eq5-two-forms: pass" in out
    assert "FAIL" not in out


def test_sweep_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--limit", "100", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["eq5-two-forms"]["passed"]


def test_sweep_negative_limit_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--limit", "-1")
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


# --- usage errors ---


def test_unknown_command(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_bad_format_choice(capsys):
    assert cli.run(["q", "--n", "5", "--format", "dot"]) == 2


def test_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify-main", "--range", "5")
    assert code == 2


def test_sweep_and_tables_bytes_pinned(capsys):
    for (limit, fmt), digest in PINNED_SWEEP.items():
        code, out, _ = run_cli(capsys, "sweep", "--limit", str(limit), "--format", fmt)
        assert code == 0 and sha256(out) == digest, (limit, fmt)
    code, out, _ = run_cli(capsys, "tables", "--format", "json")
    assert code == 0 and sha256(out) == PINNED_TABLES_JSON


def test_graph_bytes_pinned(capsys):
    for (spec, fmt), digest in PINNED_GRAPH.items():
        code, out, _ = run_cli(capsys, "graph", "--group", spec, "--format", fmt)
        assert code == 0 and sha256(out) == digest, (spec, fmt)


def test_unpinned_outputs_bytes_pinned(capsys):
    for argv, digest in PINNED_OUTPUTS.items():
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, sha256(out)) == (0, "", digest), argv


# one command line per command and format
EVERY_FORMAT = [
    ["phi", "--group", "alt:4"],
    ["phi", "--group", "alt:4", "--format", "json"],
    ["q", "--n", "2310"],
    ["q", "--n", "2310", "--format", "json"],
    ["graph", "--group", "dicyclic:6"],
    ["graph", "--group", "dicyclic:6", "--format", "json"],
    ["verify-main", "--range", "1..8"],
    ["verify-main", "--range", "1..8", "--format", "json"],
    ["verify-main", "--range", "1..8", "--format", "csv"],
    ["criterion", "--group", "sym:4"],
    ["criterion", "--group", "sym:4", "--format", "json"],
    ["tables"],
    ["tables", "--format", "json"],
    ["sweep", "--limit", "30"],
    ["sweep", "--limit", "30", "--format", "json"],
]


@pytest.mark.parametrize("argv", EVERY_FORMAT, ids=" ".join)
def test_out_file_holds_exactly_the_stdout_bytes(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode()


def inject_failures(monkeypatch):
    """Make each verdict source of the CLI report one failing verdict:
    order 4 in `verify_main`, the contrapositive of every group, one
    table-2 row and one sweep statement."""
    verify = gs.verify
    main, contra = verify.verify_main, verify.verify_contrapositive
    spot, sweep = verify.table2_spot_check, verify.verify_numtheory_sweep

    def failing_main(n, cap=gs.DEFAULT_ORDER_CAP):
        report = main(n, cap)
        if n == 4:
            bad = report.rows[-1] = dataclasses.replace(report.rows[-1], ok=False)
            report.verdicts["thm-main"] = dataclasses.replace(
                report.verdicts["thm-main"], passed=False,
                counterexample={"group": bad.name, "phi_G": bad.phi_g})
        return report

    def failing_contra(group):
        return dataclasses.replace(contra(group), passed=False,
                                   counterexample={"group": group.name, "witness": 0})

    def failing_spot():
        verdicts = spot()
        verdicts["table-2-k3-q8"] = dataclasses.replace(
            verdicts["table-2-k3-q8"], passed=False)
        return verdicts

    def failing_sweep(limit):
        verdicts = sweep(limit)
        verdicts["lem-2.6"] = dataclasses.replace(
            verdicts["lem-2.6"], passed=False, counterexample={"n": 6, "info": "injected"})
        return verdicts

    monkeypatch.setattr(verify, "verify_main", failing_main)
    monkeypatch.setattr(verify, "verify_contrapositive", failing_contra)
    monkeypatch.setattr(verify, "table2_spot_check", failing_spot)
    monkeypatch.setattr(verify, "verify_numtheory_sweep", failing_sweep)


# The text that marks the failure, and the sha256 of stdout, recorded before
# every command returned its text for `cli.run` to write once.
PINNED_FAILURES = {
    ("verify-main", "--range", "1..6"):
        ("FAIL", "941aee9dfed7bedd0f1853edfd4c8cb989b18c3a2fac1e5a3bb7be805d0c9098"),
    ("verify-main", "--range", "1..6", "--format", "json"):
        ('"passed": false', "ebc1a4b9ab2936e095aa7cfcc3121b8fe828bbb0183ea0e0d362e70b2657ed85"),
    ("verify-main", "--range", "1..6", "--format", "csv"):
        (",fail,", "b3006244ecfa7d8239b4d44de29e9f7e2177414c16444f3a9159479427ee5659"),
    ("criterion", "--group", "sym:4"):
        ("[VIOLATED]", "ea8344602413f8f192cecb9da7319bf1c0fc7a95f61036e62c0b99b676db5b3d"),
    ("criterion", "--group", "sym:4", "--format", "json"):
        ('"passed": false', "ea61c34befc903a5c198f076a5d806f76255a3bf947f0829b73ca9f1c9855827"),
    ("tables",):
        ("NOT REPRODUCED", "8b875e12a67e596c35a82d64d1a31f6c258843873de2db0c663bdfac8e2414f5"),
    ("tables", "--format", "json"):
        ('"passed": false', "4492cda3ece09d9426faf5fb120e3be7d22c5b70d5d4be8d62f1db3bfbeb9a83"),
    ("sweep", "--limit", "30"):
        ("lem-2.6: FAIL", "eb0db5ca2decc5751460ece488ba8e9161db9b6b4be958761b2519c32be13854"),
    ("sweep", "--limit", "30", "--format", "json"):
        ('"passed": false', "cef62c1ef09fb6e8970dced704a15cfa9d39c0c5eaa9b874d56f48cb50bc413f"),
}


# The CSV has no verdict column, so CSV mode names each failing verdict on
# stderr; every other format prints its counterexample on stdout alone.
FAILURE_STDERR = {
    ("verify-main", "--range", "1..6", "--format", "csv"):
        "n=4  thm-main: checked 2 groups of order 4 {'group': 'abelian:2x2', 'phi_G': 4}\n",
}


def test_failing_verdicts_exit_1_on_stdout_and_through_out(monkeypatch, tmp_path, capsys):
    inject_failures(monkeypatch)
    path = tmp_path / "out"
    for argv, (marker, digest) in PINNED_FAILURES.items():
        stderr = FAILURE_STDERR.get(argv, "")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, sha256(out)) == (1, stderr, digest), argv
        assert marker in out, argv
        assert run_cli(capsys, *argv, "--out", str(path)) == (1, "", stderr), argv
        assert path.read_bytes() == out.encode(), argv


# sha256 of `criterion --group cyclic:12` stdout with every subgroup reported
# not normal, recorded while `satisfied` was still a property over four
# stored ingredients, before `check_witnesses` decided it in one rule.
PINNED_VIOLATED_WITNESSES = {
    "text": "69f7160581513febeaa1535124303fdcd5eaff13c33bfcd35b8353424fd501d1",
    "json": "b8de0316ab52a179b87feeabe376e6d78eb37629615bbe2df8eb425eaf6b9a8e",
}


def test_failing_witnesses_are_violated_in_both_formats(monkeypatch, capsys):
    monkeypatch.setattr(gs.FiniteGroup, "is_normal", lambda self, sub: False)
    argv = ["criterion", "--group", "cyclic:12", "--format"]
    code, out, err = run_cli(capsys, *argv, "text")
    assert (code, err, sha256(out)) == (1, "", PINNED_VIOLATED_WITNESSES["text"])
    assert [line.endswith("[VIOLATED]") for line in out.splitlines()] == [True] * 4 + [False]
    code, out, err = run_cli(capsys, *argv, "json")
    assert (code, err, sha256(out)) == (1, "", PINNED_VIOLATED_WITNESSES["json"])
    data = json.loads(out)
    assert [w["satisfied"] for w in data["witnesses"]] == [False] * 4
    overall = data["verdicts"]["thm-overall"]
    assert not overall["passed"]
    assert overall["counterexample"] == {"group": "cyclic:12", "witness": 1}


def test_csv_names_a_failing_report_verdict_whose_rows_all_pass(monkeypatch, tmp_path, capsys):
    # thm-edge-max fails on order 4 with every row untouched: the CSV alone
    # would show only passing rows, so the verdict goes to stderr
    argv = ["verify-main", "--range", "3..5", "--format", "csv"]
    clean_code, clean_out, clean_err = run_cli(capsys, *argv)
    assert (clean_code, clean_err) == (0, "") and ",fail," not in clean_out
    main = gs.verify.verify_main

    def failing_edges(n, cap=gs.DEFAULT_ORDER_CAP):
        report = main(n, cap)
        if n == 4:
            report.verdicts["thm-edge-max"] = dataclasses.replace(
                report.verdicts["thm-edge-max"], passed=False,
                counterexample={"group": "injected", "edges": 0})
        return report

    monkeypatch.setattr(gs.verify, "verify_main", failing_edges)
    detail = main(4).verdicts["thm-edge-max"].detail
    stderr = f"n=4  thm-edge-max: {detail} {{'group': 'injected', 'edges': 0}}\n"
    assert run_cli(capsys, *argv) == (1, clean_out, stderr)
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(path)) == (1, "", stderr)
    assert path.read_text() == clean_out


def test_graph_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "graph.json"
    argv = ["graph", "--group", "dicyclic:79", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_GRAPH[("dicyclic:79", "json")]


def compact_json(fields, cells):
    """A group document in the compact layout: the keys in the order given,
    the table's cells (their JSON text) joined by bare commas."""
    table = "[" + ",".join("[" + ",".join(row) + "]" for row in cells) + "]"
    members = [f"{json.dumps(k)}: {v}" for k, v in fields.items()]
    return "{" + ", ".join(members + [f'"table": {table}']) + "}"


def test_file_groups_print_the_bytes_of_their_specs(tmp_path, capsys):
    # the wire format carries no element labels: a file group's DOT labels
    # its nodes by index, which is the one difference from the spec's bytes
    def index_labels(out):
        return re.sub(r'^  (\d+) \[label="[^"\n]*"\];$', r'  \1 [label="\1"];', out,
                      flags=re.M)

    for n in range(1, 41):
        for group in gs.catalog(n):
            spec = group.name
            cells = [[str(x) for x in row] for row in group.table.tolist()]
            fields = {"name": json.dumps(spec), "order": str(n), "identity": str(group.identity)}
            path = tmp_path / "group.json"
            for text in (group.to_json(), compact_json(fields, cells)):
                path.write_text(text)
                for argv in (["graph", "--format", "dot"], ["graph", "--format", "json"],
                             ["phi"]):
                    code, out, err = run_cli(capsys, *argv, "--group", spec)
                    expected = (code, index_labels(out), err)
                    assert code == 0
                    assert run_cli(capsys, *argv, "--group", f"file:{path}") == expected, (
                        spec, argv, text[:30])


MUTATIONS = ["swap", "identity", "order-bool", "order-float", "order-string", "missing",
             "nested-cell", "nested-table", "huge-order", "leading-zero", "space-in-number",
             "negative", "trailing-comma"]


def test_fuzzed_invalid_group_files_exit_like_the_json_loads_read(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    groups = [g for n in range(1, 31) for g in gs.catalog(n)]

    @st.composite
    def invalid_files(draw):
        """A relabelled catalog group in the to_json or compact layout, with
        one drawn fault."""
        group = draw(st.sampled_from(groups))
        n = group.order
        sigma = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[sigma[i]][sigma[j]] = sigma[int(group.table[i, j])]
        identity = sigma[group.identity]
        fields = {"identity": str(identity), "name": json.dumps(group.name), "order": str(n)}
        if draw(st.booleans()):
            fields = {k: fields[k] for k in ("name", "order", "identity")}
        cells = [[str(x) for x in row] for row in table]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kinds = MUTATIONS if n > 1 else [m for m in MUTATIONS if m != "swap"]
        kind = draw(st.sampled_from(kinds))
        if kind == "swap":
            k = draw(st.sampled_from([k for k in range(n) if k != j]))
            cells[i][j], cells[i][k] = cells[i][k], cells[i][j]
        elif kind == "identity":
            fields["identity"] = str(draw(st.sampled_from(
                [e for e in range(n + 1) if e != identity])))
        elif kind.startswith("order-"):
            fields["order"] = {"order-bool": draw(st.sampled_from(["true", "false"])),
                               "order-float": f"{n}.0", "order-string": f'"{n}"'}[kind]
        elif kind == "missing":
            del fields["identity"]
        elif kind == "huge-order":
            fields["order"] = str(n + 10**draw(st.integers(1, 40)))
        elif kind == "negative":
            cells[i][j] = str(-draw(st.integers(1, n)))
        else:
            cells[i][j] = {"nested-cell": f"[{cells[i][j]}]", "nested-table": cells[i][j],
                           "leading-zero": "0" + cells[i][j],
                           "space-in-number": cells[i][j] + " " + str(draw(st.integers(0, 9))),
                           "trailing-comma": cells[i][j] + ","}[kind]
        if kind == "trailing-comma":
            cells[i].append(cells[i].pop(j))  # the comma ends the row
        if draw(st.booleans()):
            text = compact_json(fields, cells)
        else:
            rows = "[" + ", ".join("[" + ", ".join(row) + "]" for row in cells) + "]"
            text = "{" + ", ".join([f'"{k}": {v}' for k, v in fields.items()]
                                   + [f'"table": {rows}']) + "}"
        if kind == "nested-table":
            text = text.replace('"table": [', '"table": [[', 1)[:-1] + "]}"
        if kind == "missing" and draw(st.booleans()):
            text = text[:text.index(', "table"')] + "}"  # no table either
        return kind, text

    path = tmp_path / "bad.json"
    spec = f"file:{path}"

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(invalid_files())
    def check(drawn):
        kind, text = drawn
        path.write_text(text)
        with pytest.raises(ValueError) as reference:
            gs.FiniteGroup.from_json_dict(json.loads(text))
        expected = f"error: bad group spec {spec!r}: {reference.value}\n"
        for argv in (["phi"], ["graph"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([*argv, "--group", spec])
            assert (code, out.getvalue(), err.getvalue()) == (2, "", expected), (kind, text)

    check()


SRC = str(Path(__file__).resolve().parents[1] / "src")
# VmHWM is the peak RSS of the process's own address space. ru_maxrss is not:
# Linux carries it across exec, so a child would report this test process's peak.
PEAK_RSS = "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"


def _src_env(**extra):
    """This process's environment, with this checkout's src/ on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _peak_rss_kib(code):
    """Peak RSS in KiB of a fresh interpreter that runs `code`."""
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{PEAK_RSS}"],
        capture_output=True, text=True, env=_src_env(),
        timeout=120, check=True,
    )
    return int(result.stdout.split()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_graph_export_memory_is_bounded_by_output_size(tmp_path):
    # Exporting may hold the text and a few per-element blocks, not a list
    # of every edge line: the growth over building the graph stays under
    # three times the output size.
    built = _peak_rss_kib(
        "import groupsum as gs; from groupsum import powergraph; "
        "powergraph.build(gs.cyclic(2000))"
    )
    for fmt in ("dot", "json"):
        path = tmp_path / f"graph.{fmt}"
        exported = _peak_rss_kib(
            "from groupsum import cli; "
            f"cli.run(['graph', '--group', 'cyclic:2000', '--format', '{fmt}', '--out', {str(path)!r}])"
        )
        assert (exported - built) * 1024 < 3 * path.stat().st_size, fmt


def test_group_too_large_for_memory_is_usage_error(monkeypatch, tmp_path, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.64 TiB")

    monkeypatch.setattr(gs.groups, "_extension_table", no_memory)
    path = tmp_path / "out"
    argv = ["phi", "--group", "cyclic:1000000", "--cap", "1000000", "--out", str(path)]
    assert run_cli(capsys, *argv) == (2, "", "error: out of memory: Unable to allocate 3.64 TiB\n")
    assert not path.exists()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_real_group_too_large_for_memory_exits_2(tmp_path):
    # the 4 GiB address-space limit makes numpy's allocation of the
    # 10^12-cell table fail at once, whatever the machine's memory
    path = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "groupsum", "phi", "--group", "cyclic:1000000",
         "--cap", "1000000", "--out", str(path)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: out of memory: ")
    assert len(result.stderr.splitlines()) == 1
    assert not path.exists()


def test_empty_range_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-main", "--range", "5..3")
    assert code == 2 and out == ""
    assert "error" in err


def test_verify_main_rejects_orders_above_cap_before_any_work(monkeypatch, capsys):
    calls = []

    def no_work(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before the cap check")
        return record

    monkeypatch.setattr(gs.verify, "catalog", no_work("catalog"))
    monkeypatch.setattr(gs.numtheory, "factorize", no_work("factorize"))
    for argv, order, cap in [
        (["--n", "1000000000000000000000007"], 1000000000000000000000007, 2000),
        (["--range", "1999..2001"], 2001, 2000),
        (["--range", "5..9", "--cap", "6"], 7, 6),
        (["--n", "1", "--cap", "0"], 1, 0),
        (["--range", "1..1000000000000", "--jobs", "2"], 2001, 2000),
    ]:
        code, out, err = run_cli(capsys, "verify-main", *argv)
        assert (code, out, err) == (2, "", f"error: order {order} exceeds cap {cap}\n"), argv
    assert calls == []


def test_verify_main_orders_below_one_keep_their_error(capsys):
    for argv, order in [(["--n", "0"], 0), (["--range=-2..5000"], -2),
                        (["--range", "0..3", "--cap", "0"], 0)]:
        code, out, err = run_cli(capsys, "verify-main", *argv)
        assert (code, out, err) == (2, "", f"error: cannot factor {order}: need n >= 1\n"), argv


def test_python_dash_m_groupsum():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-m", "groupsum", "phi", "--group", "cyclic:16"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "86\n"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "groupsum.cli", "q", "--n", "42"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "8\n"


def test_q_and_phi_on_large_n_finish():
    # A Mersenne prime and a product of two 13-digit primes: both are far
    # beyond trial division, so each run is bounded by a timeout.
    sympy = pytest.importorskip("sympy")
    semiprime = sympy.nextprime(10**12) * sympy.nextprime(2 * 10**12)
    for command, n in (("q", 2**61 - 1), ("phi", semiprime)):
        factors = sympy.factorint(n)
        if command == "q":
            expected = sympy.prod(sympy.Rational(p + 1, p - 1) for p in factors)
        else:
            expected = sympy.prod(
                1 + sum((p ** (j - 1) * (p - 1)) ** 2 for j in range(1, a + 1))
                for p, a in factors.items()
            )
        result = subprocess.run(
            [sys.executable, "-m", "groupsum.cli", command, "--n", str(n)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{expected}\n"


PUBLIC_NAMES = [
    "DEFAULT_ORDER_CAP", "Factorization", "FiniteGroup", "GroupValidationError",
    "HypothesisViolation", "NoIdentityError", "NoInverseError", "NotAssociativeError",
    "NotClosedError", "OrderCapError", "PowerGraph", "SemidirectSpec", "Subgroup",
    "abelian", "alternating", "build", "catalog", "cyclic", "dicyclic", "dihedral",
    "direct_product", "enumerate_semidirect_units", "export_dot", "export_json",
    "factorize", "first_primes", "format_rational", "is_prime", "lemma_Q_bounds",
    "lemma_n_geq_check", "nth_prime", "phi_cyclic_product", "phi_cyclic_sum",
    "phi_of_group", "q_of", "q_of_primes", "semidirect_cyclic", "skip_primes",
    "symmetric", "table1", "totient", "undirected_degree", "undirected_edge_count",
]


def test_package_exports_resolve_without_duplicates():
    assert len(gs.__all__) == len(set(gs.__all__))
    for name in gs.__all__:
        assert hasattr(gs, name), name
    assert sorted(gs.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 43
    # one spelling per operation: the methods and the constructor, no aliases
    for module in (gs, gs.groups, gs.numtheory):
        for name in ("from_cayley", "element_order", "is_cyclic", "q_lower_bound_check"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(gs.FiniteGroup, "trivial_subgroup")
    assert not hasattr(gs.FiniteGroup, "__len__")


# --- one parser per process ---


MIXED_ARGVS = [
    ["q", "--n", "12"],
    ["q", "--n", "2310", "--format", "json"],
    ["phi", "--n", "16"],
    ["phi", "--group", "cyclic:4", "--n", "4"],
    ["q"],
    ["frobnicate"],
    ["q", "--n", "5", "--format", "dot"],
    ["--help"],
    ["phi", "--help"],
    ["graph", "--group", "cyclic:6"],
    ["criterion", "--group", "alt:4"],
    ["verify-main", "--n", "12"],
    ["verify-main", "--range", "5..3"],
    ["sweep", "--limit", "30"],
    ["sweep", "--limit", "-1"],
    ["phi", "--group", "cyclic:1_0"],
    ["phi", "--group", "cyclic:50", "--cap", "10"],
    ["tables", "--format", "json"],
    ["q", "--n", "0"],
    ["verify-main", "--n", "6", "--format", "csv"],
]


def test_run_builds_one_parser_tree_per_process(monkeypatch, capsys):
    # One tree is the top-level parser and one parser per subcommand: 8.
    # Building it on every call made 160 parsers for these 20 calls.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [cli.run(argv) for argv in MIXED_ARGVS]
    capsys.readouterr()
    assert set(codes) == {0, 2}
    assert len(built) <= 8, built


def test_import_builds_no_parser_and_later_calls_reuse_the_first():
    code = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting_init(self, *args, **kwargs):",
        "    built.append(1)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting_init",
        "import groupsum, groupsum.cli",
        "at_import = len(built)",
        "groupsum.cli.run(['q', '--n', '12'])",
        "first = len(built)",
        "for argv in (['phi', '--n', '16'], ['q'], ['sweep', '--limit', '20']):",
        "    groupsum.cli.run(argv)",
        "print(at_import, first, len(built))",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    at_import, first, total = map(int, result.stdout.splitlines()[-1].split())
    assert at_import == 0
    assert first > 0 and total == first


def test_reused_parser_leaks_no_state_between_calls(capsys):
    def call(argv):
        return run_cli(capsys, *argv)

    first = {tuple(argv): call(argv) for argv in MIXED_ARGVS}
    for argv in reversed(MIXED_ARGVS):
        assert call(argv) == first[tuple(argv)], argv
    # spot-check that the list covers success, usage errors and help
    assert first[("phi", "--group", "cyclic:4", "--n", "4")][0] == 2
    code, out, err = first[("q",)]
    assert code == 2 and out == "" and err.startswith("usage: groupsum q")
    assert first[("frobnicate",)][0] == 2
    assert first[("q", "--n", "5", "--format", "dot")][0] == 2
    assert first[("--help",)][0] == 0
    assert first[("verify-main", "--n", "12")][0] == 0
    assert first[("sweep", "--limit", "30")][0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["verify-main", "--help"]])
def test_in_process_help_matches_a_fresh_process(monkeypatch, capsys, argv):
    # The help formatter reads the terminal width when it formats, not when
    # the parser is built, so a reused parser wraps like a fresh one.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    result = subprocess.run(
        [sys.executable, "-m", "groupsum", *argv], capture_output=True, text=True,
        env=_src_env(COLUMNS="80"), timeout=60,
    )
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout == out


# The fuzz draws each command's own flags, the selector it needs first, and
# now and then a flag of another command. Orders stay within the small --cap
# that every drawn command line starts with.
FUZZ_CAP = 64
ODD_INTEGERS = ["٣", "-٣", "1_0", "+5", "", " 4", "4.0", "0x10"]
OWN_FLAGS = {
    "phi": ["--group", "--n"],
    "q": ["--n"],
    "graph": ["--group"],
    "verify-main": ["--n", "--range", "--jobs"],
    "criterion": ["--group"],
    "tables": [],
    "sweep": ["--limit"],
    "frobnicate": [],
}
FORMATS = {"graph": ["dot", "json"], "verify-main": ["text", "json", "csv"]}


def _is_ascii_int(token):
    return re.fullmatch("-?[0-9]+", token) is not None


def test_fuzzed_argument_combinations_exit_cleanly(monkeypatch, tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def no_pool(*args, **kwargs):
        raise AssertionError("the fuzz must start no process")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)

    @st.composite
    def integer(draw, lo, hi):
        if draw(st.integers(0, 5)) == 0:
            return draw(st.sampled_from(ODD_INTEGERS))
        return str(draw(st.integers(lo, hi)))

    @st.composite
    def spec(draw, depth=0):
        """A group spec and the integer tokens written in it."""
        kinds = ["cyclic", "dihedral", "dicyclic", "sym", "alt", "abelian", "sdp"]
        kind = draw(st.sampled_from(kinds + (["prod"] if depth == 0 else [])))
        if kind == "prod":
            (left, left_tokens), (right, right_tokens) = draw(spec(1)), draw(spec(1))
            return f"prod:{left},{right}", left_tokens + right_tokens
        count = {"abelian": draw(st.integers(1, 3)), "sdp": 3}.get(kind, 1)
        tokens = [draw(integer(-2, 12)) for _ in range(count)]
        return f"{kind}:{('x' if kind == 'abelian' else ':').join(tokens)}", tokens

    @st.composite
    def command_lines(draw):
        """An argv, and whether an integer token in it that is parsed is not
        ASCII digits with an optional leading minus."""
        command = draw(st.sampled_from(sorted(OWN_FLAGS)))
        values = {
            # --jobs never above 1: verify-main then runs serially
            "--n": integer(-3, 40 if command == "verify-main" else 10**6),
            "--limit": integer(-3, 300),
            "--cap": integer(-3, FUZZ_CAP),
            "--jobs": integer(-3, 1),
            "--range": st.tuples(integer(-2, 30), integer(-2, 30)).map(
                lambda ends: (f"{ends[0]}..{ends[1]}", list(ends))),
            "--group": spec(),
            "--format": st.sampled_from(FORMATS.get(command, ["text", "json"]) + ["xml"]),
            "--out": st.just(str(tmp_path / "out.txt")),
        }
        own = OWN_FLAGS[command]
        flags = [draw(st.sampled_from(own))] if own else []
        flags += draw(st.lists(st.sampled_from(own + ["--format", "--out", "--cap"]),
                               max_size=4))
        if draw(st.integers(0, 7)) == 0:
            flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(sorted(values))))
        argv = [command, "--cap", str(FUZZ_CAP)]
        bad = False
        last_tokens = {}  # --group and --range: only the last value is parsed
        for flag in flags:
            argv.append(flag)
            if draw(st.integers(0, 11)) == 0:
                continue  # a missing value
            value = draw(values[flag])
            if flag in ("--group", "--range"):
                value, last_tokens[flag] = value
            elif flag not in ("--format", "--out"):
                bad = bad or not _is_ascii_int(value)
            argv.append(value)
        bad = bad or not all(_is_ascii_int(t) for ts in last_tokens.values() for t in ts)
        return argv, bad

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(command_lines())
    def check(drawn):
        argv, bad = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv
        if bad:
            assert code == 2, argv

    check()
