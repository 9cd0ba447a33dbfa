import json
import subprocess
import sys

import pytest

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


def test_phi_json(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "alt:4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"group": "alt:4", "phi": 20}


def test_phi_needs_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "phi", "--group", "cyclic:4", "--n", "4")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "phi")
    assert code == 2


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


# --- group specs ---


def test_prod_spec(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "prod:cyclic:4,cyclic:4")
    assert code == 0 and out == "28\n"


def test_nested_prod_spec(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "prod:cyclic:2,prod:cyclic:3,cyclic:5")
    assert code == 0 and out == f"{gs.phi_cyclic_sum(30)}\n"


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


def test_malformed_group_files(tmp_path, capsys):
    table = [[0, 1], [1, 0]]
    payloads = [
        {"name": "x", "order": 2, "identity": "0", "table": table},
        {"name": "x", "order": 2, "identity": 0.0, "table": table},
        [table],
    ]
    for i, payload in enumerate(payloads):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "phi", "--group", f"file:{path}")
        assert code == 2 and out == "", payload
        assert "error" in err


def test_graph_dot_escapes_group_name_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"name": 'a"b', "order": 2, "identity": 0,
                                "table": [[0, 1], [1, 0]]}))
    code, out, _ = run_cli(capsys, "graph", "--group", f"file:{path}")
    assert code == 0
    assert out.splitlines()[0] == 'digraph "a\\"b" {'


def test_malformed_specs(capsys):
    for spec in ["nonsense:4", "cyclic:x", "sdp:3:2", "abelian:", "file:/no/such.json"]:
        code, _, err = run_cli(capsys, "phi", "--group", spec)
        assert code == 2, spec
        assert "error" in err


def test_cap_exceeded_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "phi", "--group", "cyclic:50", "--cap", "10")
    assert code == 2 and "cap" in err


# --- verify-main ---


def test_verify_main_single(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--n", "12")
    assert code == 0
    assert "n=12" in out and "pass" in out


def test_verify_main_requires_one_selector(capsys):
    code, _, _ = run_cli(capsys, "verify-main")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify-main", "--n", "4", "--range", "1..5")
    assert code == 2


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

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(cli.multiprocessing, "Pool", SerialPool)
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


# --- usage errors ---


def test_unknown_command(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_bad_format_choice(capsys):
    assert cli.run(["q", "--n", "5", "--format", "dot"]) == 2


def test_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify-main", "--range", "5")
    assert code == 2


def test_empty_range_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-main", "--range", "5..3")
    assert code == 2 and out == ""
    assert "error" in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "groupsum.cli", "q", "--n", "42"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "8\n"


def test_package_exports_resolve_without_duplicates():
    assert len(gs.__all__) == len(set(gs.__all__))
    for name in gs.__all__:
        assert hasattr(gs, name), name
