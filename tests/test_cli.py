import json
from pathlib import Path

import pytest

from ghw import BinaryMatrix, Code, MatrixParseError
from ghw.cli import main
from ghw.io import (
    dumps_document,
    parse_betti_diagram,
    parse_matrix_text,
    render_betti_diagram,
)
from ghw.resolution import BettiTable

import known_codes as kc

FIXTURES = Path(__file__).parent / "fixtures"
TOY = str(FIXTURES / "toy63.txt")
WORKED = str(FIXTURES / "worked63.txt")
REP31 = str(FIXTURES / "rep31.txt")
C107 = str(FIXTURES / "code107.txt")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_parse_matrix_comments_and_blanks():
    m = parse_matrix_text("# header\n\n1 0\n0 1\n")
    assert m.rows == (0b01, 0b10)


def test_parse_matrix_error_line_numbers():
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text("1 0\n\n1 2\n")
    assert exc.value.line_no == 3
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text("1 0\n1 0 1\n")
    assert exc.value.line_no == 2
    with pytest.raises(MatrixParseError):
        parse_matrix_text("# nothing\n")


def test_cli_ghw_oracle(capsys):
    doc = run_json(capsys, "ghw", TOY, "--route", "oracle")
    assert doc["result"]["ghw"] == [2, 4, 6]
    assert doc["result"]["display"] == "2 4 6"
    assert doc["code"] == {
        "n": 6, "k": 3, "nondegenerate": True,
        "generator_rows": ["100001", "011010", "000111"],
    }


def test_cli_ghw_resolution(capsys):
    doc = run_json(capsys, "ghw", TOY, "--route", "resolution")
    assert doc["result"]["ghw"] == [2, 4, 6]


def test_cli_ghw_testset_bounds(capsys):
    doc = run_json(capsys, "ghw", C107, "--route", "testset")
    assert doc["result"]["display"] == "2 4 ≤5 ≤7 ≤8 ≤9"
    assert doc["result"]["pd_testset"] == 6
    assert "6 < k=7" in doc["result"]["note"]
    assert doc["result"]["note"].endswith("no bound for d_7")


def test_cli_betti_circuit_ideal_golden_diagram(capsys):
    doc = run_json(capsys, "betti", TOY, "--ideal", "stanley-reisner")
    triples = {(t["i"], t["j"]): t["beta"] for t in doc["result"]["betti"]}
    assert triples == kc.TOY63_CIRCUIT_BETTI
    assert doc["result"]["diagram"] == (
        "   0 1 2 3\n"
        "0 | 1 0 0 0\n"
        "1 | 0 1 0 0\n"
        "2 | 0 3 2 0\n"
        "3 | 0 2 7 4"
    )
    assert doc["result"]["min_shift_sequence"] == [[1, 2], [2, 4], [3, 6]]


def test_cli_betti_testset_ideal(capsys):
    doc = run_json(capsys, "betti", TOY, "--ideal", "testset")
    triples = {(t["i"], t["j"]): t["beta"] for t in doc["result"]["betti"]}
    assert triples == kc.TOY63_TESTSET_BETTI
    assert doc["result"]["testset_size"] == 4


def test_cli_betti_principal_ideal_fixture(capsys):
    doc = run_json(capsys, "betti", REP31, "--ideal", "stanley-reisner")
    assert doc["result"]["betti"] == [
        {"i": 0, "j": 0, "beta": 1},
        {"i": 1, "j": 3, "beta": 1},
    ]


def test_cli_betti_union_explicit_orders(capsys):
    doc = run_json(capsys, "betti", TOY, "--ideal", "union-testsets",
                   "--use-order", "degrevlex:1,2,3,4,5,6",
                   "--use-order", "deglex:6,5,4,3,2,1")
    assert doc["params"]["order_count"] == 2
    assert doc["result"]["union_size"] == len(doc["result"]["generators"])


def test_diagram_round_trip_random_tables():
    import random
    rng = random.Random(9)
    for _ in range(20):
        entries = {(0, 0): 1}
        for _ in range(rng.randint(1, 12)):
            i = rng.randint(1, 6)
            j = i + rng.randint(0, 5)
            entries[(i, j)] = rng.randint(1, 30000)
        table = BettiTable(entries)
        assert parse_betti_diagram(render_betti_diagram(table)).entries == entries


def test_cli_gb_counts(capsys):
    doc = run_json(capsys, "gb", TOY)
    res = doc["result"]
    assert res["squarefree_count"] == 9
    assert res["quadric_count"] == 5
    assert res["total_elements"] == kc.TOY63_GB_TOTAL
    assert res["test_set"] == kc.TOY63_TESTSET
    assert res["standard_form_violations"] == 0


def test_cli_gb_worked63_contains_named_binomial(capsys):
    doc = run_json(capsys, "gb", WORKED)
    assert doc["result"]["total_elements"] == kc.WORKED63_GB_TOTAL
    assert ["000011", "001000"] in doc["result"]["squarefree_binomials"]


def test_cli_decode(capsys):
    doc = run_json(capsys, "decode", REP31, "110")
    assert doc["result"] == {
        "received": "110",
        "coset_leader": "001",
        "decoded": "111",
        "error_weight": 1,
    }
    doc = run_json(capsys, "decode", REP31, "111")
    assert doc["result"]["error_weight"] == 0
    rc, _, err = run_cli(capsys, "decode", REP31, "1101")
    assert rc == 1
    assert "length" in err
    rc, _, _ = run_cli(capsys, "decode", REP31, "1x0")
    assert rc == 1


def test_cli_verify(capsys):
    doc = run_json(capsys, "verify", TOY)
    assert doc["result"]["full_agreement"] is True
    assert all(doc["result"]["checks"].values())


def test_cli_search_empty_and_injected(capsys):
    doc = run_json(capsys, "search", "--n", "6", "--k", "3", "--trials", "0",
                   "--seed", "1")
    assert doc["result"]["flagged"] == []
    doc = run_json(capsys, "search", "--n", "10", "--k", "7", "--trials", "0",
                   "--seed", "1", "--inject", C107)
    assert doc["result"]["flagged_count"] == 1
    assert doc["result"]["flagged"][0]["pd_testset"] < doc["result"]["flagged"][0]["k"]


def test_cli_ghw_resolution_code149(capsys):
    doc = run_json(capsys, "ghw", str(FIXTURES / "code149.txt"),
                   "--route", "resolution")
    assert doc["result"]["display"] == "2 4 6 7 9 10 12 13 14"


def test_cli_gb_repetition_counts(capsys):
    doc = run_json(capsys, "gb", REP31)
    assert doc["result"]["squarefree_count"] == 3
    assert doc["result"]["quadric_count"] == 3


def test_cli_threads_flag_equivalence(capsys):
    base = run_json(capsys, "betti", TOY, "--ideal", "stanley-reisner")
    threaded = run_json(capsys, "betti", TOY, "--ideal", "stanley-reisner",
                        "--threads", "2")
    base.pop("timing")
    threaded.pop("timing")
    assert base == threaded


def test_cli_theorem_violation_exit_code(capsys, monkeypatch):
    import ghw.cli as cli_mod
    from ghw import TheoremViolation

    def boom(*args, **kwargs):
        raise TheoremViolation("injected")

    monkeypatch.setattr(cli_mod, "verify_code", boom)
    rc, _, err = run_cli(capsys, "verify", TOY)
    assert rc == 3
    assert "consistency" in err


def test_cli_verify_code149_all_match(capsys):
    doc = run_json(capsys, "verify", str(FIXTURES / "code149.txt"))
    assert doc["result"]["full_agreement"] is True
    assert doc["result"]["minshift_testset"] == list(kc.CODE149_GHW)
    assert doc["result"]["pd_equals_k"] is True


def test_cli_degenerate_warning(tmp_path, capsys):
    path = tmp_path / "degen.txt"
    path.write_text("1 1 0 0\n0 1 1 0\n")
    rc, out, err = run_cli(capsys, "ghw", str(path), "--route", "oracle")
    assert rc == 0
    assert "degenerate" in err
    assert json.loads(out)["code"]["nondegenerate"] is False


def test_cli_search_explicit_order(capsys):
    doc = run_json(capsys, "search", "--n", "6", "--k", "3", "--trials", "4",
                   "--seed", "9", "--use-order", "deglex:6,5,4,3,2,1")
    assert doc["result"]["orders"] == ["deglex vars=6,5,4,3,2,1"]


def test_cli_determinism_modulo_timing(capsys):
    docs = []
    for _ in range(2):
        doc = run_json(capsys, "betti", TOY, "--ideal", "testset")
        doc.pop("timing")
        docs.append(dumps_document(doc))
    assert docs[0] == docs[1]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n1 2\n")
    rc, _, err = run_cli(capsys, "ghw", str(bad))
    assert rc == 1 and "line 2" in err

    rc, _, _ = run_cli(capsys, "ghw", str(tmp_path / "missing.txt"))
    assert rc == 1

    monkeypatch.setenv("GHW_SIZE_CAP", "4")
    rc, _, err = run_cli(capsys, "ghw", TOY)
    assert rc == 2 and "cap" in err.lower()

    rc, _, _ = run_cli(capsys, "nonsense")
    assert rc == 1


@pytest.mark.parametrize("value", ["0", "-2", "many"])
def test_cli_rejects_threads_below_one(capsys, value):
    rc, out, err = run_cli(capsys, "betti", REP31, f"--threads={value}")
    assert rc == 1
    assert out == ""
    assert "--threads" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("search", "--n", "-3", "--k", "2", "--trials", "1"), "--n"),
    (("search", "--n", "4", "--k", "6", "--trials", "1"), "--k"),
    (("search", "--n", "4", "--k", "0", "--trials", "1"), "--k"),
    (("search", "--n", "4", "--k", "2", "--trials", "-2"), "--trials"),
    (("betti", TOY, "--ideal", "union-testsets", "--sample-orders", "-4"),
     "--sample-orders"),
    (("betti", TOY, "--ideal", "union-testsets", "--sample-orders", "0"),
     "--sample-orders"),
])
def test_cli_rejects_out_of_range_numbers(capsys, argv, flag):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert flag in err
    assert "Traceback" not in err


def test_cli_search_length_above_cap(capsys, monkeypatch):
    monkeypatch.setenv("GHW_SIZE_CAP", "8")
    rc, out, err = run_cli(capsys, "search", "--n", "9", "--k", "2",
                           "--trials", "0")
    assert rc == 2
    assert out == ""
    assert "--n" in err and "cap" in err


@pytest.mark.parametrize("command", [
    ("gb", REP31), ("decode", REP31, "110"),
    ("search", "--n", "4", "--k", "2", "--trials", "0"),
])
def test_cli_threads_only_where_a_sweep_reads_it(capsys, command):
    rc, out, err = run_cli(capsys, *command, "--threads", "2")
    assert rc == 1
    assert out == ""
    assert "--threads" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_cli_rejects_bad_size_cap(capsys, monkeypatch, value):
    monkeypatch.setenv("GHW_SIZE_CAP", value)
    rc, out, err = run_cli(capsys, "gb", REP31)
    assert rc == 1
    assert out == ""
    assert "GHW_SIZE_CAP" in err
    assert "Traceback" not in err


def test_size_cap_env_override(monkeypatch):
    wide = BinaryMatrix((1,), 25)
    with pytest.raises(Exception):
        Code.from_generator(wide)
    monkeypatch.setenv("GHW_SIZE_CAP", "30")
    code = Code.from_generator(wide)
    assert code.n == 25


def test_public_api_resolves():
    import ghw

    for name in ghw.__all__:
        assert getattr(ghw, name) is not None
