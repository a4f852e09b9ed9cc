import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ghw import (Code, MatrixParseError, TermOrder, min_pair_union, reduced_groebner_basis,
                 word_to_string)
from ghw.cli import main
from ghw.groebner import test_set as extract_testset
from ghw.io import dumps_document, load_matrix, parse_matrix_text, render_betti_diagram
from ghw.resolution import BettiTable

import known_codes as kc
from test_codes import random_code

FIXTURES = Path(__file__).parent / "fixtures"
TOY = str(FIXTURES / "toy63.txt")
WORKED = str(FIXTURES / "worked63.txt")
REP31 = str(FIXTURES / "rep31.txt")
C107 = str(FIXTURES / "code107.txt")
C149 = str(FIXTURES / "code149.txt")


def parse_betti_diagram(text: str) -> BettiTable:
    """Inverse of render_betti_diagram (zero cells are dropped)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    entries: dict[tuple[int, int], int] = {}
    cols = [int(tok) for tok in lines[0].split()]
    for line in lines[1:]:
        label, _, cells = line.partition("|")
        r = int(label)
        values = [int(tok) for tok in cells.split()]
        if len(values) != len(cols):
            raise ValueError(f"row {r} has {len(values)} cells, expected {len(cols)}")
        for i, beta in zip(cols, values):
            if beta:
                entries[(i, i + r)] = beta
    return BettiTable(entries)


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
    # no rows: the last line, or line 1 of an empty text
    for text, line_no in (("# nothing\n", 1), ("# only\n\n", 2), ("", 1)):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix_text(text)
        assert exc.value.line_no == line_no


def test_cli_ghw_oracle(capsys):
    doc = run_json(capsys, "ghw", TOY, "--route", "oracle")
    assert doc["result"]["ghw"] == [2, 4, 6]
    assert doc["result"]["display"] == "2 4 6"
    assert doc["code"] == {
        "n": 6, "k": 3, "nondegenerate": True,
        "generator_rows": ["100001", "011010", "000111"],
    }


def test_cli_oracle_at_the_size_cap(tmp_path, capsys):
    """A seeded [24,12] code, n at the default cap, against facts read
    off its codewords: d_1 is the minimum weight, d_2 the smallest pair
    union, d_k the size of the support."""
    code = random_code(random.Random(24), 24, 12)
    path = tmp_path / "random24_12.txt"
    path.write_text("".join(" ".join(row) + "\n" for row in code.generator.row_strings()))
    ghw = run_json(capsys, "ghw", str(path), "--route", "oracle")["result"]["ghw"]
    words = [w for w in code.codewords() if w]
    support = 0
    for w in words:
        support |= w
    assert len(ghw) == 12
    assert ghw[0] == min(w.bit_count() for w in words)
    assert ghw[1] == min_pair_union(words)
    assert ghw[-1] == support.bit_count()


def test_cli_testset_sweep_past_budget_refused(tmp_path, capsys):
    """The test-set ideal of a seeded [24,12] code has an lcm lattice of
    hundreds of thousands of sets, hours of Hochster sweep: the sweep is
    refused while the lattice grows, with its mask estimate."""
    code = random_code(random.Random(24), 24, 12)
    path = tmp_path / "random24_12.txt"
    path.write_text("".join(" ".join(row) + "\n" for row in code.generator.row_strings()))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "ghw", str(path), "--route", "testset")
    assert time.perf_counter() - start < 5
    assert rc == 2
    assert out == ""
    assert "submask visits" in err and "e+" in err
    assert "Traceback" not in err


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
                   "--order", "degrevlex:1,2,3,4,5,6",
                   "--order", "deglex:6,5,4,3,2,1")
    assert doc["params"]["order_count"] == 2
    assert doc["params"]["orders"] == [
        {"kind": "degrevlex", "vars": [1, 2, 3, 4, 5, 6]},
        {"kind": "deglex", "vars": [6, 5, 4, 3, 2, 1]},
    ]
    assert doc["result"]["union_size"] == len(doc["result"]["generators"])


def test_cli_betti_union_sampled_orders_record_seed(capsys):
    """Two seeds sample different orders and different unions, and their
    params say so."""
    docs = [run_json(capsys, "betti", C149, "--ideal", "union-testsets",
                     "--sample-orders", "20", "--seed", seed)
            for seed in ("4", "5")]
    assert [d["params"]["seed"] for d in docs] == [4, 5]
    assert docs[0]["params"] | {"seed": 5} == docs[1]["params"]
    assert docs[0]["result"]["union_size"] != docs[1]["result"]["union_size"]


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


def test_cli_gb_order_flags_match_the_library(capsys):
    """The README example: --order lists the priority highest first and
    1-based, so 6,5,4,3,2,1 is the library's priority (5, 4, 3, 2, 1, 0)."""
    doc = run_json(capsys, "gb", WORKED, "--order", "degrevlex:6,5,4,3,2,1")
    code = Code.from_generator(load_matrix(WORKED))
    basis, _ = reduced_groebner_basis(code, TermOrder("degrevlex", (5, 4, 3, 2, 1, 0)))
    assert doc["params"]["order"] == {"kind": "degrevlex", "vars": [6, 5, 4, 3, 2, 1]}
    binomials = [[word_to_string(b.lead, 6), word_to_string(b.trail, 6)]
                 for b in basis.binomials]
    assert doc["result"]["squarefree_binomials"] == binomials
    assert doc["result"]["test_set"] == [
        word_to_string(w, 6) for w in extract_testset(basis, code)]
    default = run_json(capsys, "gb", WORKED)["result"]["squarefree_binomials"]
    assert default != binomials


@pytest.mark.parametrize("value, message", [
    ("degrevlex:1,2,3", "bad order spec 'degrevlex:1,2,3': need a permutation of 1..6"),
    ("degrevlex:1,2,3,4,5,x",
     "bad order spec 'degrevlex:1,2,3,4,5,x': variables must be integers"),
], ids=["not-a-permutation", "not-integers"])
def test_cli_rejects_bad_vars(capsys, value, message):
    rc, out, err = run_cli(capsys, "gb", WORKED, "--order", value)
    assert rc == 1
    assert out == ""
    assert err == f"ghw: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("betti", TOY, "--ideal", "union-testsets", "--order", "lex:1,2,3,4,5,6"),
     "bad order spec 'lex:1,2,3,4,5,6': kind must be deglex or degrevlex"),
    (("betti", TOY, "--ideal", "union-testsets", "--order", "deglex:a,b"),
     "bad order spec 'deglex:a,b': variables must be integers"),
    (("search", "--n", "6", "--k", "3", "--trials", "0", "--order", "deglex:1,2"),
     "bad order spec 'deglex:1,2': need a permutation of 1..6"),
], ids=["bad-kind", "not-integers", "not-a-permutation"])
def test_cli_rejects_bad_order_specs(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err == f"ghw: {message}\n"


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


VERIFY_KEYS = [
    "n", "k", "generator_rows", "order", "degenerate", "ghw", "minshift_full",
    "minshift_testset", "pd_testset", "testset_size", "basis_size", "witness_m1",
    "witness_m2", "checks", "agreement_by_index", "exact_through_i3",
    "full_agreement", "pd_equals_k",
]


def test_cli_verify_document_key_order(capsys):
    result = run_json(capsys, "verify", TOY)["result"]
    assert list(result) == VERIFY_KEYS
    checks = list(result["checks"])
    assert checks == sorted(checks)


SEARCH_KEYS = [
    "n", "k", "trials", "seed", "orders", "evaluated", "skipped_rank_deficient",
    "skipped_degenerate", "flagged_count", "flagged", "exactness_i3_failures",
    "flagged_always_pd_below_k",
]


def test_cli_search_empty_and_injected(capsys):
    doc = run_json(capsys, "search", "--n", "6", "--k", "3", "--trials", "0",
                   "--seed", "1")
    assert doc["result"]["flagged"] == []
    assert list(doc["result"]) == SEARCH_KEYS
    doc = run_json(capsys, "search", "--n", "10", "--k", "7", "--trials", "0",
                   "--seed", "1", "--inject", C107)
    assert doc["result"]["flagged_count"] == 1
    assert list(doc["result"]["flagged"][0]) == [
        "trial", "matrix", "order", "ghw", "minshift_testset", "pd_testset", "k",
        "exact_through_i3"]
    assert doc["result"]["flagged"][0]["pd_testset"] < doc["result"]["flagged"][0]["k"]


def test_cli_ghw_resolution_code149(capsys):
    doc = run_json(capsys, "ghw", str(FIXTURES / "code149.txt"),
                   "--route", "resolution")
    assert doc["result"]["display"] == "2 4 6 7 9 10 12 13 14"


def test_cli_gb_repetition_counts(capsys):
    doc = run_json(capsys, "gb", REP31)
    assert doc["result"]["squarefree_count"] == 3
    assert doc["result"]["quadric_count"] == 3


def test_cli_theorem_violation_exit_code(capsys, monkeypatch):
    import ghw.analysis as analysis_mod
    from ghw import TheoremViolation

    def boom(*args, **kwargs):
        raise TheoremViolation("injected")

    # verify imports verify_code when it runs, so the patch goes where it is read
    monkeypatch.setattr(analysis_mod, "verify_code", boom)
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
                   "--seed", "9", "--order", "deglex:6,5,4,3,2,1")
    assert doc["result"]["orders"] == ["deglex vars=6,5,4,3,2,1"]


def test_cli_determinism_modulo_timing(capsys):
    docs = []
    for _ in range(2):
        doc = run_json(capsys, "betti", TOY, "--ideal", "testset")
        doc.pop("timing")
        docs.append(dumps_document(doc))
    assert docs[0] == docs[1]


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n1 2\n")
    rc, _, err = run_cli(capsys, "ghw", str(bad))
    assert rc == 1 and "line 2" in err

    rc, _, _ = run_cli(capsys, "ghw", str(tmp_path / "missing.txt"))
    assert rc == 1

    empty = tmp_path / "empty.txt"
    empty.write_text("# only\n\n")
    rc, _, err = run_cli(capsys, "gb", str(empty))
    assert rc == 1 and err == "ghw: line 2: no matrix rows found\n"

    wide = tmp_path / "wide25.txt"
    wide.write_text(" ".join("1" * 25) + "\n")
    rc, _, err = run_cli(capsys, "ghw", str(wide))
    assert rc == 2 and "cap" in err.lower()

    rc, _, _ = run_cli(capsys, "nonsense")
    assert rc == 1


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
def test_cli_output_to_an_unwritable_path(tmp_path, capsys, target):
    """A missing directory and a directory in place of a file: exit 1 with
    a message, no traceback and no document."""
    path = str(tmp_path / target)
    rc, out, err = run_cli(capsys, "ghw", TOY, "-o", path)
    assert rc == 1
    assert out == ""
    assert err.startswith(f"ghw: cannot write {path}: ")
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


@pytest.mark.parametrize("first, second", [
    (("--all-orders",), ("--sample-orders", "5")),
    (("--all-orders",), ("--order", "degrevlex:1,2,3,4,5,6")),
    (("--sample-orders", "5"), ("--order", "degrevlex:1,2,3,4,5,6")),
])
def test_cli_union_takes_one_source_of_orders(capsys, first, second):
    """Two sources of orders for one union are refused, not one of them
    silently dropped."""
    rc, out, err = run_cli(capsys, "betti", TOY, "--ideal", "union-testsets",
                           *first, *second)
    assert rc == 1
    assert out == ""
    assert first[0] in err and second[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("--ideal", "testset", "--sample-orders", "3"), "--sample-orders"),
    (("--ideal", "testset", "--all-orders"), "--all-orders"),
    (("--ideal", "stanley-reisner", "--order", "deglex:1,2,3,4,5,6"), "--order"),
    (("--order", "deglex"), "--order"),  # stanley-reisner by default
    (("--ideal", "union-testsets", "--all-orders", "--order", "degrevlex:6,5,4,3,2,1"),
     "--order"),
    (("--ideal", "union-testsets", "--all-orders", "--seed", "9"), "--seed"),
    (("--ideal", "union-testsets", "--seed", "9"), "--seed"),  # n = 6: every order
    (("--ideal", "union-testsets", "--order", "deglex:1,2,3,4,5,6", "--seed", "0"),
     "--seed"),
    (("--ideal", "testset", "--seed", "9"), "--seed"),
])
def test_cli_betti_refuses_flags_it_would_not_use(capsys, argv, flag):
    """A flag of an ideal or a source of orders that betti does not run
    exits 1 with no document, rather than being dropped without a word."""
    rc, out, err = run_cli(capsys, "betti", TOY, *argv)
    assert rc == 1
    assert out == ""
    assert flag in err and " need" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("route, spec", [
    ("oracle", "deglex"), ("resolution", "degrevlex:6,5,4,3,2,1"),
])
def test_cli_ghw_refuses_order_on_routes_without_one(capsys, route, spec):
    """The routes that build no order exit 1 with no document on --order,
    as betti does on the ideals that build none."""
    rc, out, err = run_cli(capsys, "ghw", TOY, "--route", route, "--order", spec)
    assert rc == 1
    assert out == ""
    assert err == "ghw: --order needs --route testset\n"


@pytest.mark.parametrize("command", [
    ("gb", TOY), ("decode", TOY, "110000"), ("verify", TOY),
    ("ghw", TOY, "--route", "testset"), ("betti", TOY, "--ideal", "testset"),
], ids=["gb", "decode", "verify", "ghw-testset", "betti-testset"])
def test_cli_single_order_commands_refuse_a_repeated_order(capsys, command):
    rc, out, err = run_cli(capsys, *command, "--order", "deglex", "--order", "degrevlex")
    assert rc == 1
    assert out == ""
    assert err == f"ghw: --order given 2 times; {command[0]} takes one order\n"


@pytest.mark.parametrize("argv", [
    ("gb", WORKED, "--order", "degrevlex", "--vars", "6,5,4,3,2,1"),
    ("ghw", TOY, "--route", "oracle", "--vars", "9,9"),
    ("betti", TOY, "--ideal", "union-testsets", "--use-order", "deglex:1,2,3,4,5,6"),
    ("search", "--n", "6", "--k", "3", "--trials", "0", "--use-order", "deglex:1,2,3,4,5,6"),
], ids=["gb-vars", "oracle-vars", "betti-use-order", "search-use-order"])
def test_cli_old_order_flags_are_gone(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert "unrecognized arguments: " + argv[-2] in err


@pytest.mark.parametrize("command, n", [
    (("gb", TOY), 6), (("decode", TOY, "110000"), 6), (("verify", TOY), 6),
    (("ghw", TOY, "--route", "testset"), 6), (("betti", TOY, "--ideal", "testset"), 6),
    (("betti", TOY, "--ideal", "union-testsets"), 6),
    (("search", "--n", "4", "--k", "2", "--trials", "3"), 4),
], ids=["gb", "decode", "verify", "ghw-testset", "betti-testset", "union", "search"])
def test_cli_bare_order_kind_means_priority_one_to_n(capsys, command, n):
    """--order deglex is --order deglex:1,...,n; on the union it is a
    union over that one order."""
    bare = run_json(capsys, *command, "--order", "deglex")
    full = run_json(capsys, *command, "--order", "deglex:" + ",".join(map(str, range(1, n + 1))))
    bare.pop("timing")
    full.pop("timing")
    assert bare == full
    params = bare["params"]
    assert (params.get("order") or params["orders"][0]) == {
        "kind": "deglex", "vars": list(range(1, n + 1))}
    if "order_count" in params:
        assert params["order_count"] == 1


def test_cli_betti_sampled_orders_default_to_seed_zero(capsys):
    """Without --seed, sampled orders use seed 0 and say so in params."""
    docs = [run_json(capsys, "betti", C107, "--ideal", "union-testsets", *seed)
            for seed in ((), ("--seed", "0"))]
    assert docs[0]["params"]["seed"] == 0
    assert docs[0]["params"] == docs[1]["params"]
    assert docs[0]["result"] == docs[1]["result"]


def test_cli_all_orders_refused_past_the_fan_budget(tmp_path, capsys):
    """The Groebner-fan search of a seeded [14,7] code passes 16,384
    states of 128 cosets: the union is refused before any basis, with
    the flags that still run it."""
    code = random_code(random.Random(14), 14, 7)
    path = tmp_path / "random14_7.txt"
    path.write_text("".join(" ".join(row) + "\n" for row in code.generator.row_strings()))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "betti", str(path), "--ideal", "union-testsets",
                           "--all-orders")
    assert time.perf_counter() - start < 5
    assert rc == 2
    assert out == ""
    assert "states of 128 cosets" in err
    assert "--sample-orders" in err and "--order" in err
    assert "Traceback" not in err


def test_cli_all_orders_above_n9_holds_the_sampled_union(capsys):
    """code107 has n = 10: all 2 * 10! orders make 48 classes, and their
    union holds the union of 50 sampled orders."""
    full = run_json(capsys, "betti", C107, "--ideal", "union-testsets", "--all-orders")
    sampled = run_json(capsys, "betti", C107, "--ideal", "union-testsets",
                       "--sample-orders", "50")
    assert full["params"]["orders"] == "all-permutations"
    assert full["params"]["order_count"] == 2 * 3_628_800
    assert set(sampled["result"]["generators"]) <= set(full["result"]["generators"])
    assert full["result"]["union_size"] == len(full["result"]["generators"])


def test_cli_search_length_above_cap(capsys):
    rc, out, err = run_cli(capsys, "search", "--n", "25", "--k", "2",
                           "--trials", "0")
    assert rc == 2
    assert out == ""
    assert "--n" in err and "cap" in err


@pytest.mark.parametrize("value", ["2", "0", "-2", "many"])
@pytest.mark.parametrize("command", [
    ("ghw", REP31), ("betti", REP31), ("gb", REP31), ("decode", REP31, "110"),
    ("verify", REP31), ("search", "--n", "4", "--k", "2", "--trials", "0"),
])
def test_cli_rejects_threads_on_every_command(capsys, command, value):
    rc, out, err = run_cli(capsys, *command, f"--threads={value}")
    assert rc == 1
    assert out == ""
    assert "--threads" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, n", [
    (("ghw", REP31, "--route", "testset"), 3), (("betti", REP31, "--ideal", "testset"), 3),
    (("gb", REP31), 3), (("decode", REP31, "110"), 3), (("verify", REP31), 3),
    (("search", "--n", "4", "--k", "2", "--trials", "3"), 4),
])
def test_cli_shared_flags_on_every_command(tmp_path, capsys, command, n):
    """--order and -o reach every subcommand that builds an order; the file
    holds the document that stdout would have held."""
    flags = ("--order", "deglex:" + ",".join(map(str, range(n, 0, -1))))
    path = tmp_path / "doc.json"
    rc, out, err = run_cli(capsys, *command, *flags, "-o", str(path))
    assert rc == 0, err
    assert out == ""
    written = json.loads(path.read_text())
    printed = run_json(capsys, *command, *flags)
    written.pop("timing")
    printed.pop("timing")
    assert written == printed
    params = written["params"]
    expected = {"kind": "deglex", "vars": list(range(n, 0, -1))}
    assert (params.get("order") or params["orders"][0]) == expected


@pytest.mark.parametrize("command, end", [
    pytest.param(command, end, id=f"command{i}{suffix}")
    for end, suffix in ((b"\n", ""), (b"\r", "-cr"), (b"\r\n", "-crlf"))
    for i, command in enumerate([
        ("gb",), ("search", "--n", "3", "--k", "2", "--trials", "0", "--inject")])
])
def test_cli_matrix_file_not_utf8(tmp_path, capsys, command, end):
    """The bad byte is numbered by the same line breaks as the rows."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(end.join([b"1 0 1", b"0 1 1", b"\xff\xfe 1 0", b""]))
    rc, out, err = run_cli(capsys, *command, str(bad))
    assert rc == 1
    assert out == ""
    assert err == "ghw: line 3: not UTF-8 text\n"
    assert "Traceback" not in err


def test_cli_search_rejects_injected_length_mismatch(capsys):
    path = str(FIXTURES / "code149.txt")
    rc, out, err = run_cli(capsys, "search", "--n", "6", "--k", "3",
                           "--trials", "1", "--inject", path)
    assert rc == 1
    assert out == ""
    assert path in err and "14" in err and "--n 6" in err
    assert "Traceback" not in err


def test_cli_readme_examples(monkeypatch, capsys):
    """Every `$ ghw ...` line of the README runs from the repository root
    and exits 0, and prints the display its comment quotes."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    examples = [line[len("$ ghw "):] for line in readme.splitlines()
                if line.startswith("$ ghw ")]
    monkeypatch.chdir(root)
    displays = 0
    for example in examples:
        command, _, comment = example.partition("#")
        rc, out, err = run_cli(capsys, *shlex.split(command))
        assert rc == 0, (example, err)
        quoted = re.search(r'"display": "([^"]*)"', comment)
        if quoted:
            assert json.loads(out)["result"]["display"] == quoted.group(1), example
            displays += 1
    assert len(examples) >= 8 and displays >= 2


def test_public_api_resolves(monkeypatch):
    import ghw

    for name in ghw.__all__:  # forget the names earlier imports resolved
        if name in vars(ghw):
            monkeypatch.delattr(ghw, name)
    assert set(ghw.__all__) <= set(dir(ghw))
    namespace: dict = {}
    exec("from ghw import *", namespace)
    for name in ghw.__all__:
        assert namespace[name] is getattr(ghw, name) is not None
    with pytest.raises(AttributeError):
        ghw.no_such_name

    # test-only code lives next to its tests; pure aliases are gone
    import ghw.analysis, ghw.codes, ghw.gf2, ghw.groebner, ghw.io, ghw.resolution
    gone = {
        ghw.codes: ("matroid_circuits", "subcode_dim_within"),
        ghw.gf2: ("rank_of_columns", "bits_of"),
        ghw.io: ("parse_betti_diagram",),
        ghw.resolution: ("taylor_pair_minimum", "restricted_faces",
                         "reduced_homology_dims"),
        ghw.groebner: ("LESS", "EQUAL", "GREATER"),
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), name
            assert not hasattr(ghw, name), name
    assert not hasattr(ghw.resolution.BettiTable, "alternating_sums_by_shift")
    assert not hasattr(ghw.groebner.TermOrder, "compare")
    assert not hasattr(ghw.analysis.WitnessPair, "support_i")
    assert not hasattr(ghw.analysis.WitnessPair, "support_j")


# The ghw modules each start-up loads (a command imports only its route's),
# and whether dataclasses was imported on the way.
_LOADED_BY = """\
import contextlib, io, json, sys
if sys.argv[1:]:
    import ghw.cli
    with contextlib.redirect_stdout(io.StringIO()):
        if ghw.cli.main(sys.argv[1:]):
            sys.exit("the command failed")
else:
    import ghw
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "ghw"),
                  "dataclasses" in sys.modules]))
"""
_CLI_BASE = ["ghw", "ghw.cli", "ghw.codes", "ghw.errors", "ghw.gf2", "ghw.io"]


@pytest.mark.parametrize("argv, loaded", [
    ((), ["ghw"]),
    (("ghw", C149, "--route", "oracle"), _CLI_BASE),
    (("gb", C149), sorted(_CLI_BASE + ["ghw.groebner"])),
    (("decode", TOY, "110000"), sorted(_CLI_BASE + ["ghw.groebner"])),
    (("ghw", C149, "--route", "resolution"), sorted(_CLI_BASE + ["ghw.resolution"])),
    (("verify", TOY), sorted(_CLI_BASE + ["ghw.analysis", "ghw.groebner", "ghw.resolution"])),
])
def test_start_up_loads_only_the_modules_of_its_command(argv, loaded):
    import ghw

    src = str(Path(ghw.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY, *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [loaded, False]
