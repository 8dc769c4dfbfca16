"""End-to-end command-line tests driving main() directly, and the command
line's exit and stderr contract checked in subprocesses."""

import contextlib
import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref

from gesselgamma import (
    GAMMA_ROUTES,
    Multiset,
    Poly3,
    StirlingPermutation,
    c_polynomial_grammar,
    enumerate_stirling,
    gamma_polynomial_grammar,
    gessel_forward,
    serialize,
    stirling_words,
)
from gesselgamma import cli
from gesselgamma.action import placements
from gesselgamma.cli import main
from gesselgamma.grammar import chain_cost
from gesselgamma.harness import CHECKS, CheckDef


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def enumerate_output(m, fmt, stats):
    """The text of ``enumerate`` as it was built before it streamed its rows:
    every row collected first, then one ``json.dumps`` or one CSV table."""
    rows = []
    for s in ref.enumerate_stirling(m):
        row = {"word": list(s.word)}
        if stats:
            prof = ref.statistics(s)
            row.update({
                "asc": prof.asc, "des": prof.des, "plat": prof.plat,
                "plat_by_j": {str(j): c for j, c in sorted(prof.plat_by_j.items())},
                "dfall": prof.dfall, "aplat": prof.aplat, "dplat": prof.dplat,
            })
        rows.append(row)
    if fmt == "json":
        return json.dumps({"multiset": list(m.mults), "count": len(rows), "words": rows}) + "\n"
    cols = ["word"] + (["asc", "des", "plat", "dfall", "aplat", "dplat"] if stats else [])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join([" ".join(str(v) for v in row["word"])]
                              + [str(row[c]) for c in cols[1:]]))
    return "\n".join(lines) + "\n"


class TestEnumerate:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--multiset", "2,2")
        assert code == 0
        data = json.loads(out)
        assert data["multiset"] == [2, 2]
        assert data["count"] == 3
        assert [row["word"] for row in data["words"]] == [
            [1, 1, 2, 2], [1, 2, 2, 1], [2, 2, 1, 1],
        ]

    def test_json_stats(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--multiset", "2", "--stats")
        assert code == 0
        (row,) = json.loads(out)["words"]
        assert row == {
            "word": [1, 1], "asc": 1, "des": 1, "plat": 1,
            "plat_by_j": {"2": 1}, "dfall": 0, "aplat": 1, "dplat": 0,
        }

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--multiset", "2,2", "--format", "csv",
                           "--stats")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "word,asc,des,plat,dfall,aplat,dplat"
        assert lines[1] == "1 1 2 2,2,1,2,0,2,0"
        assert len(lines) == 4

    @pytest.mark.parametrize("spec, fmt, digest", [
        ("2,2", "json", "a839edbdc1446d041c0d0570070c550220197dac7df4ab8b369e464c4b7c39c9"),
        ("2,2", "csv", "5c265cc8e7a67d565025481ff054e05f254d8c0676529243eba09ffed0f818d9"),
        ("3,1,2", "json", "2e037c7b8124754d50959551450ab581052a6c3b4b92486ce6bb788a0da45439"),
        ("3,1,2", "csv", "8dcd7d6dd4df8095343a1ed98358b81a584e6874143f7db8eafb0c5836050671"),
    ])
    def test_stats_output_is_frozen(self, capsys, spec, fmt, digest):
        # The bytes printed while StatProfile was a frozen dataclass.
        code, out, _ = run(capsys, "enumerate", "--multiset", spec, "--format", fmt, "--stats")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("spec", ["2,2", "1,2,1", "1,1,1,1", ""])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("stats", [False, True])
    def test_streamed_output_equals_one_dump_of_all_rows(self, capsys, monkeypatch,
                                                        spec, fmt, stats):
        monkeypatch.setattr(cli, "_ROW_BATCH", 5)  # 3, 12 and 24 words span 1 to 5 batches
        argv = ["enumerate", "--multiset", spec, "--format", fmt] + ["--stats"] * stats
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == enumerate_output(Multiset.parse(spec), fmt, stats)

    def test_bad_multiset(self, capsys):
        code, _, err = run(capsys, "enumerate", "--multiset", "2,zero")
        assert code == 2
        assert err.startswith("error:")


class TestTreePerm:
    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "tree", "--perm", "1221")
        assert code == 0
        tree = out.strip()
        assert tree == "(1 * (2 * * *) *)"
        code, out, _ = run(capsys, "perm", "--tree", tree)
        assert code == 0
        assert out.strip() == "1 2 2 1"

    def test_word_forms_agree(self, capsys):
        for form in ("1 2 2 1", "1,2,2,1", "1221", "1\t2\t2\t1", "1\n2\n2\n1"):
            _, out, _ = run(capsys, "tree", "--perm", form)
            assert out.strip() == "(1 * (2 * * *) *)"

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "tree", "--perm", "1 2 1 2")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["tree", "--perm", ","],
        ["tree", "--perm", "1,,1"],
        ["tree", "--perm", ",1,1,"],
        ["tree", "--perm", "1, ,1"],
        ["orbit", "--perm", ", ,"],
    ])
    def test_a_word_with_an_empty_part_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: bad permutation word {argv[2]!r}: " \
            "invalid literal for int() with base 10: ''\n"

    def test_bad_tree(self, capsys):
        code, _, err = run(capsys, "perm", "--tree", "(1 * (2 * *)")
        assert code == 2
        assert "error:" in err

    def test_deep_chain_roundtrip(self, capsys):
        word = " ".join(str(v) for v in range(1, 1201))
        code, out, _ = run(capsys, "tree", "--perm", word)
        assert code == 0
        tree = out.strip()
        assert tree.startswith("(1 * (2 * (3 * ") and tree.endswith("(1200 * *)" + ")" * 1199)
        code, out, _ = run(capsys, "perm", "--tree", tree)
        assert code == 0
        assert out.strip() == word

    def test_deep_chain_prune(self, capsys):
        tree = "".join(f"({v} * " for v in range(1, 1200)) + "(1200 * *)" + ")" * 1199
        code, out, _ = run(capsys, "prune", "--tree", tree)
        assert code == 0
        data = json.loads(out)
        assert data["pruned"] == (
            "".join(f"({v}:v " for v in range(1, 1200)) + "(1200:u)" + ")" * 1199)
        assert data["weight"] == {"u": 1, "v": 1199}


class TestPoly:
    def test_routes_agree(self, capsys):
        _, out_enum, _ = run(capsys, "poly", "--multiset", "2,1,2", "--via", "enum")
        _, out_grammar, _ = run(capsys, "poly", "--multiset", "2,1,2", "--via", "grammar")
        assert json.loads(out_enum) == json.loads(out_grammar)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "poly", "--multiset", "2,2", "--via", "enum",
                           "--format", "csv")
        assert code == 0
        assert out == "x,y,z,coeff\n1,2,2,1\n2,1,2,1\n2,2,1,1\n"


class TestGamma:
    def test_all_routes_agree_on_doubled(self, capsys):
        outputs = []
        for via in ("extract", "grammar", "trees", "perms", "mma", "ternary"):
            code, out, _ = run(capsys, "gamma", "--multiset", "2,2", "--via", via)
            assert code == 0
            outputs.append(json.loads(out))
        assert all(o == outputs[0] for o in outputs)
        assert outputs[0] == {
            "K": 4,
            "entries": [{"i": 1, "j": 2, "g": 1}, {"i": 2, "j": 1, "g": 1}],
        }

    def test_doubled_only_routes_reject_mixed(self, capsys):
        for via in ("mma", "ternary"):
            code, _, err = run(capsys, "gamma", "--multiset", "2,1", "--via", via)
            assert code == 2
            assert "doubled" in err

    @pytest.mark.parametrize("via", list(GAMMA_ROUTES))
    def test_every_route_refuses_the_empty_multiset(self, capsys, via):
        code, out, err = run(capsys, "gamma", "--multiset", "", "--via", via)
        assert code == 2
        assert out == ""
        assert err == "error: gamma tables are defined for nonempty multisets\n"

    def test_grammar_route_on_mixed(self, capsys):
        code, out, _ = run(capsys, "gamma", "--multiset", "2,1,2", "--via", "grammar")
        assert code == 0
        assert json.loads(out) == {
            "K": 5,
            "entries": [
                {"i": 1, "j": 2, "g": 3},
                {"i": 2, "j": 1, "g": 1},
                {"i": 2, "j": 2, "g": 2},
            ],
        }


# The bytes the counting routes printed while they read every word of the
# multiset, before they read the words without its last block.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ROUTE_OUTPUTS = [
    (["poly", "--via", "enum", "--format", "json", "--multiset", "2,2"],
     "d7138346e3535fad14b51fd270162858b6b7856c26fa7e0c742d29d068057fbd"),
    (["poly", "--via", "enum", "--format", "csv", "--multiset", "2,2"],
     "8a8257b4ace37c42e8a4e8a42a1cf50729a1d56178cffed89cf4e1a8868f6739"),
    (["gamma", "--via", "extract", "--multiset", "2,2"],
     "f797c7563bf8428e38b6d3685e1ec6106f1e1835c58432e11706168c0a7351a6"),
    (["gamma", "--via", "perms", "--multiset", "2,2"],
     "f797c7563bf8428e38b6d3685e1ec6106f1e1835c58432e11706168c0a7351a6"),
    (["gamma", "--via", "mma", "--multiset", "2,2"],
     "f797c7563bf8428e38b6d3685e1ec6106f1e1835c58432e11706168c0a7351a6"),
    (["poly", "--via", "enum", "--format", "json", "--multiset", "3,1,2"],
     "e8fade8446a45d2fddf79c742a92083b0c51b8db5416308b5f94887a10e259aa"),
    (["poly", "--via", "enum", "--format", "csv", "--multiset", "3,1,2"],
     "051418e2018bacda9052bdca5ef42de002744db4fb07c1ed38e69b8925249eb4"),
    (["gamma", "--via", "extract", "--multiset", "3,1,2"],
     "3942d74c0f6c9d6b61c5ee89fcdbba70a578045e766175748913fccb4326ea8a"),
    (["gamma", "--via", "perms", "--multiset", "3,1,2"],
     "3942d74c0f6c9d6b61c5ee89fcdbba70a578045e766175748913fccb4326ea8a"),
    (["gamma", "--via", "mma", "--multiset", "3,1,2"],
     EMPTY),
    (["poly", "--via", "enum", "--format", "json", "--multiset", "1,1,1,1"],
     "6e02650f5e390770f60fe42a5f7860d6491aa15a36fa518b99e33c2e8c99b48f"),
    (["poly", "--via", "enum", "--format", "csv", "--multiset", "1,1,1,1"],
     "03c19966a587418f7d84607b949827851b81b9ef1bc09abcb07ad65832bf2663"),
    (["gamma", "--via", "extract", "--multiset", "1,1,1,1"],
     "4ed52c1408e02830919138ef0588ec90a283cad31ccb4fd04c71bb5ffdbbcbde"),
    (["gamma", "--via", "perms", "--multiset", "1,1,1,1"],
     "4ed52c1408e02830919138ef0588ec90a283cad31ccb4fd04c71bb5ffdbbcbde"),
    (["gamma", "--via", "mma", "--multiset", "1,1,1,1"],
     EMPTY),
    (["poly", "--via", "enum", "--format", "json", "--multiset", "4,2,3,1,2"],
     "d6aaf3eefba12b7932312cad367baf35c53d79ae56975b344f231de2fac42a6a"),
    (["poly", "--via", "enum", "--format", "csv", "--multiset", "4,2,3,1,2"],
     "ec777feac099be85e2cf5ae1907a2a444e744a16931ae35c5031585552b6b72f"),
    (["gamma", "--via", "extract", "--multiset", "4,2,3,1,2"],
     "86565c54d3a8553686c4ae8b5e14bc2fbd1a3cbbfb3bec197acfb8252c8e5220"),
    (["gamma", "--via", "perms", "--multiset", "4,2,3,1,2"],
     "86565c54d3a8553686c4ae8b5e14bc2fbd1a3cbbfb3bec197acfb8252c8e5220"),
    (["gamma", "--via", "mma", "--multiset", "4,2,3,1,2"],
     EMPTY),
    (["poly", "--via", "enum", "--format", "json", "--multiset", "2,2,2,2,2"],
     "d945965c990a9d3f4dbe3bea901748f2cdced580d5a2136ad8be9ff38ad0785c"),
    (["poly", "--via", "enum", "--format", "csv", "--multiset", "2,2,2,2,2"],
     "8316499f99db984510c4bc65495c670e085ab6afe807a04b3179d80dbf05a1a3"),
    (["gamma", "--via", "extract", "--multiset", "2,2,2,2,2"],
     "8b0c6e6aeba5c40b18385f74617006401be4b81c42c9beff9ace1ce75574426c"),
    (["gamma", "--via", "perms", "--multiset", "2,2,2,2,2"],
     "8b0c6e6aeba5c40b18385f74617006401be4b81c42c9beff9ace1ce75574426c"),
    (["gamma", "--via", "mma", "--multiset", "2,2,2,2,2"],
     "8b0c6e6aeba5c40b18385f74617006401be4b81c42c9beff9ace1ce75574426c"),
    (["poly", "--via", "enum", "--format", "json", "--multiset", "1"],
     "3a05a8c52603b688034d4ca6ad90f39f37b2c5828094373fc47f075b510e8497"),
    (["poly", "--via", "enum", "--format", "csv", "--multiset", "1"],
     "f3c411a7696b3939c4933f684c83e7b0be26cff01694a92ed9e527fce564ca54"),
    (["gamma", "--via", "extract", "--multiset", "1"],
     "dba90297d4c151df338269e30bb0e1fdf75b50e5ce706ff5ac66f8f42241cc6e"),
    (["gamma", "--via", "perms", "--multiset", "1"],
     "dba90297d4c151df338269e30bb0e1fdf75b50e5ce706ff5ac66f8f42241cc6e"),
    (["gamma", "--via", "mma", "--multiset", "1"],
     EMPTY),
]
# The bytes the trees and ternary routes printed while they listed every tree.
ROUTE_OUTPUTS += [
    (["gamma", "--via", "trees", "--multiset", "2,2"],
     "f797c7563bf8428e38b6d3685e1ec6106f1e1835c58432e11706168c0a7351a6"),
    (["gamma", "--via", "ternary", "--multiset", "2,2"],
     "f797c7563bf8428e38b6d3685e1ec6106f1e1835c58432e11706168c0a7351a6"),
    (["gamma", "--via", "trees", "--multiset", "3,1,2"],
     "3942d74c0f6c9d6b61c5ee89fcdbba70a578045e766175748913fccb4326ea8a"),
    (["gamma", "--via", "ternary", "--multiset", "3,1,2"],
     EMPTY),
    (["gamma", "--via", "trees", "--multiset", "1,1,1,1"],
     "4ed52c1408e02830919138ef0588ec90a283cad31ccb4fd04c71bb5ffdbbcbde"),
    (["gamma", "--via", "ternary", "--multiset", "1,1,1,1"],
     EMPTY),
    (["gamma", "--via", "trees", "--multiset", "4,2,3,1,2"],
     "86565c54d3a8553686c4ae8b5e14bc2fbd1a3cbbfb3bec197acfb8252c8e5220"),
    (["gamma", "--via", "ternary", "--multiset", "4,2,3,1,2"],
     EMPTY),
    (["gamma", "--via", "trees", "--multiset", "2,2,2,2,2"],
     "8b0c6e6aeba5c40b18385f74617006401be4b81c42c9beff9ace1ce75574426c"),
    (["gamma", "--via", "ternary", "--multiset", "2,2,2,2,2"],
     "8b0c6e6aeba5c40b18385f74617006401be4b81c42c9beff9ace1ce75574426c"),
    (["gamma", "--via", "trees", "--multiset", "1"],
     "dba90297d4c151df338269e30bb0e1fdf75b50e5ce706ff5ac66f8f42241cc6e"),
    (["gamma", "--via", "ternary", "--multiset", "1"],
     EMPTY),
]


@pytest.mark.parametrize("argv, digest", ROUTE_OUTPUTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v[:8])
def test_counting_route_outputs_are_frozen(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if digest == EMPTY:
        assert (code, err) == (2, f"error: the {argv[2]} route needs a doubled multiset "
                                  f"2,2,...,2, got {argv[-1]!r}\n")
    else:
        assert (code, err) == (0, "")


# 34 459 425 words, far past the default cost cap of 10^6
BIG = "2,2,2,2,2,2,2,2,2"


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make every package binding of enumerate_stirling, stirling_words and
    placements fail at once, so a missing refusal fails the test instead of
    listing millions of words or trees."""
    def refuse(m, *args, **options):
        raise AssertionError(f"enumerated {m.spec()}")

    for name, mod in list(sys.modules.items()):
        if name.startswith("gesselgamma"):
            for attr, original in [("enumerate_stirling", enumerate_stirling),
                                   ("stirling_words", stirling_words),
                                   ("placements", placements)]:
                if getattr(mod, attr, None) is original:
                    monkeypatch.setattr(mod, attr, refuse)


class TestEnumerationCap:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--multiset", BIG],
        ["poly", "--multiset", BIG, "--via", "enum"],
    ] + [["gamma", "--multiset", BIG, "--via", via] for via in GAMMA_ROUTES if via != "grammar"])
    def test_enumerating_commands_are_refused(self, capsys, no_enumeration, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == ("refused: family too large: 34459425 Stirling permutations "
                       "requested, cap is 1000000\n")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--multiset", "999999,1"],
        ["poly", "--via", "enum", "--multiset", "999999,1"],
        ["gamma", "--via", "extract", "--multiset", "1000000000"],
        ["verify", "--check", "ROUNDTRIP", "--multisets", "999999,1"],
    ])
    def test_long_words_are_refused_by_their_letters(self, capsys, no_enumeration, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("refused: family too large: ")
        assert err.endswith(" letters requested, cap is 20000000\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("ones", [2000, 20000])
    @pytest.mark.parametrize("command", [
        ["gamma", "--via", "perms", "--multiset"],
        ["enumerate", "--multiset"],
        ["verify", "--check", "all", "--multisets"],
    ], ids=["gamma", "enumerate", "verify"])
    def test_a_count_too_long_to_write_is_named_by_a_bound(self, capsys, no_enumeration,
                                                          command, ones):
        # 2000 ones have 2000! words, 5736 digits: past what int -> str writes.
        start = time.perf_counter()
        code, out, err = run(capsys, *command, ",".join(["1"] * ones))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == ("refused: family too large: more than 10^100 Stirling permutations "
                       "requested, cap is 1000000\n")

    def test_a_letter_count_too_long_to_write_is_named_by_a_bound(self, capsys,
                                                                  no_enumeration):
        code, out, err = run(capsys, "enumerate", "--multiset", "1," + "9" * 4299)
        assert code == 2
        assert out == ""
        assert err == ("refused: family too large: more than 10^100 letters "
                       "requested, cap is 20000000\n")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--multiset", "2,2"],
        ["poly", "--via", "enum", "--multiset", "2,2"],
    ] + [["gamma", "--via", via, "--multiset", "2,2"] for via in GAMMA_ROUTES if via != "grammar"]
      + [["verify", "--check", "ROUNDTRIP", "--multisets", "2,2"],
         ["verify", "--check", "P2.1", "--max-K", "3"],
         ["verify", "--check", "T3.1"]])
    def test_every_listing_goes_through_admission(self, monkeypatch, argv):
        class Stopped(Exception):
            pass

        def stop(members):
            raise Stopped

        for name, mod in list(sys.modules.items()):
            if name.startswith("gesselgamma") and hasattr(mod, "admit_enumeration"):
                monkeypatch.setattr(mod, "admit_enumeration", stop)
        with pytest.raises(Stopped):
            main(argv)

    @pytest.mark.parametrize("command", ["poly", "gamma"])
    def test_grammar_routes_are_not_refused(self, capsys, no_enumeration, command):
        code, out, _ = run(capsys, command, "--multiset", BIG, "--via", "grammar")
        assert code == 0
        assert json.loads(out)


GRAMMAR_COMMANDS = [
    ["gamma", "--via", "grammar", "--multiset"],
    ["poly", "--via", "grammar", "--multiset"],
    ["grammar-derive", "--rules", "xyz", "--k-seq"],
    ["grammar-derive", "--rules", "uvz", "--k-seq"],
]


class TestGrammarCap:
    def test_the_cap_admits_a_hundred_and_twenty_doubled_values(self):
        assert chain_cost(Multiset.uniform(120, 2)) <= cli.GRAMMAR_COST_CAP

    @pytest.mark.parametrize("argv", GRAMMAR_COMMANDS)
    def test_a_thousand_doubled_values_are_refused_at_once(self, capsys, argv):
        spec = ",".join(["2"] * 1000)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, spec)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == ("refused: derivative chain too large: 2004502500 term-rule "
                       f"products requested, cap is {cli.GRAMMAR_COST_CAP}\n")

    @pytest.mark.parametrize("argv", GRAMMAR_COMMANDS)
    def test_the_cap_is_inclusive(self, capsys, monkeypatch, argv):
        cost = chain_cost(Multiset((2, 1, 3)))
        monkeypatch.setattr(cli, "GRAMMAR_COST_CAP", cost)
        code, out, _ = run(capsys, *argv, "2,1,3")
        assert code == 0
        assert out
        monkeypatch.setattr(cli, "GRAMMAR_COST_CAP", cost - 1)
        code, out, err = run(capsys, *argv, "2,1,3")
        assert code == 2
        assert out == ""
        assert err == (f"refused: derivative chain too large: {cost} term-rule "
                       f"products requested, cap is {cost - 1}\n")

    def test_chain_cost_sums_terms_times_rule_monomials(self):
        # Before each step: 1, then 10 (degree 3), then 21 (degree 5) terms.
        assert chain_cost(Multiset((2, 2, 1))) == 3 * (3 + 10 + 21)
        assert chain_cost(Multiset(())) == 0


class TestOrbit:
    def test_canonical_and_members(self, capsys):
        code, out, _ = run(capsys, "orbit", "--perm", "1122")
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 2
        assert data["canonical"] == "(1 * * (2 * * *))"
        assert data["members"] == [
            {"tree": "(1 (2 * * *) * *)", "perm": "2 2 1 1"},
            {"tree": "(1 * * (2 * * *))", "perm": "1 1 2 2"},
        ]

    def test_singleton(self, capsys):
        _, out, _ = run(capsys, "orbit", "--perm", "1221")
        data = json.loads(out)
        assert data["size"] == 1
        assert data["canonical"] == "(1 * (2 * * *) *)"

    def test_deep_balanced_chain_has_one_member(self, capsys):
        word = " ".join(str(v) for v in [*range(1, 601), *range(600, 0, -1)])
        code, out, _ = run(capsys, "orbit", "--perm", word)
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 1
        assert data["members"][0]["perm"] == word

    @pytest.mark.parametrize("n", [20, 1200, 15000])
    def test_chain_orbit_is_refused(self, capsys, n):
        # The chain 1 2 ... n has 2^(n-1) orbit members, refused before any is
        # built; 2^14999 has too many digits to print as a decimal.
        word = " ".join(str(v) for v in range(1, n + 1))
        code, out, err = run(capsys, "orbit", "--perm", word)
        assert code == 2
        assert out == ""
        assert err == (f"refused: orbit too large: 2^{n - 1} trees of {n} letters "
                       "requested, cap is 250000 letters\n")


class TestPrune:
    def test_canonical_tree_has_weight(self, capsys):
        code, out, _ = run(capsys, "prune", "--tree", "(1 * * (2 * * *))")
        assert code == 0
        assert json.loads(out) == {
            "pruned": "(1:v * (2:u *))", "zleaf": 2, "weight": {"u": 1, "v": 1},
        }

    def test_non_canonical_tree_reports_y_vertices(self, capsys):
        code, out, _ = run(capsys, "prune", "--tree", "(1 (2 * * *) * *)")
        assert code == 0
        data = json.loads(out)
        assert data["weight"] is None
        assert data["y_vertices"] == [1]


class TestGrammarDerive:
    def test_xyz_chain_streams_each_step(self, capsys):
        code, out, _ = run(capsys, "grammar-derive", "--rules", "xyz", "--k-seq", "2,2")
        assert code == 0
        docs = [json.loads(line) for line in out.strip().split("\n")]
        assert len(docs) == 2
        _, out_poly, _ = run(capsys, "poly", "--multiset", "2,2", "--via", "grammar")
        assert docs[-1] == json.loads(out_poly)

    def test_uvz_chain_prints_seed_first(self, capsys):
        code, out, _ = run(capsys, "grammar-derive", "--rules", "uvz", "--k-seq", "2,2")
        assert code == 0
        docs = [json.loads(line) for line in out.strip().split("\n")]
        assert len(docs) == 2
        assert docs[0]["terms"] == [{"e": [1, 0, 1], "c": "1"}]
        _, out_gamma, _ = run(capsys, "gamma", "--multiset", "2,2", "--via", "grammar")
        got = {tuple(t["e"]): int(t["c"]) for t in docs[-1]["terms"]}
        expected = {
            (entry["j"], 5 - entry["i"] - 2 * entry["j"], entry["i"]): entry["g"]
            for entry in json.loads(out_gamma)["entries"]
        }
        assert got == expected

    @pytest.mark.parametrize("spec", ["1", "3", "2,1,3", "1,1,1,1,1", "4,2,3,1,2"])
    def test_xyz_last_line_is_poly_via_grammar(self, capsys, spec):
        code, out, _ = run(capsys, "grammar-derive", "--rules", "xyz", "--k-seq", spec)
        assert code == 0
        lines = out.split("\n")
        _, out_poly, _ = run(capsys, "poly", "--multiset", spec, "--via", "grammar")
        assert lines[-1] == "" and len(lines) == len(spec.split(",")) + 1
        assert lines[-2] + "\n" == out_poly

    @pytest.mark.parametrize("spec", ["1", "3", "2,1,3", "1,1,1,1,1", "4,2,3,1,2"])
    def test_uvz_last_line_is_the_gamma_polynomial(self, capsys, spec):
        code, out, _ = run(capsys, "grammar-derive", "--rules", "uvz", "--k-seq", spec)
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == len(spec.split(","))
        assert lines[-1] == gamma_polynomial_grammar(Multiset.parse(spec)).to_json()

    @pytest.mark.parametrize("spec", ["2,2", "1,3,1,4,1", "4,1,4", "2,2,2,2,2,2,2,2", "3,1,1,2"])
    def test_last_document_is_the_chain_builders_polynomial(self, capsys, spec):
        # grammar-derive steps through derive; the chain builders run slice by slice
        m = Multiset.parse(spec)
        for rules, build in (("xyz", c_polynomial_grammar), ("uvz", gamma_polynomial_grammar)):
            code, out, _ = run(capsys, "grammar-derive", "--rules", rules, "--k-seq", spec)
            assert code == 0
            assert Poly3.from_json(out.rstrip("\n").split("\n")[-1]) == build(m), (rules, spec)

    def test_bad_k_seq(self, capsys):
        # --k-seq follows the --multiset grammar: an empty part is refused.
        for bad in ("", " ", "0", "2,x", "2,,2", "2,", ",2"):
            code, _, err = run(capsys, "grammar-derive", "--rules", "uvz", "--k-seq", bad)
            assert code == 2
            assert "error:" in err


class TestVerify:
    def test_explicit_family_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "ROUNDTRIP",
                           "--multisets", "2,2;1,2")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["family"]["multisets"] == ["1,2", "2,2"]

    def test_bounds_build_the_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "P2.1",
                           "--max-n", "2", "--max-k", "2", "--max-K", "4")
        assert code == 0
        data = json.loads(out)
        assert data["family"]["multisets"] == ["1", "1,1", "1,2", "2", "2,1", "2,2"]

    def test_long_length_bound_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "--check", "SYM-XY",
                           "--max-n", "30", "--max-k", "3", "--max-K", "10")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("refused: family too large")

    def test_a_long_bound_generated_family_is_refused_while_listed(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--check", "SYM-XY",
                             "--max-n", "30", "--max-k", "3", "--max-K", "22")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("refused: family too large")

    def test_conflicting_family_options(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "P2.1",
                           "--multisets", "2,2", "--max-n", "2")
        assert code == 2
        assert "cannot be combined" in err

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "BOGUS", "--multisets", "2")
        assert code == 2
        assert "ROUNDTRIP" in err

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "ROUNDTRIP",
                           "--multisets", "3,3,3,3,3,3,3,3,3")
        assert code == 2
        assert err.startswith("refused: family too large")

    def test_failing_check_exits_one(self, capsys):
        CHECKS["X-CLI-FAIL"] = CheckDef(
            "forced failure", lambda m: [{"multiset": m.spec(), "detail": "forced"}])
        try:
            code, out, _ = run(capsys, "verify", "--check", "X-CLI-FAIL",
                               "--multisets", "2")
        finally:
            del CHECKS["X-CLI-FAIL"]
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestGolden:
    def test_exit_zero_and_report(self, capsys):
        code, out, _ = run(capsys, "golden")
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


# The command line as a program: every input is answered (exit 0 or 1) or
# refused (exit 2) with one short line on stderr, never with a traceback.
LONG = "9" * 5000  # past the 4 300 digits int() converts
CHAIN = "9" * 2500 + ",1"  # a chain cost past 10^100
CHAIN_REFUSAL = ("refused: derivative chain too large: more than 10^100 term-rule "
                 "products requested, cap is 5000000")
D4 = "9" * 4000
# A K of 4 301 digits, more than Python writes as text, from parts it converts.
HUGE_K = "9" * 4300
K_REFUSAL = "error: K has more than 4300 digits, too long to write out"
# A K of 4 300 digits, the most Python writes as text.
LARGEST_K = "9" * 4299
X5 = "x" * 5000
# A refusal line past 200 characters keeps its first and last 80.
VIA_REFUSAL = ("error: argument --via: invalid choice: '" + "x" * 40 + " [4952 characters] "
               + "x" * 8 + "' (choose from 'extract', 'grammar', 'trees', 'perms', 'mma', "
               "'ternary')")


def cli_command(argv):
    return [sys.executable, "-m", "gesselgamma.cli", *argv]


CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
MEMORY_LIMIT = 512 * 2**20  # address space of a child under a bounded run


def limit_memory():
    """Caps a child's address space at MEMORY_LIMIT; runs in the child, after
    fork and before exec."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def assert_contract(code, err):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 2:
        line, rest = err.split("\n", 1)
        assert rest == "", err
        assert len(line) <= 200, line
        assert line.startswith(("error:", "refused:")), line


class TestCliContract:
    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(["gamma", "--via", "grammar", "--multiset", CHAIN], 2, CHAIN_REFUSAL,
                     id="gamma-chain-cost"),
        pytest.param(["poly", "--via", "grammar", "--multiset", CHAIN], 2, CHAIN_REFUSAL,
                     id="poly-chain-cost"),
        pytest.param(["grammar-derive", "--rules", "xyz", "--k-seq", CHAIN], 2, CHAIN_REFUSAL,
                     id="derive-chain-cost"),
        pytest.param(["verify", "--check", "ORBIT", "--max-n", "0"], 2, None, id="no-member"),
        pytest.param(["verify", "--check", "ORBIT", "--max-n", "-1"], 2, None,
                     id="negative-bound"),
        pytest.param(["verify", "--check", "all", "--multisets", ""], 2, None,
                     id="empty-multiset"),
        pytest.param(["verify", "--check", "all", "--multisets", "2,2;"], 2, None,
                     id="trailing-separator"),
        pytest.param(["verify", "--check", "P2.1", "--multisets", "2,2", "--jobs", "0"], 2,
                     None, id="jobs-zero"),
        pytest.param(["verify", "--check", "P2.1", "--multisets", "2,2", "--jobs", "-3"], 2,
                     None, id="jobs-negative"),
        pytest.param(["gamma", "--multiset"], 2, None, id="missing-value"),
        pytest.param(["nope"], 2, None, id="unknown-command"),
        pytest.param([], 2, None, id="no-command"),
        pytest.param(["enumerate", "--multiset", LONG], 2, None, id="long-multiplicity"),
        pytest.param(["tree", "--perm", "1 " + LONG], 2, None, id="long-word-value"),
        pytest.param(["grammar-derive", "--rules", "uvz", "--k-seq", LONG], 2, None,
                     id="long-k-seq"),
        pytest.param(["enumerate", "--multiset", ""], 0, None, id="enumerate-empty"),
        pytest.param(["poly", "--via", "enum", "--multiset", ""], 0, None, id="poly-empty"),
        pytest.param(["gamma", "--help"], 0, None, id="help"),
        # Thousands of characters echoed into a refusal, which keeps its first and last 80.
        pytest.param(["verify", "--check", "P2.1", "--multisets", "2,2", "--jobs", "-" + D4], 2,
                     None, id="long-jobs"),
        pytest.param(["perm", "--tree", f"(1 ({D4} * *) *)"], 2, None, id="long-label"),
        pytest.param(["perm", "--tree", f"({D4} * *"], 2, None, id="long-unclosed-label"),
        pytest.param(["gamma", "--multiset", "2", "--via", X5], 2, VIA_REFUSAL, id="long-choice"),
        pytest.param(["verify", "--check", X5], 2, None, id="long-check-id"),
        pytest.param(["enumerate", "--multiset", "2," + X5], 2, None, id="long-bad-part"),
        pytest.param(["enumerate", "--multiset", "-" + "9" * 8000], 2, None,
                     id="long-negative-multiplicity"),
        pytest.param(["perm", "--tree", f"(1 * {X5})"], 2, None, id="long-tree-token"),
        pytest.param(["tree", "--perm", "1 " + D4], 2, None, id="long-missing-value"),
        pytest.param(["orbit", "--perm", "1 " + D4], 2, None, id="orbit-long-missing-value"),
        pytest.param(["tree", "--perm", " ".join(["2", "1"] * 2000)], 2, None,
                     id="long-non-stirling-word"),
        pytest.param(["tree", "--perm", " ".join(["1"] * 3000 + ["3"])], 2, None,
                     id="long-word-missing-a-value"),
        pytest.param(["perm", "--tree",
                      "(2000 " + " ".join(f"({i} * *)" for i in range(1, 2000)) + " *)"], 2,
                     None, id="many-bad-edges"),
        pytest.param(["grammar-derive", "--rules", "xyz", "--k-seq", "0" + ",1" * 3000], 2, None,
                     id="long-bad-k-seq"),
        pytest.param(["gamma", "--via", "grammar", "--multiset", "1," + LARGEST_K], 0, None,
                     id="gamma-largest-K"),
        pytest.param(["poly", "--via", "grammar", "--multiset", "5," + LARGEST_K], 0, None,
                     id="poly-largest-K"),
        pytest.param(["grammar-derive", "--rules", "xyz", "--k-seq", "5," + LARGEST_K], 0, None,
                     id="derive-largest-K"),
    ])
    def test_each_input_is_answered_or_refused_in_one_line(self, argv, code, line):
        done = subprocess.run(cli_command(argv), capture_output=True, text=True, env=CLI_ENV,
                              timeout=120)
        assert_contract(done.returncode, done.stderr)
        assert done.returncode == code, done.stderr
        if line is not None:
            assert done.stderr == line + "\n"

    @pytest.mark.parametrize("argv, line", [
        pytest.param(["gamma", "--via", "grammar", "--multiset", "1," + HUGE_K], K_REFUSAL,
                     id="gamma-huge-K"),
        pytest.param(["poly", "--via", "grammar", "--multiset", "5," + HUGE_K], K_REFUSAL,
                     id="poly-huge-K"),
        pytest.param(["grammar-derive", "--rules", "xyz", "--k-seq", "5," + HUGE_K], K_REFUSAL,
                     id="derive-huge-K"),
        # A bound generated family of 10^20 parts is listed one part at a time.
        pytest.param(["verify", "--check", "SYM-XY", "--max-n", "2", "--max-k", "9" * 20,
                      "--max-K", "9" * 20],
                     "refused: family too large: 20003255 letters requested, cap is 20000000",
                     id="huge-part-bound"),
    ])
    def test_a_refusal_takes_bounded_time_and_memory(self, argv, line):
        done = subprocess.run(cli_command(argv), capture_output=True, text=True, env=CLI_ENV,
                              timeout=20, preexec_fn=limit_memory)
        assert_contract(done.returncode, done.stderr)
        assert done.returncode == 2
        assert done.stderr == line + "\n"

    @pytest.mark.parametrize("argv, size", [
        (["enumerate", "--multiset", "2,2,2,2,2,2"], 100),
        (["verify", "--check", "all"], 100),
        # Closed before the command writes anything.
        (["tree", "--perm", "1221"], 0),
    ], ids=["enumerate", "verify", "unread"])
    def test_a_reader_that_stops_early_ends_the_command_quietly(self, argv, size):
        proc = subprocess.Popen(cli_command(argv), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=CLI_ENV)
        try:
            head = proc.stdout.read(size)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert len(head) == size
        assert proc.returncode in (0, 1, 2)
        assert err == b""


# Hostile option values: huge and negative decimals, blanks, bare separators,
# long strings, deep nesting and stray tree tokens.  A decimal has at least
# 9 digits, so that as a multiplicity it is refused (0, or past the letter
# cap) and never lists words.
DECIMALS = st.builds(lambda sign, digit, n: sign + digit * n,
                     st.sampled_from(["", "-"]), st.sampled_from("0179"), st.integers(9, 5000))
NEGATIVE = st.builds(lambda digit, n: "-" + digit * n, st.sampled_from("19"),
                     st.integers(1, 5000))
WORDLESS = st.one_of(
    st.text(" \t\n", max_size=4),  # empty or blank
    st.sampled_from([",", ";", ",,", ";;", ", ;", "*", "(", ")", "()", "(*)"]),
    st.builds(lambda unit, n: unit * n, st.sampled_from(["x", ",", "(", ")", "(1 ", "* ", "(0 *"]),
              st.integers(1, 3000)),
    st.text("()*,; -x0", max_size=30),
)
HOSTILE = st.one_of(DECIMALS, WORDLESS)

# Small valid values, K <= 8, so that answered paths run too.
MULTS = st.lists(st.integers(1, 2), min_size=1, max_size=4).map(tuple)
SPEC = MULTS.map(lambda mults: ",".join(map(str, mults)))


@st.composite
def valid_perm(draw):
    m = Multiset(draw(MULTS))
    return StirlingPermutation(draw(st.sampled_from(list(enumerate_stirling(m)))), m)


def word_text(s, sep):
    return sep.join(map(str, s.word))


PERM = st.one_of(st.builds(word_text, valid_perm(), st.sampled_from([" ", ",", ""])), HOSTILE)
TREE = st.one_of(valid_perm().map(lambda s: serialize(gessel_forward(s))), HOSTILE)
MULTISET = st.one_of(SPEC, HOSTILE)


def choice(options):
    return st.one_of(st.sampled_from(options), HOSTILE)


def optional(*parts):
    """Nothing, or the option name(s) and value drawn from ``parts``."""
    return st.one_of(st.just([]), st.tuples(*parts).map(list))


ARGV = st.one_of(
    st.tuples(st.just(["enumerate", "--multiset"]), MULTISET.map(lambda v: [v]),
              optional(st.just("--stats")), optional(st.just("--format"), choice(["json", "csv"]))),
    st.tuples(st.just(["tree", "--perm"]), PERM.map(lambda v: [v])),
    st.tuples(st.just(["perm", "--tree"]), TREE.map(lambda v: [v])),
    st.tuples(st.just(["poly", "--multiset"]), MULTISET.map(lambda v: [v]),
              st.tuples(st.just("--via"), choice(["enum", "grammar"])).map(list),
              optional(st.just("--format"), choice(["json", "csv"]))),
    st.tuples(st.just(["gamma", "--multiset"]), MULTISET.map(lambda v: [v]),
              st.tuples(st.just("--via"), choice(list(GAMMA_ROUTES))).map(list)),
    st.tuples(st.just(["orbit", "--perm"]), PERM.map(lambda v: [v])),
    st.tuples(st.just(["prune", "--tree"]), TREE.map(lambda v: [v])),
    st.tuples(st.just(["grammar-derive", "--rules"]), choice(["xyz", "uvz"]).map(lambda v: [v]),
              st.just(["--k-seq"]), MULTISET.map(lambda v: [v])),
    st.tuples(st.just(["verify", "--check"]), choice(sorted(CHECKS) + ["all"]).map(lambda v: [v]),
              st.one_of(
                  st.tuples(st.just("--multisets"), st.one_of(
                      st.lists(SPEC, min_size=1, max_size=3).map(";".join), HOSTILE)),
                  st.tuples(st.just("--max-n"), st.one_of(
                      st.sampled_from(["0", "1", "2"]), NEGATIVE, WORDLESS))).map(list),
              optional(st.just("--jobs"), st.one_of(NEGATIVE, st.sampled_from(["-1", "0", "1"])))),
    st.just((["golden"],)),
).flatmap(lambda parts: optional(HOSTILE).map(lambda extra: sum(parts, []) + extra))


class TestCliContractProperty:
    """The contract above over drawn argv, in-process: no pool, no subprocess."""

    @settings(max_examples=1000, deadline=None)
    @given(ARGV)
    def test_every_argv_is_answered_or_refused_in_one_short_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception escaping main fails the test
        assert_contract(code, err.getvalue())
        assert code != 1, argv  # no check fails on a valid family


class TestCliContractChildren:
    """The contract above over a few drawn argv, each run as a child process,
    one at a time, under MEMORY_LIMIT and a 20 s timeout: the bound on time
    and memory that the in-process property cannot assert."""

    @settings(max_examples=25, deadline=None)
    @given(ARGV)
    def test_every_argv_is_answered_or_refused_in_bounded_time_and_memory(self, argv):
        done = subprocess.run(cli_command(argv), capture_output=True, text=True, env=CLI_ENV,
                              timeout=20, preexec_fn=limit_memory)
        assert_contract(done.returncode, done.stderr)
        assert done.returncode != 1, argv


def readme_commands():
    """The ``gesselgamma`` lines of the README's command-line examples, as
    argv lists, trailing comments stripped."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("gesselgamma ")]


class TestReadme:
    def test_the_examples_cover_every_command(self):
        assert {argv[0] for argv in readme_commands()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_each_example_runs(self, argv):
        done = subprocess.run(cli_command(argv), capture_output=True, text=True, env=CLI_ENV,
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, "")


class TestParserCache:
    CALLS = [
        ["gamma", "--multiset", "2,2,2", "--via", "perms"],
        ["gamma", "--multiset", "2,2", "--via", "nowhere"],
        ["poly", "--multiset", "2,1,2", "--via", "enum"],
        ["gamma", "--multiset", "2,2,2", "--via", "perms"],
    ]

    def test_one_parser_answers_as_fresh_ones_do(self, capsys, monkeypatch):
        cli._build_parser.cache_clear()
        cached = [run(capsys, *argv) for argv in self.CALLS]
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.CALLS) - 1)
        assert [code for code, _, _ in cached] == [0, 2, 0, 0]
        assert cached[3] == cached[0]

        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in self.CALLS]
        assert cached == fresh
