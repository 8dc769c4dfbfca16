"""Campaign harness: families, check execution, reports, golden examples."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import islice, product

import pytest
from test_stirling_words import constructions

from gesselgamma import (
    CHECKS,
    DomainError,
    FamilySpec,
    FamilyTooLargeError,
    GammaTable,
    GesselTree,
    Multiset,
    Poly3,
    UVZ,
    default_campaign_family,
    family_cost,
    golden_examples,
    run_campaign,
    verify,
)
from gesselgamma import counts, harness
from gesselgamma.action import canonical_table
from gesselgamma.harness import CheckDef, pool_workers

SMALL = [Multiset((1,)), Multiset((2,)), Multiset((2, 2)), Multiset((2, 1, 2))]


class TestFamilies:
    def test_bounded_members(self):
        spec = FamilySpec(max_n=2, max_k=2, max_total=4)
        assert [m.mults for m in spec.members()] == [
            (1,), (1, 1), (1, 2), (2,), (2, 1), (2, 2),
        ]

    @pytest.mark.parametrize("max_n, max_k, max_total", [
        (0, 3, 5), (3, 0, 5), (3, 3, 0), (1, 1, 1), (2, 4, 3), (3, 3, 6), (4, 3, 10),
        (5, 2, 7), (6, 1, 4),
    ])
    def test_bounded_members_equal_the_brute_force_list(self, max_n, max_k, max_total):
        want = sorted(mults for n in range(1, max_n + 1)
                      for mults in product(range(1, max_k + 1), repeat=n)
                      if sum(mults) <= max_total)
        spec = FamilySpec(max_n=max_n, max_k=max_k, max_total=max_total)
        assert [m.mults for m in spec.members()] == want

    def test_bounded_members_cost_the_family_not_the_length_bound(self):
        start = time.perf_counter()
        members = FamilySpec(max_n=30, max_k=3, max_total=10).members()
        assert time.perf_counter() - start < 1
        assert len(members) == 599
        assert members == FamilySpec(max_n=10, max_k=3, max_total=10).members()

    def test_members_are_listed_lazily(self):
        start = time.perf_counter()
        first = list(islice(FamilySpec(max_n=30, max_k=3, max_total=60), 3))
        assert time.perf_counter() - start < 1
        assert [m.mults for m in first] == [(1,), (1, 1), (1, 1, 1)]

    def test_a_huge_part_bound_is_listed_in_little_memory(self):
        # Listing all 10^6 second parts at once would take 176 MiB; the
        # command line's 10^20 is run in a memory-bounded child in test_cli.
        tracemalloc.start()
        try:
            first = list(islice(FamilySpec(max_n=2, max_k=10**6, max_total=10**6), 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [m.mults for m in first] == [(1,), (1, 1), (1, 2)]
        assert peak < 2**20

    def test_total_bound_trims(self):
        spec = FamilySpec(max_n=2, max_k=3, max_total=4)
        assert (3, 3) not in {m.mults for m in spec.members()}
        assert (3, 1) in {m.mults for m in spec.members()}

    def test_default_campaign(self):
        members = default_campaign_family()
        mults = {m.mults for m in members}
        assert len(members) == 120
        assert (2,) * 6 in mults
        assert (1,) * 7 in mults
        assert (3, 3, 3) in mults
        cost = family_cost(members)
        assert cost == 25960

    def test_family_cost(self):
        assert family_cost([Multiset((2, 2)), Multiset((1,))]) == 4


class TestRunCampaign:
    def test_single_check_passes(self):
        report = run_campaign(["ROUNDTRIP"], SMALL)
        assert report.passed
        assert report.multisets == ["1", "2", "2,2", "2,1,2"]
        assert report.cost == family_cost(SMALL)
        (check,) = report.reports
        assert check.check == "ROUNDTRIP"
        assert check.counts() == {"pass": 4, "fail": 0, "skip": 0}

    def test_roundtrip_fails_on_a_wrong_inverse(self, monkeypatch):
        original = harness.word_of_table

        def reversed_word(table):
            return original(table)[::-1]

        monkeypatch.setattr(harness, "word_of_table", reversed_word)
        report = run_campaign(["ROUNDTRIP"], [Multiset((2, 2)), Multiset((1, 2))])
        outcomes = report.reports[0].outcomes
        assert [o.status for o in outcomes] == ["FAIL", "FAIL"]
        assert all("word -> tree -> word" in o.detail for o in outcomes)

    def test_roundtrip_fails_when_the_tables_are_not_the_trees(self, monkeypatch):
        original = harness.table_of_word

        def canonical_only(word, mults):
            return canonical_table(original(word, mults))

        monkeypatch.setattr(harness, "table_of_word", canonical_only)
        report = run_campaign(["ROUNDTRIP"], [Multiset((2, 2)), Multiset((1, 2))])
        outcomes = report.reports[0].outcomes
        assert [o.status for o in outcomes] == ["FAIL", "FAIL"]
        assert all("word -> tree -> word" in o.detail for o in outcomes)

    def test_roundtrip_fails_when_parsing_changes_the_table(self, monkeypatch):
        original = harness.parse_tree

        def canonical_parse(text, multiset=None):
            t = original(text, multiset)
            return GesselTree(canonical_table(t.table), t.multiset)

        monkeypatch.setattr(harness, "parse_tree", canonical_parse)
        report = run_campaign(["ROUNDTRIP"], [Multiset((2, 2)), Multiset((1, 2))])
        outcomes = report.reports[0].outcomes
        assert [o.status for o in outcomes] == ["FAIL", "FAIL"]
        assert all("serialize -> parse" in o.detail for o in outcomes)

    def test_roundtrip_fails_when_the_text_is_a_tree_over_another_multiset(self, monkeypatch):
        # One more leaf under the root is a Gessel tree too, over the
        # multiset with k1 + 1; the parse is over m, so it refuses the text.
        original = harness.render_table

        def with_a_leaf_added_to_the_root(table):
            return original(table)[:-1] + " *)"

        monkeypatch.setattr(harness, "render_table", with_a_leaf_added_to_the_root)
        report = run_campaign(["ROUNDTRIP"], [Multiset((2, 2)), Multiset((1, 2))])
        outcomes = report.reports[0].outcomes
        assert [o.status for o in outcomes] == ["FAIL", "FAIL"]
        assert [o.detail for o in outcomes] == [
            "exception: DomainError('tree implies multiset {3,2} but {2,2} was given')",
            "exception: DomainError('tree implies multiset {2,2} but {1,2} was given')"]

    def test_roundtrip_fails_when_a_word_is_listed_twice(self, monkeypatch):
        original = harness.enumerate_stirling

        def twice(m):
            for s in original(m):
                yield s
                yield s

        monkeypatch.setattr(harness, "enumerate_stirling", twice)
        report = run_campaign(["ROUNDTRIP"], [Multiset((2, 2)), Multiset((1, 2))])
        outcomes = report.reports[0].outcomes
        assert [o.detail for o in outcomes] == ["correspondence is not injective"] * 2
        assert [(o.counterexample["lhs"], o.counterexample["rhs"]) for o in outcomes] == [
            (6, 3), (4, 2)]

    def test_roundtrip_catches_a_repeat_across_a_block_boundary(self, monkeypatch):
        # 1,1,1,1,1 has 120 words, four blocks; the last word of the first
        # block comes again as the first word of the second.
        original = harness.enumerate_stirling

        def repeating_the_last_of_a_block(m):
            for k, s in enumerate(original(m), 1):
                yield s
                if k == harness.PASS_BLOCK:
                    yield s

        monkeypatch.setattr(harness, "enumerate_stirling", repeating_the_last_of_a_block)
        (check,) = run_campaign(["ROUNDTRIP"], [Multiset((1,) * 5)]).reports
        (outcome,) = check.outcomes
        assert outcome.detail == "correspondence is not injective"
        assert (outcome.counterexample["lhs"], outcome.counterexample["rhs"]) == (121, 120)

    def test_all_has_sixteen_checks(self):
        report = verify("all", SMALL)
        assert len(report.reports) == 16
        assert [r.check for r in report.reports] == sorted(CHECKS)
        assert report.passed

    def test_doubled_only_checks_skip_mixed_multisets(self):
        report = verify("T6.1", [Multiset((2, 1)), Multiset((2, 2))])
        (check,) = report.reports
        statuses = {o.multiset: o.status for o in check.outcomes}
        assert statuses == {"2,1": "SKIP", "2,2": "PASS"}
        skip = next(o for o in check.outcomes if o.status == "SKIP")
        assert "doubled" in skip.detail
        assert check.passed  # skips do not fail a campaign

    def test_doubled_only_flag(self):
        assert {cid for cid, cd in CHECKS.items() if cd.doubled_only} == {
            "T6.1", "T6.2", "P6.3", "SYM-XYZ"}
        CHECKS["X-DOUBLED"] = CheckDef("passes", lambda m: [], doubled_only=True)
        try:
            (check,) = verify("X-DOUBLED", [Multiset((2, 1)), Multiset((2, 2))]).reports
        finally:
            del CHECKS["X-DOUBLED"]
        assert [o.to_json_dict() for o in check.outcomes] == [
            {"multiset": "2,1", "status": "SKIP",
             "detail": "check applies to doubled multisets only"},
            {"multiset": "2,2", "status": "PASS"},
        ]

    WRONG = GammaTable(6, {(0, 1): 1})
    # What a route's function returns in place of WRONG: the grammar route
    # reads the chain's u v^5 as gamma_{0,1} = 1.
    FAKES = {"gamma_polynomial_grammar": Poly3(UVZ, {(1, 5, 0): 1})}

    @pytest.mark.parametrize("check_id, route", [
        ("T3.1", "gamma_count_trees"), ("T5.2", "gamma_count_perms"),
        ("T6.1", "gamma_count_mma"), ("T6.2", "gamma_count_ternary"),
        ("T4.4", "gamma_polynomial_grammar"),
    ])
    def test_agreement_checks_read_the_route_registry(self, monkeypatch, check_id, route):
        fake = self.FAKES.get(route, self.WRONG)
        monkeypatch.setattr(counts, route, lambda m: fake)
        (check,) = verify(check_id, [Multiset((2, 2, 2))]).reports
        (outcome,) = check.outcomes
        assert outcome.status == "FAIL"
        assert self.WRONG.to_json_dict() in (outcome.counterexample["lhs"],
                                             outcome.counterexample["rhs"])

    def test_unknown_check_id(self):
        with pytest.raises(DomainError) as exc:
            run_campaign(["NOPE"], SMALL)
        assert "ROUNDTRIP" in str(exc.value)

    def test_a_repeated_check_id_is_refused(self):
        # A second ORBIT would find its classes already handed off.
        with pytest.raises(DomainError, match="^check id 'ORBIT' is asked for more than once$"):
            run_campaign(["ORBIT", "P2.1", "ORBIT"], [Multiset((2, 2, 2))])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused(self, jobs):
        with pytest.raises(DomainError, match=f"^jobs must be at least 1, got {jobs}$"):
            run_campaign(["ROUNDTRIP"], SMALL, jobs=jobs)

    def test_cost_cap_refusal(self):
        big = [Multiset((3,) * 9)]
        with pytest.raises(FamilyTooLargeError) as exc:
            run_campaign(["ROUNDTRIP"], big)
        assert exc.value.cost == family_cost(big)
        assert exc.value.cap == 10 ** 6
        assert "cap" in str(exc.value)

    def test_a_long_bound_generated_family_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(FamilyTooLargeError):
            run_campaign(["SYM-XY"], FamilySpec(max_n=30, max_k=3, max_total=22))
        assert time.perf_counter() - start < 1

    def test_parallel_matches_serial(self):
        ids = ["ROUNDTRIP", "P2.1", "T6.1"]
        serial = run_campaign(ids, SMALL, jobs=1)
        parallel = run_campaign(ids, SMALL, jobs=2)
        assert serial.to_json_dict(include_timing=False) == parallel.to_json_dict(
            include_timing=False
        )

    def test_importing_the_package_loads_no_process_pool(self):
        # A fresh interpreter: this one may already hold a pool from another test.
        code = ("import sys, gesselgamma, gesselgamma.cli\n"
                "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
                " if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"

    def test_pool_workers_is_clamped(self):
        # Pure arithmetic: no pool is started here.
        assert pool_workers(10 ** 9, 2, 1920) == 2
        assert pool_workers(10 ** 9, 10 ** 6, 3) == 3
        assert pool_workers(2, 64, 1920) == 2
        assert pool_workers(0, 2, 1920) == 0
        assert pool_workers(4, 2, 0) == 0
        assert pool_workers(1, 2, 1920) == 1

    def test_failing_check_is_reported_with_counterexample(self):
        def always_fails(m):
            return [{"multiset": m.spec(), "detail": "forced failure", "lhs": 1, "rhs": 2}]

        CHECKS["X-FAIL"] = CheckDef("always fails", always_fails)
        try:
            report = verify("X-FAIL", SMALL[:2])
        finally:
            del CHECKS["X-FAIL"]
        assert not report.passed
        (check,) = report.reports
        assert check.counts() == {"pass": 0, "fail": 2, "skip": 0}
        bad = check.outcomes[0]
        assert bad.status == "FAIL"
        assert bad.detail == "forced failure"
        assert bad.counterexample["lhs"] == 1

    def test_crashing_check_fails_instead_of_aborting(self):
        def always_crashes(m):
            raise RuntimeError("boom")

        CHECKS["X-CRASH"] = CheckDef("always crashes", always_crashes)
        try:
            report = verify("X-CRASH", SMALL[:1])
        finally:
            del CHECKS["X-CRASH"]
        assert not report.passed
        outcome = report.reports[0].outcomes[0]
        assert outcome.status == "FAIL"
        assert "boom" in outcome.detail

    def test_report_json_shape(self):
        report = verify("P2.1", SMALL[:2])
        data = report.to_json_dict()
        assert set(data) == {"family", "passed", "checks"}
        assert data["family"] == {"multisets": ["1", "2"], "cost": 2}
        assert data["passed"] is True
        (check,) = data["checks"]
        assert check["check"] == "P2.1"
        assert check["counts"] == {"pass": 2, "fail": 0, "skip": 0}
        assert "elapsed_ms" in check
        assert "elapsed_ms" not in report.to_json_dict(include_timing=False)["checks"][0]
        json.dumps(data)  # serializable all the way down

    def test_verify_defaults_to_the_campaign_family(self):
        report = verify("T3.1", None)
        assert report.multisets == [m.spec() for m in default_campaign_family()]


class TestAdmission:
    def test_admits_the_largest_multisets_in_use(self):
        # 5^6 has 576 576 words and 17 297 280 letters; 1^9 has 3 265 920 letters.
        for family in ([Multiset((5,) * 6)], [Multiset((1,) * 9)], default_campaign_family()):
            assert harness.admit_enumeration(iter(family)) == [
                (m, family_cost([m])) for m in family]

    def test_both_caps_are_inclusive(self, monkeypatch):
        family = [Multiset((2, 2)), Multiset((1, 1))]  # 3 + 2 words, 12 + 4 letters
        monkeypatch.setattr(harness, "WORD_CAP", 5)
        monkeypatch.setattr(harness, "LETTER_CAP", 16)
        assert harness.admit_enumeration(family) == [(family[0], 3), (family[1], 2)]
        monkeypatch.setattr(harness, "WORD_CAP", 4)
        with pytest.raises(FamilyTooLargeError, match="^family too large: 5 Stirling "
                           "permutations requested, cap is 4$"):
            harness.admit_enumeration(family)
        monkeypatch.setattr(harness, "WORD_CAP", 5)
        monkeypatch.setattr(harness, "LETTER_CAP", 15)
        with pytest.raises(FamilyTooLargeError, match="^family too large: 16 letters "
                           "requested, cap is 15$"):
            harness.admit_enumeration(family)

    def test_long_words_are_refused_by_their_letters(self):
        # 999999,1 has exactly 10^6 words, each of 10^6 letters.
        with pytest.raises(FamilyTooLargeError) as exc:
            harness.admit_enumeration([Multiset((999999, 1))])
        assert (exc.value.cost, exc.value.cap) == (10 ** 12, 2 * 10 ** 7)
        assert "letters" in str(exc.value)

    def test_listing_stops_at_the_first_member_past_a_cap(self):
        read = []

        def family():
            for m in [Multiset((2, 2)), Multiset((2,) * 9), Multiset((1,))]:
                read.append(m)
                yield m

        with pytest.raises(FamilyTooLargeError) as exc:
            harness.admit_enumeration(family())
        assert read == [Multiset((2, 2)), Multiset((2,) * 9)]
        assert exc.value.cost == 3 + 34459425

    @pytest.mark.parametrize("ones", [2000, 20000])
    def test_a_huge_count_is_refused_before_it_is_computed(self, ones):
        # ones! words: the count stops once it passes the bound the refusal names.
        start = time.perf_counter()
        with pytest.raises(FamilyTooLargeError) as exc:
            harness.admit_enumeration([Multiset((1, 1)), Multiset((1,) * ones)])
        assert time.perf_counter() - start < 0.1
        assert 10 ** 100 < exc.value.cost < 10 ** 110
        assert str(exc.value) == ("family too large: more than 10^100 Stirling "
                                  "permutations requested, cap is 1000000")

    def test_a_cost_is_written_out_up_to_the_bound(self):
        assert str(FamilyTooLargeError(10 ** 100, 5)) == (
            f"family too large: {10 ** 100} Stirling permutations requested, cap is 5")
        assert str(FamilyTooLargeError(10 ** 5000, 5, "letters")) == (
            "family too large: more than 10^100 letters requested, cap is 5")


# SHA-256 of verify("all") over default_campaign_family() with jobs=1, as
# canonical JSON (sorted keys, no spaces) of to_json_dict(include_timing=False).
CAMPAIGN_DIGEST = "3b6e2a45520a423748cacda575b4e8f9bf0af17e2999d115cc48964298bf3f7c"

PER_WORD_CHECKS = ["ROUNDTRIP", "P2.1", "JKP-ZJ", "P2.2", "P5.1", "P6.3", "ORBIT"]
MIXED = [Multiset((1,)), Multiset((2, 2)), Multiset((1, 1, 1, 1)), Multiset((2, 1, 2)),
         Multiset((2, 2, 2)), Multiset((3, 1))]


def enumerations(monkeypatch) -> list[str]:
    """The multisets ``harness.enumerate_stirling`` is called on from now on."""
    calls = []
    original = harness.enumerate_stirling

    def counting(m):
        calls.append(m.spec())
        return original(m)

    monkeypatch.setattr(harness, "enumerate_stirling", counting)
    return calls


def _canonical_digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestCampaignOutput:
    def test_default_campaign_report_is_unchanged(self):
        report = verify("all", default_campaign_family(), jobs=1)
        assert _canonical_digest(report.to_json_dict(include_timing=False)) == CAMPAIGN_DIGEST

    def test_two_jobs_give_the_serial_report(self):
        serial = verify("all", MIXED, jobs=1)
        parallel = verify("all", MIXED, jobs=2)
        assert serial.to_json_dict(include_timing=False) == parallel.to_json_dict(
            include_timing=False)

    def test_failing_check_keeps_check_major_order(self):
        def always_fails(m):
            return [{"multiset": m.spec(), "detail": f"forced failure on {m.spec()}"}]

        CHECKS["X-FAIL"] = CheckDef("always fails", always_fails)
        try:
            report = run_campaign(["P2.1", "X-FAIL", "ROUNDTRIP"], MIXED)
        finally:
            del CHECKS["X-FAIL"]
        specs = [m.spec() for m in MIXED]
        assert [r.check for r in report.reports] == ["P2.1", "X-FAIL", "ROUNDTRIP"]
        assert all([o.multiset for o in r.outcomes] == specs for r in report.reports)
        failing = report.reports[1]
        assert [o.status for o in failing.outcomes] == ["FAIL"] * len(MIXED)
        assert [o.detail for o in failing.outcomes] == [
            f"forced failure on {spec}" for spec in specs]
        assert report.reports[0].passed and report.reports[2].passed


class TestSharedContext:
    def test_each_multiset_is_enumerated_once(self, monkeypatch):
        calls = enumerations(monkeypatch)
        for check_ids in (PER_WORD_CHECKS, sorted(CHECKS)):
            calls.clear()
            assert run_campaign(check_ids, MIXED).passed
            assert sorted(calls) == sorted(m.spec() for m in MIXED)

    @pytest.mark.parametrize("check_id", sorted(CHECKS))
    def test_a_check_enumerates_each_member_at_most_once(self, monkeypatch, check_id):
        calls = enumerations(monkeypatch)
        members = [Multiset((2, 2, 2)), Multiset((2, 1, 2))]
        assert run_campaign([check_id], members).passed
        # T6.2 reads no layer, and a skipped check reads none on 2,1,2.
        cd = CHECKS[check_id]
        assert sorted(calls) == sorted(m.spec() for m in members
                                       if cd.reads and cd.applies_to(m))

    def test_a_check_outside_a_campaign_task_is_refused(self, monkeypatch):
        calls = enumerations(monkeypatch)
        with pytest.raises(RuntimeError, match="no campaign task is checking 2,2,2"):
            CHECKS["T4.3"].run(Multiset((2, 2, 2)))
        assert calls == []

    def test_every_declared_read_is_a_layer(self):
        assert {r for cd in CHECKS.values() for r in cd.reads} <= set(harness._LAYERS)

    def test_reading_an_undeclared_layer_fails_the_cell(self, monkeypatch):
        calls = enumerations(monkeypatch)
        CHECKS["X-UNDECLARED"] = CheckDef(
            "reads T4.3's layer without declaring it",
            lambda m: harness._word_check("T4.3", m), reads=())
        try:
            report = run_campaign(["P2.1", "X-UNDECLARED"], [Multiset((2, 2, 2))])
        finally:
            del CHECKS["X-UNDECLARED"]
        assert report.reports[0].passed
        (outcome,) = report.reports[1].outcomes
        assert (outcome.status, outcome.detail) == ("FAIL", "exception: KeyError('T4.3')")
        assert calls == ["2,2,2"]

    def test_checks_of_a_multiset_share_one_context(self):
        seen = []

        def record(m):
            seen.append((m.spec(), id(harness._context(m))))
            return []

        CHECKS["X-A"] = CheckDef("records its context", record)
        CHECKS["X-B"] = CheckDef("records its context", record)
        try:
            run_campaign(["X-A", "X-B"], MIXED)
        finally:
            del CHECKS["X-A"], CHECKS["X-B"]
        # Multiset by multiset, largest first; one context per multiset.
        by_size = sorted(MIXED, key=lambda m: -family_cost([m]))
        assert [spec for spec, _ in seen] == [m.spec() for m in by_size for _ in "AB"]
        assert all(seen[i][1] == seen[i + 1][1] for i in range(0, len(seen), 2))
        assert harness._current is None

    @pytest.mark.parametrize("check_id, built", [
        ("T4.1", False), ("SYM-XY", False), ("T6.2", False), ("T4.3", True), ("ORBIT", False),
    ])
    def test_a_pass_builds_slot_tables_only_for_a_check_that_reads_them(
            self, monkeypatch, check_id, built):
        tables = []
        original = harness.table_of_word

        def counting(word, mults):
            tables.append(word)
            return original(word, mults)

        monkeypatch.setattr(harness, "table_of_word", counting)
        assert run_campaign([check_id], MIXED).passed
        assert bool(tables) == built

    def test_a_campaign_builds_no_stirling_permutation(self, monkeypatch):
        # The pass hands bare words to every layer, and a failure writes its
        # word as text; the wrapper is for the command line and golden.
        made = constructions(monkeypatch)
        members = [Multiset((2, 2, 2)), Multiset((1, 2, 1)), Multiset.uniform(5, 1)]
        assert verify("all", members).passed
        assert made == []

    def test_a_campaign_holds_no_list_per_word(self):
        # 5 040 words.  Holding each word's permutation, slot table and
        # triple for the whole task took a 4.4 MiB peak.
        tracemalloc.start()
        try:
            report = run_campaign(sorted(CHECKS), [Multiset.uniform(7, 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 2.2 * 2**20

    def test_a_campaign_peak_does_not_grow_with_the_words(self):
        # 5 040 and 40 320 words.  Sorting the words and grouping ORBIT's
        # classes peaked at 1.29 and 9.58 MiB.  A full collection empties
        # CPython's free lists, and refilling them (up to 2 000 tuples of
        # each small size) is traced as new memory: one that fell inside the
        # 1^8 run alone read 0.11 against 0.73 MiB.  So each run starts just
        # after one, and meets none of its own: measured, 0.38 and 0.75 MiB.
        peaks = []
        for n in (7, 8):
            gc.collect()
            tracemalloc.start()
            try:
                report = run_campaign(sorted(CHECKS), [Multiset.uniform(n, 1)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.passed
        assert peaks[1] <= peaks[0] + 0.5 * 2**20, peaks

    def test_context_is_released_after_a_campaign(self):
        run_campaign(PER_WORD_CHECKS, MIXED)
        assert harness._current is None

    def test_context_is_released_when_a_check_raises(self):
        def crashes(m):
            assert harness._current is not None
            raise RuntimeError("boom")

        CHECKS["X-CRASH"] = CheckDef("always crashes", crashes)
        try:
            report = run_campaign(["P2.1", "X-CRASH"], MIXED)
        finally:
            del CHECKS["X-CRASH"]
        assert harness._current is None
        assert [o.status for o in report.reports[1].outcomes] == ["FAIL"] * len(MIXED)

    def test_mma_table_is_shared_by_t61_and_t62(self, monkeypatch):
        calls = []
        original = counts.gamma_count_mma

        def counting(m):
            calls.append(m.spec())
            return original(m)

        monkeypatch.setattr(counts, "gamma_count_mma", counting)
        report = run_campaign(["T6.1", "T6.2"], [Multiset.uniform(3, 2), Multiset((2, 1))])
        assert report.passed
        assert calls == ["2,2,2"]

    def test_extract_route_is_the_context_gamma(self):
        ctx = harness.MultisetContext(Multiset((2, 1, 2)), sorted(CHECKS))
        assert ctx.route("extract") is ctx.gamma
        assert ctx.route("trees") is ctx.route("trees")
        assert ctx.route("trees") == ctx.gamma

    def test_context_outside_a_campaign_is_not_kept(self):
        m = Multiset((2, 2))
        ctx = harness.MultisetContext(m, sorted(CHECKS))
        assert harness._current is None
        assert ctx.c_polynomial.terms == {(1, 2, 2): 1, (2, 1, 2): 1, (2, 2, 1): 1}
        assert sum(ctx.triples.values()) == 3
        empty = harness.MultisetContext(Multiset(()), sorted(CHECKS))
        assert empty.c_polynomial.terms == {(1, 0, 0): 1}


class TestGolden:
    def test_golden_examples_pass(self):
        report = golden_examples()
        failing = [item.name for item in report.items if not item.passed]
        assert failing == []
        assert report.passed
        assert len(report.items) >= 40

    def test_item_names_are_unique(self):
        report = golden_examples()
        names = [item.name for item in report.items]
        assert len(set(names)) == len(names)

    def test_report_json(self):
        data = golden_examples().to_json_dict()
        assert data["passed"] is True
        assert {"name", "passed", "expected", "actual"} <= set(data["items"][0])
        json.dumps(data)
