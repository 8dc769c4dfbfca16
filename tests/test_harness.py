"""Campaign harness: families, check execution, reports, golden examples."""

import json

import pytest

from gesselgamma import (
    CHECKS,
    DomainError,
    FamilySpec,
    FamilyTooLargeError,
    Multiset,
    default_campaign_family,
    family_cost,
    golden_examples,
    run_campaign,
    verify,
)
from gesselgamma.harness import CheckDef, pool_workers

SMALL = [Multiset((1,)), Multiset((2,)), Multiset((2, 2)), Multiset((2, 1, 2))]


class TestFamilies:
    def test_bounded_members(self):
        spec = FamilySpec(max_n=2, max_k=2, max_total=4)
        assert [m.mults for m in spec.members()] == [
            (1,), (1, 1), (1, 2), (2,), (2, 1), (2, 2),
        ]

    def test_total_bound_trims(self):
        spec = FamilySpec(max_n=2, max_k=3, max_total=4)
        assert (3, 3) not in {m.mults for m in spec.members()}
        assert (3, 1) in {m.mults for m in spec.members()}

    def test_explicit_members_are_deduped_and_sorted(self):
        spec = FamilySpec(explicit=(Multiset((2, 2)), Multiset((1,)), Multiset((2, 2))))
        assert [m.mults for m in spec.members()] == [(1,), (2, 2)]

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

    def test_unknown_check_id(self):
        with pytest.raises(DomainError) as exc:
            run_campaign(["NOPE"], SMALL)
        assert "ROUNDTRIP" in str(exc.value)

    def test_cost_cap_refusal(self):
        big = [Multiset((3,) * 9)]
        with pytest.raises(FamilyTooLargeError) as exc:
            run_campaign(["ROUNDTRIP"], big, cap=10 ** 6)
        assert exc.value.cost == family_cost(big)
        assert exc.value.cap == 10 ** 6
        assert "cap" in str(exc.value)

    def test_parallel_matches_serial(self):
        ids = ["ROUNDTRIP", "P2.1", "T6.1"]
        serial = run_campaign(ids, SMALL, jobs=1)
        parallel = run_campaign(ids, SMALL, jobs=2)
        assert serial.to_json_dict(include_timing=False) == parallel.to_json_dict(
            include_timing=False
        )

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
        report = verify("T3.1", None, cap=10 ** 6)
        assert report.multisets == [m.spec() for m in default_campaign_family()]


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
