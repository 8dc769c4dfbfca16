"""The benchmark's four workloads: inputs from a seed, one timed pass, and
the correctness gate on every answer.

A pass answers the workload's whole input list once.  Campaign passes run
the sixteen harness checks over the default family; query passes make one
``cli.main`` call per (command, multiset, route); chain passes run the
grammar/extraction chain of one large multiset per op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter

from gesselgamma import cli, grammar, harness, poly
from gesselgamma.multiset import Multiset
from gesselgamma.stirling import count_stirling

from speed import SpeedProbe
from tracer import Tracer


@dataclass
class PassResult:
    """One pass; times are at the reference speed (see speed.py)."""

    wall_s: float
    op_ms: dict[str, float]  # latency of each op, keyed alike in every pass
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    pool_busy_frac: float = 0.0  # campaigns: summed cell time / (jobs * wall)
    slowdown: float = 1.0  # raw time / reference time of the ops


def canonical_digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# campaigns

# SHA-256 of CampaignReport.to_json_dict(include_timing=False) as canonical
# JSON for verify("all") over default_campaign_family(), and of each check's
# entry in it; frozen from the reference implementation.
CAMPAIGN_DIGEST = "3b6e2a45520a423748cacda575b4e8f9bf0af17e2999d115cc48964298bf3f7c"
CHECK_DIGESTS = {
    "JKP-ZJ": "5c5a206cba2bd977dd59046ae03e9978734e8798dc1d5f922a8e242dc31aee34",
    "ORBIT": "77515a03efd5a05a1c9e12ab0affe92d37c378ed6d5db9ccb2120453baa9f3c7",
    "P2.1": "e6bdc22bf38414ca64bb30e6418a60b33b6222ec16b83ab7f47d2af583786ba1",
    "P2.2": "2f99cd409b08b00f561e31503f80944735666d56b10d979c11c46cfb4465114d",
    "P5.1": "dbfa38026b34c23e12b2bd06c89f58b1cdb98ef3b86d204b8537fa1e740e34ae",
    "P6.3": "ce609c0d2185ed5714001d6ca21edfd37ba505f114a0283a315975d9b348ae13",
    "ROUNDTRIP": "0d096e3fc66301f73068076d991412ebce08340ed732c9c1064679438daa456d",
    "SYM-XY": "a07a97cfc576da84bddb56d73b35935a8a816e230780e3527918eecce80dfc13",
    "SYM-XYZ": "f3d42c921feaebc7db48f88dd2ee6cb084064832f78759367ce511b70026814c",
    "T3.1": "0f4916793082b566e69ea01398e2b5a25f743524e7328d95e7e46a4cc118565b",
    "T4.1": "df7a74ee55b6ba8c3bac912d349712d0235dfc958bc6e3eb2ac15291f7709e3d",
    "T4.3": "b270190333559acc217296b11b9320c2ad03ad68b91595dfbe18773ab0912dd7",
    "T4.4": "0c5a940c984e9a9d29fb14880f06933352966afb1d55d4169e7bc8c34ae2770e",
    "T5.2": "5770dca91a374e335f5f88498280f79fcd2e26ae2ac8657cebb98b39980cb91e",
    "T6.1": "4a4e6553e774701e6a5962be9c2d7512e59933abafaf5b80c0faf2cff14edd9f",
    "T6.2": "df43dfc23bc1260e4a7df80deaa1f68e208f8c6676e3d70e3b594186782df62e",
}


class Campaign:
    """verify("all") over default_campaign_family() with a fixed job count.

    The family does not depend on the seed.  A cell is one (check, multiset)
    pair; its latency is the wall time of the check's ``run`` on it, so
    SKIP cells (which run nothing) carry no latency sample.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs

    def setup(self, seed: int) -> None:
        self.family = harness.default_campaign_family()
        self.family_words = harness.family_cost(self.family)

    def context(self) -> dict:
        ks = [m.K for m in self.family]
        return {
            "multisets": len(self.family),
            "cells": len(self.family) * len(harness.CHECKS),
            "words": self.family_words,
            "K_range": [min(ks), max(ks)],
            "jobs": self.jobs,
        }

    def run_pass(self, tracer: Tracer | None, scratch) -> PassResult:
        own = tracer is None
        if own:  # time cells only
            tracer = Tracer(dump_dir=scratch if self.jobs > 1 else None)
            tracer.install(functions=(), generators=(), checks=True)
        tracer.cell_ms.clear()
        tracer.probe = SpeedProbe()
        try:
            t0 = perf_counter()
            report = harness.verify("all", self.family, jobs=self.jobs)
            wall = perf_counter() - t0
            tracer.merge_dumps()
        finally:
            if own:
                tracer.restore()
        op_ms = dict(tracer.cell_ms)
        probe = tracer.probe
        failed, errors = self.gate(report)
        applicable = sum(1 for r in report.reports for o in r.outcomes if o.status != "SKIP")
        if len(op_ms) != applicable:
            raise RuntimeError(
                f"timed {len(op_ms)} cells but {applicable} ran; were the pool workers forked?")
        busy_s = sum(r.elapsed_ms for r in report.reports) / 1000.0
        return PassResult(probe.scaled_wall(wall, self.jobs), op_ms,
                          sum(len(r.outcomes) for r in report.reports), failed, errors,
                          busy_s / (self.jobs * wall), probe.raw_s / probe.ref_s)

    @staticmethod
    def gate(report) -> tuple[int, list[str]]:
        """Failed cells: every FAIL cell, and every cell of a check whose
        report differs from the frozen one."""
        data = report.to_json_dict(include_timing=False)
        failed = 0
        errors = []
        for entry, r in zip(data["checks"], report.reports):
            if CHECK_DIGESTS.get(r.check) != canonical_digest(entry):
                failed += len(r.outcomes)
                errors.append(f"{r.check}: report differs from the frozen digest")
            else:
                failed += sum(1 for o in r.outcomes if o.status == "FAIL")
        if canonical_digest(data) != CAMPAIGN_DIGEST:
            failed = max(failed, 1)
            errors.append("campaign report differs from the frozen digest")
        return failed, errors


# --------------------------------------------------------------------------
# single queries through the command line


# Bands (low, high, queries) of letters enumerated, words x K, which is
# what the per-word layers' cost follows.  A band's queries aim at sizes
# spaced evenly in log scale across it; each takes a multiset within
# SIZE_TOLERANCE of its aim and the routes in turn, so seeds differ in
# shapes but hardly in cost.
SIZE_TOLERANCE = 0.08
QUERY_BANDS = (
    (5000, 7000, 16), (7000, 10000, 16), (10000, 14000, 14), (14000, 20000, 12),
    (20000, 28000, 10), (28000, 40000, 8), (40000, 56000, 6), (56000, 80000, 6),
)
ROUTES = (("gamma", "extract"), ("gamma", "grammar"), ("gamma", "trees"),
          ("gamma", "perms"), ("poly", "enum"), ("poly", "grammar"))
DOUBLED_ROUTES = ROUTES + (("gamma", "mma"), ("gamma", "ternary"))
# The doubled multisets within the word range, with the routes asked of
# each: {1^2..5^2} (945 words) by all eight, {1^2..6^2} (10 395 words) by
# the two routes only doubled multisets have and two others.
DOUBLED = (
    (Multiset.uniform(5, 2), DOUBLED_ROUTES),
    (Multiset.uniform(6, 2), (("gamma", "mma"), ("gamma", "ternary"),
                              ("gamma", "trees"), ("gamma", "grammar"))),
)


def query_candidates() -> list[tuple[int, Multiset]]:
    """(letters, multiset) of the non-doubled multisets with n <= 7, k <= 4,
    K <= 14 and 500..10 500 words."""
    out = []
    for n in range(1, 8):
        for mults in product(range(1, 5), repeat=n):
            if sum(mults) > 14:
                continue
            m = Multiset(mults)
            words = count_stirling(m)
            if 500 <= words < 10500 and not m.is_uniform(2):
                out.append((words * m.K, m))
    return out


class Queries:
    """A closed loop with one client: one in-process ``cli.main`` call per op."""

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        candidates = query_candidates()
        queries = []
        for lo, hi, count in QUERY_BANDS:
            for i in range(count):
                aim = lo * (hi / lo) ** ((i + 0.5) / count)
                near = [m for size, m in candidates if abs(size / aim - 1) <= SIZE_TOLERANCE]
                queries.append((*ROUTES[i % len(ROUTES)], rng.choice(near)))
        for m, routes in DOUBLED:
            queries.extend((cmd, via, m) for cmd, via in routes)
        rng.shuffle(queries)
        # Reference answers: the grammar route, which enumerates nothing.
        gamma_ref = {}
        poly_ref = {}
        for cmd, _, m in queries:
            if cmd == "gamma" and m not in gamma_ref:
                gamma_ref[m] = poly.gamma_table_from_uvz(
                    grammar.gamma_polynomial_grammar(m), m.K).to_json()
            if cmd == "poly" and m not in poly_ref:
                poly_ref[m] = grammar.c_polynomial_grammar(m).to_json()
        self.ops = [
            ([cmd, "--multiset", m.spec(), "--via", via],
             (gamma_ref if cmd == "gamma" else poly_ref)[m], m)
            for cmd, via, m in queries
        ]

    def context(self) -> dict:
        ks = [m.K for _, _, m in self.ops]
        return {
            "ops": len(self.ops),
            "words": sum(count_stirling(m) for _, _, m in self.ops),
            "max_words": max(count_stirling(m) for _, _, m in self.ops),
            "K_range": [min(ks), max(ks)],
            "clients": 1,
        }

    def run_pass(self, tracer: Tracer | None, scratch) -> PassResult:
        op_ms = {}
        failed = 0
        errors = []
        main = cli.main
        probe = SpeedProbe()
        start = perf_counter()
        for key, (argv, expected, _) in enumerate(self.ops):
            out = io.StringIO()
            probe.calibrate_if_due()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = main(argv)
            except Exception as exc:  # an op that crashes is a failed op
                code = f"exception {exc!r}"
            op_ms[str(key)] = probe.scale(perf_counter() - t0) * 1000.0
            if code != 0 or out.getvalue().strip() != expected:
                failed += 1
                errors.append(f"{' '.join(argv)}: exit {code}, wrong or missing answer")
        wall = perf_counter() - start
        return PassResult(probe.scaled_wall(wall), op_ms, len(self.ops), failed, errors,
                          slowdown=probe.raw_s / probe.ref_s)


# --------------------------------------------------------------------------
# grammar chains far beyond enumeration

CHAINS = 100
K_RANGE = (40, 200)
# Chain i has mean multiplicity MEAN_K[i % len(MEAN_K)], which with K fixes
# n; every tenth chain is a plain permutation {1, ..., n} with n <= N_MAX.
# Seeds differ only in how K is split into n parts.
MEAN_K = (3.5, 3.0, 2.5)
N_MAX = 120


def chain_shapes() -> list[tuple[int, int]]:
    """(K, n) of every chain: K spreads over K_RANGE, densest at the low
    end, since a chain's cost grows steeply with K and n."""
    lo, hi = K_RANGE
    shapes = []
    for i in range(CHAINS):
        K = lo + (hi - lo) * i * i // (CHAINS - 1) ** 2
        if i % 10 == 9:
            K = min(K, N_MAX)
            shapes.append((K, K))
        else:
            shapes.append((K, max(-(-K // 4), round(K / MEAN_K[i % len(MEAN_K)]))))
    return shapes


def chain_multiset(rng: random.Random, K: int, n: int) -> Multiset:
    """A random multiset with n values, K elements and multiplicities <= 4."""
    mults = [1] * n
    for _ in range(K - n):
        i = rng.choice([j for j, k in enumerate(mults) if k < 4])
        mults[i] += 1
    return Multiset(tuple(mults))


class Chains:
    """Per op, the xyz and uvz derivative chains of one multiset, both
    extractions and the change of variables, checked against each other.

    The package functions are called through their modules so that a
    tracer's rebinding sees the calls.
    """

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        ms = [chain_multiset(rng, K, n) for K, n in chain_shapes()]
        rng.shuffle(ms)
        self.ops = [(m, count_stirling(m)) for m in ms]

    def context(self) -> dict:
        ks = [m.K for m, _ in self.ops]
        return {
            "ops": len(self.ops),
            "words": sum(words for _, words in self.ops),
            "K_range": [min(ks), max(ks)],
            "n_max": max(m.n for m, _ in self.ops),
        }

    def run_pass(self, tracer: Tracer | None, scratch) -> PassResult:
        op_ms = {}
        failed = 0
        errors = []
        probe = SpeedProbe()
        start = perf_counter()
        for key, (m, words) in enumerate(self.ops):
            probe.calibrate_if_due()
            t0 = perf_counter()
            try:
                c = grammar.c_polynomial_grammar(m)
                g = grammar.gamma_polynomial_grammar(m)
                extracted = poly.gamma_extract(c, m.K)
                from_uvz = poly.gamma_table_from_uvz(g, m.K)
                uv = grammar.change_of_variables_check(c)
                ok = extracted == from_uvz and uv == g and sum(c.terms.values()) == words
                error = "the chain routes disagree"
            except Exception as exc:  # an op that crashes is a failed op
                ok = False
                error = f"exception {exc!r}"
            op_ms[str(key)] = probe.scale(perf_counter() - t0) * 1000.0
            if not ok:
                failed += 1
                errors.append(f"{m.spec()}: {error}")
        wall = perf_counter() - start
        return PassResult(probe.scaled_wall(wall), op_ms, len(self.ops), failed, errors,
                          slowdown=probe.raw_s / probe.ref_s)


WORKLOADS = {
    "campaign-serial": lambda: Campaign(jobs=1),
    "campaign-jobs2": lambda: Campaign(jobs=2),
    "routes-query": Queries,
    "grammar-chain": Chains,
}
