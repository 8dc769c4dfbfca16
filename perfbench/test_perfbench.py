"""Tests of the benchmark's own helpers: percentiles, spans, generator
timing, rebinding and its undoing, the correctness gate and metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from gesselgamma import counts, harness, stirling  # noqa: E402
from gesselgamma.multiset import Multiset  # noqa: E402


class Clock:
    """A fake perf_counter that moves only when a test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    c = Clock()
    monkeypatch.setattr(tr, "perf_counter", c)
    return c


# -- percentiles -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert tr.percentile(values, 50) == 50
    assert tr.percentile(values, 90) == 90
    assert tr.percentile(values, 100) == 100
    assert tr.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, expected", [
    (15, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (1464, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert tr.highest_reportable(n) == expected


def test_tail_percentile_refuses_thin_tails():
    assert tr.tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="ten samples"):
        tr.tail_percentile(list(range(99)), 90)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_nested_spans(clock):
    t = tr.Tracer()

    def inner():
        clock.now += 2.0

    inner_w = t.wrap("m.inner", inner)

    def outer():
        clock.now += 1.0
        inner_w()
        inner_w()
        clock.now += 3.0

    t.wrap("m.outer", outer)()
    assert t.stats["m.outer"].calls == 1
    assert t.stats["m.outer"].busy_s == pytest.approx(8.0)
    assert t.stats["m.outer"].self_s == pytest.approx(4.0)
    assert t.stats["m.inner"].calls == 2
    assert t.stats["m.inner"].busy_s == pytest.approx(4.0)
    assert t.stats["m.inner"].self_s == pytest.approx(4.0)


def test_span_closes_when_the_call_raises(clock):
    t = tr.Tracer()

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("m.boom", boom)()
    assert t.stats["m.boom"].calls == 1
    assert t.stats["m.boom"].busy_s == pytest.approx(1.0)
    assert t._stack == []


def test_generator_is_timed_per_next_and_counted_by_parent(clock):
    t = tr.Tracer()

    def gen():
        for i in range(3):
            clock.now += 1.0  # producing an item
            yield i
        clock.now += 0.5  # the final next() that ends the stream

    gen_w = t.wrap_generator("m.gen", gen)

    def consume():
        out = []
        for item in gen_w():
            clock.now += 10.0  # consumer work between items is not the generator's
            out.append(item)
        return out

    assert t.wrap("m.consume", consume)() == [0, 1, 2]
    st = t.stats["m.gen"]
    assert (st.calls, st.items, st.max_items) == (1, 3, 3)
    assert st.busy_s == pytest.approx(3.5)
    assert t.stats["m.consume"].self_s == pytest.approx(30.0)
    assert t.parent_items == {"m.consume>m.gen": 3}


def test_abandoned_generator_still_records_its_items(clock):
    t = tr.Tracer()
    def gen():
        yield from range(10)

    gen_w = t.wrap_generator("m.gen", gen)
    it = gen_w()
    assert next(it) == 0
    it.close()
    assert t.stats["m.gen"].items == 1


def test_result_sizes_are_summed():
    t = tr.Tracer()
    from gesselgamma.grammar import c_polynomial_grammar

    t.install(functions=("grammar.derive",), generators=(), checks=False)
    try:
        c_polynomial_grammar(Multiset((2, 2)))
    finally:
        t.restore()
    st = t.stats["grammar.derive"]
    assert st.calls == 2
    assert st.items == 1 + 3  # x y z, then the three terms of {1^2, 2^2}


# -- installing and restoring -----------------------------------------------


def _bindings(fn):
    return sorted(
        (name, attr)
        for name, mod in sys.modules.items()
        if name == "gesselgamma" or name.startswith("gesselgamma.")
        for attr, value in vars(mod).items()
        if value is fn
    )


def test_install_rebinds_every_importer_and_restore_undoes_it():
    original = stirling.statistics
    before = _bindings(original)
    assert ("gesselgamma.harness", "statistics") in before
    assert ("gesselgamma.counts", "statistics") in before
    checks_before = dict(harness.CHECKS)
    t = tr.Tracer()
    t.install()
    try:
        assert _bindings(original) == []
        assert harness.statistics is counts.statistics is not original
        assert all(harness.CHECKS[c] is not checks_before[c] for c in checks_before)
        counts.c_polynomial_enum(Multiset((2, 2)))
    finally:
        t.restore()
    assert _bindings(original) == before
    assert harness.CHECKS == checks_before
    assert all(harness.CHECKS[c] is checks_before[c] for c in checks_before)
    assert t.stats["stirling.statistics"].calls == 3
    assert t.stats["stirling.enumerate_stirling"].items == 3
    assert t.stats["counts.c_polynomial_enum"].calls == 1


def test_check_wrapper_times_cells():
    t = tr.Tracer()
    t.install(functions=(), generators=(), checks=True)
    try:
        report = harness.verify("ROUNDTRIP", [Multiset((2, 2)), Multiset((1, 1))])
    finally:
        t.restore()
    assert report.passed
    assert sorted(t.cell_ms) == ["ROUNDTRIP:1,1", "ROUNDTRIP:2,2"]
    assert t.stats["harness.check.ROUNDTRIP"].calls == 2


def test_child_dumps_merge_into_the_parent(tmp_path):
    child = tr.Tracer()
    child.wrap("m.f", lambda: None)()
    child.cell_ms["T3.1:2,2"] = 1.5
    child.parent_items["a>b"] = 4
    (tmp_path / "123.json").write_text(json.dumps(child.snapshot()))
    parent = tr.Tracer(dump_dir=tmp_path)
    parent.wrap("m.f", lambda: None)()
    assert parent.merge_dumps() == 1
    assert parent.stats["m.f"].calls == 2
    assert parent.cell_ms == {"T3.1:2,2": 1.5}
    assert parent.parent_items == {"a>b": 4}
    assert list(tmp_path.iterdir()) == []


# -- correctness gate ---------------------------------------------------------


def test_campaign_gate_counts_every_cell_of_a_changed_check():
    report = harness.verify("all", [Multiset((2, 2))])
    failed, errors = workloads.Campaign.gate(report)
    assert failed == 16
    assert any("campaign report differs" in e for e in errors)


def test_query_gate_fails_a_wrong_answer():
    wl = workloads.Queries()
    wl.ops = [(["gamma", "--multiset", "2,2", "--via", "trees"], '{"K": 4, "entries": []}', None),
              (["gamma", "--multiset", "2,1", "--via", "mma"], "", None)]
    result = wl.run_pass(None, None)
    assert (result.attempted, result.failed) == (2, 2)


def test_chain_gate_fails_a_wrong_count():
    wl = workloads.Chains()
    wl.ops = [(Multiset((2, 2)), 3), (Multiset((2, 2)), 4)]
    result = wl.run_pass(None, None)
    assert (result.attempted, result.failed) == (2, 1)


def test_inputs_follow_the_seed():
    a, b, c = workloads.Queries(), workloads.Queries(), workloads.Queries()
    a.setup(7)
    b.setup(7)
    c.setup(8)
    assert a.ops == b.ops != c.ops
    assert len(a.ops) >= 100
    assert all(500 <= stirling.count_stirling(m) <= 10500 for _, _, m in a.ops)
    ch = workloads.Chains()
    ch.setup(7)
    assert len(ch.ops) >= 100
    assert all(40 <= m.K <= 200 and max(m.mults) <= 4 for m, _ in ch.ops)


# -- metric names ---------------------------------------------------------------


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layers == run.per_layer_units()
    for name in [*e2e, *layers]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert run.CHECK_IDS == tuple(sorted(harness.CHECKS))


# -- speed scaling ----------------------------------------------------------------


def test_probe_scales_by_the_median_of_recent_calibrations(monkeypatch):
    import speed

    kernel_times = iter([2.0, 4.0, 3.0, 100.0])
    monkeypatch.setattr(speed, "kernel_time", lambda: next(kernel_times))
    monkeypatch.setattr(speed, "INTERVAL_S", 0.0)
    monkeypatch.setattr(speed, "REFERENCE_S", 1.0)
    probe = speed.SpeedProbe()
    for _ in range(3):
        probe.calibrate_if_due()
    assert probe.scale(6.0) == pytest.approx(2.0)  # median 3.0: 3x slower than reference
    probe.calibrate_if_due()  # one outlier among 4.0, 3.0, 100.0
    assert probe.scale(8.0) == pytest.approx(2.0)
    assert probe.cal_s == pytest.approx(109.0)
    assert (probe.raw_s, probe.ref_s) == (pytest.approx(14.0), pytest.approx(4.0))


def test_scaled_wall_drops_calibration_time_shared_by_workers():
    import speed

    probe = speed.SpeedProbe()
    probe.add_totals({"cal_s": 2.0, "raw_s": 30.0, "ref_s": 15.0})
    assert probe.scaled_wall(21.0) == pytest.approx(9.5)
    assert probe.scaled_wall(21.0, workers=2) == pytest.approx(10.0)
    assert speed.SpeedProbe().scaled_wall(5.0) == 5.0
