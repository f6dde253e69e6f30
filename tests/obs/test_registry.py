"""Tests for the metrics registry."""

import pytest

from repro.obs import MetricsRegistry
from tests.metrics import total, value


class TestCounters:
    def test_increment_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("requests_total")
        reg.inc("requests_total", 2.0)
        assert value(reg, "requests_total") == 3.0

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("checks_total", verdict="allowed")
        reg.inc("checks_total", verdict="allowed")
        reg.inc("checks_total", verdict="blocked")
        assert value(reg, "checks_total", verdict="allowed") == 2.0
        assert value(reg, "checks_total", verdict="blocked") == 1.0
        assert total(reg, "checks_total") == 3.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x_total", a="1", b="2")
        reg.inc("x_total", b="2", a="1")
        assert value(reg, "x_total", b="2", a="1") == 2.0

    def test_absent_counter_totals_zero(self):
        assert total(MetricsRegistry(), "nope") == 0.0


class TestGauges:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 4.0, queue="pool")
        reg.set_gauge("depth", 2.0, queue="pool")
        assert value(reg, "depth", queue="pool") == 2.0


class TestHistograms:
    def test_observe_buckets_and_sum(self):
        reg = MetricsRegistry()
        reg.observe("wait_seconds", 0.5)
        reg.observe("wait_seconds", 50.0)
        inst = reg.instruments()[0]
        assert inst.kind == "histogram"
        (key, histogram), = inst.histograms.items()
        assert histogram.count == 2
        assert histogram.total == pytest.approx(50.5)
        cumulative = dict(histogram.cumulative())
        assert cumulative["+Inf"] == 2

    def test_observation_above_all_buckets_lands_in_inf(self):
        reg = MetricsRegistry()
        reg.observe("wait_seconds", 1e9)
        (histogram,) = reg.instruments()[0].histograms.values()
        assert histogram.counts[-1] == 1


class TestKindDiscipline:
    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.inc("thing_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.set_gauge("thing_total", 1.0)

    def test_instruments_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.inc("b_total")
        reg.inc("a_total")
        assert [i.name for i in reg.instruments()] == ["a_total", "b_total"]

    def test_len_and_contains(self):
        reg = MetricsRegistry()
        reg.inc("a_total")
        assert len(reg) == 1
        assert [i.name for i in reg.instruments()] == ["a_total"]
