"""The float-sum lint: clean on the source tree, and it sees every form."""

from __future__ import annotations

from pathlib import Path

from tests.tools.float_sum_lint import find_calls, lint

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def flagged(source: str):
    return [key for _line, key in find_calls(source, "m.py")]


def test_golden_pinned_modules_add_floats_through_ordered_sum():
    assert lint(PACKAGE) == []


def test_flags_builtin_sum_fmean_and_fsum():
    source = (
        "import math, statistics\n"
        "from statistics import fmean as mean\n"
        "def f(xs):\n"
        "    return sum(xs) + math.fsum(xs) + statistics.fmean(xs) + mean(xs)\n"
    )
    assert flagged(source) == [
        "m.py:f: sum(xs)",
        "m.py:f: math.fsum(xs)",
        "m.py:f: statistics.fmean(xs)",
        "m.py:f: mean(xs)",
    ]


def test_passes_ordered_sum_counts_and_numpy():
    source = (
        "class C:\n"
        "    def f(self, xs):\n"
        "        n = sum(1 for x in xs if x) + sum([1 for x in xs])\n"
        "        return ordered_sum(xs) + np.sum(xs) + n\n"
    )
    assert flagged(source) == []
    # A count of anything but an int literal is a sum.
    assert flagged("def g(xs):\n    return sum(1.0 for x in xs)\n") == [
        "m.py:g: sum(1.0 for x in xs)"
    ]


def test_allowlist_entries_must_match_a_call(monkeypatch):
    from tests.tools import float_sum_lint

    monkeypatch.setitem(float_sum_lint.ALLOWED, "core/x.py:f: sum(xs)", "gone")
    assert lint(PACKAGE) == ["stale allowlist entry: core/x.py:f: sum(xs)"]
