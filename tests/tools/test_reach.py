"""The reach gate: it sees what a run enters, and its set covers the CLI."""

from __future__ import annotations

import argparse
import re
import textwrap

from repro.cli import build_parser
from tests.tools.reach import (
    ALLOWED,
    PACKAGE,
    PRODUCTION_SET,
    ROOT,
    functions,
    measure,
    problems,
    unentered,
)

PLANTED = textwrap.dedent(
    """
    import functools
    import multiprocessing


    def entered():
        return 1


    def unentered():
        return 2


    @functools.lru_cache(maxsize=None)
    def decorated():
        return 3


    class Holder:
        def method(self):
            def nested():
                return 4

            return nested()


    def in_forked_child():
        return 5


    if __name__ == "__main__":
        entered()
        decorated()
        Holder().method()
        child = multiprocessing.get_context("fork").Process(
            target=in_forked_child
        )
        child.start()
        child.join()
    """
)


def test_reports_exactly_the_function_no_run_enters(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED)
    entered, runs = measure(
        [("planted", ("-m", "planted.mod"))],
        package,
        tmp_path / "work",
        [tmp_path, ROOT / "src", ROOT],
    )
    assert [run.status for run in runs] == [0]
    defined = functions(package)
    assert len(defined) == 6
    assert [f.key for f in unentered(defined, entered)] == ["mod.py:unentered"]


def test_production_set_runs_every_subcommand():
    parser = build_parser()
    [subparsers] = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    run = {
        argv[2] for _name, argv in PRODUCTION_SET if argv[:2] == ("-m", "repro")
    }
    assert sorted(set(subparsers.choices) - run) == []


def test_every_allowlist_entry_names_a_function_and_gives_a_reason():
    assert problems([], functions(PACKAGE), ALLOWED) == []
    assert all(reason.strip() for reason in ALLOWED.values())


def test_no_entry_stays_because_only_tests_call_it():
    """Code that only tests reach is deleted, or moved under ``tests/``; a
    reason saying so is not a reason to keep it in ``src/``."""
    only_tests = re.compile(r"\bonly tests?\b", re.IGNORECASE)
    assert [
        key for key, reason in ALLOWED.items() if only_tests.search(reason)
    ] == []
