"""The CLI's interface, pinned: every option of every subcommand
(``parser_snapshot.json``) and the stdout of the runs listed in
``expected/invocations.txt`` (one ``expected/<name>.txt`` each).

A change that means to move either rewrites the file it moves: the
snapshot with ``PYTHONPATH=src python -c "from tests.cli.test_cli_interface
import snapshot_text; print(snapshot_text(), end='')" > tests/cli/parser_snapshot.json``.
"""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

HERE = Path(__file__).parent
EXPECTED = HERE / "expected"


def _option(action: argparse.Action, parser) -> dict:
    kind = action.type
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "action": type(action).__name__,
        "type": None if kind is None else kind.__qualname__,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
        # The default group's title differs across Python versions.
        "group": (
            None if action.container is parser._optionals
            else action.container.title
        ),
    }


def parser_snapshot() -> dict:
    """Each subcommand's help, defaults and options, in declaration order."""
    parser = build_parser()
    (sub,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        name: {
            "help": helps[name],
            "defaults": {
                key: value for key, value in sorted(command._defaults.items())
                if not callable(value)
            },
            "options": [
                _option(action, command) for action in command._actions
            ],
        }
        for name, command in sub.choices.items()
    }


def snapshot_text() -> str:
    """:func:`parser_snapshot` as JSON, one option a line."""
    lines = ["{"]
    commands = parser_snapshot()
    for index, (name, command) in enumerate(commands.items()):
        head = {key: command[key] for key in ("help", "defaults")}
        lines.append(f" {json.dumps(name)}: {json.dumps(head)[:-1]},")
        lines.append('  "options": [')
        options = command["options"]
        lines += [
            f"   {json.dumps(option, sort_keys=True)}"
            + ("," if i < len(options) - 1 else "")
            for i, option in enumerate(options)
        ]
        lines.append("  ]}" + ("," if index < len(commands) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def test_parser_matches_snapshot():
    expected = json.loads((HERE / "parser_snapshot.json").read_text())
    assert json.loads(json.dumps(parser_snapshot())) == expected


def _invocations():
    for line in (EXPECTED / "invocations.txt").read_text().splitlines():
        if line.strip():
            name, *argv = shlex.split(line)
            yield pytest.param(name, argv, id=name)


@pytest.mark.parametrize("name,argv", list(_invocations()))
def test_stdout_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (EXPECTED / f"{name}.txt").read_text()
