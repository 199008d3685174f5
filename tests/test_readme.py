"""README's contract, held to the code: its input-rule table, its flags, its errors and its commands.

Each input rule is stated once, as a row of README's "Input rules" table;
docstrings name the rule.  These tests fail when a rule, a flag, a
subcommand or an error class is added or removed without its README line,
and when a README command stops running.
"""

import argparse
import importlib
import inspect
import re
import shlex
import shutil

import pytest

import cohres.errors
from cohres import cli
from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")

# private functions of core and tableio that are no input rule, each with the reason
NOT_RULES = {
    "core._frozen": "copies an array the caller already passed; it refuses nothing",
    "tableio._fmt": "the writers' float formatter",
    "tableio._block": "the table writer's JSON layout",
    "tableio._object": "the table writer's JSON layout",
    "tableio._floats": "the table writer's JSON layout",
    "tableio._states": "the table writer's JSON layout",
    "tableio._cx_out": "a writer's codec for [re, im]",
    "tableio._state_out": "a writer's codec for state records",
    "tableio._load_object": "parses a document; its faults are the file's, not a field's",
    "tableio._read_text": "reads a file; its faults are the file's, not a field's",
}


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table_rows(title: str) -> list[list[str]]:
    """The cells of each body row of the markdown tables in README's section ``title``."""
    rows = [line.strip("|").split("|") for line in section(title).splitlines() if line[:2] == "| "]
    return [[cell.strip() for cell in row] for row in rows[1:]]  # rows[0] is the header


def rules() -> list[str]:
    """``module.function`` of each row of the input-rule table, in order."""
    return [re.fullmatch(r"`(\w+\.\w+)`", row[0]).group(1) for row in table_rows("Input rules")]


def readme_commands() -> list[str]:
    """Every ``cohres`` command of README's ``sh`` blocks, continuation lines joined, in order."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("cohres "):
                commands.append(" ".join(line.split()))
    return commands


def test_the_rule_table_names_each_rule_once_and_each_exists():
    named = rules()
    assert len(named) == len(set(named))
    for rule in named:
        module, name = rule.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"cohres.{module}"), name, None))


@pytest.mark.parametrize("module", ["core", "tableio"])
def test_every_private_function_is_a_tabled_rule_or_a_named_helper(module):
    mod = importlib.import_module(f"cohres.{module}")
    private = {
        f"{module}.{name}"
        for name, f in vars(mod).items()
        if name[:1] == "_" and name[:2] != "__"
        and inspect.isfunction(f) and f.__module__ == mod.__name__
    }
    tabled = {r for r in rules() if r.startswith(f"{module}.")}
    helpers = {h for h in NOT_RULES if h.startswith(f"{module}.")}
    assert not tabled & helpers
    assert private == tabled | helpers


def test_every_subcommand_and_flag_is_in_the_flag_table():
    actions = cli.build_parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        (flag, command)
        for command, sub in subparsers.choices.items()
        for a in sub._actions
        if not isinstance(a, argparse._HelpAction)
        for flag in a.option_strings
    }
    documented = {
        (flag, command)
        for flags, commands, _ in table_rows("Command line")
        for flag in re.findall(r"`(--[\w-]+)", flags)
        for command in commands.split(", ")
    }
    assert documented == defined
    for command in subparsers.choices:
        assert f"cohres {command} " in README


def test_every_error_class_is_documented():
    classes = [
        name for name, c in vars(cohres.errors).items()
        if isinstance(c, type) and c.__module__ == cohres.errors.__name__
    ]
    assert len(classes) == 10
    for name in classes:
        assert f"`{name}`" in README


def test_every_readme_command_runs(tmp_path, monkeypatch, capsys):
    shutil.copytree(REPO_ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {c.split()[1] for c in commands} == {"synth", "control", "schwartz", "scan", "validate"}
    for command in commands:
        assert cli.main(shlex.split(command)[1:]) == 0, command
    assert "error" not in capsys.readouterr().err
