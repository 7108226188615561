"""The prose docs name only code and commands that exist.

The docs name modules, classes and functions by their dotted import
path; a rename that misses one leaves a reader hunting for code that
does not exist.  The first check imports the longest importable
module prefix of each backticked ``repro.…`` name and resolves the
rest as attributes.  The others hold every ``repro <subcommand>``
invocation the docs show, and DESIGN.md's CLI row, to the parser
``python -m repro`` builds.
"""

import argparse
import importlib
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
#: a backtick followed by a dotted name, e.g. `repro.api.simulate(...)`
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")
#: a backticked invocation, e.g. `python -m repro report --profile`
BACKTICKED_COMMAND = re.compile(
    r"`(?:python -m )?repro ([a-z][\w-]*)([^`]*)`"
)
#: one command of a shell line, e.g. `$ python -m repro profile gzip`
SHELL_COMMAND = re.compile(
    r"^(?:\$\s*)?(?:\w+=\S*\s+)*(?:python -m )?repro ([a-z][\w-]*)(.*)$"
)
LONG_FLAG = re.compile(r"--[a-z][\w-]*")
SHELL_FENCES = ("", "bash", "sh", "shell", "console")


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise  # the module exists but a dependency is missing
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def test_every_backticked_repro_name_resolves():
    names = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in DOCS
        for name in DOTTED_NAME.findall(path.read_text())
    }
    assert len(names) > 50  # the scan found the docs
    broken = []
    for doc, name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ModuleNotFoundError) as exc:
            broken.append(f"{doc}: {name} ({exc})")
    assert broken == []


def _subcommands():
    """Subcommand name → the option strings its parser accepts."""
    parser = build_parser()
    action = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            option
            for option_action in subparser._actions
            for option in option_action.option_strings
        }
        for name, subparser in action.choices.items()
    }


def _shell_commands(text: str):
    """``(subcommand, rest)`` for each ``repro`` command in a shell fence.

    Continuation lines are joined, trailing ``#`` comments dropped, and
    ``&&``/``;`` chains split into their commands.
    """
    fence = None
    pending = ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            fence = None if fence is not None else stripped[3:].strip()
            continue
        if fence not in SHELL_FENCES:
            continue
        pending += stripped
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        command_line, pending = pending.split(" #")[0], ""
        for command in re.split(r"&&|;", command_line):
            match = SHELL_COMMAND.match(command.strip())
            if match:
                yield match.groups()


def test_every_documented_repro_command_parses():
    subcommands = _subcommands()
    mentions = []
    for path in DOCS:
        text = path.read_text()
        doc = path.relative_to(ROOT).as_posix()
        for name, rest in BACKTICKED_COMMAND.findall(text):
            mentions.append((doc, name, rest))
        for name, rest in _shell_commands(text):
            mentions.append((doc, name, rest))
    assert len(mentions) > 50  # the scan found the docs
    broken = []
    for doc, name, rest in mentions:
        if name not in subcommands:
            broken.append(f"{doc}: unknown subcommand repro {name}")
            continue
        for flag in LONG_FLAG.findall(rest):
            if flag not in subcommands[name]:
                broken.append(f"{doc}: repro {name} has no {flag}")
    assert broken == []


def test_design_cli_row_lists_every_subcommand():
    subcommands = _subcommands()
    row = next(
        line for line in (ROOT / "DESIGN.md").read_text().splitlines()
        if line.startswith("| CLI |")
    )
    listed = re.search(r"python -m repro \{([\w,]+)\}", row).group(1)
    assert sorted(listed.split(",")) == sorted(subcommands)
    with_opt = re.search(r"`-O\{0,1\}` on ([\w/]+)", row).group(1)
    assert sorted(with_opt.split("/")) == sorted(
        name for name, options in subcommands.items() if "-O" in options
    )
