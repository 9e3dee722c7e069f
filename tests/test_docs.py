"""Docs-consistency checks: the CLI reference cannot drift silently.

``docs/CLI.md`` claims to be the *complete* reference for the ``repro``
command line.  These tests hold it to that: every subcommand (including
nested ones like ``cache stats``) and every flag that
:func:`repro.cli.build_parser` defines must appear in the document, and
— the reverse direction — every ``--flag`` token that any ``docs/*.md``
file or the README mentions must actually exist in the parser, so
removed flags cannot linger as documented fiction, and a row that lists
an argument's values must list exactly the parser's choices.  The README's
pointers into ``docs/`` are checked the same way, and so is every
``*.md`` file a package or test source names.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
CLI_DOC = REPO_ROOT / "docs" / "CLI.md"
README = REPO_ROOT / "README.md"

#: Flags that are argparse plumbing, not part of the documented surface.
_IGNORED_FLAGS = {"-h", "--help"}

#: Flags the docs name that belong to other tools: pytest's golden
#: re-bless switch and pip's editable-install switch.
_FOREIGN_FLAGS = {"--update-golden", "--no-build-isolation"}


def _walk_commands(parser: argparse.ArgumentParser, prefix: str = ""):
    """Yield ``(command path, subparser)`` for every (nested) subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                path = f"{prefix}{name}"
                yield path, sub
                yield from _walk_commands(sub, prefix=f"{path} ")


def _flags_of(parser: argparse.ArgumentParser):
    for action in parser._actions:
        for option in action.option_strings:
            if option not in _IGNORED_FLAGS:
                yield option


def _argument(parser: argparse.ArgumentParser, name: str):
    """The action a docs table row names: a flag or a positional."""
    for action in parser._actions:
        if name in action.option_strings \
                or name in (action.dest, action.metavar):
            return action
    raise AssertionError(f"{parser.prog} has no argument {name!r}")


class TestCLIReference:
    def test_reference_exists(self):
        assert CLI_DOC.is_file(), "docs/CLI.md is missing"

    def test_every_subcommand_is_documented(self):
        text = CLI_DOC.read_text(encoding="utf-8")
        commands = [path for path, _sub in _walk_commands(build_parser())]
        assert commands, "parser defines no subcommands?"
        missing = [path for path in commands
                   if f"repro {path}" not in text]
        assert not missing, (
            f"subcommands missing from docs/CLI.md: {missing} — "
            f"document each as a 'repro <command>' section"
        )

    def test_every_flag_is_documented(self):
        text = CLI_DOC.read_text(encoding="utf-8")
        missing = []
        for path, sub in _walk_commands(build_parser()):
            for flag in _flags_of(sub):
                if flag not in text:
                    missing.append(f"{path} {flag}")
        assert not missing, (
            f"flags missing from docs/CLI.md: {missing}"
        )

    def test_documented_flags_all_exist(self):
        # The reverse direction: a flag removed from the CLI must be
        # removed from every document too, not just the reference.
        known = _IGNORED_FLAGS | _FOREIGN_FLAGS
        for _path, sub in _walk_commands(build_parser()):
            known.update(_flags_of(sub))
        stale = {}
        for doc in sorted(REPO_ROOT.glob("docs/*.md")) + [README]:
            documented = set(re.findall(r"--[a-z][a-z0-9-]*",
                                        doc.read_text(encoding="utf-8")))
            if documented - known:
                stale[doc.relative_to(REPO_ROOT).as_posix()] = sorted(
                    documented - known
                )
        assert not stale, (
            f"docs document flags the CLI does not define: {stale}"
        )

    def test_documented_choices_match_the_parser(self):
        # A row that enumerates an argument's values ("one of `a` `b`")
        # must list exactly the parser's choices, in order, so a value
        # removed from the CLI cannot linger in the reference.
        commands = dict(_walk_commands(build_parser()))
        command = None
        rows = 0
        stale = {}
        for line in CLI_DOC.read_text(encoding="utf-8").splitlines():
            heading = re.match(r"#{2,3} `repro ([a-z ]+)`", line)
            if heading:
                command = commands[heading.group(1)]
                continue
            row = re.match(r"\| `([^`]+)` \|.*\| one of ((?:`[^`]*` ?)+)\|",
                           line)
            if row:
                rows += 1
                documented = re.findall(r"`([^`]*)`", row.group(2))
                choices = list(_argument(command, row.group(1)).choices)
                if documented != choices:
                    stale[f"{command.prog} {row.group(1)}"] = documented
        assert rows, "docs/CLI.md enumerates no argument's choices?"
        assert not stale, (
            f"docs/CLI.md choice lists differ from the parser's: {stale}"
        )

    def test_exit_code_conventions_are_documented(self):
        text = CLI_DOC.read_text(encoding="utf-8")
        for needle in ("Exit codes", "`2`", "`130`", "error:"):
            assert needle in text, (
                f"docs/CLI.md lost its exit-code conventions "
                f"({needle!r} not found)"
            )


class TestKernelsReference:
    def test_op_lists_match_the_package_vocabulary(self):
        # docs/KERNELS.md lists the program ops by arity; each list must
        # be exactly the vocabulary the package format accepts.
        from repro.ir.ops import op_info
        from repro.kernels.package import PROGRAM_OPS

        text = (REPO_ROOT / "docs" / "KERNELS.md").read_text(
            encoding="utf-8")
        lists = re.search(r"binary ops: `([^`]*)`; unary: `([^`]*)`;"
                          r"\s*ternary: `(\w+)", text)
        assert lists, "docs/KERNELS.md lost its program op lists"
        for arity, documented in zip((2, 1, 3), lists.groups()):
            assert sorted(documented.split()) == sorted(
                name for name, opcode in PROGRAM_OPS.items()
                if op_info(opcode).arity == arity
            ), f"docs/KERNELS.md arity-{arity} ops drifted"


class TestREADME:
    def test_readme_exists_and_links_the_docs(self):
        assert README.is_file(), "top-level README.md is missing"
        text = README.read_text(encoding="utf-8")
        for target in ("docs/CLI.md", "docs/ENGINE.md",
                       "docs/DISTRIBUTED.md", "examples/"):
            assert target in text, f"README.md does not point at {target}"

    def test_readme_names_every_subcommand(self):
        text = README.read_text(encoding="utf-8")
        top_level = [path for path, _sub in _walk_commands(build_parser())
                     if " " not in path]
        missing = [name for name in top_level if name not in text]
        assert not missing, (
            f"README.md never mentions subcommands: {missing}"
        )


class TestDocPointers:
    def test_every_named_doc_exists(self):
        # A docstring that sends the reader to a document must name one
        # that exists, at the repo root or under docs/.
        present = {path.name for path in REPO_ROOT.glob("*.md")}
        present.update(path.name for path in REPO_ROOT.glob("docs/*.md"))
        sources = sorted(REPO_ROOT.glob("src/repro/**/*.py")) \
            + sorted(REPO_ROOT.glob("tests/**/*.py"))
        assert sources
        dangling = {}
        for source in sources:
            named = set(re.findall(r"[\w-]+\.md\b",
                                   source.read_text(encoding="utf-8")))
            if named - present:
                dangling[source.relative_to(REPO_ROOT).as_posix()] = \
                    sorted(named - present)
        assert not dangling, (
            f"sources point at documents that do not exist: {dangling}"
        )
