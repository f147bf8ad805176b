"""README's Quick start runs as written, with its training cut to two steps, and
its command-line synopsis names the flags and positionals the parser takes."""

import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "steps=200" in block
    exec(compile(block.replace("steps=200", "steps=2"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("(80, 20)")


def _readme_synopsis():
    """{subcommand: ({flag: required}, [positional required])} from the README's Command line block."""
    text = README.read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    usage = {}
    for line in block.splitlines():
        if line.startswith("mffcn "):
            sub, line = line.split(maxsplit=2)[1:]
            usage[sub] = ({}, [])
        flags, positionals = usage[sub]
        for m in re.finditer(r"\[(?P<optional>[^\]]+)\]|(?P<flag>--[\w-]+)(?: [A-Z]\S*)?|(?P<word>\S+)", line):
            word = (m["optional"] or m["flag"] or m["word"]).split()[0]
            if word.startswith("--"):
                flags[word] = m["optional"] is None
            else:
                positionals.append(m["optional"] is None)
    return usage


def _parser_synopsis():
    """The same table read off cli.build_parser()."""
    from mffcn.cli import build_parser

    subs, = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    usage = {}
    for sub, parser in subs.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        usage[sub] = ({a.option_strings[-1]: a.required for a in actions if a.option_strings},
                      [a.nargs not in ("?", "*") for a in actions if not a.option_strings])
    return usage


def test_command_line_synopsis_matches_the_parser():
    """Every subcommand's flags, which of them are required, and its positionals, both ways."""
    assert _readme_synopsis() == _parser_synopsis()
