#!/usr/bin/env python3
"""Checks that the three statements of the CLI's per-subcommand flags agree.

The flags each `wharf` subcommand accepts are written down three times:
the parser's table (`subcommand_flags()` in src/cli/cli.cpp), the usage
lines of the help text (`kUsage` in the same file), and the Flags table
of docs/cli.md.  This script extracts the flag set of every subcommand
from each and fails when any two differ, naming the subcommand and the
flags one source has and another lacks.

Exit 0 when all three agree; 1 lists every mismatch.

Usage: check_cli_flags.py [ROOT]   (ROOT defaults to the repository root)
"""

import os
import re
import sys

FLAG_RE = re.compile(r"--[a-z][a-z-]*")


def parser_flags(cli_source: str) -> dict:
    """Flag sets of subcommand_flags(): {"cmd", {{valued...}, {bare...}}}."""
    body = re.search(r"subcommand_flags\(\) \{.*?= \{(.*?)\n  \};", cli_source, re.S)
    if body is None:
        raise ValueError("subcommand_flags() table not found")
    flags = {}
    # Each entry opens with {"name", — the chunk up to the next entry
    # holds exactly that subcommand's flags.
    parts = re.split(r'\{"([a-z]+)",', body.group(1))
    for name, chunk in zip(parts[1::2], parts[2::2]):
        flags[name] = set(FLAG_RE.findall(chunk))
    return flags


def usage_flags(cli_source: str) -> dict:
    """Flag sets of the `wharf <cmd> ...` usage lines of kUsage."""
    usage = re.search(r'const char kUsage\[\] = R"\((.*?)\)";', cli_source, re.S)
    if usage is None:
        raise ValueError("kUsage not found")
    block = usage.group(1).split("usage:\n", 1)[1].split("\n\n", 1)[0]
    flags = {}
    current = None
    for line in block.splitlines():
        command = re.match(r"\s+wharf (\w+)", line)
        if command:
            current = command.group(1)
            if current == "help":
                current = None
                continue
            flags[current] = set()
        if current is not None:
            flags[current] |= set(FLAG_RE.findall(line))
    return flags


def docs_flags(markdown: str, commands) -> dict:
    """Flag sets of the `| flag | commands | meaning |` rows under ## Flags."""
    section = re.search(r"^## Flags\n(.*?)(?=^## )", markdown, re.S | re.M)
    if section is None:
        raise ValueError("## Flags section not found")
    flags = {command: set() for command in commands}
    for row in section.group(1).splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[0].startswith("`--"):
            continue
        flag = FLAG_RE.match(cells[0].strip("`")).group(0)
        for command in cells[1].split(","):
            flags.setdefault(command.strip(), set()).add(flag)
    return flags


def compare(sources: dict) -> list:
    """Mismatches between every pair of {source name: {cmd: flags}}."""
    problems = []
    names = list(sources)
    commands = sorted(set().union(*(set(flags) for flags in sources.values())))
    for command in commands:
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if command not in sources[a] or command not in sources[b]:
                    missing = a if command not in sources[a] else b
                    problems.append(f"{command}: subcommand absent from {missing}")
                    continue
                only_a = sorted(sources[a][command] - sources[b][command])
                only_b = sorted(sources[b][command] - sources[a][command])
                if only_a:
                    problems.append(f"{command}: {a} lists {', '.join(only_a)}; {b} does not")
                if only_b:
                    problems.append(f"{command}: {b} lists {', '.join(only_b)}; {a} does not")
    return sorted(set(problems))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "src", "cli", "cli.cpp"), encoding="utf-8") as handle:
        cli_source = handle.read()
    with open(os.path.join(root, "docs", "cli.md"), encoding="utf-8") as handle:
        markdown = handle.read()
    parser = parser_flags(cli_source)
    sources = {
        "subcommand_flags()": parser,
        "kUsage": usage_flags(cli_source),
        "docs/cli.md": docs_flags(markdown, parser),
    }
    problems = compare(sources)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} CLI flag mismatch(es)")
        return 1
    print(f"ok: {len(parser)} subcommands agree across {', '.join(sources)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
