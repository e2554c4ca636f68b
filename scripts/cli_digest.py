"""Fingerprint the CLI's output on a fixed list of commands.

Every command runs through `covertool.cli.main` in this one process.
The list covers every subcommand, in text and in JSON:

- every `graph_corpus()` graph, for t from 1 to its maximum degree + 1:
  `ideal --dual`, `ass --predict` and `ass --mode both` at s = 1, 2,
  `stability --smax 3` and `sweep --t`, plus one `sweep` over all t;
- every `hypergraph_corpus()` hypergraph: `ideal --dual`,
  `stability --smax 3`, `ass --s 2` and `sweep --smax 2`;
- `gap --m` for m = 1..3, with the default power range and with
  `--smax` 1, m+1 and m+2;
- `witness` for n = 0..7, t = 0..n+1 and s = 0..6;
- a `usage` group, run once each: help at the root and for every
  subcommand, no arguments, an unknown or misspelled subcommand, and
  usage errors (bad int, bad choice, missing option, extra argument),
  plus a missing file.  Help is wrapped at COLUMNS=80 on any terminal.

That is 1,809 commands.  The script prints one line per group (each
subcommand, then `usage`): the number of commands, how many ended with
each exit code, and a SHA-256 over the (argv, exit code, stdout,
stderr) of its commands in order.  Two checkouts print the same lines
exactly when their CLI output is byte-identical on the list:

    PYTHONPATH=src python scripts/cli_digest.py > after.txt

and the same in the other checkout, then `diff` the two files.

Usage: python scripts/cli_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from collections import Counter

from covertool import cli
from covertool.catalog import graph_corpus, hypergraph_corpus
from covertool.graphs import graph_to_text, hypergraph_to_text

FORMATS = (("--format", "text"), ("--format", "json"))
# Spelled out, not read from cli, so the script runs on any checkout.
SUBCOMMANDS = ("ideal", "ass", "stability", "witness", "gap", "sweep")


def write_corpus(directory):
    """Write each corpus graph and hypergraph to `<name>.txt` in
    `directory`, the file names `command_list` refers to."""
    files = [(name, graph_to_text(g)) for name, g in graph_corpus()]
    files += [(name, hypergraph_to_text(h)) for name, h in hypergraph_corpus()]
    for name, text in files:
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


def graph_commands(name, g):
    path = f"{name}.txt"
    commands = [["sweep", path]]
    for t in range(1, g.max_degree() + 2):
        ts = ["--t", str(t)]
        commands.append(["ideal", *ts, "--dual", path])
        for s in ("1", "2"):
            commands.append(["ass", *ts, "--s", s, "--predict", path])
            commands.append(["ass", *ts, "--s", s, "--mode", "both", path])
        commands.append(["stability", *ts, "--smax", "3", path])
        commands.append(["sweep", *ts, path])
    return commands


def hypergraph_commands(name):
    path = f"{name}.txt"
    return [
        ["ideal", "--dual", path],
        ["stability", "--smax", "3", path],
        ["ass", "--s", "2", path],
        ["sweep", "--smax", "2", path],
    ]


def gap_commands():
    commands = []
    for m in range(1, 4):
        commands.append(["gap", "--m", str(m)])
        for smax in (1, m + 1, m + 2):
            commands.append(["gap", "--m", str(m), "--smax", str(smax)])
    return commands


def witness_commands():
    return [
        ["witness", "--n", str(n), "--t", str(t), "--s", str(s)]
        for n in range(8)
        for t in range(n + 2)
        for s in range(7)
    ]


def usage_commands():
    """Help texts (exit 0), usage errors (exit 2) and a missing file."""
    path = "P4.txt"
    return [
        [],
        ["-h"],
        ["--help"],
        *([sub, "-h"] for sub in SUBCOMMANDS),
        ["frobnicate", path],
        ["swee", path],
        ["--", "sweep", path],
        ["ideal", "--t", "x", path],
        ["ass", "--s", "1", "--format", "xml", path],
        ["ass", path],
        ["witness", "--n", "3", "--t", "2"],
        ["ideal", "missing.txt"],
        ["ideal", path, "extra"],
        ["gap", "--m", "1", "extra"],
    ]


def command_list():
    """(group, argv) of the fixed commands: each subcommand's once in
    text and once in JSON, under its own name, then the `usage` group."""
    commands = []
    for name, g in graph_corpus():
        commands += graph_commands(name, g)
    for name, _ in hypergraph_corpus():
        commands += hypergraph_commands(name)
    commands += gap_commands() + witness_commands()
    grouped = [(argv[0], argv + list(fmt)) for argv in commands for fmt in FORMATS]
    return grouped + [("usage", argv) for argv in usage_commands()]


def run_command(argv):
    """(exit code, stdout, stderr) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digests(commands):
    """{group: (count, exit-code counts, SHA-256)} over the (group, argv)
    pairs `commands`, in the order the groups first appear."""
    hashes, codes = {}, {}
    for group, argv in commands:
        code, out, err = run_command(argv)
        record = json.dumps([argv, code, out, err]) + "\n"
        hashes.setdefault(group, hashlib.sha256()).update(record.encode("utf-8"))
        codes.setdefault(group, Counter())[code] += 1
    return {
        group: (sum(codes[group].values()), codes[group], hashes[group].hexdigest())
        for group in hashes
    }


def main():
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_corpus(directory)
        # Relative file names keep the directory out of any message.
        os.chdir(directory)
        try:
            results = digests(command_list())
        finally:
            os.chdir(cwd)
    for sub, (count, codes, digest) in results.items():
        exits = " ".join(f"exit{code}={codes[code]}" for code in sorted(codes))
        print(f"{sub:<10} {count:>5}  {exits:<26} {digest}")


if __name__ == "__main__":
    main()
