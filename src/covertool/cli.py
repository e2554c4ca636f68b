"""Command-line front end.

Subcommands: ideal, ass, stability, witness, gap, sweep.  Exit codes
separate operational failures from mathematical ones: 0 all good, 1 bad
input or precondition (parse errors, caps, unit ideals where an answer
needs a proper one), 2 usage, 3 a verification that should be a theorem
came out false (prediction MISMATCH, persistence violation, failed
witness or gap check).  Code 3 existing at all is defensive: hitting it
means an implementation bug, and treating it as success would hide
exactly the failures this tool exists to surface.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _encode

from .associated import (
    ass_of_power,
    astab_tree,
    build_star_witness,
    cover_ideal_checked,
    empirical_astab,
    oracle_sweep,
    predict_ass_tree,
    predict_ass_tree_powers,
    tail_contradicts_astab,
)
from .covers import partial_cover_ideal
from .graphs import Graph, Hypergraph, ParseError, parse_graph_or_hypergraph, star_graph
from .hypercovers import hypergraph_cover_ideal, verify_gap
from .monomials import (
    MonomialIdeal,
    _check_positive,
    alexander_dual,
    monomial_str,
    power_primes,
    sorted_primes,
)
from .record import fields

SCHEMA_VERSION = 1
MAX_POWER = 6
MAX_VARIABLES = 12
GAP_FAMILY_CAP = 3

OK, OPERATIONAL_ERROR, USAGE_ERROR, INTEGRITY_ERROR = 0, 1, 2, 3


class CommandError(Exception):
    """Operational failure: bad input, unmet precondition, cap hit."""


def _load_input(args) -> Graph | Hypergraph:
    """The graph or hypergraph in `args.file`, UTF-8 text with or without
    a byte order mark, within the variable cap."""
    path = args.file
    try:
        # Decoded whole, so an error gives the byte's offset in the file.
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from exc
    try:
        obj = parse_graph_or_hypergraph(text)
    except ParseError as exc:
        raise CommandError(f"{path}: {exc}") from exc
    _cap(args, obj.n > MAX_VARIABLES, f"{obj.n} variables > {MAX_VARIABLES}")
    return obj


def _cap(args, exceeded: bool, what: str):
    """Refuse an exceeded desk-scale cap unless `--force` was given."""
    if exceeded and not args.force:
        raise CommandError(f"cap exceeded: {what} (override with --force)")


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` for what payloads
    hold: dicts with str keys, lists, tuples, str, int, bool and None;
    anything else raises TypeError.  json indents in pure Python; this
    writes each container once per (object, depth) and reuses it."""
    memo = {}

    def write(obj, depth):
        if isinstance(obj, str):
            return _encode(obj)
        if obj is None or obj is True or obj is False:
            return _JSON_WORDS[obj]
        if isinstance(obj, int):
            return int.__repr__(obj)
        key = (id(obj), depth)
        if key in memo:
            return memo[key]
        if isinstance(obj, dict):  # `_encode` rejects a key that is not a str
            items = [_encode(k) + ": " + write(obj[k], depth + 1) for k in sorted(obj)]
        elif isinstance(obj, (list, tuple)):
            try:  # a list of labels is encoded without a call per item
                items = list(map(_encode, obj))
            except TypeError:
                items = [write(item, depth + 1) for item in obj]
        else:
            raise TypeError(f"{type(obj).__name__} is not a payload type")
        text = "{}" if isinstance(obj, dict) else "[]"
        if items:
            outer = "\n" + "  " * depth
            inner = outer + "  "
            text = text[0] + inner + ("," + inner).join(items) + outer + text[1]
        memo[key] = text
        return text

    return write(payload, 0)


def _emit(args, payload: dict, lines: list[str]):
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "command": args.command, **payload}
        lines = [_json(payload)]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # A closed stdout (`| head`): devnull takes what the exit flush writes.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _primes_json(primes, ambient, labels: dict) -> list[list[str]]:
    """The primes in report order as label lists.  `labels`, one per
    command, maps each prime and each prime set to its list, so cells that
    repeat a prime or a set (by persistence, most) share what `_json` writes."""
    if primes not in labels:
        labels[primes] = [
            labels[p] if p in labels else labels.setdefault(p, list(p.labels(ambient)))
            for p in sorted_primes(primes)
        ]
    return labels[primes]


def _primes_text(lists: list[list[str]]) -> str:
    """`_primes_json`'s label lists as `<a, b>, <c>`."""
    return ", ".join("<" + ", ".join(labels) + ">" for labels in lists)


def _gens_json(ideal: MonomialIdeal) -> list[str]:
    return [monomial_str(g, ideal.ambient) for g in ideal.gens]


def _gens_text(ideal: MonomialIdeal) -> str:
    return ", ".join(_gens_json(ideal))


def _cover_ideal(obj: Graph | Hypergraph, t: int) -> MonomialIdeal:
    """J_t of a graph, or the cover ideal of a hypergraph, which has no t.
    A hypergraph file has an edge of three or more vertices, so only J_t
    of a graph can be the unit ideal."""
    if isinstance(obj, Graph):
        return partial_cover_ideal(obj, t)
    if t != 1:
        raise CommandError(
            "hypergraph cover ideals have no t parameter; use --t 1 or omit it"
        )
    return hypergraph_cover_ideal(obj)


def cmd_ideal(args) -> tuple[dict, list[str], int]:
    obj = _load_input(args)
    ideal = _cover_ideal(obj, args.t)
    unit = ideal.is_unit
    payload = {
        "t": args.t,
        "ambient": list(ideal.ambient),
        "generators": _gens_json(ideal),
        "unit_ideal": unit,
    }
    lines = []
    if unit:
        lines.append(
            f"warning: J_{args.t} is the unit ideal - "
            "no constraints (t exceeds all degrees)"
        )
    else:
        lines.append(_gens_text(ideal))
    if args.dual:
        if unit:
            raise CommandError("the unit ideal has no Alexander dual here")
        dual = alexander_dual(ideal)
        payload["dual_generators"] = _gens_json(dual)
        lines.append("dual: " + _gens_text(dual))
    return payload, lines, OK


def cmd_ass(args) -> tuple[dict, list[str], int]:
    obj = _load_input(args)
    _cap(args, args.s > MAX_POWER, f"s={args.s} > {MAX_POWER}")
    graph = isinstance(obj, Graph)
    if not graph and args.mode != "direct":
        raise CommandError("localized mode needs a graph file")
    if args.predict and not (graph and obj.is_tree()):
        if graph:  # the checks `ass_of_power` makes come first
            _check_positive("t", args.t)
            _check_positive("s", args.s)
            cover_ideal_checked(obj, args.t)
        raise CommandError("closed form proven only for trees")
    modes = ["direct", "localized"] if args.mode == "both" else [args.mode]
    if graph:
        found = {mode: ass_of_power(obj, args.t, args.s, mode).primes for mode in modes}
    else:
        ideal = _cover_ideal(obj, args.t)
        _check_positive("s", args.s)
        found = {"direct": power_primes(ideal, args.s)}
    ambient, labels = obj.vertices, {}
    payload: dict = {"t": args.t, "s": args.s, "ambient": list(ambient)}
    for mode, primes in found.items():
        payload[mode] = _primes_json(primes, ambient, labels)
    lines = [f"{mode}: {_primes_text(payload[mode])}" for mode in modes]
    at = f" at t={args.t} s={args.s}"
    exit_code = OK
    if len(modes) == 2:
        agree = found["direct"] == found["localized"]
        payload["modes_agree"] = agree
        lines.append("modes agree" if agree else f"MISMATCH: modes disagree{at}")
        if not agree:
            exit_code = INTEGRITY_ERROR
    if args.predict:
        predicted = predict_ass_tree(obj, args.t, args.s).primes
        match = predicted == found[modes[0]]
        payload["predicted"] = _primes_json(predicted, ambient, labels)
        payload["match"] = match
        lines.append(f"predicted: {_primes_text(payload['predicted'])}")
        lines.append("MATCH" if match else f"MISMATCH: prediction differs{at}")
        if not match:
            exit_code = INTEGRITY_ERROR
    return payload, lines, exit_code


def cmd_stability(args) -> tuple[dict, list[str], int]:
    obj = _load_input(args)
    _cap(args, args.smax > MAX_POWER, f"smax={args.smax} > {MAX_POWER}")
    graph = isinstance(obj, Graph)
    ideal = cover_ideal_checked(obj, args.t) if graph else _cover_ideal(obj, args.t)
    is_tree = graph and obj.is_tree()
    report = empirical_astab(ideal, args.smax)
    ambient = ideal.ambient
    exit_code = OK
    payload: dict = {
        "t": args.t,
        "s_max": args.smax,
        "ambient": list(ambient),
        "persistence_ok": report.persistence_ok,
        "first_violation": report.first_violation,
    }
    labels = {}
    payload["per_power"] = [
        {"s": s, "primes": _primes_json(primes, ambient, labels)}
        for s, primes in enumerate(report.per_power, start=1)
    ]
    lines = [f"s={c['s']}: {_primes_text(c['primes'])}" for c in payload["per_power"]]
    if report.persistence_ok:
        lines.append("persistence: OK")
    else:
        lines.append(
            f"persistence: VIOLATED at t={args.t} s={report.first_violation} "
            f"(Ass^{report.first_violation} not within the next power)"
        )
        exit_code = INTEGRITY_ERROR
    if is_tree:
        certified = astab_tree(obj, args.t)
        payload["astab"] = certified
        payload["astab_certified"] = True
        payload["astab_empirical"] = report.astab_value
        lines.append(f"astab: {certified} (certified)")
        if tail_contradicts_astab(report.astab_value, args.smax, certified):
            lines.append(
                f"MISMATCH at t={args.t}: empirical tail starts at "
                f"s={report.astab_value}, formula says s={certified}"
            )
            exit_code = INTEGRITY_ERROR
    else:
        payload["astab"] = report.astab_value
        payload["astab_certified"] = False
        if report.astab_value is None:
            lines.append(f"astab: not determined up to s_max={args.smax}")
        else:
            lines.append(
                f"astab: {report.astab_value} (empirical, uncertified "
                f"beyond s_max={args.smax})"
            )
    return payload, lines, exit_code


def cmd_witness(args) -> tuple[dict, list[str], int]:
    _cap(args, args.n + 1 > MAX_VARIABLES, f"{args.n + 1} variables > {MAX_VARIABLES}")
    _cap(args, args.s > MAX_POWER, f"s={args.s} > {MAX_POWER}")
    cert = build_star_witness(args.n, args.t, args.s)
    ambient = star_graph(args.n).vertices
    passes = cert.valid
    divides = passes and cert.annihilator_divides
    payload = {**fields(cert), "T": monomial_str(cert.T, ambient)}
    payload["annihilator_divides"] = divides
    del payload["P"]
    lines = [
        f"T = {monomial_str(cert.T, ambient)}  (s0={cert.s0}, e={cert.e})"
        + ("  [empty word boundary]" if cert.empty_word else ""),
        f"T not in J^{args.s}: {'PASS' if cert.not_in_power else 'FAIL'}",
        f"colon(J^{args.s}, T) = <z, x1..x{args.n}>: "
        f"{'PASS' if cert.colon_equals_prime else 'FAIL'}",
        f"divisibility bound T | z^e*(x1..x{args.n})^(s-e-1): "
        f"{'PASS' if divides else 'FAIL'}",
    ]
    if not (passes and divides):
        lines.append(
            f"MISMATCH: witness fails at n={args.n} t={args.t} s={args.s}"
        )
    return payload, lines, OK if (passes and divides) else INTEGRITY_ERROR


def cmd_gap(args) -> tuple[dict, list[str], int]:
    _cap(args, (args.smax or 0) > MAX_POWER, f"smax={args.smax} > {MAX_POWER}")
    _cap(args, args.m > GAP_FAMILY_CAP, f"m={args.m}")
    report = verify_gap(args.m, s_max=args.smax)
    payload = fields(report)
    tail = report.oracle_astab
    if report.tail_undetermined:
        tail = f"not determined up to s_max={report.s_max}"
    violated = f"VIOLATED at m={report.m}"
    lines = [
        f"H_{report.m}: chi={report.chi}, astab={report.astab} "
        f"(oracle tail: {tail})",
        f"gap bound chi-1+m = {report.gap_bound} <= astab: "
        f"{'HOLDS' if report.gap_holds else violated}"
        + (" (equality)" if report.gap_is_equality else ""),
        f"baseline chi-1 <= astab: "
        f"{'HOLDS' if report.baseline_holds else violated}",
    ]
    if not report.ideal_matches_star:
        lines.append(
            f"MISMATCH at m={report.m}: cover ideal differs from the star "
            "closed form"
        )
    if tail_contradicts_astab(report.oracle_astab, report.s_max, report.astab):
        lines.append(
            f"MISMATCH at m={report.m}: oracle tail starts at "
            f"s={report.oracle_astab}, formula says s={report.astab}"
        )
    return payload, lines, INTEGRITY_ERROR if report.refuted else OK


def cmd_sweep(args) -> tuple[dict, list[str], int]:
    obj = _load_input(args)
    if not isinstance(obj, Graph):
        raise CommandError("sweep needs a graph file")
    delta = obj.max_degree()
    if delta == 0:
        raise CommandError("the graph has no edges; nothing to sweep")
    if args.t is not None and args.t > delta:
        raise CommandError(f"t={args.t} exceeds the maximum degree {delta}")
    is_tree = obj.is_tree()
    smaxes = {}
    for t in [args.t] if args.t is not None else range(1, delta + 1):
        smax = args.smax
        if smax is None:
            smax = astab_tree(obj, t) + 1 if is_tree else 3
        _cap(args, smax > MAX_POWER, f"smax={smax} > {MAX_POWER}")
        smaxes[t] = smax
    cells = []
    lines = []
    labels = {}
    mismatch = False
    for t, smax in smaxes.items():
        per_power = oracle_sweep(obj, t, smax).per_power
        chain = predict_ass_tree_powers(obj, t, smax) if is_tree else [None] * smax
        for s, (oracle, predicted) in enumerate(zip(per_power, chain), start=1):
            match = predicted == oracle
            line = f"t={t} s={s} |Ass|={len(oracle)}"
            if is_tree:
                verdict = "MATCH" if match else "MISMATCH"
                line += f" predicted={len(predicted)} {verdict}"
                if not match:
                    mismatch = True
                    only = [
                        _primes_text(_primes_json(a - b, obj.vertices, labels))
                        or "none"
                        for a, b in ((oracle, predicted), (predicted, oracle))
                    ]
                    line += f" oracle-only: {only[0]}; predicted-only: {only[1]}"
            lines.append(line)
            oracle_json = _primes_json(oracle, obj.vertices, labels)
            cell = {"t": t, "s": s, "oracle": oracle_json}
            if is_tree:
                cell["match"] = match
                cell["predicted"] = (
                    oracle_json if match
                    else _primes_json(predicted, obj.vertices, labels)
                )
            cells.append(cell)
    payload = {
        "ambient": list(obj.vertices),
        "tree": is_tree,
        "cells": cells,
    }
    lines.append(
        "result: "
        + ("MISMATCH found" if mismatch else "all cells consistent")
    )
    return payload, lines, INTEGRITY_ERROR if mismatch else OK


_FILE = ("file", {"help": "graph or hypergraph text file"})
_FORCE = "override the desk-scale caps on powers and variables"
_COMMON = (
    ("--format", {"choices": ("text", "json"), "default": "text"}),
    ("--force", {"action": "store_true", "help": _FORCE}),
)

# name -> (help, handler, arguments before --format and --force)
_SUBCOMMANDS = {
    "ideal": ("print the minimal generators of J_t", cmd_ideal, (
        ("--t", {"type": int, "default": 1}),
        ("--dual", {"action": "store_true", "help": "also print the Alexander dual"}),
        _FILE,
    )),
    "ass": ("associated primes of J_t^s", cmd_ass, (
        ("--t", {"type": int, "default": 1}),
        ("--s", {"type": int, "required": True}),
        ("--mode", {"choices": ("direct", "localized", "both"), "default": "direct"}),
        (
            "--predict",
            {"action": "store_true", "help": "compare against the tree closed form"},
        ),
        _FILE,
    )),
    "stability": ("per-power Ass, persistence, and the tail index", cmd_stability, (
        ("--t", {"type": int, "default": 1}),
        ("--smax", {"type": int, "required": True}),
        _FILE,
    )),
    "witness": ("explicit maximal-ideal witness for a star", cmd_witness, (
        ("--n", {"type": int, "required": True}),
        ("--t", {"type": int, "required": True}),
        ("--s", {"type": int, "required": True}),
    )),
    "gap": ("chromatic gap verification for H_m", cmd_gap, (
        ("--m", {"type": int, "required": True}),
        ("--smax", {"type": int, "default": None}),
    )),
    "sweep": ("oracle (and prediction, on trees) across a (t, s) grid", cmd_sweep, (
        ("--t", {"type": int, "default": None, "help": "restrict to one t"}),
        ("--smax", {"type": int, "default": None, "help": "uniform power range cap"}),
        _FILE,
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand: the one authority for help text,
    usage errors and exit code 2."""
    parser = argparse.ArgumentParser(
        prog="covertool",
        description="Partial t-cover ideals: construction, associated primes, "
        "stability, witnesses, and the hypergraph chromatic gap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in (*arguments, *_COMMON):
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, command=name)
    return parser


def _parse_plain(argv) -> argparse.Namespace | None:
    """The namespace the full parser returns for a well-formed command
    line, read straight off `_SUBCOMMANDS`; None for anything else: help,
    `--`, `--x=y`, abbreviations, values that start with `-` or fail
    their type or choices, missing options, too few or too many files."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, handler, arguments = _SUBCOMMANDS[argv[0]]
    options = dict(a for a in (*arguments, *_COMMON) if a[0].startswith("-"))
    names = [name for name, _ in arguments if not name.startswith("-")]
    # The only action in the table is store_true, whose default is False.
    values = {f[2:]: o.get("default", False if "action" in o else None)
              for f, o in options.items()}
    required = {f for f, o in options.items() if o.get("required")}
    files = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        if token not in options:
            return None
        spec = options[token]
        required.discard(token)
        if "action" in spec:
            values[token[2:]] = True
            continue
        value = next(tokens, "-")
        # Choices are matched before the type converts; an option with both
        # would be declined, never misread, and the table has none.
        if value.startswith("-") or value not in spec.get("choices", (value,)):
            return None
        try:
            values[token[2:]] = spec.get("type", str)(value)
        except ValueError:
            return None
    if required or len(files) != len(names):
        return None
    values.update(zip(names, files))
    return argparse.Namespace(handler=handler, command=argv[0], **values)


def _run(args) -> int:
    """Run the command `args` names and print its error, or its result: a
    handler returns its JSON payload, its text lines and its exit code."""
    try:
        payload, lines, exit_code = args.handler(args)
    except (CommandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OPERATIONAL_ERROR
    _emit(args, payload, lines)
    return exit_code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A well-formed command line is read off the table with no parser
    # built; the full parser takes the rest, and prints every help text
    # and usage error.
    args = _parse_plain(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
