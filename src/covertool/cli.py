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
import json
import sys

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
from .covers import _check_positive, partial_cover_ideal
from .graphs import Graph, Hypergraph, ParseError, parse_hypergraph, star_graph
from .hypercovers import hypergraph_cover_ideal, verify_gap
from .monomials import (
    MonomialIdeal,
    alexander_dual,
    monomial_str,
    power_primes,
    prime_str,
    sorted_primes,
)

SCHEMA_VERSION = 1
MAX_POWER = 6
MAX_VARIABLES = 12
GAP_FAMILY_CAP = 3

OK, OPERATIONAL_ERROR, USAGE_ERROR, INTEGRITY_ERROR = 0, 1, 2, 3


class CommandError(Exception):
    """Operational failure: bad input, unmet precondition, cap hit."""


def _load_input(path: str) -> Graph | Hypergraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        h = parse_hypergraph(text)
    except ParseError as exc:
        raise CommandError(f"{path}: {exc}") from exc
    if all(len(e) == 2 for e in h.edges):
        return Graph.build(h.vertices, h.edges)
    return h


def _check_power_cap(value: int, name: str, force: bool):
    if value > MAX_POWER and not force:
        raise CommandError(
            f"cap exceeded: {name}={value} > {MAX_POWER} (override with --force)"
        )


def _check_variable_cap(count: int, force: bool):
    if count > MAX_VARIABLES and not force:
        raise CommandError(
            f"cap exceeded: {count} variables > {MAX_VARIABLES} "
            "(override with --force)"
        )


def _emit(args, payload: dict, lines: list[str]):
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "command": args.command, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _primes_json(primes, ambient) -> list[list[str]]:
    return [list(p.labels(ambient)) for p in sorted_primes(primes)]


def _primes_text(primes, ambient) -> str:
    return ", ".join(prime_str(p, ambient) for p in sorted_primes(primes))


def _gens_json(ideal: MonomialIdeal) -> list[str]:
    return [monomial_str(g, ideal.ambient) for g in ideal.gens]


def _gens_text(ideal: MonomialIdeal) -> str:
    return ", ".join(_gens_json(ideal))


def _cover_ideal(obj: Graph | Hypergraph, t: int) -> MonomialIdeal:
    """J_t of a graph, or the cover ideal of a hypergraph, which has no t."""
    if isinstance(obj, Graph):
        return partial_cover_ideal(obj, t)
    if t != 1:
        raise CommandError(
            "hypergraph cover ideals have no t parameter; use --t 1 or omit it"
        )
    return hypergraph_cover_ideal(obj)


def cmd_ideal(args) -> int:
    obj = _load_input(args.file)
    _check_variable_cap(obj.n, args.force)
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
    _emit(args, payload, lines)
    return OK


def cmd_ass(args) -> int:
    obj = _load_input(args.file)
    _check_variable_cap(obj.n, args.force)
    _check_power_cap(args.s, "s", args.force)
    payload: dict = {"t": args.t, "s": args.s}
    lines: list[str] = []
    exit_code = OK
    if isinstance(obj, Graph):
        at = f" at t={args.t} s={args.s}"
        modes = ["direct", "localized"] if args.mode == "both" else [args.mode]
        reports = {mode: ass_of_power(obj, args.t, args.s, mode) for mode in modes}
        report = reports[modes[0]]
        ambient = report.ambient
        payload["ambient"] = list(ambient)
        for mode in modes:
            payload[mode] = _primes_json(reports[mode].primes, ambient)
            lines.append(f"{mode}: {_primes_text(reports[mode].primes, ambient)}")
        if len(modes) == 2:
            agree = reports["direct"].primes == reports["localized"].primes
            payload["modes_agree"] = agree
            lines.append("modes agree" if agree else f"MISMATCH: modes disagree{at}")
            if not agree:
                exit_code = INTEGRITY_ERROR
        if args.predict:
            predicted = predict_ass_tree(obj, args.t, args.s)
            match = predicted.primes == report.primes
            payload["predicted"] = _primes_json(predicted.primes, ambient)
            payload["match"] = match
            lines.append(f"predicted: {_primes_text(predicted.primes, ambient)}")
            lines.append("MATCH" if match else f"MISMATCH: prediction differs{at}")
            if not match:
                exit_code = INTEGRITY_ERROR
    else:
        if args.mode != "direct":
            raise CommandError("localized mode needs a graph file")
        if args.predict:
            raise CommandError("closed form proven only for trees")
        # A hypergraph file has an edge of three or more vertices, so its
        # cover ideal is never the unit ideal.
        ideal = _cover_ideal(obj, args.t)
        _check_positive("s", args.s)
        primes = power_primes(ideal, args.s)
        payload["ambient"] = list(obj.vertices)
        payload["direct"] = _primes_json(primes, obj.vertices)
        lines.append(f"direct: {_primes_text(primes, obj.vertices)}")
    _emit(args, payload, lines)
    return exit_code


def cmd_stability(args) -> int:
    obj = _load_input(args.file)
    _check_variable_cap(obj.n, args.force)
    _check_power_cap(args.smax, "smax", args.force)
    graph = isinstance(obj, Graph)
    # A hypergraph file has an edge of three or more vertices, so only J_t
    # of a graph can be the unit ideal.
    ideal = cover_ideal_checked(obj, args.t) if graph else _cover_ideal(obj, args.t)
    is_tree = graph and obj.is_tree()
    report = empirical_astab(ideal, args.smax)
    ambient = ideal.ambient
    exit_code = OK
    payload: dict = {
        "t": args.t,
        "s_max": args.smax,
        "ambient": list(ambient),
        "per_power": [
            {"s": s + 1, "primes": _primes_json(primes, ambient)}
            for s, primes in enumerate(report.per_power)
        ],
        "persistence_ok": report.persistence_ok,
        "first_violation": report.first_violation,
    }
    lines = []
    for s, primes in enumerate(report.per_power, start=1):
        lines.append(f"s={s}: {_primes_text(primes, ambient)}")
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
    _emit(args, payload, lines)
    return exit_code


def cmd_witness(args) -> int:
    _check_variable_cap(args.n + 1, args.force)
    _check_power_cap(args.s, "s", args.force)
    try:
        cert = build_star_witness(args.n, args.t, args.s)
    except ValueError as exc:
        message = str(exc)
        if "maximal ideal not associated" in message:
            message += "; the criterion is s(t-1) >= n-1"
        raise CommandError(message) from exc
    ambient = star_graph(args.n).vertices
    passes = cert.valid
    divides = passes and cert.annihilator_divides
    payload = {
        "n": args.n,
        "t": args.t,
        "s": args.s,
        "s0": cert.s0,
        "e": cert.e,
        "T": monomial_str(cert.T, ambient),
        "empty_word": cert.empty_word,
        "not_in_power": cert.not_in_power,
        "colon_equals_prime": cert.colon_equals_prime,
        "annihilator_divides": divides,
    }
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
    _emit(args, payload, lines)
    return OK if (passes and divides) else INTEGRITY_ERROR


def cmd_gap(args) -> int:
    _check_power_cap(args.smax or 0, "smax", args.force)
    if args.m > GAP_FAMILY_CAP and not args.force:
        raise CommandError(f"cap exceeded: m={args.m} (override with --force)")
    report = verify_gap(args.m, s_max=args.smax)
    payload = {
        "m": report.m,
        "chi": report.chi,
        "astab": report.astab,
        "oracle_astab": report.oracle_astab,
        "s_max": report.s_max,
        "gap_bound": report.gap_bound,
        "gap_holds": report.gap_holds,
        "gap_is_equality": report.gap_is_equality,
        "baseline_holds": report.baseline_holds,
        "ideal_matches_star": report.ideal_matches_star,
    }
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
    _emit(args, payload, lines)
    return INTEGRITY_ERROR if report.refuted else OK


def cmd_sweep(args) -> int:
    obj = _load_input(args.file)
    if not isinstance(obj, Graph):
        raise CommandError("sweep needs a graph file")
    _check_variable_cap(obj.n, args.force)
    delta = obj.max_degree() if obj.edges else 0
    if delta == 0:
        raise CommandError("the graph has no edges; nothing to sweep")
    ts = [args.t] if args.t is not None else list(range(1, delta + 1))
    for t in ts:
        if t > delta:
            raise CommandError(f"t={t} exceeds the maximum degree {delta}")
    is_tree = obj.is_tree()
    smaxes = {}
    for t in ts:
        if args.smax is not None:
            smaxes[t] = args.smax
        elif is_tree:
            smaxes[t] = astab_tree(obj, t) + 1
        else:
            smaxes[t] = 3
        _check_power_cap(smaxes[t], "smax", args.force)
    cells = []
    lines = []
    mismatch = False
    for t, smax in smaxes.items():
        per_power = oracle_sweep(obj, t, smax).per_power
        chain = predict_ass_tree_powers(obj, t, smax) if is_tree else [None] * smax
        for s, (oracle, predicted) in enumerate(zip(per_power, chain), start=1):
            cell = {
                "t": t,
                "s": s,
                "oracle": _primes_json(oracle, obj.vertices),
            }
            line = f"t={t} s={s} |Ass|={len(oracle)}"
            if is_tree:
                cell["match"] = predicted == oracle
                cell["predicted"] = cell["oracle"]
                verdict = "MATCH" if cell["match"] else "MISMATCH"
                line += f" predicted={len(predicted)} {verdict}"
                if not cell["match"]:
                    mismatch = True
                    cell["predicted"] = _primes_json(predicted, obj.vertices)
                    only = [
                        _primes_text(a - b, obj.vertices) or "none"
                        for a, b in ((oracle, predicted), (predicted, oracle))
                    ]
                    line += f" oracle-only: {only[0]}; predicted-only: {only[1]}"
            cells.append(cell)
            lines.append(line)
    payload = {
        "ambient": list(obj.vertices),
        "tree": is_tree,
        "cells": cells,
    }
    lines.append(
        "result: "
        + ("MISMATCH found" if mismatch else "all cells consistent")
    )
    _emit(args, payload, lines)
    return INTEGRITY_ERROR if mismatch else OK


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


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or the parser of `command`
    alone, the one the full parser hands that subcommand's arguments."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="covertool",
            description="Partial t-cover ideals: construction, associated primes, "
            "stability, witnesses, and the hypergraph chromatic gap.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {n: sub.add_parser(n, help=h) for n, (h, *_) in _SUBCOMMANDS.items()}
    else:
        parser = argparse.ArgumentParser(prog=f"covertool {command}")
        parsers = {command: parser}
    for name, p in parsers.items():
        _, handler, arguments = _SUBCOMMANDS[name]
        for flag, options in (*arguments, *_COMMON):
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, command=name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The root parser has no options, so a subcommand name first takes the
    # rest of argv; the full parser reports anything else or left over.
    args = extra = None
    if argv and argv[0] in _SUBCOMMANDS:
        args, extra = _build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extra:
        args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CommandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OPERATIONAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
