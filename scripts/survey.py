"""Check the tree theorem against the oracle on the tree catalogue.

Trees: `catalog.extended_trees()` on at most --max-n vertices, plus each
star K_{1,r}, r < max-n, that it lacks.  For every tree and t = 1..max
degree, one `oracle_sweep` to the certified stability index plus one is
checked against `predict_ass_tree_powers`, against `predict_ass_star` on
a star, for its tail (`tail_contradicts_astab`) and for persistence.

One row per (tree, t) gives the certified index, the observed tail, the
first power whose Ass holds the maximal ideal and |Ass| per power; one
MISMATCH line per failed check names the tree, its edges and the cell.
A mismatch, a theorem that came out false, exits 3 as in `covertool`.
Usage: python scripts/survey.py [--max-n 7]
"""

import argparse

from covertool.associated import (
    astab_tree,
    oracle_sweep,
    predict_ass_star,
    predict_ass_tree_powers,
    tail_contradicts_astab,
)
from covertool.catalog import extended_trees
from covertool.graphs import star_graph
from covertool.monomials import MonomialPrime


def trees(max_n):
    found = [(name, g) for name, g in extended_trees() if g.n <= max_n]
    for r in range(2, max_n):
        if all(g != star_graph(r) for _, g in found):
            found.append((f"K1_{r}", star_graph(r)))
    return found


def survey(g, t):
    """The row of one (tree, t) and its failed checks, as (s, what)."""
    sweep, astab = oracle_sweep(g, t), astab_tree(g, t)
    chain, s_max, tail = sweep.per_power, sweep.s_max, sweep.astab_value
    forms = {"predict_ass_tree_powers": predict_ass_tree_powers(g, t, s_max)}
    if g == star_graph(g.n - 1):
        forms["predict_ass_star"] = [
            predict_ass_star(g.n - 1, t, s).primes for s in range(1, s_max + 1)
        ]
    failed = []
    for form, expected in forms.items():
        if bad := [s for s, (a, b) in enumerate(zip(chain, expected), 1) if a != b]:
            failed.append((bad[0], f"Ass differs from {form}"))
    if tail_contradicts_astab(tail, s_max, astab):
        failed.append((s_max, f"tail {tail} against astab {astab}"))
    if not sweep.persistence_ok:
        failed.append((sweep.first_violation, "Ass^s not within Ass^(s+1)"))
    maximal = MonomialPrime(frozenset(range(g.n)))
    first = next((s for s, ps in enumerate(chain, 1) if maximal in ps), None)
    return (astab, tail, first, [len(primes) for primes in chain]), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=7)
    args = parser.parse_args()

    print(f"{'tree':<8} {'t':>3} {'astab':>6} {'tail':>5} {'m at s':>7}  "
          "|Ass| per power")
    rows, lines = 0, []
    for name, g in trees(args.max_n):
        edges = " ".join(sorted("-".join(sorted(e, key=g.index)) for e in g.edges))
        for t in range(1, g.max_degree() + 1):
            (astab, tail, first, sizes), failed = survey(g, t)
            sizes = " ".join(f"{size:>4}" for size in sizes)
            print(f"{name:<8} {t:>3} {astab:>6} {tail!s:>5} {first!s:>7}  {sizes}")
            rows += 1
            lines += [f"MISMATCH {name} [{edges}] t={t} s={s}: {what}"
                      for s, what in failed]
    for line in lines:
        print(line)
    print(f"{rows} rows, {len(lines)} mismatches")
    raise SystemExit(3 if lines else 0)


if __name__ == "__main__":
    main()
