"""Compare the oracle against the induced-star closed form on every
catalogued tree.

One row per (tree, t): the certified stability index, the size of the
stable set of associated primes, and whether every oracle power up to
astab+1 matched the prediction.  Non-trees from the catalogue can be
appended with --include-cycles to show the oracle-only path.
"""

import argparse

from covertool.associated import ass_of_power, oracle_sweep, predict_ass_tree
from covertool.catalog import acceptance_trees, nontree_graphs


def survey_tree(name, g):
    rows = []
    for t in range(1, g.max_degree() + 1):
        per_power = oracle_sweep(g, t).per_power
        ok = all(
            oracle == predict_ass_tree(g, t, s).primes
            for s, oracle in enumerate(per_power, start=1)
        )
        verdict = "MATCH" if ok else "MISMATCH"
        rows.append((name, t, len(per_power) - 1, len(per_power[-1]), verdict))
    return rows


def survey_cycle(name, g, s_max):
    rows = []
    for t in range(1, g.max_degree() + 1):
        final = len(ass_of_power(g, t, s_max).primes)
        rows.append((name, t, "-", final, "oracle only"))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--include-cycles", action="store_true")
    parser.add_argument("--cycle-smax", type=int, default=3)
    args = parser.parse_args()

    rows = []
    for name, g in acceptance_trees():
        rows.extend(survey_tree(name, g))
    if args.include_cycles:
        for name, g in nontree_graphs():
            rows.extend(survey_cycle(name, g, args.cycle_smax))

    print(f"{'tree':<8} {'t':>3} {'astab':>6} {'|Ass| stable':>13}  verdict")
    for name, t, astab, final, verdict in rows:
        print(f"{name:<8} {t:>3} {astab!s:>6} {final:>13}  {verdict}")
    bad = [r for r in rows if r[4] == "MISMATCH"]
    print(f"\n{len(rows)} rows, {len(bad)} mismatches")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
