"""Compare the oracle against the induced-star closed form on every
catalogued tree.

One row per (tree, t): the certified stability index, the size of the
stable set of associated primes, and whether every oracle power up to
astab+1 matched the prediction.

Exits 0 when every row matches and 3 on a MISMATCH, a theorem that came
out false, as `covertool` does; 1 stays for operational failures.
"""

import argparse

from covertool.associated import oracle_sweep, predict_ass_tree_powers
from covertool.catalog import acceptance_trees


def survey_tree(name, g):
    rows = []
    for t in range(1, g.max_degree() + 1):
        per_power = oracle_sweep(g, t).per_power
        ok = list(per_power) == predict_ass_tree_powers(g, t, len(per_power))
        verdict = "MATCH" if ok else "MISMATCH"
        rows.append((name, t, len(per_power) - 1, len(per_power[-1]), verdict))
    return rows


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    rows = []
    for name, g in acceptance_trees():
        rows.extend(survey_tree(name, g))

    print(f"{'tree':<8} {'t':>3} {'astab':>6} {'|Ass| stable':>13}  verdict")
    for name, t, astab, final, verdict in rows:
        print(f"{name:<8} {t:>3} {astab:>6} {final:>13}  {verdict}")
    bad = [r for r in rows if r[4] == "MISMATCH"]
    print(f"\n{len(rows)} rows, {len(bad)} mismatches")
    raise SystemExit(3 if bad else 0)


if __name__ == "__main__":
    main()
