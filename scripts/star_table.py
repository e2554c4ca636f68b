"""Tabulate Ass(J_t(K_{1,n})^s) growth for stars.

For each star the oracle walks the powers up to the stability index plus
one and prints the count of associated primes per power, the power at
which the maximal ideal first shows up, and the certified stability
index next to the observed tail start.

Usage: python scripts/star_table.py [--max-n 5]
"""

import argparse

from covertool.associated import astab_tree, max_ideal_in_ass_star, oracle_sweep
from covertool.graphs import star_graph
from covertool.monomials import MonomialPrime


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()

    print(f"{'n':>3} {'t':>3} {'astab':>6} {'tail':>5} {'m at s':>7}  |Ass| per power")
    for n in range(2, args.max_n + 1):
        g = star_graph(n)
        maximal = MonomialPrime(frozenset(range(n + 1)))
        for t in range(2, n + 1):
            sweep = oracle_sweep(g, t)
            first = next(
                (s for s, primes in enumerate(sweep.per_power, start=1)
                 if maximal in primes),
                None,
            )
            assert first is None or max_ideal_in_ass_star(n, t, first)
            row = " ".join(f"{len(primes):>4}" for primes in sweep.per_power)
            print(
                f"{n:>3} {t:>3} {astab_tree(g, t):>6} {sweep.astab_value!s:>5} "
                f"{first!s:>7}  {row}"
            )


if __name__ == "__main__":
    main()
