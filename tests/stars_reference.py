"""Subset search: the reference for induced stars.

The library grows each induced star from a centre and its pairwise
non-adjacent neighbours.  This tries every vertex subset of the right
size and keeps those whose induced subgraph is a star, so it shares
nothing with the enumeration it checks.
"""

import itertools

from covertool.graphs import Graph, star_shape


def reference_induced_stars(g: Graph, rmin: int, rmax: int) -> list[frozenset[str]]:
    """Subsets inducing K_{1,r}, rmin <= r <= rmax, in the library's order
    (by size, then the sorted labels)."""
    found = []
    for size in range(rmin + 1, rmax + 2):
        for combo in itertools.combinations(g.vertices, size):
            shape = star_shape(g.induced(combo))
            if shape is not None and rmin <= shape.r <= rmax:
                found.append(frozenset(combo))
    found.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return found
