"""Associated primes of powers of partial cover ideals.

The irreducible-decomposition oracle is ground truth here.  Closed-form
predictions (stars, trees), the maximal-ideal criterion, stability
indices, the explicit witness construction and the localization tests
are all phrased so they can be checked against that oracle, never the
other way around.
"""

from __future__ import annotations

import itertools
import math

from .covers import _check_star, partial_cover_ideal, star_generators
from .graphs import Graph, enumerate_induced_stars, star_graph
from .monomials import (
    MonomialIdeal,
    MonomialPrime,
    _check_positive,
    associated_primes_of_powers,
    monomial_str,
    power_contains,
    power_primes,
)
from .record import Record


class AssReport(Record):
    """Associated primes of one power of one ideal.

    method records how the set was obtained: "oracle" (decomposition of
    the actual power), "localized" (per-prime membership on induced
    subgraphs) or "closed_form" (a formula, no ideal arithmetic).
    """

    __slots__ = ("ambient", "t", "s", "method", "primes")


class StabilityReport(Record):
    """Per-power associated primes with the stabilization and persistence
    verdicts read off them.

    astab_value is the start of the constant tail when one of length at
    least two is visible below s_max, otherwise None (a tail of length
    one says nothing).  The value is always empirical: a proven formula,
    where there is one, lives elsewhere (astab_tree).  first_violation
    is the least s with Ass^s not contained in Ass^{s+1}, or None.
    """

    __slots__ = (
        "s_max", "per_power", "astab_value", "persistence_ok", "first_violation",
    )


class WitnessCertificate(Record):
    """An explicit monomial T with J^s : T = m, the maximal ideal,
    checked by the oracle.

    e is the exponent of the leading z factor, s0 the least power at
    which the maximal ideal becomes associated.  empty_word marks the
    degenerate case where the cyclic word contributes no variables at
    all (n = t) and T is a pure power of z, possibly 1.
    annihilator_divides records whether T divides z^e (x1...xn)^(s-e-1),
    the bound every witness meets; `valid` covers only the two defining
    checks.
    """

    __slots__ = (
        "T", "s", "not_in_power", "colon_equals_prime", "annihilator_divides", "n",
        "t", "s0", "e", "empty_word",
    )

    @property
    def valid(self) -> bool:
        return self.not_in_power and self.colon_equals_prime


def cover_ideal_checked(g: Graph, t: int) -> MonomialIdeal:
    """J_t(g), rejecting the unit-ideal case every Ass question excludes."""
    ideal = partial_cover_ideal(g, t)
    if ideal.is_unit:
        raise ValueError(
            f"J_{t} of this graph is the unit ideal: "
            "no constraints (t exceeds all degrees)"
        )
    return ideal


def ass_of_power(g: Graph, t: int, s: int, mode: str = "direct") -> AssReport:
    """Ass(J_t(g)^s) by decomposition or by localization.

    Direct mode reads the s-th power itself (see `power_primes`).
    Localized mode tests, for every connected vertex subset P, whether
    the maximal ideal of the induced subgraph g_P is associated to
    J_t(g_P)^s on the smaller ring; supports inducing disconnected
    subgraphs never carry an associated prime, which is what licenses
    the pruning.
    """
    _check_positive("t", t)
    _check_positive("s", s)
    if mode not in ("direct", "localized"):
        raise ValueError(f"unknown mode {mode!r}")
    ideal = cover_ideal_checked(g, t)
    if mode == "direct":
        return AssReport(g.vertices, t, s, "oracle", power_primes(ideal, s))
    found = []
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(g.vertices, size):
            sub = g.induced(subset)
            if sub.is_connected() and _full_prime_associated(sub, t, s):
                found.append(MonomialPrime(frozenset(g.index(v) for v in subset)))
    return AssReport(g.vertices, t, s, "localized", frozenset(found))


def _full_prime_associated(sub: Graph, t: int, s: int) -> bool:
    """Whether the prime of all vertices of `sub` is in Ass(J_t(sub)^s)."""
    ideal = partial_cover_ideal(sub, t)
    if ideal.is_unit:
        return False
    full = MonomialPrime(frozenset(range(sub.n)))
    return full in power_primes(ideal, s)


def _check_star_cell(n: int, t: int, s: int):
    """Reject a (n, t, s) that names no power of J_t(K_{1,n})."""
    _check_star(n, t)
    _check_positive("s", s)


def max_ideal_in_ass_star(n: int, t: int, s: int) -> bool:
    """Whether <z, x1..xn> is associated to J_t(K_{1,n})^s.

    The criterion s(t-1) >= n-1 covers t=1 as well, where it reduces to
    n = 1.
    """
    _check_star_cell(n, t, s)
    return s * (t - 1) >= n - 1


def predict_ass_star(n: int, t: int, s: int) -> AssReport:
    """The closed-form Ass(J_t(K_{1,n})^s): primes <z, r leaves> for
    every r between t and min(n, s(t-1)+1)."""
    _check_star_cell(n, t, s)
    ambient = star_graph(n).vertices
    rmax = min(n, s * (t - 1) + 1)
    primes = set()
    for r in range(t, rmax + 1):
        for leaves in itertools.combinations(range(1, n + 1), r):
            primes.add(MonomialPrime(frozenset((0,) + leaves)))
    return AssReport(ambient, t, s, "closed_form", frozenset(primes))


def predict_ass_tree_powers(
    g: Graph, t: int, s_max: int
) -> list[frozenset[MonomialPrime]]:
    """Ass(J_t(g)^s) for s = 1..s_max by the tree closed form, from one
    star enumeration: the induced stars K_{1,r}, t <= r <= min(n, s(t-1)+1)."""
    _check_positive("t", t)
    _check_positive("s_max", s_max)
    if not g.is_tree():
        raise ValueError("closed form proven only for trees")
    if t > g.max_degree():
        raise ValueError(
            f"J_{t} of this tree is the unit ideal: "
            "no constraints (t exceeds all degrees)"
        )
    rmaxes = [min(g.n, s * (t - 1) + 1) for s in range(1, s_max + 1)]
    stars = enumerate_induced_stars(g, t, rmaxes[-1])
    primes = [MonomialPrime(frozenset(map(g.index, star))) for star in stars]
    return [
        frozenset(p for p, star in zip(primes, stars) if len(star) <= rmax + 1)
        for rmax in rmaxes
    ]


def predict_ass_tree(g: Graph, t: int, s: int) -> AssReport:
    """The tree closed form at one power (see `predict_ass_tree_powers`)."""
    _check_positive("t", t)
    _check_positive("s", s)
    primes = predict_ass_tree_powers(g, t, s)[-1]
    return AssReport(g.vertices, t, s, "closed_form", primes)


def astab_tree(g: Graph, t: int) -> int:
    """The proven stability index for trees: 1 for t=1, otherwise the
    least s with s(t-1) >= max_degree - 1."""
    _check_positive("t", t)
    if not g.is_tree():
        raise ValueError("the stability formula is proven only for trees")
    delta = g.max_degree()
    if t > delta:
        raise ValueError(f"t={t} exceeds the maximum degree {delta}")
    if t == 1:
        return 1
    return math.ceil((delta - 1) / (t - 1))


def tail_contradicts_astab(tail: int | None, s_max: int, astab: int) -> bool:
    """Whether an empirical tail start, observed up to s_max, contradicts
    a proven stability index.

    A tail that shows must start at astab.  Past astab the index says
    Ass^{s_max-1} = Ass^{s_max}, so no tail at all is a contradiction
    too; with s_max <= astab a missing tail is only undetermined.
    """
    if tail is None:
        return s_max > astab
    return tail != astab


def empirical_astab(I: MonomialIdeal, s_max: int) -> StabilityReport:
    """Ass(I^s) for s = 1..s_max, with the start of a constant tail and
    the persistence verdict (Ass^s within Ass^{s+1} for every s < s_max).

    The powers come from `associated_primes_of_powers`, which walks them
    on one staircase and builds none while the box of I^s_max is small
    enough; past that it steps each from the one before.

    The tail is empirical: a constant tail can in principle resume
    changing past s_max, so the value is never certified here.
    """
    per_power = tuple(associated_primes_of_powers(I, s_max))
    astab = None
    tail = s_max
    while tail > 1 and per_power[tail - 2] == per_power[s_max - 1]:
        tail -= 1
    if tail < s_max:
        astab = tail
    first_violation = None
    for s in range(1, s_max):
        if not per_power[s - 1] <= per_power[s]:
            first_violation = s
            break
    return StabilityReport(
        s_max=s_max,
        per_power=per_power,
        astab_value=astab,
        persistence_ok=first_violation is None,
        first_violation=first_violation,
    )


def oracle_sweep(g: Graph, t: int, s_max: int | None = None) -> StabilityReport:
    """Oracle Ass(J_t(g)^s) for s = 1..s_max, building J_t once.

    s_max defaults to the certified stability index plus one, which is
    only defined on trees.  The tail and persistence verdicts are
    empirical, as for empirical_astab.
    """
    if s_max is None:
        s_max = astab_tree(g, t) + 1
    return empirical_astab(cover_ideal_checked(g, t), s_max)


def _witness_checks(
    J: MonomialIdeal, s: int, T: tuple[int, ...]
) -> tuple[bool, bool]:
    """(T not in J^s, J^s : T equals the maximal ideal), decided by one
    `power_contains` call on T and every x_i T, which searches for
    divisors in J and builds no power.

    J^s : T contains every variable exactly when each x_i T lies in J^s,
    and it is proper exactly when T does not; a proper monomial ideal
    that contains every variable is the maximal ideal.
    """
    probes = [T] + [T[:i] + (T[i] + 1,) + T[i + 1 :] for i in range(len(T))]
    inside = power_contains(J, s, probes)
    not_in = not inside[0]
    return not_in, not_in and all(inside[1:])


def _divides_annihilator_bound(T: tuple[int, ...], s: int) -> bool:
    """Whether T divides z^e (x1...xn)^(s-e-1) with e the z-exponent of T."""
    e = T[0]
    # For a witness, T not in J^s rules out z^s | T, so s - e - 1 >= 0.
    bound = (e,) + (s - e - 1,) * (len(T) - 1)
    return all(a <= b for a, b in zip(T, bound))


def build_star_witness(n: int, t: int, s: int) -> WitnessCertificate:
    """The explicit maximal-ideal witness for J_t(K_{1,n})^s.

    With s0 the least power at which the maximal ideal appears and
    e = s - s0, the witness is z^e times the product of the first
    s0(n-t+1)-1 terms of the repeating sequence x1, x2, ..., xn, x1, ...
    Both defining checks are decided by membership in the power and
    recorded, together with the annihilator divisibility bound.
    """
    _check_positive("n", n)
    _check_positive("s", s)
    if t < 2:
        raise ValueError("the witness construction needs t >= 2")
    if not max_ideal_in_ass_star(n, t, s):
        raise ValueError(
            "maximal ideal not associated at this power: s(t-1) = "
            f"{s * (t - 1)} < n-1 = {n - 1}; the criterion is s(t-1) >= n-1"
        )
    s0 = math.ceil((n - 1) / (t - 1))
    e = s - s0
    length = s0 * (n - t + 1) - 1
    nv = n + 1
    exps = [0] * nv
    exps[0] = e
    for k in range(length):
        exps[1 + k % n] += 1
    T = tuple(exps)
    not_in, colon_ok = _witness_checks(star_generators(n, t), s, T)
    return WitnessCertificate(
        T=T,
        s=s,
        not_in_power=not_in,
        colon_equals_prime=colon_ok,
        annihilator_divides=_divides_annihilator_bound(T, s),
        n=n,
        t=t,
        s0=s0,
        e=e,
        empty_word=length == 0,
    )


def verify_annihilator_divisibility(
    n: int, t: int, s: int, T: tuple[int, ...]
) -> bool:
    """For a checked maximal-ideal witness T of J_t(K_{1,n})^s, whether
    T divides z^e (x1...xn)^(s-e-1) with e the z-exponent of T.

    Raises unless T really is a witness (not in the power, colon equal
    to the maximal ideal); anything else would test the divisibility
    bound outside its hypotheses.
    """
    _check_star_cell(n, t, s)
    J = star_generators(n, t)
    if len(T) != n + 1:
        raise ValueError("witness lives in the wrong number of variables")
    not_in, colon_ok = _witness_checks(J, s, T)
    if not not_in:
        raise ValueError(
            f"{monomial_str(T, J.ambient)} lies in the power; not a witness"
        )
    if not colon_ok:
        raise ValueError(
            f"colon of the power by {monomial_str(T, J.ambient)} is not the "
            "maximal ideal; not a witness"
        )
    return _divides_annihilator_bound(T, s)


def _check_report_ambient(report: AssReport, g: Graph):
    if tuple(g.vertices) != tuple(report.ambient):
        raise ValueError("report ambient does not match the graph's vertices")


def localization_check(report: AssReport, g: Graph, subset) -> bool:
    """Compare global and localized membership for one vertex subset.

    Returns whether [prime(subset) in the oracle report of Ass(J_t(g)^s)]
    agrees with [maximal ideal of the induced subgraph associated on its
    own ring].  The equivalence is a theorem, so this should always be
    true; it returns the comparison rather than asserting, for use in
    tests.  The report must come from the oracle (`ass_of_power` in
    direct mode): localized mode is what it is compared against.
    """
    _check_report_ambient(report, g)
    if report.method != "oracle":
        raise ValueError(
            f"localization is checked against the oracle, not {report.method!r}"
        )
    members = tuple(subset)
    unknown = set(members) - set(g.vertices)
    if unknown:
        raise ValueError(f"subset contains unknown vertices: {sorted(unknown)}")
    if not members:
        return True  # no prime on one side, unit ideal on the other
    prime = MonomialPrime(frozenset(g.index(v) for v in members))
    local_side = _full_prime_associated(g.induced(members), report.t, report.s)
    return (prime in report.primes) == local_side


def connectivity_check(report: AssReport, g: Graph) -> bool:
    """Whether every reported prime's support induces a connected
    subgraph; true for genuine associated primes."""
    _check_report_ambient(report, g)
    for prime in report.primes:
        vertices = [g.vertices[i] for i in prime.indices]
        if not g.induced(vertices).is_connected():
            return False
    return True
