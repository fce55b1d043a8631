"""Minimal factorizations of canonical permutations, tallied as tensors on
the G basis whose coefficients match those of the coproduct.

Permutations are one-line lists over 1..m.  Transposition length is
m minus the number of cycles; a factorization sigma = alpha * beta is
minimal when the transposition lengths add up.
"""

from __future__ import annotations

import itertools

from . import algebra, compositions as comps, noncrossing
from .cache import cached


def canonical_permutation(i_comp):
    """The permutation of 1..(|I|+l(I)) whose cycles are consecutive runs
    of lengths i_t + 1."""
    if not i_comp or not comps.is_composition(i_comp):
        raise ValueError("index must be a nonempty composition")
    m = comps.weight(i_comp) + len(i_comp)
    w = list(range(1, m + 1))
    start = 1
    for p in i_comp:
        stop = start + p  # cycle start..stop inclusive
        for e in range(start, stop):
            w[e - 1] = e + 1
        w[stop - 1] = start
        start = stop + 1
    return w


def ordered_cycle_type(w):
    return tuple(len(c) for c in noncrossing.cycles_of(w))


def reduced_ordered_cycle_type(w):
    """Cycle lengths by increasing minima, each reduced by one, fixed
    points dropped (stable under adding fixed points)."""
    return comps.reduce_parts(ordered_cycle_type(w))


def transposition_length(w) -> int:
    return len(w) - len(noncrossing.cycles_of(w))


def compose(a, b):
    """(a * b)(x) = a(b(x))."""
    return [a[b[x] - 1] for x in range(len(a))]


def inverse(w):
    out = [0] * len(w)
    for x in range(1, len(w) + 1):
        out[w[x - 1] - 1] = x
    return out


def permutations_of_reduced_type(m, j_comp, within=None):
    """All permutations of 1..m with the given reduced ordered cycle type,
    built by choosing nontrivial cycle supports with increasing minima.

    With a permutation ``within`` of 1..m, each cycle support is chosen
    inside a single cycle of ``within``; the order of what remains is the
    order of the unrestricted enumeration.
    """
    label = {x: 0 for x in range(1, m + 1)}
    if within is not None:
        label = {e: k for k, cyc in enumerate(noncrossing.cycles_of(within)) for e in cyc}

    def blocks(rest, prev_min, parts):
        if not parts:
            yield []
            return
        size = parts[0] + 1
        candidates = sorted(x for x in rest if x > prev_min)
        for mn in candidates:
            others = [x for x in rest if x > mn and label[x] == label[mn]]
            for chosen in itertools.combinations(others, size - 1):
                nxt = rest - {mn, *chosen}
                for tail in blocks(nxt, mn, parts[1:]):
                    yield [(mn,) + chosen] + tail

    for supp in blocks(set(range(1, m + 1)), 0, list(j_comp)):
        # all cyclic arrangements of each block, minimum first
        arrangements = [
            [(b[0],) + perm for perm in itertools.permutations(b[1:])]
            for b in supp
        ]
        for combo in itertools.product(*arrangements):
            w = list(range(1, m + 1))
            for cyc in combo:
                for k, e in enumerate(cyc):
                    w[e - 1] = cyc[(k + 1) % len(cyc)]
            yield w


def _minimal_pairs(sigma, j_comp):
    """Every (alpha, beta) with alpha * beta = sigma, alpha of reduced
    ordered cycle type J, and lt(alpha) + lt(beta) = lt(sigma).

    Only alphas whose cycles lie inside cycles of sigma are tried, which
    loses nothing.  Lemma: if sigma = alpha * beta is minimal, each orbit B
    of the group generated by alpha and beta is one cycle of sigma.  The
    restrictions of alpha and beta to B generate a transitive group, and
    connecting B takes at least |B| - 1 transpositions, so
    lt(alpha|B) + lt(beta|B) >= |B| - 1 >= lt(sigma|B).  Summed over the
    orbits both ends equal lt(sigma), so lt(sigma|B) = |B| - 1 for each
    orbit: sigma is one cycle on B, and every cycle of alpha, lying in an
    orbit, lies inside a cycle of sigma.

    Per run: alpha and beta = alpha^-1 sigma preserve each cycle B of
    sigma and generate a transitive group on it, so cyc(alpha|B) +
    cyc(beta|B) <= |B| + 1.  These bounds sum to the minimality condition,
    so a factorization is minimal exactly when every B attains |B| + 1.
    """
    lt_beta = transposition_length(sigma) - comps.weight(j_comp)
    for alpha in permutations_of_reduced_type(len(sigma), j_comp, within=sigma):
        beta = compose(inverse(alpha), sigma)
        if transposition_length(beta) == lt_beta:
            yield alpha, beta


def minimal_factorizations(sigma, j_comp, k_comp):
    """All (alpha, beta) with alpha*beta = sigma, reduced ordered cycle
    types J and K, and additive transposition lengths."""
    if comps.weight(j_comp) + comps.weight(k_comp) != transposition_length(sigma):
        return []
    k_comp = tuple(k_comp)
    return [
        (alpha, beta)
        for alpha, beta in _minimal_pairs(sigma, j_comp)
        if reduced_ordered_cycle_type(beta) == k_comp
    ]


def _bounded_canonical_permutation(i_comp):
    sigma = canonical_permutation(i_comp)
    if len(sigma) > 10:
        raise ValueError("ambient symmetric group too large (size > 10)")
    return sigma


def canonical_factorizations(i_comp, j_comp, k_comp):
    """Minimal factorizations of the canonical permutation of reduced type
    I into factors of reduced types J and K (ambient group at most S_10)."""
    return minimal_factorizations(
        _bounded_canonical_permutation(i_comp), j_comp, k_comp
    )


def count_minimal_factorizations(i_comp, j_comp, k_comp) -> int:
    """Number of minimal factorizations of the canonical permutation of
    reduced type I into factors of reduced types J and K."""
    return len(canonical_factorizations(i_comp, j_comp, k_comp))


@cached
def _run_table(length) -> algebra.TensorElement:
    """The minimal factorizations alpha * beta of one run of sigma, an
    L-cycle (L = length), as the G (x) G tensor that counts them by reduced
    ordered cycle types: the pairs whose cycle counts sum to L + 1.

    Relabelled 1..L in order, sigma on a run is x -> x+1 mod L, so beta's
    one-line form is alpha^-1's rotated left by one.  A permutation and its
    inverse have the same ordered cycle lengths, so with p = alpha^-1 the
    pair is (type of p, type of p rotated by one).  The L! one-line tuples
    fall into rotation orbits of size L, one per tuple that starts with 1:
    walking an orbit once pairs the lengths of rotation k with those of
    rotation k+1, one cycle walk per permutation.
    """
    table = {}
    for rest in itertools.permutations(range(2, length + 1)):
        p = (1, *rest)
        types = [
            tuple(map(len, noncrossing.cycles_of(p[k:] + p[:k])))
            for k in range(length)
        ]
        for a, b in zip(types, types[1:] + types[:1]):
            if len(a) + len(b) == length + 1:
                key = comps.reduce_parts(a), comps.reduce_parts(b)
                table[key] = table.get(key, 0) + 1
    return algebra.TensorElement(("G", "G"), table)


def factorization_tally(i_comp) -> algebra.TensorElement:
    """Minimal factorizations of the canonical permutation of reduced type
    I, as the G (x) G tensor that counts them by the reduced ordered cycle
    types (J, K) of their factors.

    By the `_minimal_pairs` lemma and its per-run step, a factorization is
    minimal exactly when it is minimal on each run of sigma.  The ordered
    cycle lengths of both factors concatenate over the runs, as G indices
    do under the product, so the tally is the product over the parts p of
    I of `_run_table(p + 1)`.
    """
    _bounded_canonical_permutation(i_comp)
    tally = algebra.TensorElement.one(("G", "G"))
    for p in i_comp:
        tally = tally * _run_table(p + 1)
    return tally


def partition_tally(sigma):
    """Factorization counts of sigma grouped by unordered (partition)
    reduced cycle types of the two factors."""
    m = len(sigma)
    lt = transposition_length(sigma)
    tally = {}
    for alpha in itertools.permutations(range(1, m + 1)):
        alpha = list(alpha)
        la = transposition_length(alpha)
        if la > lt:
            continue
        beta = compose(inverse(alpha), sigma)
        if la + transposition_length(beta) != lt:
            continue
        key = (
            tuple(sorted(reduced_ordered_cycle_type(alpha), reverse=True)),
            tuple(sorted(reduced_ordered_cycle_type(beta), reverse=True)),
        )
        tally[key] = tally.get(key, 0) + 1
    return tally

