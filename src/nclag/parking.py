"""Nondecreasing (k-)parking functions, profiles, biprofiles and the
composition codecs that parametrize the coproduct combinatorics.

Words are tuples of positive integers.  A profile is a pair
(starts, lengths) of equal-length tuples with starts strictly increasing
and starts[i+1] > starts[i] + lengths[i]; the empty profile ((), ())
belongs to the empty word.
"""

from __future__ import annotations

import itertools

from . import compositions as comps
from .cache import cached


def is_nondecreasing(w) -> bool:
    return all(w[i] <= w[i + 1] for i in range(len(w) - 1))


def is_parking(w) -> bool:
    """Parking test: the sorted word satisfies 1 <= a_i <= i."""
    return all(1 <= v <= i for i, v in enumerate(sorted(w), 1))


def is_ndpf(w) -> bool:
    """1 <= w_1 <= w_2 <= ... and w_i <= i, in one pass without sorting."""
    prev = 1
    for i, v in enumerate(w, 1):
        if not prev <= v <= i:
            return False
        prev = v
    return True


def enumerate_k_ndpf(n, k=1):
    """All nondecreasing k-parking functions of length n, lexicographically."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []

    def rec(prefix):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 1
        for v in range(lo, k * i + 2):
            prefix.append(v)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def enumerate_ndpf(n):
    return enumerate_k_ndpf(n, 1)


def type_of(w):
    """Packed evaluation: letter multiplicities with the zeros removed."""
    if not is_nondecreasing(w):
        raise ValueError("word must be nondecreasing")
    return tuple(len(list(g)) for _, g in itertools.groupby(w))


@cached
def ndpf_count_of_type(comp) -> int:
    """Number of nondecreasing parking functions with packed evaluation comp.

    Counts strictly increasing support values v_1 < ... < v_r with
    v_i <= 1 + (partial sum of earlier parts); agrees with the coefficient
    of S^comp in the Lagrange series component of matching degree.
    """
    comp = tuple(comp)
    if not comps.is_composition(comp):
        raise ValueError("type must be a composition")
    bounds = [1 + s for s in ([0] + list(itertools.accumulate(comp))[:-1])]
    # ways[v]: the choices of the values after v, filled from the last
    # value back as suffix sums, so each (i, v) is added once
    ways = [1] * (bounds[-1] + 1)
    for bound in reversed(bounds):
        after, total = [0] * len(ways), 0
        for v in range(bound, 0, -1):
            total += ways[v]
            after[v - 1] = total
        ways = after
    return ways[0]


def parkize(w):
    """The parking function canonically below a nondecreasing word.

    By definition: repeatedly find the smallest k whose prefix bound fails
    (fewer than k letters are <= k) and shift every letter above k down by
    one.  The uniform shift preserves equalities between letters; parking
    functions are fixed points.  The result is one pass: with
    out_0 = w_0 = 0, out_i = min(out_(i-1) + w_i - w_(i-1), i), each letter
    keeping its step from the one before unless that passes the bound i.
    """
    if not is_nondecreasing(w):
        raise ValueError("word must be nondecreasing")
    out = []
    o = last = 0
    for i, v in enumerate(w, 1):
        o = min(o + v - last, i)
        last = v
        out.append(o)
    return tuple(out)


def _extend_profile(p, x, k):
    """The profile of a word with profile p after k >= 1 copies of a letter
    x, no smaller than its letters, are appended.  The greedy rule: a
    biletter (s, c) is a shifted parking function as long as each next
    letter is at most s + c, so x extends the last biletter when
    x <= s + c, and otherwise opens the biletter (x, k).  Earlier
    biletters are final, so p is all the step reads."""
    s, c = p
    if s and x <= s[-1] + c[-1]:
        return s, c[:-1] + (c[-1] + k,)
    return s + (x,), c + (k,)


def profile(w):
    """Greedy maximal factorization into shifted parking functions: the
    fold of `_extend_profile` over the letters of w."""
    if not is_nondecreasing(w):
        raise ValueError("word must be nondecreasing")
    if w and w[0] < 1:
        raise ValueError("letters must be positive")
    p = ((), ())
    for x in w:
        p = _extend_profile(p, x, 1)
    return p


def is_profile(p) -> bool:
    """Positive lengths, and each start past the end s_i + c_i of the
    biletter before it (the first past 0), in one pass."""
    s, c = p
    if len(s) != len(c):
        return False
    end = 0
    for x, y in zip(s, c):
        if x <= end or y < 1:
            return False
        end = x + y
    return True


def _profiles_of_length(total, max_start):
    """All profiles with lengths summing to `total` and starts <= max_start."""
    out = []

    def rec(starts, lengths, min_start, remaining):
        if remaining == 0:
            out.append((tuple(starts), tuple(lengths)))
            return
        for s in range(min_start, max_start + 1):
            for c in range(1, remaining + 1):
                starts.append(s)
                lengths.append(c)
                rec(starts, lengths, s + c + 1, remaining - c)
                starts.pop()
                lengths.pop()

    rec([], [], 1, total)
    return out


def enumerate_parking_biprofiles(n):
    """All parking biprofiles of size n (lengths on both sides sum to n):
    by the left total m, then the left profile, then the right profile,
    each in the order of `_profiles_of_length`.  A fresh list of the
    memoized tuple of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_parking_biprofiles(n))


@cached
def _parking_biprofiles(n):
    """The parking biprofiles of size n, built rather than filtered.

    A pair (left, right) is a parking biprofile when representatives u, v
    of the two profiles concatenate to a parking function: in the joint
    profile (the biletters (x, y) of both profiles merged by start x, left
    biletters winning ties), x_m <= y_1+...+y_{m-1}+1.

    For each left profile, the right profiles are walked biletter by
    biletter in the order of `_profiles_of_length`, merging the joint
    profile as they go.  A right biletter at t comes after every left one
    at or before t, which is then final: no later right biletter comes
    before it.  A branch is dropped at its first biletter with x > acc + 1,
    and so is every larger t at the same depth: whatever is merged before
    a larger t starts past acc + 1 as well.  Equal right profiles are
    shared between pairs.
    """
    top = max(n, 1)
    out = []
    shared = {}
    starts, lengths = [], []

    def rights(left, s, c, k, min_start, remaining, i, acc):
        # i: the k left biletters s, c merged so far; acc: their lengths
        # and those of the right biletters placed
        if remaining == 0:
            while i < k:
                if s[i] > acc + 1:
                    return
                acc += c[i]
                i += 1
            right = (tuple(starts), tuple(lengths))
            out.append((left, shared.setdefault(right, right)))
            return
        for t in range(min_start, top + 1):
            while i < k and s[i] <= t:
                if s[i] > acc + 1:
                    return
                acc += c[i]
                i += 1
            if t > acc + 1:
                return
            starts.append(t)
            for d in range(1, remaining + 1):
                lengths.append(d)
                rights(left, s, c, k, t + d + 1, remaining - d, i, acc + d)
                lengths.pop()
            starts.pop()

    for m in range(n + 1):
        for left in _profiles_of_length(m, top):
            rights(left, *left, len(left[0]), 1, n - m, 0, 0)
    return tuple(out)


def c_map(p, n):
    """Encode a profile as a composition of n (the map C of the coproduct
    combinatorics), padding with trailing ones.

    Positions 1..n are written left to right: a part 1 for each position
    before the start s_i, then the part 1 + c_i, which covers s_i and the
    c_i positions after it."""
    s, c = p
    if not is_profile(p):
        raise ValueError("not a profile")
    if n < (s[-1] + c[-1] if s else 0):
        raise ValueError("n too small for this profile")
    parts = []
    end = 0  # the positions written so far
    for x, y in zip(s, c):
        parts += [1] * (x - 1 - end)
        parts.append(1 + y)
        end = x + y
    parts += [1] * (n - end)
    return tuple(parts)


def c_inverse(comp):
    """Decode a composition into a profile (the map C')."""
    starts, lengths = [], []
    acc = 0
    for p in comp:
        if p - 1 > 0:
            starts.append(1 + acc)
            lengths.append(p - 1)
        acc += p
    return tuple(starts), tuple(lengths)


def is_compatible(i_comp, j_comp) -> bool:
    """Whether (I, J) is the image of a parking biprofile: equal weights n,
    n+1 parts in total, and the sorted merged descent word z has z_l >= l."""
    n = comps.weight(i_comp)
    if comps.weight(j_comp) != n:
        return False
    if len(i_comp) + len(j_comp) != n + 1:
        return False
    z = sorted(comps.descent_set(i_comp) + comps.descent_set(j_comp))
    return all(v >= idx + 1 for idx, v in enumerate(z))


def enumerate_compatible_pairs(n):
    """All compatible pairs of compositions of weight n, in the reverse
    lexicographic order of I, then of J.  A pair needs l(I) + l(J) = n + 1,
    so each I is tried only against the J with n + 1 - l(I) parts."""
    order = comps.all_compositions(n)
    by_length = {}
    for j in order:
        by_length.setdefault(len(j), []).append(j)
    out = []
    for i in order:
        for j in by_length.get(n + 1 - len(i), ()):
            if is_compatible(i, j):
                out.append((i, j))
    return out


def compatible_with(i_comp):
    """All J compatible with I, generated by the local move from the top
    element mirror_conjugate(I): add 1 to a part and subtract 1 from the
    part to its right (when that part exceeds 1).  The empty composition
    has none: a pair of weight 0 would need one part in all."""
    if not i_comp:
        return []
    top = comps.mirror_conjugate(i_comp)
    seen = {top}
    frontier = [top]
    while frontier:
        cur = frontier.pop()
        for i in range(1, len(cur)):
            if cur[i] > 1:
                nxt = cur[:i - 1] + (cur[i - 1] + 1, cur[i] - 1) + cur[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return sorted(seen, key=lambda c: (len(c), c))


def dumb_bijection(i_comp, j_comp):
    """The direct map from a compatible pair of weight n to a nondecreasing
    parking function of length n."""
    if not is_compatible(i_comp, j_comp):
        raise ValueError("pair is not compatible")
    n = comps.weight(i_comp)
    w = sorted(
        [2 * d - 1 for d in comps.descent_set(i_comp)]
        + [2 * d for d in comps.descent_set(j_comp)]
        + [2 * n - 1]
    )
    out = [0] * n
    for i, v in enumerate(w, start=1):
        out[n - i] = n + i - v
    return tuple(out)


def dumb_bijection_inverse(word):
    """Recover the compatible pair from its image word."""
    n = len(word)
    w = [n + i - word[n - i] for i in range(1, n + 1)]
    w.sort()
    w.remove(2 * n - 1)
    des_i = sorted((v + 1) // 2 for v in w if v % 2 == 1)
    des_j = sorted(v // 2 for v in w if v % 2 == 0)
    pair = (
        comps.composition_from_descents(des_i, n),
        comps.composition_from_descents(des_j, n),
    )
    if not is_compatible(*pair):
        raise ValueError("word is not the image of a compatible pair")
    return pair
