"""Integer compositions and the involutions acting on them.

Compositions are plain tuples of positive integers; the empty tuple is the
(unique) composition of 0.  They serve as the index set for every basis in
the package, so everything here is deliberately tiny and allocation-cheap.
"""

from __future__ import annotations

import itertools


def is_composition(parts) -> bool:
    return all(isinstance(p, int) and p >= 1 for p in parts)


def weight(comp) -> int:
    return sum(comp)


def all_compositions(n):
    """All compositions of n in reverse lexicographic order.

    For n=3 the order is (3), (2,1), (1,2), (1,1,1): counting descent sets
    in binary with the descent at position 1 as the most significant bit
    produces exactly this order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [()]
    # product() counts in binary with the first position most significant
    return [
        _cut(n, tuple(itertools.compress(range(1, n), bits)))
        for bits in itertools.product((0, 1), repeat=n - 1)
    ]


def descent_set(comp):
    """Partial sums of the parts, excluding the total weight."""
    sums = list(itertools.accumulate(comp))
    return sums[:-1]


def composition_from_descents(descents, n):
    """The unique composition of n whose descent set is `descents`."""
    ds = sorted(set(descents))
    if any(d <= 0 or d >= n for d in ds):
        raise ValueError("descents must lie strictly between 0 and n")
    return _cut(n, ds) if n > 0 else ()


def _cut(n, descents):
    """The composition of n > 0 cut at `descents`, increasing positions
    strictly between 0 and n (unchecked)."""
    parts = []
    prev = 0
    for d in descents:
        parts.append(d - prev)
        prev = d
    parts.append(n - prev)
    return tuple(parts)


def coarsenings(comp):
    """All compositions coarser than (or equal to) `comp`."""
    n = weight(comp)
    if n == 0:
        return [()]
    ds = descent_set(comp)
    # combinations of an increasing list are increasing
    return [
        _cut(n, sub)
        for r in range(len(ds) + 1)
        for sub in itertools.combinations(ds, r)
    ]


def refinements(comp):
    """All compositions finer than (or equal to) `comp`."""
    n = weight(comp)
    if n == 0:
        return [()]
    fixed = tuple(descent_set(comp))
    free = [d for d in range(1, n) if d not in fixed]
    return [
        _cut(n, sorted(fixed + sub))
        for r in range(len(free) + 1)
        for sub in itertools.combinations(free, r)
    ]


def mirror(comp):
    return tuple(reversed(comp))


def mirror_conjugate(comp):
    """The composition whose descent set is the complement of Des(comp)."""
    n = weight(comp)
    if n == 0:
        return ()
    ds = set(descent_set(comp))
    return composition_from_descents([d for d in range(1, n) if d not in ds], n)


def conjugate(comp):
    return mirror(mirror_conjugate(comp))


def double(comp):
    return tuple(2 * p for p in comp)


def plus_ones(comp):
    return tuple(p + 1 for p in comp)


def reduce_parts(parts):
    """Subtract 1 from every entry and drop the zeros.

    Accepts weak compositions (entries >= 0): ordered types of partitions
    with singleton blocks reduce through zero entries.
    """
    return tuple(p - 1 for p in parts if p > 1)


def to_text(comp) -> str:
    """Digit string when all parts are single digits, comma list otherwise
    (with a trailing comma for a single part, so "12," is (12,), not (1, 2))."""
    if not comp:
        return ""
    if all(p <= 9 for p in comp):
        return "".join(str(p) for p in comp)
    return ",".join(str(p) for p in comp) + ("," if len(comp) == 1 else "")


def from_text(text) -> tuple:
    """Inverse of to_text; also accepts comma lists of multi-digit parts,
    with an optional trailing comma."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = parse_parts(text)
        if is_composition(parts):
            return parts
    except ValueError:
        pass
    raise ValueError(f"not a composition: {text!r}")


def parse_parts(text) -> tuple:
    """The integers of a comma list, with an optional trailing comma, or
    the digits of a digit string; ValueError on an empty or non-integer
    part."""
    if "," in text:
        pieces = text.split(",")
        if not pieces[-1]:
            pieces.pop()
        return tuple(map(int, pieces))
    return tuple(map(int, text))
