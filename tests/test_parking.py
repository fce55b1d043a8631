import itertools
import math
from collections import Counter

import pytest

from nclag import compositions as comps, parking

from test_lagrange import breakpoints


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_parking_predicate():
    assert parking.is_parking((1, 1, 3))
    assert not parking.is_parking((2, 2, 3))
    # k = 2: the sorted word satisfies a_i <= 2(i-1)+1
    assert (1, 3, 5) in parking.enumerate_k_ndpf(3, 2)
    assert (1, 4, 5) not in parking.enumerate_k_ndpf(3, 2)


def test_one_pass_ndpf_check_equals_the_two_checks():
    found = 0
    for n in range(7):
        for w in itertools.product(range(-1, 8), repeat=n):
            want = parking.is_nondecreasing(w) and parking.is_parking(w)
            assert parking.is_ndpf(w) == want, w
            found += want
    assert found == sum(catalan(n) for n in range(7))


def test_enumeration_counts():
    for n in range(8):
        assert len(parking.enumerate_ndpf(n)) == catalan(n)
    # k = 2 gives the Fuss-Catalan sequence 1, 1, 3, 12, 55
    assert [len(parking.enumerate_k_ndpf(n, 2)) for n in range(5)] == [
        1,
        1,
        3,
        12,
        55,
    ]


def test_type_of_packs_multiplicities():
    assert parking.type_of((1, 1, 2, 4)) == (2, 1, 1)


def test_type_counts_match_enumeration():
    for n in range(7):
        tally = {}
        for w in parking.enumerate_ndpf(n):
            t = parking.type_of(w)
            tally[t] = tally.get(t, 0) + 1
        for i in comps.all_compositions(n):
            assert tally.get(i, 0) == parking.ndpf_count_of_type(i)


def test_parkization_worked_values():
    assert parking.parkize((1, 1, 4)) == (1, 1, 3)
    assert parking.parkize((2, 4)) == (1, 2)
    assert parking.parkize((1, 2, 4)) == (1, 2, 3)
    assert parking.parkize((2, 2, 3, 5)) == (1, 1, 2, 4)


def parkize_by_shifts(w):
    """Reference: while the smallest k with fewer than k letters <= k
    exists, shift every letter above k down by one."""
    out = list(w)
    while True:
        k = next(
            (k for k in range(1, len(out) + 1) if sum(1 for v in out if v <= k) < k),
            None,
        )
        if k is None:
            return tuple(out)
        out = [v - 1 if v > k else v for v in out]


def test_one_pass_parkization_equals_the_shifting_loop_on_short_words():
    for n in range(8):
        for w in itertools.combinations_with_replacement(range(1, 11), n):
            assert parking.parkize(w) == parkize_by_shifts(w)


def test_parkization_rejects_a_decreasing_word():
    with pytest.raises(ValueError, match="nondecreasing"):
        parking.parkize((2, 1))


def test_parkization_fixes_parking_functions_and_keeps_equalities():
    for w in parking.enumerate_ndpf(5):
        assert parking.parkize(w) == w
    for w in itertools.combinations_with_replacement(range(1, 7), 4):
        p = parking.parkize(w)
        assert parking.is_parking(p)
        for a in range(3):
            assert (w[a] == w[a + 1]) == (p[a] == p[a + 1])
            assert (w[a] < w[a + 1]) == (p[a] < p[a + 1])


def test_profile_worked_value():
    assert parking.profile((2, 3, 3, 6, 7, 9, 9)) == ((2, 6, 9), (3, 2, 2))


def min_word(p):
    """The lexicographically smallest word with the given profile."""
    if not parking.is_profile(p):
        raise ValueError("not a profile")
    s, c = p
    out = []
    for si, ci in zip(s, c):
        out.extend([si] * ci)
    return tuple(out)


def profile_by_prefixes(w):
    """The greedy profile cut prefix by prefix: again and again, the longest
    prefix of the rest that is a parking function once shifted down by its
    first letter minus one, with the checks `parking.profile` makes."""
    if not parking.is_nondecreasing(w):
        raise ValueError("word must be nondecreasing")
    if w and w[0] < 1:
        raise ValueError("letters must be positive")
    starts, lengths = [], []
    pos = 0
    while pos < len(w):
        rest = w[pos:]
        c = 0
        for j, v in enumerate(rest):
            if v - (rest[0] - 1) > j + 1:
                break
            c = j + 1
        starts.append(rest[0])
        lengths.append(c)
        pos += c
    return tuple(starts), tuple(lengths)


def test_profile_rejects_a_letter_below_one():
    for w in ((0,), (0, 1, 2), (-1, 1)):
        with pytest.raises(ValueError, match="positive"):
            parking.profile(w)
    assert parking.profile(()) == ((), ())


def test_compatible_with_the_empty_composition_is_empty():
    assert parking.compatible_with(()) == []
    assert parking.enumerate_compatible_pairs(0) == []


def test_profile_round_trip_on_minimal_words():
    for p in parking._profiles_of_length(4, 6):
        assert parking.profile(min_word(p)) == p


def joint_profile(left, right):
    """Merge two profiles by start, left biletters winning ties (the
    reference for the merge in `is_parking_biprofile`)."""
    s, c = left
    t, d = right
    biletters = [(x, 0, y) for x, y in zip(s, c)] + [(x, 1, y) for x, y in zip(t, d)]
    biletters.sort(key=lambda b: (b[0], b[1]))
    return tuple(b[0] for b in biletters), tuple(b[2] for b in biletters)


def is_parking_joint_profile(left, right):
    xs, ys = joint_profile(left, right)
    return all(x <= sum(ys[:m]) + 1 for m, x in enumerate(xs))


def is_parking_biprofile(left, right):
    """Whether representatives u, v of the two profiles concatenate to a
    parking function: in the joint profile, x_m <= y_1+...+y_{m-1}+1.

    Both start tuples are strictly increasing, so one merge walks the joint
    profile; it stops at the first biletter with x > acc + 1.  (The tie
    rule does not change the answer: the second biletter of a tie follows
    one that passed with the same x and a larger total.)
    """
    s, c = left
    t, d = right
    i = j = acc = 0
    while i < len(s) or j < len(t):
        if j == len(t) or (i < len(s) and s[i] <= t[j]):
            x, y = s[i], c[i]
            i += 1
        else:
            x, y = t[j], d[j]
            j += 1
        if x > acc + 1:
            return False
        acc += y
    return True


def all_pairs_of_profiles(n):
    """Every pair of profiles with lengths summing to n, in the order of
    `parking.enumerate_parking_biprofiles`."""
    by_length = [parking._profiles_of_length(total, max(n, 1)) for total in range(n + 1)]
    return (
        (left, right)
        for m in range(n + 1)
        for left in by_length[m]
        for right in by_length[n - m]
    )


def test_joint_profile_prefers_left_on_ties():
    left = ((1,), (2,))
    right = ((1, 4), (1, 1))
    xs, ys = joint_profile(left, right)
    assert xs == (1, 1, 4)
    assert ys == (2, 1, 1)


def test_biprofile_counts_are_catalan():
    for n in range(7):
        assert len(parking.enumerate_parking_biprofiles(n)) == catalan(n + 1)


def test_the_merge_equals_the_joint_profile_test():
    for n in range(8):
        for pair in all_pairs_of_profiles(n):
            assert is_parking_biprofile(*pair) == is_parking_joint_profile(*pair), pair


def test_biprofiles_equal_the_joint_profile_filter_of_all_pairs():
    # the walk builds what filtering every pair finds, in the same order
    for n in range(11):
        want = [pair for pair in all_pairs_of_profiles(n) if is_parking_biprofile(*pair)]
        assert parking.enumerate_parking_biprofiles(n) == want, n


def test_biprofiles_are_a_fresh_list_of_the_memo():
    first = parking.enumerate_parking_biprofiles(4)
    want = list(first)
    first.clear()
    first.append(((), ()))
    assert parking.enumerate_parking_biprofiles(4) == want
    assert isinstance(parking._parking_biprofiles(4), tuple)


def test_biprofile_merge_worked_values():
    # joint profile (1,1,4) with lengths (2,1,1): 4 <= 2 + 1 + 1
    assert is_parking_biprofile(((1,), (2,)), ((1, 4), (1, 1)))
    # a right biletter after the left tuple is spent: 5 > 2 + 1 + 1
    assert not is_parking_biprofile(((1,), (2,)), ((1, 5), (1, 1)))
    # the right profile alone must start at 1
    assert not is_parking_biprofile(((), ()), ((2,), (1,)))
    assert not is_parking_biprofile(((), ()), ((1, 3), (1, 1)))
    assert is_parking_biprofile(((), ()), ((1, 3), (2, 1)))


def test_type_count_table_equals_the_enumeration_tally():
    assert parking.ndpf_count_of_type(()) == 1
    for n in range(1, 10):
        tally = Counter(parking.type_of(w) for w in parking.enumerate_ndpf(n))
        for comp in comps.all_compositions(n):
            assert parking.ndpf_count_of_type(comp) == tally[comp], comp


def test_profile_encoding_worked_values():
    assert parking.c_map(((2, 6, 9), (2, 2, 1)), 12) == (1, 3, 1, 3, 2, 1, 1)
    assert parking.c_map(((1, 6), (3, 1)), 10) == (4, 1, 2, 1, 1, 1)


def test_profile_encoding_refuses_negative_n():
    assert parking.c_map(((), ()), 0) == ()
    for p in [((), ()), ((1,), (1,))]:
        with pytest.raises(ValueError):
            parking.c_map(p, -1)


def test_profile_encoding_round_trip():
    for total in range(5):
        for p in parking._profiles_of_length(total, 6):
            n = (p[0][-1] + p[1][-1] if p[0] else 1) + 3
            assert parking.c_inverse(parking.c_map(p, n)) == p


def is_profile_by_three_checks(p):
    s, c = p
    if len(s) != len(c):
        return False
    if not all(x >= 1 for x in s) or not all(x >= 1 for x in c):
        return False
    return all(s[i + 1] > s[i] + c[i] for i in range(len(s) - 1))


def c_map_by_shifting(p, n):
    """The reference for `c_map`: read the first biletter, then shift every
    start left past what it covered, rebuilding the lists each time."""
    s, c = p
    if not is_profile_by_three_checks(p):
        raise ValueError("not a profile")
    if s and n < s[-1] + c[-1]:
        raise ValueError("n too small for this profile")
    parts = []
    s, c = list(s), list(c)
    while s:
        if s[0] == 1:
            parts.append(1 + c[0])
            shift = c[0] + 1
            s, c = [x - shift for x in s[1:]], c[1:]
        else:
            parts.append(1)
            s = [x - 1 for x in s]
    parts.extend([1] * (n - sum(parts)))
    return tuple(parts)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def test_one_pass_profile_encoding_equals_the_shifting_one():
    # all 1,024 profiles of total length <= 7 with starts <= 9, each at
    # n = 0..12: 13,312 pairs, of both outcomes
    profiles = [p for total in range(8) for p in parking._profiles_of_length(total, 9)]
    assert len(profiles) == 1024
    results = set()
    for p in profiles:
        assert parking.is_profile(p)
        for n in range(13):
            got = outcome(parking.c_map, p, n)
            assert got == outcome(c_map_by_shifting, p, n), (p, n)
            results.add(type(got))
    assert results == {tuple, str}
    # and every pair of start and length tuples of up to 3 entries in 0..3
    entries = [t for r in range(4) for t in itertools.product(range(4), repeat=r)]
    for p in itertools.product(entries, repeat=2):
        assert parking.is_profile(p) == is_profile_by_three_checks(p), p
        assert outcome(parking.c_map, p, 9) == outcome(c_map_by_shifting, p, 9), p


def test_compatible_pair_counts_are_catalan():
    for n in range(1, 8):
        assert len(parking.enumerate_compatible_pairs(n)) == catalan(n)


def test_compatible_pairs_equal_the_all_pairs_filter():
    for n in range(9):
        want = [
            (i, j)
            for i in comps.all_compositions(n)
            for j in comps.all_compositions(n)
            if parking.is_compatible(i, j)
        ]
        assert parking.enumerate_compatible_pairs(n) == want


def test_weight_four_compatible_pairs():
    want = {
        ((4,), (1, 1, 1, 1)),
        ((3, 1), (2, 1, 1)),
        ((3, 1), (1, 2, 1)),
        ((3, 1), (1, 1, 2)),
        ((2, 2), (2, 1, 1)),
        ((2, 2), (1, 2, 1)),
        ((2, 1, 1), (3, 1)),
        ((2, 1, 1), (2, 2)),
        ((2, 1, 1), (1, 3)),
        ((1, 3), (2, 1, 1)),
        ((1, 2, 1), (3, 1)),
        ((1, 2, 1), (2, 2)),
        ((1, 1, 2), (3, 1)),
        ((1, 1, 1, 1), (4,)),
    }
    assert set(parking.enumerate_compatible_pairs(4)) == want


def test_compatibility_closure_matches_enumeration():
    for n in range(0, 7):
        pairs = parking.enumerate_compatible_pairs(n)
        for i in comps.all_compositions(n):
            want = sorted(
                (j for a, j in pairs if a == i), key=lambda c: (len(c), c)
            )
            assert parking.compatible_with(i) == want


def test_compatibility_closure_of_321():
    js = parking.compatible_with((3, 2, 1))
    assert len(js) == 9
    assert js[0] == (1, 1, 2, 2)
    assert js[-1] == (3, 1, 1, 1)


def test_last_compatible_composition_is_the_bottom():
    # the closure ends at (l(I), 1, ..., 1), with n - l(I) ones
    for n in range(1, 8):
        for i in comps.all_compositions(n):
            assert parking.compatible_with(i)[-1] == (len(i),) + (1,) * (n - len(i))


def test_direct_bijection_worked_value():
    w = parking.dumb_bijection((1, 3, 1, 3, 2), (4, 1, 2, 1, 1, 1))
    assert w == (1, 1, 2, 2, 2, 5, 5, 5, 5, 10)
    assert parking.dumb_bijection_inverse(w) == (
        (1, 3, 1, 3, 2),
        (4, 1, 2, 1, 1, 1),
    )


def test_direct_bijection_is_onto_parking_functions():
    for n in range(1, 7):
        images = {
            parking.dumb_bijection(i, j)
            for i, j in parking.enumerate_compatible_pairs(n)
        }
        assert images == set(parking.enumerate_ndpf(n))


def test_breakpoints():
    assert breakpoints((1, 1, 3, 4)) == [2, 3]
    assert breakpoints((1, 2, 2)) == [1]
    assert breakpoints((1, 1, 1)) == []


def test_incompatible_pair_rejected():
    with pytest.raises(ValueError):
        parking.dumb_bijection((1, 2), (1, 2))


def test_enumeration_rejects_negative_size():
    for k in (1, 2):
        with pytest.raises(ValueError, match="nonnegative"):
            parking.enumerate_k_ndpf(-1, k)
