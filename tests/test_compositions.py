import pytest

from nclag import compositions as comps


def refines(j, i) -> bool:
    """True iff j is finer than i (same weight, Des(i) a subset of Des(j))."""
    if comps.weight(j) != comps.weight(i):
        return False
    return set(comps.descent_set(i)) <= set(comps.descent_set(j))


def test_all_compositions_order_n3():
    assert comps.all_compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]


def test_all_compositions_counts():
    assert len(comps.all_compositions(0)) == 1
    for n in range(1, 9):
        assert len(comps.all_compositions(n)) == 2 ** (n - 1)


def test_descents_round_trip():
    for n in range(7):
        for c in comps.all_compositions(n):
            d = comps.descent_set(c)
            assert comps.composition_from_descents(d, n) == c


def test_refines_is_a_partial_order():
    cs = comps.all_compositions(5)
    for a in cs:
        assert refines(a, a)
        for b in cs:
            if refines(a, b) and refines(b, a):
                assert a == b


def test_coarsenings_and_refinements_agree():
    for c in comps.all_compositions(5):
        assert all(refines(c, d) for d in comps.coarsenings(c))
        assert all(refines(d, c) for d in comps.refinements(c))
        # coarsening/refinement counts multiply out to the full fan
        assert len(comps.coarsenings(c)) == 2 ** (len(c) - 1)


def test_symmetries_are_involutions():
    for n in range(1, 7):
        for c in comps.all_compositions(n):
            assert comps.mirror(comps.mirror(c)) == c
            assert comps.mirror_conjugate(comps.mirror_conjugate(c)) == c
            assert comps.conjugate(comps.conjugate(c)) == c


def test_conjugate_is_mirror_of_mirror_conjugate():
    for c in comps.all_compositions(6):
        assert comps.conjugate(c) == comps.mirror(comps.mirror_conjugate(c))


def test_mirror_conjugate_value():
    assert comps.mirror_conjugate((3, 2, 1)) == (1, 1, 2, 2)


def test_double_and_plus_ones():
    assert comps.double((2, 1)) == (4, 2)
    assert comps.plus_ones((2, 1)) == (3, 2)


def test_reduce_parts_drops_ones_after_shift():
    assert comps.reduce_parts((3, 1, 2)) == (2, 1)
    assert comps.reduce_parts((1, 1)) == ()


def test_text_round_trip():
    assert comps.from_text("2,1") == (2, 1)
    assert comps.from_text("211") == (2, 1, 1)
    assert comps.to_text((1, 2, 1)) == "121"
    assert comps.to_text((11, 2)) == "11,2"
    assert comps.from_text(comps.to_text((11, 2))) == (11, 2)
    # one multi-digit part keeps a comma, so it does not read back as digits
    assert comps.to_text((12,)) == "12,"
    assert comps.from_text("12,") == (12,)
    assert comps.from_text("12") == (1, 2)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        comps.from_text("2,0")
    # an empty or non-integer part is named, not left to int()
    for text in (",", "1,,2", ",1", "1a", "1,-"):
        with pytest.raises(ValueError) as err:
            comps.from_text(text)
        assert str(err.value) == f"not a composition: {text!r}"
