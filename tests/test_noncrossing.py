import math
from collections import Counter

import pytest

from nclag import noncrossing as nc, parking


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def nc_to_permutation(p):
    """One-line permutation whose cycles are the blocks, each traversed
    increasingly."""
    w = [0] * p.n
    for b in p.blocks:
        for k, e in enumerate(b):
            w[e - 1] = b[(k + 1) % len(b)]
    return w


def permutation_to_nc(w):
    """The partition into the cycles of a one-line permutation."""
    return nc.NoncrossingPartition(len(w), nc.cycles_of(w))


def crosses_pairwise(blocks):
    """Reference: two blocks cross iff their merged element sequence
    alternates in 4+ runs."""
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            merged = sorted([(e, 0) for e in blocks[a]] + [(e, 1) for e in blocks[b]])
            runs = 1 + sum(merged[k][1] != merged[k - 1][1] for k in range(1, len(merged)))
            if runs >= 4:
                return True
    return False


def set_partitions(n):
    """Every set partition of 1..n, blocks in order of their minima."""
    if n == 0:
        yield []
        return
    for p in set_partitions(n - 1):
        for k in range(len(p)):
            yield p[:k] + [p[k] + (n,)] + p[k + 1:]
        yield p + [(n,)]


def test_crossing_detection():
    assert nc.is_noncrossing([(1, 2), (3, 4)])
    assert nc.is_noncrossing([(1, 4), (2, 3)])
    assert not nc.is_noncrossing([(1, 3), (2, 4)])


def test_crossing_detection_on_blocks_that_skip_elements():
    assert nc.is_noncrossing([(2, 9), (4, 7), (11,)])
    assert nc.is_noncrossing([(4, 2), (), (3,)])
    assert not nc.is_noncrossing([(9, 2), (4, 11)])
    assert not nc.is_noncrossing([(5,), (1, 3, 8), (6, 10)])


def test_linear_scan_equals_the_pairwise_reference_on_every_set_partition():
    seen = 0
    for n in range(9):
        for blocks in set_partitions(n):
            seen += 1
            crossing = crosses_pairwise(blocks)
            assert nc.is_noncrossing(blocks) is not crossing
            # the same blocks in another order and with shuffled elements
            assert nc.is_noncrossing([tuple(reversed(b)) for b in reversed(blocks)]) is not crossing
            if crossing:
                with pytest.raises(ValueError, match="crossing"):
                    nc.NoncrossingPartition(n, blocks)
            else:
                assert nc.NoncrossingPartition(n, blocks).blocks == tuple(blocks)
    assert seen == 1 + 1 + 2 + 5 + 15 + 52 + 203 + 877 + 4140  # Bell numbers


@pytest.mark.parametrize(
    "n, blocks",
    [
        (4, [(1, 2), (3,)]),  # 4 missing
        (3, [(1, 2), (2, 3)]),  # 2 twice
        (3, [(1, 2), (3, 4)]),  # 4 outside 1..3
        (3, [(0, 1), (2, 3)]),  # 0 outside 1..3
        (2, [(1, 2), (1, 2)]),
        (0, [(1,)]),
        # crossing as well as not a partition: the partition check comes first
        (5, [(1, 3), (2, 4)]),
    ],
)
def test_constructor_rejects_blocks_that_do_not_partition(n, blocks):
    with pytest.raises(ValueError, match="partition"):
        nc.NoncrossingPartition(n, blocks)


@pytest.mark.parametrize(
    "n, blocks",
    [(4, [(1, 3), (2, 4)]), (5, [(1, 4), (2, 5), (3,)]), (6, [(1, 2, 5), (3, 6), (4,)])],
)
def test_constructor_rejects_crossing_blocks(n, blocks):
    with pytest.raises(ValueError, match="crossing"):
        nc.NoncrossingPartition(n, blocks)


def test_enumeration_counts():
    for n in range(1, 9):
        assert len(nc.enumerate_nc(n)) == catalan(n)


def test_word_partition_round_trip():
    for n in range(1, 8):
        for w in parking.enumerate_ndpf(n):
            p = nc.ndpf_to_nc(w)
            assert nc.nc_to_ndpf(p) == w


def test_text_round_trip():
    p = nc.from_text("157|234|6|89")
    assert p.blocks == ((1, 5, 7), (2, 3, 4), (6,), (8, 9))
    assert nc.from_text(nc.to_text(p)) == p


def test_text_of_a_lone_element_above_nine():
    ones = nc.NoncrossingPartition.singletons(10)
    assert nc.to_text(ones) == "1|2|3|4|5|6|7|8|9|10,"
    assert nc.from_text(nc.to_text(ones)) == ones
    p = nc.from_text("1,2,3,4,5,6,7,8,9,10,11|12,")
    assert p.blocks == (tuple(range(1, 12)), (12,))
    assert nc.to_text(p) == "1,2,3,4,5,6,7,8,9,10,11|12,"
    # a lone single-digit element needs no comma
    p = nc.from_text("1,2,3,4,5,6,8,9,10|7")
    assert p.blocks[-1] == (7,)
    assert nc.to_text(p) == "1,2,3,4,5,6,8,9,10|7"


def test_empty_text_is_the_empty_partition():
    (empty,) = nc.enumerate_nc(0)
    assert nc.to_text(empty) == ""
    assert nc.from_text("") == empty
    assert nc.from_text(nc.to_text(empty)) == empty
    assert (empty.n, empty.blocks) == (0, ())
    assert nc.kreweras(empty) == empty


def test_permutation_encoding_round_trip():
    for p in nc.enumerate_nc(6):
        assert permutation_to_nc(nc_to_permutation(p)) == p


def test_complement_worked_example():
    p = permutation_to_nc([5, 3, 4, 2, 7, 6, 1, 9, 8])
    assert p.blocks == ((1, 5, 7), (2, 3, 4), (6,), (8, 9))
    k = nc.kreweras(p)
    assert k.blocks == ((1, 4), (2,), (3,), (5, 6), (7, 9), (8,))


def test_complement_block_counts():
    for n in range(1, 8):
        for p in nc.enumerate_nc(n):
            assert len(p.blocks) + len(nc.kreweras(p).blocks) == n + 1


def test_tree_enumeration_counts():
    for n in range(9):
        assert len(nc.enumerate_trees(n)) == catalan(n)


def test_tree_encoding_is_injective():
    for n in range(1, 9):
        images = set()
        for t in nc.enumerate_trees(n):
            ij = nc.tau(t)
            assert ij not in images
            images.add(ij)


def test_rebuild_inverts_tree_encoding():
    for n in range(1, 9):
        for t in nc.enumerate_trees(n):
            assert nc.rebuild_tree(*nc.tau(t)) == t


def test_tree_image_is_the_compatible_pairs():
    for n in range(1, 8):
        images = {nc.tau(t) for t in nc.enumerate_trees(n)}
        assert images == set(parking.enumerate_compatible_pairs(n))


def test_twelve_node_worked_example():
    i_comp = (3, 1, 2, 3, 2, 1)
    j_comp = (1, 3, 1, 2, 2, 1, 2)
    trace = []
    t = nc.rebuild_tree(i_comp, j_comp, trace=trace)
    assert t.size() == 12
    assert len(trace) == 13
    assert nc.tau(t) == (i_comp, j_comp)
    pl, pr = nc.tree_phi(t)
    assert pl.blocks == ((1, 2, 6), (3,), (4, 5), (7, 10, 12), (8, 9), (11,))
    assert pr.blocks == (
        (1,),
        (2, 3, 5),
        (4,),
        (6, 12),
        (7, 9),
        (8,),
        (10, 11),
    )
    assert nc.kreweras(pl) == pr


def branch_blocks_by_paths(t, side):
    """Reference: the blocks of one branch partition, read as maximal
    chains of side-child edges in a recursive infix walk that addresses
    each node by its root path (subtrees are shared between trees)."""
    nodes = []

    def walk(nd, path, sd):
        if nd is not None:
            walk(nd.left, path + ("L",), "L")
            nodes.append((path, sd, nd))
            walk(nd.right, path + ("R",), "R")

    walk(t, (), None)
    label = {path: k + 1 for k, (path, _, _) in enumerate(nodes)}
    child = "left" if side == "L" else "right"
    blocks = []
    for path, sd, nd in nodes:
        if sd == side:
            continue  # not the top of its chain
        chain = []
        while nd is not None:
            chain.append(label[path])
            nd, path = getattr(nd, child), path + (side,)
        blocks.append(tuple(sorted(chain)))
    return tuple(sorted(blocks))


def test_one_walk_reads_the_branches_of_the_path_reference():
    for n in range(1, 10):
        for t in nc.enumerate_trees(n):
            pl, pr = nc.tree_phi(t)
            assert (pl.n, pr.n) == (n, n)
            assert pl.blocks == branch_blocks_by_paths(t, "L")
            assert pr.blocks == branch_blocks_by_paths(t, "R")


def test_a_tree_deeper_than_the_recursion_limit():
    # a left chain of 1000 nodes whose bottom node hangs a right chain of
    # 1000 more: infix labels 1 (the bottom), 2..1001 (down the right
    # chain), then 1002..2000 (up the left chain)
    root = bottom = nc.BinaryTree()
    for _ in range(999):
        bottom.left = nc.BinaryTree()
        bottom = bottom.left
    cur = bottom
    for _ in range(1000):
        cur.right = nc.BinaryTree()
        cur = cur.right
    pl, pr = nc.tree_phi(root)
    assert pl.blocks == ((1, *range(1002, 2001)),) + tuple((e,) for e in range(2, 1002))
    assert pr.blocks == (tuple(range(1, 1002)),) + tuple((e,) for e in range(1002, 2001))
    assert nc.tau(root) == ((1000,) + (1,) * 1000, (1001,) + (1,) * 999)
    for i in (1, 2, 500, 1001, 1002, 1999, 2000):
        assert nc.infix_successor(root, i) == i % 2000 + 1


def combs(n):
    """The left and the right comb of n nodes, built in a loop."""
    left = right = None
    for _ in range(n):
        left, right = nc.BinaryTree(left, None), nc.BinaryTree(None, right)
    return left, right


def test_combs_deeper_than_the_recursion_limit():
    left, right = combs(2000)
    assert left.size() == right.size() == 2000
    assert repr(left) == "(" * 2000 + "." + ")." * 1999 + ")"
    assert repr(right) == "(." * 2000 + ")" * 2000
    again = combs(2000)
    assert (left, right) == again and hash(left) == hash(again[0])
    assert left != right and right != left
    assert len({left, right, *again}) == 2
    assert nc.rebuild_tree([2000], [1] * 2000) == left
    assert nc.rebuild_tree([1] * 2000, [2000]) == right
    for t in (left, right):
        assert nc.rebuild_tree(*nc.tau(t)) == t


def test_tree_partitions_are_complements():
    for n in range(1, 8):
        for t in nc.enumerate_trees(n):
            pl, pr = nc.tree_phi(t)
            assert nc.kreweras(pl) == pr


def test_rebuild_reports_failing_step():
    with pytest.raises(nc.RebuildFailure) as err:
        nc.rebuild_tree((1, 2), (1, 2))
    assert err.value.step >= 1


@pytest.mark.parametrize(
    "i_comp, j_comp, message",
    [
        ((), (1,), "no left branch to start from (at step 1)"),
        ((3,), (1,), "ran out of right-branch parts (at step 3)"),
        ((2,), (2, 1), "ran out of left-branch parts (at step 3)"),
        ((3, 1, 2), (1, 3, 1, 2, 2), "ran out of left-branch parts (at step 8)"),
        ((1, 2), (1, 2), "unused parts remain (at step 3)"),
        ((2, 1), (1, 1, 1), "unused parts remain (at step 4)"),
    ],
)
def test_rebuild_failures_name_their_step(i_comp, j_comp, message):
    with pytest.raises(nc.RebuildFailure) as err:
        nc.rebuild_tree(i_comp, j_comp)
    assert str(err.value) == message
    assert f"(at step {err.value.step})" in message


@pytest.mark.parametrize("i_comp, j_comp", [((0,), (0,)), ((1, 0), (1,)), ((2,), (1, -1))])
def test_rebuild_refuses_a_part_below_one(i_comp, j_comp):
    # not a failed rebuild: the input is no pair of branch compositions
    with pytest.raises(ValueError, match="compositions") as err:
        nc.rebuild_tree(i_comp, j_comp)
    assert not isinstance(err.value, nc.RebuildFailure)


def test_infix_successor_cycles_through_labels():
    for n in range(1, 8):
        for t in nc.enumerate_trees(n):
            for i in range(1, n + 1):
                want = i + 1 if i < n else 1
                assert nc.infix_successor(t, i) == want


def test_motzkin_codec_worked_values():
    assert nc.s_to_sprime((3, 4, 4, 5, 5)) == (1, 1, 2, 2, 3)
    assert nc.word_to_path((1, 1, 2, 2, 3)) == "UUHDD"
    assert nc.s_to_sprime((2, 2, 4, 4, 5)) == (1, 2, 2, 4, 4)
    assert nc.word_to_path((1, 2, 2, 4, 4)) == "HUDUD"


def test_motzkin_codec_round_trips():
    for n in range(1, 11):
        for w in nc.enumerate_s_words(n):
            w2 = nc.s_to_sprime(w)
            assert nc.sprime_to_s(w2) == w
            assert nc.path_to_word(nc.word_to_path(w2)) == w2


def words_by_upsteps(n):
    """The source words of length n tallied by their number of repeated
    letters, the up-steps of their Motzkin paths."""
    return Counter(sum(c == 2 for c in Counter(w).values()) for w in nc.enumerate_s_words(n))


def test_word_counts_by_upsteps():
    # row n = 5 of the refined counts
    row = words_by_upsteps(5)
    assert [row[k] for k in range(3)] == [1, 10, 10]
    for n in range(1, 10):
        tally = words_by_upsteps(n)
        assert sorted(tally) == list(range(n // 2 + 1))
        for k in range(n // 2 + 1):
            assert tally[k] == math.comb(n, 2 * k) * catalan(k)


def test_touchard_identity():
    for n in range(1, 13):
        total = sum(
            2 ** (n - 2 * k) * math.comb(n, 2 * k) * catalan(k)
            for k in range(n // 2 + 1)
        )
        assert total == catalan(n + 1)


@pytest.mark.parametrize("w", [[2, 2], [1, 3, 3], [2, 3, 2], [0, 1], [3, 1]])
def test_cycle_walk_rejects_a_list_that_is_not_a_permutation(w):
    with pytest.raises(ValueError, match="permutation"):
        nc.cycles_of(w)
    with pytest.raises(ValueError, match="permutation"):
        permutation_to_nc(w)


def test_cycle_walk_of_a_permutation():
    assert nc.cycles_of([3, 1, 2, 5, 4, 6]) == [[1, 3, 2], [4, 5], [6]]


@pytest.mark.parametrize("text", ["12||3", "12|", "|1", "|", "||"])
def test_empty_block_is_rejected(text):
    with pytest.raises(ValueError, match="nonempty"):
        nc.from_text(text)


@pytest.mark.parametrize("text", ["1,,2", "12|,", "1|x", "1,2|3,,"])
def test_malformed_block_is_named(text):
    with pytest.raises(ValueError) as err:
        nc.from_text(text)
    assert str(err.value) == f"not a partition: {text!r}"


def test_constructor_rejects_an_empty_block():
    with pytest.raises(ValueError, match="nonempty"):
        nc.NoncrossingPartition(3, [(1, 2), (), (3,)])


def test_the_empty_tree_rebuilds_from_its_pair():
    assert nc.tau(None) == ((), ())
    assert nc.rebuild_tree(*nc.tau(None)) is None


def test_depth_first_build_equals_the_word_decoding_in_order():
    # ndpf_to_nc stays the reference: one decoded word per partition
    for n in range(11):
        decoded = [nc.ndpf_to_nc(w) for w in parking.enumerate_ndpf(n)]
        assert nc.enumerate_nc(n) == decoded, n


def test_enumeration_rejects_negative_size():
    with pytest.raises(ValueError, match="nonnegative"):
        nc.enumerate_nc(-1)


def test_kreweras_rejects_a_complement_that_loses_its_cycles():
    # the walk reads the predecessor of each element from the blocks; blocks
    # that bypass the constructor corrupt it, so that a cycle decreases
    # (1 -> 3 -> 2 under a block listed as 1, 3, 2) or meets a finished
    # cycle (2 -> 4 after the cycle 1 -> 4)
    for n, blocks in [(3, ((1, 3, 2),)), (4, ((1,), (4, 2), (4, 3)))]:
        p = object.__new__(nc.NoncrossingPartition)
        p.n, p.blocks = n, blocks
        with pytest.raises(ArithmeticError):
            nc.kreweras(p)


def kreweras_by_permutation_product(p):
    """Reference: the cycles of w^-1 c, the long cycle applied first."""
    n = p.n
    w = nc_to_permutation(p)
    winv = [0] * n
    for i in range(1, n + 1):
        winv[w[i - 1] - 1] = i
    return permutation_to_nc([winv[i % n] for i in range(1, n + 1)])


def test_kreweras_walk_equals_the_permutation_product():
    for n in range(0, 11):
        for p in nc.enumerate_nc(n):
            assert nc.kreweras(p).blocks == kreweras_by_permutation_product(p).blocks


def test_built_partitions_equal_the_public_constructor():
    for n in range(0, 10):
        for p in nc.enumerate_nc(n):
            for q in (p, nc.kreweras(p)):
                assert type(q.blocks) is tuple and all(type(b) is tuple for b in q.blocks)
                assert q == nc.NoncrossingPartition(n, q.blocks)


@pytest.mark.parametrize("w", [(2,), (1, 3, 3), (2, 2), (2, 1), (1, 2, 1), (0, 1)])
def test_decoding_rejects_words_that_are_not_nondecreasing_parking(w):
    with pytest.raises(ValueError, match="nondecreasing parking function"):
        nc.ndpf_to_nc(w)


def test_tree_phi_rejects_branches_that_are_not_complements(monkeypatch):
    # at n = 2 the two branch partitions have different block counts, so a
    # "complement" that returns its input never matches
    (t, *_) = nc.enumerate_trees(2)
    monkeypatch.setattr(nc, "kreweras", lambda p: p)
    with pytest.raises(ArithmeticError):
        nc.tree_phi(t)
