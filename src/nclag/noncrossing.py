"""Noncrossing partitions, Kreweras complements, binary-tree branch
readings, and the Motzkin codec for words with bounded letter multiplicity.

Blocks are stored sorted by their minima with elements sorted inside, so
the ordered type is a plain projection.
"""

from __future__ import annotations

from collections import Counter

from . import compositions as comps, parking
from .cache import cached


class NoncrossingPartition:
    """A noncrossing partition of 1..n.  The constructor sorts its input,
    rejects empty and repeated elements, then runs `_check`, the validator
    that every partition, built here or by `_checked`, passes.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        owner = [None] * (n + 1)
        for k, b in enumerate(blocks):
            for e in b:
                if not 1 <= e <= n or owner[e] is not None:
                    raise ValueError("blocks must partition 1..n")
                owner[e] = k
        _check(n, blocks, owner)
        self.n = n
        self.blocks = blocks

    def ordered_type(self):
        return tuple(len(b) for b in self.blocks)

    def reduced_ordered_type(self):
        return tuple(len(b) - 1 for b in self.blocks if len(b) > 1)

    def __eq__(self, other):
        return (
            isinstance(other, NoncrossingPartition)
            and other.n == self.n
            and other.blocks == self.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return to_text(self)

    @classmethod
    def singletons(cls, n):
        return cls(n, [(i,) for i in range(1, n + 1)])

    @classmethod
    def one_block(cls, n):
        return cls(n, [tuple(range(1, n + 1))])


def _check(n, blocks, owner):
    """Raise unless increasing blocks, ordered by their minima, partition
    1..n and do not cross (`_blocks_noncrossing`); ``owner[e]`` is the
    index of e's block, None if e has none."""
    if None in owner[1:] or sum(map(len, blocks)) != n:
        raise ValueError("blocks must partition 1..n")
    if not _blocks_noncrossing(blocks, owner, range(1, n + 1)):
        raise ValueError("blocks are crossing")


def _checked(n, blocks, owner) -> NoncrossingPartition:
    """`_check`, then the partition, without the constructor's sorting."""
    _check(n, blocks, owner)
    p = object.__new__(NoncrossingPartition)
    p.n, p.blocks = n, blocks
    return p


def _blocks_noncrossing(blocks, owner, elements) -> bool:
    """Whether sorted blocks cross, in one scan of their elements.

    ``elements`` lists the union of the blocks in increasing order, and
    ``owner[e]`` is the index of the block holding e.  The scan keeps a
    stack of open blocks: a block is pushed at its minimum and popped at
    its maximum.  Lemma: the blocks are noncrossing iff every element that
    is not its block's minimum belongs to the block on top of the stack.
    If the scan succeeds up to e, the stack holds exactly the blocks with
    min < e <= max, by increasing minimum (the block popped at e - 1 was on
    top).  So a failure at e in X under a top Y gives
    min X < min Y < e < max Y, a crossing.  Conversely, take a crossing
    a < b < c < d with a, c in A and b, d in B.  If min A < min B, B is
    pushed above A by b and stays until d, so the scan fails at c (not A's
    minimum) at the latest; otherwise min B < min A <= a < b, A lies above
    B from a to c, and the scan fails at b at the latest.
    """
    stack = []
    for e in elements:
        k = owner[e]
        b = blocks[k]
        if e == b[0]:
            stack.append(k)
        elif stack[-1] != k:
            return False
        if e == b[-1]:
            stack.pop()
    return True


def is_noncrossing(blocks) -> bool:
    """Whether disjoint blocks (of any ground set) are noncrossing."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    owner = {e: k for k, b in enumerate(blocks) for e in b}
    return _blocks_noncrossing(blocks, owner, sorted(owner))


def to_text(p: NoncrossingPartition) -> str:
    """Blocks joined by "|", each a digit string when n <= 9 and a comma
    list otherwise, with a trailing comma on a lone element of two or more
    digits (so "10," is the block {10}, not {1, 0})."""
    sep = "," if p.n > 9 else ""
    return "|".join(
        sep.join(map(str, b)) + ("," if len(b) == 1 and b[0] > 9 else "")
        for b in p.blocks
    )


def from_text(text: str) -> NoncrossingPartition:
    """Inverse of to_text; a block with a comma is a comma list, with an
    optional trailing comma, and any other block a digit string.  The
    empty text is the empty partition of 0."""
    text = text.strip()
    if not text:
        return NoncrossingPartition(0, ())
    try:
        blocks = [comps.parse_parts(chunk) for chunk in text.split("|")]
    except ValueError:
        raise ValueError(f"not a partition: {text!r}") from None
    # an empty chunk ("|") leaves the constructor to reject an empty block
    n = max((e for b in blocks for e in b), default=0)
    return NoncrossingPartition(n, blocks)


# ---------------------------------------------------------------------------
# Bijection with nondecreasing parking functions


def ndpf_to_nc(w) -> NoncrossingPartition:
    """Decode a word whose letters are block minima with multiplicities the
    block sizes; non-minima fill the innermost open block, k, which has
    ``left`` elements to place; the stack holds (k, left) of those below."""
    w = tuple(w)
    if not parking.is_ndpf(w):
        raise ValueError("word must be a nondecreasing parking function")
    n = len(w)
    counts = [0] * (n + 1)
    for v in w:
        counts[v] += 1
    blocks = []
    owner = [None] * (n + 1)
    stack = []
    k, left = None, 0
    for e in range(1, n + 1):
        if counts[e]:
            if left:
                stack.append((k, left))
            k, left = len(blocks), counts[e] - 1
            blocks.append([e])
        else:
            while not left:
                if not stack:
                    raise ValueError("letters are not block minima")
                k, left = stack.pop()
            blocks[k].append(e)
            left -= 1
        owner[e] = k
    return _checked(n, tuple(map(tuple, blocks)), owner)


def nc_to_ndpf(p: NoncrossingPartition):
    return tuple(sorted(b[0] for b in p.blocks for _ in b))


def enumerate_nc(n):
    """All noncrossing partitions of 1..n (Catalan(n) of them)."""
    return [ndpf_to_nc(w) for w in parking.enumerate_ndpf(n)]


# ---------------------------------------------------------------------------
# Kreweras complement


def cycles_of(w):
    """Cycles of a one-line permutation, listed by increasing minima, each
    starting at its minimum.  A walk that leaves 1..n or meets an element
    already seen means `w` is not a permutation: ValueError."""
    n = len(w)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        e = w[start - 1]
        while e != start:
            if not 1 <= e <= n or seen[e]:
                raise ValueError(f"not a permutation of 1..{n}: {list(w)}")
            cyc.append(e)
            seen[e] = True
            e = w[e - 1]
        out.append(cyc)
    return out


def kreweras(p: NoncrossingPartition) -> NoncrossingPartition:
    """The Kreweras complement: the cycles of K = w^-1 c (c applied first),
    K(i) = the predecessor of i mod n + 1 in its block, taken cyclically.
    Walked from each unseen start in increasing order, they are the sorted
    blocks; a revisit, or a cycle not increasing from its minimum, means
    they are not: ArithmeticError.
    """
    n = p.n
    prev = [0] * (n + 1)
    for b in p.blocks:
        a = b[-1]
        for e in b:
            prev[e] = a
            a = e
    owner = [None] * (n + 1)
    blocks = []
    for start in range(1, n + 1):
        if owner[start] is not None:
            continue
        k = len(blocks)
        owner[start] = k
        cyc = [start]
        e = prev[start % n + 1]
        while e != start:
            if e < cyc[-1] or owner[e] is not None:
                raise ArithmeticError(
                    f"the blocks of the Kreweras complement of {to_text(p)} "
                    "are not the cycles of its permutation"
                )
            owner[e] = k
            cyc.append(e)
            e = prev[e % n + 1]
        blocks.append(tuple(cyc))
    return _checked(n, tuple(blocks), owner)


# ---------------------------------------------------------------------------
# Binary trees and branch readings


class BinaryTree:
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left
        self.right = right

    def size(self) -> int:
        return sum(1 for _ in _nodes(self))

    def __eq__(self, other):
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if not (isinstance(a, BinaryTree) and isinstance(b, BinaryTree)):
                    return False
                pairs += ((a.left, b.left), (a.right, b.right))
        return True

    def __hash__(self):
        return hash(repr(self))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            else:
                out.append("(")
                stack += (")", t.right or "", ".", t.left or "")
        return "".join(out)


def _nodes(t):
    """The nodes of a tree, each parent before its children, walked without
    recursion."""
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            yield node
            stack += (node.right, node.left)


def enumerate_trees(n):
    """All binary trees with n nodes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _trees(n)


@cached
def _trees(n):
    if n == 0:
        return (None,)
    out = []
    for k in range(n):
        for l in _trees(k):
            for r in _trees(n - 1 - k):
                out.append(BinaryTree(l, r))
    return tuple(out)


def _branches(t):
    """Both branch partitions of a tree under infix labels, from one
    iterative infix walk: a (blocks, owner) pair per side, ``owner[e]`` the
    index of label e's block.  A left child stays in its parent's left
    chain and starts a right chain, a right child the other way round.
    Labels go in visit order, so shared subtrees need no addressing; left
    chains are visited bottom up and right chains top down, so each block
    grows increasing and opens after every block of smaller minimum."""
    sides = ([], [None]), ([], [None])
    stack = []
    node, chains = t, ([], [])
    while True:
        while node is not None:
            stack.append((node, chains))
            node, chains = node.left, (chains[0], [])
        if not stack:
            return sides
        node, chains = stack.pop()
        for chain, (blocks, owner) in zip(chains, sides):
            owner.append(owner[chain[0]] if chain else len(blocks))
            if not chain:
                blocks.append(chain)
            chain.append(len(owner) - 1)
        node, chains = node.right, ([], chains[1])


def tree_phi(t: BinaryTree):
    """The pair (left-branch partition, right-branch partition) of a tree
    under infix labeling; the second is the Kreweras complement of the
    first (checked)."""
    p_left, p_right = (
        _checked(len(owner) - 1, tuple(map(tuple, blocks)), owner)
        for blocks, owner in _branches(t)
    )
    if kreweras(p_left) != p_right:
        raise ArithmeticError(
            f"right branches {to_text(p_right)} are not the Kreweras "
            f"complement of the left branches {to_text(p_left)}"
        )
    return p_left, p_right


def tau(t: BinaryTree):
    """Ordered branch lengths (left-branch composition, right-branch
    composition)."""
    p_left, p_right = tree_phi(t)
    return p_left.ordered_type(), p_right.ordered_type()


def infix_successor(t: BinaryTree, i: int) -> int:
    """Next label in infix order, found by the two-move branch rule: one
    step down the right branch through i (cycling at the bottom), then one
    step up the left branch (cycling at the top).  Blocks are increasing,
    so each move is the next larger label of the block, wrapping around to
    the smallest."""
    (left, l_owner), (right, r_owner) = _branches(t)
    if not 1 <= i < len(l_owner):
        raise ValueError("label out of range")
    rb = right[r_owner[i]]
    j = rb[(rb.index(i) + 1) % len(rb)]  # one step down, cycling
    lb = left[l_owner[j]]
    return lb[(lb.index(j) + 1) % len(lb)]  # one step up, cycling


# ---------------------------------------------------------------------------
# Rebuilding a tree from its branch compositions


class RebuildFailure(ValueError):
    def __init__(self, message, step):
        super().__init__(f"{message} (at step {step})")
        self.step = step


def _copy(root):
    """A copy of a tree, built children first."""
    # keyed by id: a tree hashes by its whole text form
    copies = {id(None): None}
    for node in reversed(list(_nodes(root))):
        copies[id(node)] = BinaryTree(copies[id(node.left)], copies[id(node.right)])
    return copies[id(root)]


def rebuild_tree(i_comp, j_comp, trace=None):
    """Rebuild the unique tree whose ordered left-branch lengths are I and
    right-branch lengths are J, gluing one branch per step.

    Each step takes the first unmarked node in infix order (the root counts
    as a left child): a left child gets the next right branch, a right
    child the next left branch.  A glued branch of size p marks its
    attachment node and adds p-1 new nodes; size-1 parts only mark.
    Incompatible inputs raise RebuildFailure carrying the failing step
    index; a part below 1 is not a branch length at all and raises a plain
    ValueError.

    One infix walk, resumed after each step, finds every attachment node.
    Glued nodes are new, and unmarked nodes have no child on the glued
    side, so a branch is glued where the walk has not yet been: a right
    branch is the found node's right subtree, which the walk enters next;
    a left branch is its left subtree, which the walk enters again.
    """
    i_parts = list(i_comp)
    j_parts = list(j_comp)
    if not comps.is_composition(i_parts + j_parts):
        raise ValueError("branch lengths must be compositions (parts >= 1)")
    step = 1
    if not i_parts:
        if j_parts:
            raise RebuildFailure("no left branch to start from", step)
        return None
    root = BinaryTree()
    cur = root
    for _ in range(i_parts[0] - 1):
        cur.left = BinaryTree()
        cur = cur.left
    i_used, j_used = 1, 0
    if trace is not None:
        trace.append((f"i1={i_parts[0]}", _copy(root)))
    stack = []  # (node, side) of the nodes whose left subtree is being walked
    marked = set()  # the ids of the marked nodes

    def descend(node, side):
        while node is not None:
            stack.append((node, side))
            node, side = node.left, "L"

    descend(root, "L")
    while True:
        step += 1
        while stack and id(stack[-1][0]) in marked:
            descend(stack.pop()[0].right, "R")
        if not stack:
            break
        node, side = stack.pop()
        marked.add(id(node))
        cur = node
        if side == "L":
            if j_used >= len(j_parts):
                raise RebuildFailure("ran out of right-branch parts", step)
            size = j_parts[j_used]
            j_used += 1
            label = f"j{j_used}={size}"
            for _ in range(size - 1):
                cur.right = BinaryTree()
                cur = cur.right
            descend(node.right, "R")
        else:
            if i_used >= len(i_parts):
                raise RebuildFailure("ran out of left-branch parts", step)
            size = i_parts[i_used]
            i_used += 1
            label = f"i{i_used}={size}"
            for _ in range(size - 1):
                cur.left = BinaryTree()
                cur = cur.left
            descend(node, side)
        if trace is not None:
            trace.append((label, _copy(root)))
    if i_used < len(i_parts) or j_used < len(j_parts):
        raise RebuildFailure("unused parts remain", step)
    return root


# ---------------------------------------------------------------------------
# Motzkin codec: words with bounded multiplicity and height-one paths


def is_s_word(w) -> bool:
    """Sorted word with i <= w_i <= n and no letter appearing three times."""
    n = len(w)
    if tuple(sorted(w)) != tuple(w):
        return False
    if any(not (i + 1 <= v <= n) for i, v in enumerate(w)):
        return False
    return all(c <= 2 for c in Counter(w).values())


def is_sprime_word(w) -> bool:
    """Nondecreasing parking function with letter multiplicity at most 2."""
    return parking.is_ndpf(w) and all(c <= 2 for c in Counter(w).values())


def _reversal_complement(w, in_domain, side):
    """The reversal-complement bijection between the two word sets."""
    if not in_domain(w):
        raise ValueError(f"word outside the {side} set")
    return tuple(len(w) + 1 - v for v in reversed(w))


def s_to_sprime(w):
    return _reversal_complement(w, is_s_word, "source")


def sprime_to_s(w):
    return _reversal_complement(w, is_sprime_word, "target")


def word_to_path(w) -> str:
    """Motzkin path of a bounded-multiplicity word: pair minima rise, pair
    maxima fall, singletons stay level."""
    if not is_sprime_word(w):
        raise ValueError("word outside the domain")
    p = ndpf_to_nc(w)
    steps = {}
    for b in p.blocks:
        if len(b) == 1:
            steps[b[0]] = "H"
        else:
            steps[b[0]] = "U"
            steps[b[1]] = "D"
    return "".join(steps[e] for e in range(1, p.n + 1))


def path_to_word(path: str):
    """Inverse codec: rebuild the matching, then read off block minima."""
    n = len(path)
    stack = []
    blocks = []
    for k, ch in enumerate(path, start=1):
        if ch == "U":
            stack.append(k)
        elif ch == "D":
            if not stack:
                raise ValueError("path dips below the axis")
            blocks.append((stack.pop(), k))
        elif ch == "H":
            blocks.append((k,))
        else:
            raise ValueError(f"bad step {ch!r}")
    if stack:
        raise ValueError("path does not return to the axis")
    return nc_to_ndpf(NoncrossingPartition(n, blocks))


def enumerate_s_words(n):
    """All source words of length n."""
    return sorted(
        sprime_to_s(w)
        for w in parking.enumerate_ndpf(n)
        if all(c <= 2 for c in Counter(w).values())
    )
