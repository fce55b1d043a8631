"""Exact-coefficient linear combinations over composition-indexed bases.

NSym side: S (complete), L (elementary), R (ribbon), G (Lagrange), F
(the inclusion-exclusion companion of G).  QSym side: M (monomial), E
(essential), V (signed essential, dual to L), C (dual to G).
Coefficients are Python ints, so arbitrary precision comes for free,
except in the S-elements that `incidence._in_t` builds from the hat
values of a multiplicative function for `g_values` and `from_g_values`
to solve with: those are Fractions.  Nothing here divides or rounds a
coefficient, so both kinds stay exact.

The product is defined once, in `_Element.__mul__`: S, L and G (on every
leg of a tensor) concatenate indices in one pass, and every other basis
multiplies through S and converts back.  QSym has no product yet (its
quasi-shuffle on M is missing), so a QSym product raises BasisMismatch.

Conversions walk two basis trees, one edge at a time: S with children L,
R and G, and F below G; M with children E, V and C.  The S<->G and M<->C
edges read only the two generator tables of the `lagrange` module, g_n on
S and S_n on G: S<->G substitutes them part by part (`_substitution`),
and M<->C, the transpose, spreads each term over its coarsenings with
products of their coefficients (`_block_spread`).  The other ten sum
over refinements or coarsenings, as one transform over descent masks
(`_lattice`).  A tensor converts leg by leg, each leg's walk run once per
group of terms that agree off that leg.

A sum of many terms accumulates into a fresh dict (`_add_into`,
`_mul_into`), never into a cached element's terms, and is wrapped in an
element once at the end.
"""

from __future__ import annotations

from itertools import product, starmap
from operator import add, mul

from . import compositions as comps

NSYM_BASES = ("S", "L", "R", "G", "F")
QSYM_BASES = ("M", "E", "V", "C")

# Bases whose product is plain concatenation of indices.
_MULTIPLICATIVE = {"S", "L", "G"}


class BasisMismatch(ValueError):
    pass


def _clean(terms):
    return {i: c for i, c in terms.items() if c != 0}


def _add_into(acc, terms, c=1):
    """acc += c * terms, in place; `terms` is only read."""
    get = acc.get
    if c == 1:
        for i, v in terms.items():
            acc[i] = get(i, 0) + v
    else:
        for i, v in terms.items():
            acc[i] = get(i, 0) + c * v
    return acc


def _mul_into(acc, x_terms, y_terms, c=1):
    """acc += c * x * y, in place, for a product that concatenates indices."""
    get = acc.get
    for i, a in x_terms.items():
        a *= c
        for j, b in y_terms.items():
            k = i + j
            acc[k] = get(k, 0) + a * b
    return acc


def _legwise_mul_into(acc, x_terms, y_terms, c=1):
    """acc += c * x * y, in place, for tensors whose product concatenates
    indices leg by leg."""
    get = acc.get
    # every pair of terms in order, leg by leg: the concatenations of one
    # leg, the key tuples and the coefficients all come from C iterators
    legs = [starmap(add, product(a, b)) for a, b in zip(zip(*x_terms), zip(*y_terms))]
    xs = x_terms.values() if c == 1 else [c * a for a in x_terms.values()]
    coeffs = starmap(mul, product(xs, y_terms.values()))
    for k, c in zip(zip(*legs), coeffs):
        acc[k] = get(k, 0) + c
    return acc


def _products_into(acc, terms, factor, mul_into=_mul_into, unit=()):
    """acc += sum over I of terms[I] * factor(i_1) * ... * factor(i_r), in
    place, where factor(p) gives the terms of one factor of a product, by
    default one that concatenates indices; `mul_into` (like `_mul_into`)
    and `unit`, the index of the product's unit, give another.

    Horner's rule on the first part: sum_I c_I f(I) = sum_p factor(p) *
    (sum_J c_(p,J) f(J)), so each tail is expanded once and its terms cancel
    or merge before factor(p) multiplies them.  The tails of the prefixes
    of one length are finished together, longest first, so nothing recurses
    on the length of an index.  factor(p) is called once per distinct part.
    """
    factors = {}
    # levels[r]: each prefix P of length r -> the expanded tail of P
    levels = {}
    for i, c in terms.items():
        if c:
            levels.setdefault(len(i), {})[i] = {unit: c}
    if not levels:
        return acc
    top = max(levels)
    tails = levels.pop(top)
    for r in range(top, 0, -1):
        parents = levels.pop(r - 1, {})
        for prefix, tail in tails.items():
            tail = _clean(tail)
            if tail:
                head = prefix[:-1]
                into = parents.get(head)
                if into is None:
                    into = parents[head] = {}
                p = prefix[-1]
                f = factors.get(p)
                if f is None:
                    f = factors[p] = factor(p)
                mul_into(into, f, tail)
        tails = parents
    return _add_into(acc, tails.get((), {}))


class _Element:
    """Shared machinery of NSym, QSym and tensor elements (immutable by
    convention)."""

    __slots__ = ("basis", "terms")
    _bases: tuple = ()
    # the product's concatenation pass on the bases in _MULTIPLICATIVE, or
    # None on a side with no product yet
    _concat_into = None

    def __init__(self, basis, terms=None):
        if basis not in self._bases:
            raise BasisMismatch(f"unknown basis {basis!r} for {type(self).__name__}")
        self.basis = basis
        self.terms = _clean(terms) if terms else {}

    @classmethod
    def monomial(cls, basis, index, coeff=1):
        return cls(basis, {tuple(index): coeff})

    @classmethod
    def zero(cls, basis):
        return cls(basis, {})

    @classmethod
    def one(cls, basis):
        return cls(basis, {(): 1})

    @classmethod
    def _adopt(cls, basis, terms):
        """An element that takes over `terms`, a fresh dict nobody else
        holds, dropping its zero coefficients in place instead of copying."""
        for i in [i for i, c in terms.items() if not c]:
            del terms[i]
        x = cls(basis)
        x.terms = terms
        return x

    def _check(self, other):
        if type(other) is not type(self) or other.basis != self.basis:
            raise BasisMismatch(
                f"operands must share a basis ({self.basis!r} vs "
                f"{getattr(other, 'basis', type(other).__name__)!r})"
            )

    def __add__(self, other):
        self._check(other)
        return type(self)(self.basis, _add_into(dict(self.terms), other.terms))

    def __mul__(self, other):
        """The product: one concatenation pass when every leg basis is S, L
        or G, else the product of the two S images, converted back."""
        self._check(other)
        if self._concat_into is None:
            raise BasisMismatch(
                f"no product on {type(self).__name__}: the quasi-shuffle on M is not implemented"
            )
        tensor = isinstance(self, TensorElement)
        legs = self.basis if tensor else (self.basis,)
        if _MULTIPLICATIVE.issuperset(legs):
            return type(self)._adopt(self.basis, self._concat_into({}, self.terms, other.terms))
        root = ("S",) * len(legs) if tensor else "S"
        return convert(convert(self, root) * convert(other, root), self.basis)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return type(self)(self.basis, {i: c * v for i, v in self.terms.items()})

    def coeff(self, index) -> int:
        return self.terms.get(tuple(index), 0)

    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def _weight(index):
        return sum(index)

    def is_homogeneous(self, d) -> bool:
        """Whether every term has weight d (the zero element has)."""
        return all(self._weight(i) == d for i in self.terms)

    def map_indices(self, fn):
        """Linear extension of an index map (must stay within the basis)."""
        terms = {}
        for i, c in self.terms.items():
            j = tuple(fn(i))
            terms[j] = terms.get(j, 0) + c
        return type(self)(self.basis, terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.basis == self.basis
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), _revlex_key(t[0])))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for i, c in self._sorted_terms():
            mono = "1" if not i else f"{self.basis}[{','.join(map(str, i))}]"
            if c == 1 and i:
                bits.append(mono)
            elif c == -1 and i:
                bits.append(f"-{mono}")
            elif not i:
                bits.append(str(c))
            else:
                bits.append(f"{c}*{mono}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def to_json_dict(self):
        side = "nsym" if isinstance(self, NSymElement) else "qsym"
        return {
            "side": side,
            "basis": self.basis,
            "terms": [
                {"index": list(i), "coeff": str(c)} for i, c in self._sorted_terms()
            ],
        }


def _revlex_key(comp):
    """The descent mask of `comp`, the sum of 2^(n-1-d) over its descents
    d: among the compositions of one weight n it orders them as
    `all_compositions` does, like their 0/1 descent words."""
    # each part p appends p - 1 zeros and a one; the last one is dropped
    mask = 0
    for p in comp:
        mask = (mask << p) | 1
    return mask >> 1


def _word_key(comp, width):
    """Orders the 0/1 descent words of compositions of weights up to
    `width` lexicographically, a prefix first: the mask left-aligned to
    `width` bits, then the word's length."""
    length = max(sum(comp) - 1, 0)
    return _revlex_key(comp) << (width - length), length


class NSymElement(_Element):
    _bases = NSYM_BASES
    _concat_into = staticmethod(_mul_into)


class QSymElement(_Element):
    _bases = QSYM_BASES


def _split_generator(p):
    """Delta S_p = sum over a of S_a (x) S_(p-a), as two-leg terms; S_0 is
    the empty index."""
    pieces = [(a,) if a else () for a in range(p + 1)]
    return dict.fromkeys(zip(pieces, reversed(pieces)), 1)


class TensorElement(_Element):
    """A finite combination of tensors of k >= 1 NSym monomials with integer
    coefficients.

    The basis is the k-tuple of leg bases and each index the k-tuple of leg
    compositions.  All terms share the declared bases; mixing bases inside
    one tensor is rejected so pairings cannot silently go wrong.
    """

    _concat_into = staticmethod(_legwise_mul_into)

    def __init__(self, bases, terms=None):
        # any number of legs, so the bases are checked here, not listed
        bases = tuple(bases)
        if not bases or not all(map(NSYM_BASES.__contains__, bases)):
            raise BasisMismatch(f"unknown basis {bases!r} for TensorElement")
        self.basis = bases
        self.terms = _clean(terms) if terms else {}

    @classmethod
    def monomial(cls, bases, *legs, coeff=1):
        return cls(bases, {tuple(map(tuple, legs)): coeff})

    @classmethod
    def one(cls, bases):
        return cls(bases, {((),) * len(bases): 1})

    def coeff(self, *legs) -> int:
        return self.terms.get(tuple(map(tuple, legs)), 0)

    def permute(self, order):
        """The tensor whose leg m is leg order[m] of this one."""
        if sorted(order) != list(range(len(self.basis))):
            raise ValueError(f"{order!r} does not permute {len(self.basis)} legs")
        return TensorElement(
            [self.basis[m] for m in order],
            {tuple(map(i.__getitem__, order)): c for i, c in self.terms.items()},
        )

    def _on_leg(self, m, bases, fn):
        """The tensor whose leg m becomes the legs `bases`: the terms that
        agree off leg m are grouped, and fn maps the leg-m terms of one
        group to a fresh dict keyed by tuples of len(bases) new legs."""
        groups = {}
        for index, c in self.terms.items():
            groups.setdefault((index[:m], index[m + 1 :]), {})[index[m]] = c
        acc = {}
        for (head, tail), leg in groups.items():
            for legs, c in fn(leg).items():
                acc[(*head, *legs, *tail)] = c
        return TensorElement._adopt((*self.basis[:m], *bases, *self.basis[m + 1 :]), acc)

    def split_leg(self, m):
        """Delta on leg m, an S leg, so k legs become k + 1: S^I there becomes
        the product over its parts p of Delta S_p = sum of S_a (x) S_(p-a).

        The terms that agree off leg m split together, by Horner's rule
        (`_products_into` with the two-leg product), so splits that meet
        merge before the next part multiplies them."""
        if not 0 <= m < len(self.basis) or self.basis[m] != "S":
            raise BasisMismatch(f"Delta splits an S leg, and leg {m} of {self.basis!r} is none")
        return self._on_leg(
            m,
            ("S", "S"),
            lambda leg: _products_into({}, leg, _split_generator, _legwise_mul_into, ((), ())),
        )

    @staticmethod
    def _weight(index):
        return sum(map(sum, index))

    def _sorted_terms(self):
        # the legs of one total weight w differ in weight from term to term,
        # so each leg's descent word is ordered among words of any length up
        # to w; the legs' weights come last, to part () from (1,), whose
        # descent words are both empty, and to move no other term
        def key(t):
            w = self._weight(t[0])
            out = [w]
            for leg in t[0]:
                out += _word_key(leg, w)
            out += map(sum, t[0])
            return out

        return sorted(self.terms.items(), key=key)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for index, c in self._sorted_terms():
            mono = "(x)".join(
                f"{b}[{','.join(map(str, i))}]" if i else "1" for b, i in zip(self.basis, index)
            )
            bits.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json_dict(self):
        return {
            "side": "tensor",
            "basis": list(self.basis),
            "terms": [
                {"index": list(map(list, index)), "coeff": str(c)}
                for index, c in self._sorted_terms()
            ],
        }


# ---------------------------------------------------------------------------
# Basis conversions: two trees, one walk

# NSym: S is the root, with children L, R and G, and F below G.
# QSym: M is the root, with children E, V and C.
_PARENT = {"L": "S", "R": "S", "G": "S", "F": "G", "E": "M", "V": "M", "C": "M"}


def _lagrange():
    """The `lagrange` module, which imports this one, looked up on use."""
    from . import lagrange

    return lagrange


# An edge of the table below is a map from the terms of an element on one
# basis to a fresh dict of its terms on the other.


def _unmask(n, mask):
    """The composition of n whose descent mask (`_revlex_key`) is `mask`."""
    if n < 2:
        return (n,) if n else ()
    # the descent word behind a leading 1, with a 0 after each 1: split at
    # the 1s it is one 0 run per part, as long as the part
    return tuple(map(len, bin(mask | 1 << (n - 1))[2:].replace("1", "10")[1:].split("1")))


def _lattice(finer, mobius=False, source_sign=False, target_sign=False):
    """The edge X_I = sum of sign(I, J) Y_J over the compositions J finer
    than I (finer=True) or coarser than I, with the sign the product of
    (-1)^(l(J)-l(I)) if `mobius`, (-1)^(|I|-l(I)) if `source_sign` and
    (-1)^(|J|-l(J)) if `target_sign`.

    A composition of n is its (n-1)-bit descent mask, so J runs over the
    supersets (finer) or subsets (coarser) of I's mask.  The terms of one
    weight are summed over those in one pass per descent position, each
    term of the pass adding into the mask with that descent toggled, with
    a factor -1 under `mobius`: at most (n-1) 2^(n-2) additions per
    weight, where spreading each term over its refinements or coarsenings
    takes up to 3^(n-1).
    """
    step = -1 if mobius else 1

    def edge(terms):
        weights = {}
        for i, c in terms.items():
            if c:
                n = sum(i)
                if source_sign and (n - len(i)) & 1:
                    c = -c
                weights.setdefault(n, {})[_revlex_key(i)] = c
        out = {}
        for n, tally in weights.items():
            # a finer J sets a bit where I clears it, a coarser one clears a
            # bit where I sets it; a bit no term can toggle is skipped
            free = 0
            for mask in tally:
                free |= ~mask if finer else mask
            for bit in (1 << d for d in range(n - 1)):
                if not free & bit:
                    continue
                want = 0 if finer else bit
                for mask, c in list(tally.items()):
                    if mask & bit == want and c:
                        other = mask ^ bit
                        tally[other] = tally.get(other, 0) + step * c
            for mask, c in tally.items():
                if c:
                    j = _unmask(n, mask)
                    out[j] = -c if target_sign and (n - len(j)) & 1 else c
        return out

    return edge


def _substitution(generator):
    """The edge that replaces each part p of an index by the expansion
    lagrange.<generator>(p) of its generator on the other basis and
    multiplies out, by Horner's rule (`_products_into`): S^I is the product
    of its S_(i_k) and G^J of its g_(j_k)."""

    def edge(terms):
        table = getattr(_lagrange(), generator)
        return _products_into({}, terms, lambda p: table(p).terms)

    return edge


def _block_spread(generator):
    """The edge that spreads each term at I over the J coarser than I, with
    the coefficient prod_k [I_k] lagrange.<generator>(j_k): I_k is the
    block of I inside the k-th part of J, and [I_k] x the coefficient of
    the monomial I_k in x.

    It is the transpose of the S <-> G edge that reads the same table, as
    each generator is homogeneous: <M_I, G^J> = prod_k [S^(I_k)] g_(j_k)
    and <C_J, S^I> = prod_k [G^(J_k)] S_(i_k).  The coarsenings of a
    prefix of I are shared.  The weight of every term is checked against
    the table bound, which g_component does not check."""

    def edge(terms):
        lagrange = _lagrange()
        table = getattr(lagrange, generator)
        lagrange._check_bound(max((sum(i) for i, c in terms.items() if c), default=0))
        rows = {}
        acc = {}
        for i, c in terms.items():
            if not c:
                continue
            # heads[r]: each coarsening of i[:r] -> c times its blocks' coefficients
            heads = [{(): c}] + [{} for _ in i]
            for r, head in enumerate(heads):
                w = 0
                for s in range(r + 1, len(i) + 1):
                    w += i[s - 1]
                    row = rows.get(w)
                    if row is None:
                        row = rows[w] = table(w).terms
                    f = row.get(i[r:s])
                    if f:
                        into = heads[s]
                        for j, a in head.items():
                            into[j + (w,)] = a * f
            _add_into(acc, heads[-1])
        return acc

    return edge


# (from, to) -> edge
_EDGES = {
    # S_n = sum over J of n of (-1)^(n-l(J)) L^J, and L_n the same on S, so
    # S^I (or L^I) spreads over the refinements J of I
    ("L", "S"): _lattice(finer=True, target_sign=True),
    ("S", "L"): _lattice(finer=True, target_sign=True),
    ("R", "S"): _lattice(finer=False, mobius=True),
    # S^I = sum of R_J over J coarser than I
    ("S", "R"): _lattice(finer=False),
    ("G", "S"): _substitution("g_component"),
    ("S", "G"): _substitution("s_generator_on_g"),
    ("F", "G"): _lattice(finer=True, mobius=True),
    ("G", "F"): _lattice(finer=True),
    ("E", "M"): _lattice(finer=False),
    ("V", "M"): _lattice(finer=False, source_sign=True),
    # M_I = sum over J coarser than I of (-1)^(l(I)-l(J)) E_J
    ("M", "E"): _lattice(finer=False, mobius=True),
    # M_I = sum over J coarser than I of (-1)^(l(I)-l(J)) (-1)^(|J|-l(J))
    # V_J; the two signs multiply to (-1)^(|I|-l(I)), so V <-> M is one
    # involution
    ("M", "V"): _lattice(finer=False, source_sign=True),
    ("C", "M"): _block_spread("s_generator_on_g"),
    ("M", "C"): _block_spread("g_component"),
}


def _path_to_root(basis):
    path = [basis]
    while path[-1] in _PARENT:
        path.append(_PARENT[path[-1]])
    return path


def _route(source, target):
    """The edges from `source` up the basis tree to the lowest common
    ancestor with `target`, then down to `target`."""
    up, down = _path_to_root(source), _path_to_root(target)
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    # up ends at the lowest common ancestor; walk down without repeating it
    route = up + down[:-1][::-1]
    return tuple(_EDGES[edge] for edge in zip(route, route[1:]))


# (from, to) -> the edges of the walk, for every pair of bases of one side
_ROUTES = {
    (a, b): _route(a, b)
    for side in (NSYM_BASES, QSYM_BASES)
    for a in side
    for b in side
}


def _route_of(source, target):
    """The edges of the walk from one basis to another of its side."""
    route = _ROUTES.get((source, target))
    if route is None:
        raise BasisMismatch(f"no conversion from {source!r} to {target!r}")
    return route


def _walk(route, terms):
    """The terms after each edge of `route` in turn."""
    for edge in route:
        terms = edge(terms)
    return terms


def convert(x, target):
    """Re-express an NSym or QSym element in another basis of its side
    (exact, round-trippable): up the basis tree from x.basis to the lowest
    common ancestor, then down to `target`, each edge one pass from the
    terms to a fresh dict.

    A tensor's target is a tuple of leg bases, one per leg.  Each leg that
    changes basis is walked once per group of terms that agree off it, so
    the terms that meet on one leg merge before the next leg expands."""
    if isinstance(x, TensorElement):
        if not isinstance(target, tuple) or len(target) != len(x.basis):
            raise BasisMismatch(f"no conversion from {x.basis!r} to {target!r}")
        routes = list(map(_route_of, x.basis, target))
        for m, route in enumerate(routes):
            if route:
                # each new index is a one-leg tuple, the form _on_leg splices
                x = x._on_leg(
                    m, (target[m],), lambda leg: {(j,): c for j, c in _walk(route, leg).items()}
                )
        return x
    route = _route_of(x.basis, target)
    if not route:
        return x
    return type(x)._adopt(target, _walk(route, x.terms))


# ---------------------------------------------------------------------------
# Pairing, coproduct, antipode, involutions


def pair(q: QSymElement, f: NSymElement) -> int:
    """The duality pairing, normalized by <M_I, S^J> = delta_IJ."""
    fs = convert(f, "S")
    return sum(c * fs.terms.get(i, 0) for i, c in convert(q, "M").terms.items())


def coproduct(x: NSymElement) -> TensorElement:
    """Coproduct into S(x)S: Delta on the one-leg tensor of x's S-expansion."""
    s = convert(x, "S").terms
    return TensorElement._adopt(("S",), {(i,): c for i, c in s.items()}).split_leg(0)


def antipode(x: NSymElement) -> NSymElement:
    """The NSym antipode (anti-automorphism with S_n -> (-1)^n L_n): the
    negated alphabet after reversing every S-index."""
    return neg_alphabet(convert(x, "S").map_indices(comps.mirror))


def neg_alphabet(x: NSymElement) -> NSymElement:
    """The algebra automorphism A -> -A, i.e. S_n -> (-1)^n L_n."""
    terms = {i: c * (-1) ** sum(i) for i, c in convert(x, "S").terms.items()}
    return convert(NSymElement("L", terms), "S")


def tilde(x: NSymElement) -> NSymElement:
    """The involutive automorphism L_n -> g_n; result in the G basis."""
    xl = convert(x, "L")
    return NSymElement("G", xl.terms)


def chi(x: NSymElement) -> NSymElement:
    """The involution g^I -> g^(reversed I) on the G basis."""
    if x.basis != "G":
        raise BasisMismatch("chi acts on the G basis")
    return x.map_indices(comps.mirror)


def psi_k(x: QSymElement, k: int) -> QSymElement:
    """The power-sum plethysm M_I -> M_{kI} on the monomial basis."""
    if x.basis != "M":
        raise BasisMismatch("psi_k acts on the M basis")
    if k < 1:
        raise ValueError("k must be >= 1")
    return x.map_indices(lambda i: tuple(k * p for p in i))


def phi_k(x: NSymElement, k: int) -> NSymElement:
    """Adjoint of psi_k: keep S^J with all parts divisible by k, divide by k."""
    if x.basis != "S":
        raise BasisMismatch("phi_k acts on the S basis")
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = {}
    for i, c in x.terms.items():
        if all(p % k == 0 for p in i):
            j = tuple(p // k for p in i)
            terms[j] = terms.get(j, 0) + c
    return NSymElement("S", terms)


def element_from_json_dict(data):
    cls = {"nsym": NSymElement, "qsym": QSymElement, "tensor": TensorElement}.get(data["side"])
    if cls is None:
        raise ValueError(f"unknown side {data['side']!r}")
    index = (lambda i: tuple(map(tuple, i))) if cls is TensorElement else tuple
    return cls(data["basis"], {index(t["index"]): int(t["coeff"]) for t in data["terms"]})
