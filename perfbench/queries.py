"""Seeded stream of small ``nclag --json`` queries and the checks that
re-derive each answer by a second route or an invariant.

The generator calls only ``nclag`` functions that keep no cache (trees,
``tau``, ``is_noncrossing``, ``all_compositions``), so making the inputs
warms none of the program's caches.  The checks run after the timed loop.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

from nclag import (
    algebra,
    compositions,
    factorization,
    hopf,
    incidence,
    lagrange,
    noncrossing,
    parking,
)

NSYM = ("S", "L", "R", "G", "F")

# The kinds of query: one per subcommand, or per action or input form of a
# subcommand.  No record of real use exists, so every kind has the same
# share of the stream.
KINDS = (
    "expand",
    "convert",
    "coproduct-route",
    "coproduct-word",
    "coproduct-index",
    "antipode-degree",
    "antipode-index",
    "enumerate",
    "profile",
    "compatible",
    "biprofiles",
    "kreweras",
    "tree-rebuild",
    "motzkin",
    "factorize",
    "incidence-values",
    "incidence-chains",
    "incidence-multichains",
    "incidence-biane",
    "incidence-mobius-number",
)

# One query in this many re-issues an earlier query of the same kind.
REPEAT_EVERY = 4


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _text(parts):
    return "".join(map(str, parts))


def _composition(rng, n):
    cuts = [d for d in range(1, n) if rng.random() < 0.5]
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _ndpf(rng, n):
    """A nondecreasing parking function of length n."""
    w = []
    for i in range(1, n + 1):
        w.append(rng.randint(w[-1] if w else 1, i))
    return tuple(w)


def _nc_partition(rng, n):
    while True:
        labels = []
        for i in range(n):
            labels.append(rng.randint(0, max(labels, default=-1) + 1))
        blocks = [
            [i + 1 for i in range(n) if labels[i] == b] for b in range(max(labels) + 1)
        ]
        if noncrossing.is_noncrossing(blocks):
            return blocks


def _tree(rng, n):
    """A binary tree with n nodes."""
    if n == 0:
        return None
    k = rng.randrange(n)
    return noncrossing.BinaryTree(_tree(rng, k), _tree(rng, n - 1 - k))


def _motzkin_path(rng, n):
    steps, height = [], 0
    for left in range(n, 0, -1):
        moves = ["H"]
        if height + 1 <= left - 1:
            moves.append("U")
        if height > 0:
            moves.append("D")
        if height == left:
            moves = ["D"]
        step = rng.choice(moves)
        height += {"U": 1, "D": -1, "H": 0}[step]
        steps.append(step)
    return "".join(steps)


def _nondecreasing_word(rng, n):
    return tuple(sorted(rng.randint(1, 9) for _ in range(n)))


class _Balanced:
    """Draws that deal every value of a list once before any value again
    (reshuffling the deck each time).  Each kind of query draws all the
    parameters that set its cost as one tuple, so every stream holds nearly
    the same multiset of costly queries whatever the seed; the seed changes
    their order, the shapes of the inputs and which queries repeat."""

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def pick(self, key, values):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(values)
            self.rng.shuffle(deck)
        return deck.pop()


def _upto(a, b):
    return range(a, b + 1)


def _make(kind, draw, rng, smoke):
    """One query: (argv after --json, input facts the check needs)."""
    top = 5 if smoke else 8
    small = 4 if smoke else 6

    def pick(*grid):
        return draw(kind, list(product(*grid)))

    if kind == "expand":
        series, k, d, basis = draw(kind, [
            (series, k, d, basis)
            for series, k, degrees in (
                ("g", 1, top), ("gk", 2, small), ("gk", 3, small),
                ("gneg", 1, top), ("antipode", 1, top), ("cumulant", 1, top),
            )
            for d in _upto(1, degrees)
            for basis in NSYM
        ])
        argv = ["expand", "--series", series, "--degree", str(d), "--basis", basis]
        return argv + (["--k", str(k)] if series == "gk" else []), {}
    if kind == "convert":
        a, b, w = draw(kind, [
            (a, b, w) for a in NSYM for b in NSYM if a != b for w in _upto(1, top)
        ])
        i = _composition(rng, w)
        return ["convert", "--from", a, "--to", b, "--index", _text(i)], {}
    if kind == "coproduct-route":
        route, d = draw(kind, [("algebraic", d) for d in _upto(1, top)] + [
            (r, d) for r in ("biprofiles", "noncrossing") for d in _upto(1, small)
        ])
        return ["coproduct", "--degree", str(d), "--route", route], {}
    if kind == "coproduct-word":
        (n,) = pick(_upto(1, 7))
        return ["coproduct", "--word", _text(_ndpf(rng, n))], {}
    if kind == "coproduct-index":
        (w,) = pick(_upto(1, small))
        return ["coproduct", "--index", _text(_composition(rng, w))], {}
    if kind == "antipode-degree":
        (d,) = pick(_upto(1, top))
        return ["antipode", "--degree", str(d)], {}
    if kind == "antipode-index":
        w, basis = pick(_upto(1, 7), ("S", "L", "R", "G"))
        return ["antipode", "--index", _text(_composition(rng, w)), "--basis", basis], {}
    if kind == "enumerate":
        what, k, n = draw(kind, [
            (what, k, n)
            for what, ks in (
                ("compositions", (1,)), ("ndpf", (1, 2)), ("nc", (1,)),
                ("trees", (1,)), ("compatible", (1,)),
            )
            for k in ks
            for n in _upto(1, 7)
        ])
        argv = ["enumerate", "--what", what, "--n", str(n)]
        return argv + (["--k", str(k)] if what == "ndpf" else []), {}
    if kind == "profile":
        (n,) = pick(_upto(1, 7))
        w = _nondecreasing_word(rng, n)
        return ["profile", "--word", _text(w), "--encode", str(w[-1] + len(w) + rng.randint(0, 1))], {}
    if kind == "compatible":
        (w,) = pick(_upto(1, top))
        return ["compatible", "--index", _text(_composition(rng, w))], {}
    if kind == "biprofiles":
        (n,) = pick(_upto(1, small))
        return ["biprofiles", "--n", str(n)], {}
    if kind == "kreweras":
        (n,) = pick(_upto(1, top))
        return ["kreweras", "--partition", "|".join(_text(b) for b in _nc_partition(rng, n))], {}
    if kind == "tree-rebuild":
        (n,) = pick(_upto(1, 7))
        t = _tree(rng, n)
        left, right = noncrossing.tau(t)
        return ["tree", "rebuild", "--left", _text(left), "--right", _text(right)], {
            "tree": repr(t)
        }
    if kind == "motzkin":
        (n,) = pick(_upto(1, 10))
        return ["motzkin", "--path", _motzkin_path(rng, n)], {}
    if kind == "factorize":
        # ambient group S_m with m = |I| + l(I) <= 7
        (i,) = pick([c for w in _upto(2, 5) for c in compositions.all_compositions(w) if w + len(c) <= 7])
        a = rng.randint(1, sum(i) - 1)
        j, k = _composition(rng, a), _composition(rng, sum(i) - a)
        return ["factorize", "--index", _text(i), "--left", _text(j), "--right", _text(k)], {}
    if kind == "incidence-values":
        function, power, d = pick(("zeta", "mobius", "identity"), _upto(1, 4), _upto(1, top))
        return ["incidence", "values", "--function", function, "--power", str(power),
                "--degree", str(d)], {}
    if kind == "incidence-chains":
        (m,) = pick(_upto(2, small))
        return ["incidence", "chains", "--n", str(m), "--jumps", _text(_composition(rng, m - 1))], {}
    if kind == "incidence-multichains":
        n, k = pick(_upto(1, small), _upto(1, 3))
        return ["incidence", "multichains", "--n", str(n), "--k", str(k)], {}
    if kind == "incidence-biane":
        n, a = draw(kind, [(n, a) for n in _upto(3, 7) for a in _upto(2, n - 1)])
        return ["incidence", "biane", "--n", str(n), "--orders", f"{a},{n + 1 - a}"], {}
    if kind == "incidence-mobius-number":
        (n,) = pick(_upto(1, 5))
        return ["incidence", "mobius-number", "--n", str(n)], {}
    raise ValueError(kind)


def make_stream(seed, n_ops, smoke=False):
    """The query stream for one seed: a list of (kind, argv, facts)."""
    rng = random.Random(seed)
    draw = _Balanced(rng).pick
    kinds = [KINDS[i % len(KINDS)] for i in range(n_ops)]
    rng.shuffle(kinds)
    issued = {k: [] for k in KINDS}
    stream = []
    for kind in kinds:
        repeat = draw(kind + " repeat", (True,) + (False,) * (REPEAT_EVERY - 1))
        if issued[kind] and repeat:
            query = rng.choice(issued[kind])
        else:
            query = _make(kind, draw, rng, smoke)
            issued[kind].append(query)
        stream.append((kind,) + query)
    return stream


def stream_stats(stream):
    seen = set()
    repeats = 0
    for _, argv, _ in stream:
        key = tuple(argv)
        repeats += key in seen
        seen.add(key)
    return {
        "mix": dict(sorted(Counter(kind for kind, _, _ in stream).items())),
        "repeat_share": repeats / len(stream),
    }


# ---------------------------------------------------------------------------
# Checks (run after the timed loop)


# A coefficient printed as a decimal fraction, such as "-1.0".
_DECIMAL_COEFF = re.compile(r'"coeff": "-?[0-9]+\.[0-9]*"')


def has_decimal_coefficients(out):
    """Whether an answer prints a coefficient in decimal notation; the value
    is still checked exactly, this only makes the format visible."""
    return _DECIMAL_COEFF.search(out) is not None


def _coeff(text):
    """The exact integer a printed coefficient stands for."""
    value = Fraction(text)
    if value.denominator != 1:
        raise ValueError(f"coefficient {text} is not an integer")
    return int(value)


def _element(payload):
    return algebra.NSymElement(
        payload["basis"],
        {tuple(t["index"]): _coeff(t["coeff"]) for t in payload["terms"]},
    )


def _tensor(payload):
    return algebra.TensorElement(
        tuple(payload["basis"]),
        {
            (tuple(t["index"][0]), tuple(t["index"][1])): _coeff(t["coeff"])
            for t in payload["terms"]
        },
    )


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _comp(text):
    return tuple(int(x) for x in (text.split(",") if "," in text else text))


def check(kind, argv, facts, payload):
    """Whether the answer of one query holds up under a second route."""
    if kind == "expand":
        series, d = _opt(argv, "--series"), int(_opt(argv, "--degree"))
        x = _element(payload)
        if series == "g":
            s = algebra.convert(x, "S")
            return len(s.terms) == 2 ** (d - 1) and sum(s.terms.values()) == catalan(d)
        if series == "gk":
            k = int(_opt(argv, "--k"))
            tally = Counter(parking.type_of(w) for w in parking.enumerate_k_ndpf(d, k))
            return algebra.convert(x, "S") == algebra.NSymElement("S", tally)
        if series == "gneg":
            return algebra.convert(x, "G") == lagrange.g_neg_via_counting(d)
        if series == "antipode":
            return algebra.convert(x, "G") == lagrange.antipode_g_formula(d)
        if series == "cumulant":
            return algebra.convert(x, "S").terms == lagrange.s_generator_on_g(d).terms
    if kind == "convert":
        source = algebra.NSymElement.monomial(_opt(argv, "--from"), _comp(_opt(argv, "--index")))
        return algebra.convert(_element(payload), source.basis) == source
    if kind == "coproduct-route":
        d, route = int(_opt(argv, "--degree")), _opt(argv, "--route")
        other = hopf.delta_g_biprofiles(d) if route == "algebraic" else hopf.delta_g_algebraic(d)
        return _tensor(payload) == other
    if kind == "coproduct-word":
        w = _comp(_opt(argv, "--word"))
        splits = math.prod(c + 1 for c in Counter(w).values())
        return sum(t["coeff"] for t in payload) == splits and all(
            len(t["left"]) + len(t["right"]) == len(w)
            and parking.is_parking(t["left"])
            and parking.is_parking(t["right"])
            for t in payload
        )
    if kind == "coproduct-index":
        out = algebra.TensorElement.one(("G", "G"))
        for p in _comp(_opt(argv, "--index")):
            out = out * hopf.delta_g_noncrossing(p)
        return _tensor(payload) == out
    if kind == "antipode-degree":
        return _element(payload) == lagrange.antipode_g_formula(int(_opt(argv, "--degree")))
    if kind == "antipode-index":
        basis = _opt(argv, "--basis")
        twice = algebra.convert(algebra.antipode(_element(payload)), basis)
        return twice == algebra.NSymElement.monomial(basis, _comp(_opt(argv, "--index")))
    if kind == "enumerate":
        what, n = _opt(argv, "--what"), int(_opt(argv, "--n"))
        items = payload["items"]
        if what == "compositions":
            want = 2 ** (n - 1)
        elif what == "ndpf":
            k = int(_opt(argv, "--k"))
            want = math.comb((k + 1) * n, n) // (k * n + 1)
        else:
            want = catalan(n)
        return len(items) == want and len({json.dumps(i) for i in items}) == want
    if kind == "profile":
        w = _comp(_opt(argv, "--word"))
        p = (tuple(payload["starts"]), tuple(payload["lengths"]))
        return (
            sum(p[1]) == len(w)
            and parking.is_profile(p)
            and parking.c_inverse(tuple(payload["composition"])) == p
        )
    if kind == "compatible":
        i = _comp(_opt(argv, "--index"))
        brute = {j for j in compositions.all_compositions(sum(i)) if parking.is_compatible(i, j)}
        got = {tuple(j) for j in payload["compatible"]}
        return got == brute and payload["count"] == len(brute)
    if kind == "biprofiles":
        n = int(_opt(argv, "--n"))
        return payload["count"] == catalan(n + 1) and all(
            parking.is_compatible(tuple(it["compositions"][0]), tuple(it["compositions"][1]))
            for it in payload["items"]
        )
    if kind == "kreweras":
        p, k = payload["input"], payload["complement"]
        n = sum(len(b) for b in p)
        # the constructor rejects a complement that is not a noncrossing
        # partition of 1..n
        noncrossing.NoncrossingPartition(n, k)
        return len(p) + len(k) == n + 1
    if kind == "tree-rebuild":
        return (
            payload["ok"]
            and payload["tree"] == facts["tree"]
            and payload["left"] == list(_comp(_opt(argv, "--left")))
            and payload["right"] == list(_comp(_opt(argv, "--right")))
        )
    if kind == "motzkin":
        return noncrossing.word_to_path(tuple(payload["word"])) == _opt(argv, "--path")
    if kind == "factorize":
        i, j, k = (_comp(_opt(argv, f)) for f in ("--index", "--left", "--right"))
        return payload["count"] == hopf.delta_g_monomial(i).coeff(j, k)
    if kind == "incidence-values":
        hat = [Fraction(x) for x in payload["hat"]]
        values = [Fraction(x) for x in payload["values"]]
        ok = incidence.from_g_values(values).hat == hat
        if _opt(argv, "--function") == "zeta":
            power = int(_opt(argv, "--power"))
            ok = ok and all(v == incidence.zeta_power_value(power, n) for n, v in enumerate(values))
        return ok
    if kind == "incidence-chains":
        m, s = int(_opt(argv, "--n")), _comp(_opt(argv, "--jumps"))
        return payload["count"] == incidence.lattice_oracle(m).count_chains(s)
    if kind == "incidence-multichains":
        n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
        return payload["count"] == incidence.zeta_power_value(k + 1, n)
    if kind == "incidence-biane":
        n = int(_opt(argv, "--n"))
        a, b = _comp(_opt(argv, "--orders"))
        count = factorization.count_minimal_factorizations((n - 1,), (a - 1,), (b - 1,))
        return payload["count"] == count == n
    if kind == "incidence-mobius-number":
        n = int(_opt(argv, "--n"))
        return payload["mobius"] == (-1) ** (n - 1) * catalan(n - 1)
    raise ValueError(kind)
