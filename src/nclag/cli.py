"""Command-line front end: expansions, conversions, coproducts,
enumerations and cross-route verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
All output is deterministic; ``--json`` switches to the JSON schemas of
the owning modules.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import (
    algebra,
    compositions as comps,
    factorization,
    hopf,
    incidence,
    lagrange,
    noncrossing,
    parking,
    verify,
)
from .cache import cached


def _comp_arg(text):
    try:
        return comps.from_text(text)
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(str(e))


def _word_arg(text):
    try:
        return comps.parse_parts(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a word: {text!r}") from None


def _emit(args, payload, text):
    """Print the JSON payload or the text, each from a zero-argument
    builder: only the output asked for is built (for an element, each of
    the two sorts its terms)."""
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        print(text())


# ---------------------------------------------------------------------------
# Subcommands


def _check_k_analogue(k, n):
    """Refuse k * n above 400 times the bound: the k-analogue solve keeps a
    memo of power components that grows linearly in k * n (a peak RSS of
    about 51 MB at k = 400, n = 10, and 108 MB at k = 1000)."""
    limit = 400 * lagrange.max_degree()
    if k * n > limit:
        raise ValueError(
            f"k * degree = {k * n} exceeds {limit}, 400 times the table bound "
            "(raise NCLAG_MAX_DEGREE to extend)"
        )


def cmd_expand(args):
    n = args.degree
    if args.k is not None and args.series != "gk":
        raise ValueError("--k applies to --series gk only")
    k = 2 if args.k is None else args.k
    # 2^(n-1) terms: bounded here, while the library stays unbounded
    lagrange._check_bound(n)
    if args.series == "gk":
        _check_k_analogue(k, n)
    if args.series == "g":
        x = lagrange.g_component(n)
    elif args.series == "gk":
        x = lagrange.gk_component(k, n)
    elif args.series == "gneg":
        x = algebra.convert(lagrange.g_neg(n), "S")
    elif args.series == "antipode":
        x = algebra.convert(lagrange.antipode_g(n), "S")
    elif args.series == "cumulant":
        x = lagrange.free_cumulants(n).component(n)
    else:
        raise AssertionError(args.series)
    x = algebra.convert(x, args.basis)
    _emit(args, x.to_json_dict, x.__repr__)
    return 0


def cmd_convert(args):
    x = algebra.NSymElement.monomial(args.basis_from, args.index)
    y = algebra.convert(x, args.basis_to)
    _emit(args, y.to_json_dict, y.__repr__)
    return 0


def cmd_coproduct(args):
    if args.route is not None and args.degree is None:
        raise ValueError("--route applies to --degree only")
    if args.word is not None:
        # 2^n splits for n distinct letters, each parkized in one pass
        lagrange._check_bound(len(args.word))
        cp = hopf.coproduct_P(args.word)
        items = sorted(cp.items())
        _emit(
            args,
            lambda: [
                {"left": list(u), "right": list(v), "coeff": c}
                for (u, v), c in items
            ],
            lambda: "\n".join(
                f"{c} * P[{','.join(map(str, u))}] (x) P[{','.join(map(str, v))}]"
                for (u, v), c in items
            ),
        )
        return 0
    if args.index is not None:
        t = hopf.delta_g_monomial(args.index)
    else:
        # the algebraic route meets this bound in its G-basis tables; the
        # others are checked too, so no route answers what another refuses
        lagrange._check_bound(args.degree)
        routes = {
            "algebraic": hopf.delta_g_algebraic,
            "biprofiles": hopf.delta_g_biprofiles,
            "noncrossing": hopf.delta_g_noncrossing,
        }
        t = routes[args.route or "algebraic"](args.degree)
    _emit(args, t.to_json_dict, t.__repr__)
    return 0


def cmd_antipode(args):
    if args.index is not None:
        basis = args.basis or "S"
        x = algebra.NSymElement.monomial(basis, args.index)
        y = algebra.convert(algebra.antipode(x), basis)
    elif args.basis is not None:
        raise ValueError(
            "--basis applies to --index only "
            "(expand --series antipode --basis B expands the antipode of g_n)"
        )
    else:
        y = lagrange.antipode_g(args.degree)
    _emit(args, y.to_json_dict, y.__repr__)
    return 0


def _check_ndpf_count(n, k):
    """Refuse more nondecreasing k-parking functions than Catalan(bound)
    words: their Fuss-Catalan count grows with k as well as with n."""
    if n < 0 or k < 1:
        return  # the enumeration rejects these itself
    limit = lagrange.max_degree()
    count = math.comb((k + 1) * n, n) // (k * n + 1)
    cap = math.comb(2 * limit, limit) // (limit + 1)
    if count > cap:
        raise ValueError(
            f"{count} words of length {n} for k={k} exceed Catalan({limit}) = {cap} "
            "(raise NCLAG_MAX_DEGREE to extend)"
        )


def cmd_enumerate(args):
    n = args.n
    if args.k is not None and args.what != "ndpf":
        raise ValueError("--k applies to --what ndpf only")
    k = 1 if args.k is None else args.k
    # Catalan or 2^(n-1) items (`compatible` tries all pairs of
    # compositions): bounded here, while the library stays unbounded
    lagrange._check_bound(n)
    if args.what == "ndpf":
        _check_ndpf_count(n, k)
    # items() builds the JSON items and lines() the text lines: only the
    # form asked for is built
    if args.what == "compositions":
        cs = comps.all_compositions(n)
        items = lambda: [list(c) for c in cs]
        lines = lambda: map(comps.to_text, cs)
    elif args.what == "ndpf":
        words = parking.enumerate_k_ndpf(n, k)
        items = lambda: [list(w) for w in words]
        lines = lambda: map(comps.to_text, words)
    elif args.what == "nc":
        ps = noncrossing.enumerate_nc(n)
        items = lambda: [[list(b) for b in p.blocks] for p in ps]
        lines = lambda: map(noncrossing.to_text, ps)
    elif args.what == "trees":
        ts = noncrossing.enumerate_trees(n)
        items = lines = lambda: [_tree_text(t) for t in ts]
    elif args.what == "compatible":
        pairs = parking.enumerate_compatible_pairs(n)
        items = lambda: [[list(i), list(j)] for i, j in pairs]
        lines = lambda: (f"{comps.to_text(i)} | {comps.to_text(j)}" for i, j in pairs)
    else:
        raise AssertionError(args.what)
    _emit(
        args,
        lambda: {"what": args.what, "n": n, "items": items()},
        lambda: "\n".join(lines()),
    )
    return 0


def cmd_profile(args):
    if args.encode is not None and args.encode > _MAX_ENCODE:
        raise ValueError(f"--encode {args.encode} exceeds {_MAX_ENCODE}")
    s, c = parking.profile(args.word)
    payload = {"starts": list(s), "lengths": list(c)}
    text = f"starts {list(s)} lengths {list(c)}"
    if args.encode is not None:
        image = parking.c_map((s, c), args.encode)
        payload["composition"] = list(image)
        text += f" -> {comps.to_text(image)}"
    _emit(args, lambda: payload, lambda: text)
    return 0


def cmd_compatible(args):
    js = parking.compatible_with(args.index)
    _emit(
        args,
        lambda: {"index": list(args.index), "compatible": [list(j) for j in js], "count": len(js)},
        lambda: "\n".join(map(comps.to_text, js)),
    )
    return 0


def cmd_biprofiles(args):
    # Catalan(n + 1) biprofiles: bounded here, while the library stays unbounded
    lagrange._check_bound(args.n + 1)
    bps = parking.enumerate_parking_biprofiles(args.n)
    # each distinct profile is encoded once, as a composition of n + 1, and
    # written once in the output asked for
    codes = {p: parking.c_map(p, args.n + 1) for p in {p for pair in bps for p in pair}}
    if args.json:
        # spliced in the key order and separators of json.dumps(...,
        # sort_keys=True), so the bytes are those of the dumped payload
        encoded = {p: (json.dumps(p), json.dumps(i)) for p, i in codes.items()}
        items = ", ".join(
            f'{{"compositions": [{encoded[left][1]}, {encoded[right][1]}], '
            f'"left": {encoded[left][0]}, "right": {encoded[right][0]}}}'
            for left, right in bps
        )
        print(f'{{"count": {len(bps)}, "items": [{items}], "n": {args.n}}}')
    else:
        words = {p: (str(p), comps.to_text(i)) for p, i in codes.items()}
        print(
            "\n".join(
                f"{words[left][0]} {words[right][0]} -> {words[left][1]} | {words[right][1]}"
                for left, right in bps
            )
        )
    return 0


def cmd_kreweras(args):
    p = noncrossing.from_text(args.partition)
    k = noncrossing.kreweras(p)
    _emit(
        args,
        lambda: {"input": [list(b) for b in p.blocks], "complement": [list(b) for b in k.blocks]},
        lambda: noncrossing.to_text(k),
    )
    return 0


# `tree rebuild --trace` copies and prints the whole tree at every step, so
# its output grows quadratically in the node count: a constant, which
# NCLAG_MAX_DEGREE does not raise
_MAX_TREE_NODES = 200

# `profile --encode N` prints a composition of N, so its output grows
# linearly in N whatever the word: a constant as well
_MAX_ENCODE = 10_000

# `incidence values --power k` and `incidence multichains --k k` print
# values whose digits grow as the degree times log k, after log k
# convolutions: a constant too, at which both answer in about 0.02 s at
# degree 10
_MAX_POWER = 1_000_000


def _check_power(option, k):
    if k > _MAX_POWER:
        raise ValueError(f"{option} {k} exceeds {_MAX_POWER}")


def _tree_text(t):
    """A tree's text form: the empty tree (no nodes) is None, whose text
    form is empty."""
    return "" if t is None else repr(t)


def cmd_tree(args):
    size = max(sum(args.left), sum(args.right))
    if size > _MAX_TREE_NODES:
        raise ValueError(f"{size} tree nodes exceed {_MAX_TREE_NODES}")
    if args.action == "rebuild":
        trace = [] if args.trace else None
        try:
            t = noncrossing.rebuild_tree(args.left, args.right, trace=trace)
        except noncrossing.RebuildFailure as e:
            _emit(
                args,
                lambda: {"ok": False, "step": e.step, "message": str(e)},
                lambda: f"rebuild failed at step {e.step}: {e}",
            )
            return 1
        i, j = noncrossing.tau(t)
        payload = {
            "ok": True,
            "tree": _tree_text(t),
            "left": list(i),
            "right": list(j),
        }
        lines = [_tree_text(t)]
        if args.trace:
            payload["trace"] = [[label, repr(tree)] for label, tree in trace]
            lines.extend(str(step) for step in trace)
        _emit(args, lambda: payload, lambda: "\n".join(lines))
        return 0
    if args.action == "tau":
        t = noncrossing.rebuild_tree(args.left, args.right)
        pl, pr = noncrossing.tree_phi(t)
        payload = {
            "left_partition": [list(b) for b in pl.blocks],
            "right_partition": [list(b) for b in pr.blocks],
        }
        text = f"{noncrossing.to_text(pl)}  ||  {noncrossing.to_text(pr)}"
        _emit(args, lambda: payload, lambda: text)
        return 0
    raise AssertionError(args.action)


def cmd_motzkin(args):
    if args.path is not None:
        w = noncrossing.path_to_word(args.path)
        payload = {"path": args.path, "word": list(w)}
        text = comps.to_text(w)
    else:
        w = args.word
        if noncrossing.is_s_word(w):
            w = noncrossing.s_to_sprime(w)
        path = noncrossing.word_to_path(w)
        payload = {"word": list(args.word), "path": path}
        text = path
    _emit(args, lambda: payload, lambda: text)
    return 0


def cmd_factorize(args):
    facs = factorization.canonical_factorizations(
        args.index, args.left, args.right
    )
    count = len(facs)
    payload = {
        "index": list(args.index),
        "left": list(args.left),
        "right": list(args.right),
        "count": count,
    }
    if args.list:
        payload["factorizations"] = [[list(a), list(b)] for a, b in facs]
        text = "\n".join(f"{a} * {b}" for a, b in payload["factorizations"])
        text = f"{count}\n{text}" if text else str(count)
    else:
        text = str(count)
    _emit(args, lambda: payload, lambda: text)
    return 0


def cmd_incidence(args):
    if args.action == "values":
        _check_power("--power", args.power)
        lagrange._check_bound(args.degree)
        base = {
            "zeta": incidence.zeta,
            "mobius": incidence.mobius,
            "identity": incidence.identity_character,
        }[args.function](args.degree)
        phi = incidence.power(base, args.power)
        vals = incidence.g_values(phi)
        payload = {
            "function": args.function,
            "power": args.power,
            "hat": [str(x) for x in phi.hat],
            "values": [str(v) for v in vals],
        }
        text = " ".join(str(v) for v in vals)
    elif args.action == "multichains":
        _check_power("--k", args.k)
        lagrange._check_bound(args.n)
        c = incidence.multichain_count(args.n, args.k)
        payload = {"n": args.n, "k": args.k, "count": c}
        text = str(c)
    elif args.action == "chains":
        c = incidence.chain_count(args.n, args.jumps)
        payload = {"n": args.n, "jumps": list(args.jumps), "count": c}
        text = str(c)
    elif args.action == "biane":
        c = incidence.biane_count(args.n, args.orders)
        payload = {"n": args.n, "orders": list(args.orders), "count": c}
        text = str(c)
    elif args.action == "mobius-number":
        lat = incidence.lattice_oracle(args.n)
        c = lat.mobius(lat.bottom, lat.top)
        payload = {"n": args.n, "mobius": c}
        text = str(c)
    else:
        raise AssertionError(args.action)
    _emit(args, lambda: payload, lambda: text)
    return 0


SUITES = verify.SUITES  # verify's own dict; cmd_verify reads this name per call


def cmd_verify(args):
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    lagrange._check_bound(args.max_n)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    failed = 0
    for name in names:
        t0 = last = time.monotonic()
        cases = []
        # a case's time runs from the previous yield (or the suite's start)
        for label, ok, witness in verify.cases(SUITES[name], args.max_n):
            now = time.monotonic()
            cases.append(
                {
                    "case": label,
                    "ok": bool(ok),
                    "witness": witness,
                    "seconds": round(now - last, 6),
                }
            )
            last = now
            if not ok:
                failed += 1
        reports.append(
            {
                "suite": name,
                "max_n": args.max_n,
                "cases": cases,
                "seconds": round(time.monotonic() - t0, 6),
            }
        )
    if args.json:
        print(json.dumps({"reports": reports, "failed": failed}, sort_keys=True, default=str))
    else:
        for rep in reports:
            print(f"suite {rep['suite']} (max n {rep['max_n']}, {round(rep['seconds'], 3)}s)")
            for case in rep["cases"]:
                mark = "ok  " if case["ok"] else "FAIL"
                print(f"  {mark} {case['case']}")
                if not case["ok"]:
                    print(f"       witness: {case['witness']}", file=sys.stderr)
        print(f"{failed} failures" if failed else "all checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="nclag",
        description="Lagrange inversion in noncommutative symmetric functions",
    )
    p.add_argument("--json", action="store_true", help="emit JSON payloads")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("expand", help="expand a series component on a basis")
    q.add_argument(
        "--series",
        choices=("g", "gk", "gneg", "antipode", "cumulant"),
        default="g",
    )
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--k", type=int, help="parameter for --series gk, default 2")
    q.add_argument("--basis", choices=algebra.NSYM_BASES, default="S")

    q = sub.add_parser("convert", help="convert a basis monomial")
    q.add_argument("--from", dest="basis_from", required=True, choices=algebra.NSYM_BASES)
    q.add_argument("--to", dest="basis_to", required=True, choices=algebra.NSYM_BASES)
    q.add_argument("--index", type=_comp_arg, required=True)

    q = sub.add_parser("coproduct", help="coproduct of g_n, G^I or a P-word")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--degree", type=int)
    g.add_argument("--index", type=_comp_arg)
    g.add_argument("--word", type=_word_arg)
    q.add_argument(
        "--route",
        choices=("algebraic", "biprofiles", "noncrossing"),
        help="route for --degree, default algebraic",
    )

    q = sub.add_parser("antipode", help="antipode of g_n or of a monomial")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--degree", type=int)
    g.add_argument("--index", type=_comp_arg)
    q.add_argument("--basis", choices=algebra.NSYM_BASES, help="basis of --index, default S")

    q = sub.add_parser("enumerate", help="list combinatorial families")
    q.add_argument(
        "--what",
        choices=("compositions", "ndpf", "nc", "trees", "compatible"),
        required=True,
    )
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, help="parameter for --what ndpf, default 1")

    q = sub.add_parser("profile", help="profile of a nondecreasing word")
    q.add_argument("--word", type=_word_arg, required=True)
    q.add_argument("--encode", type=int, help="encode as a composition of N")

    q = sub.add_parser("compatible", help="compositions compatible with I")
    q.add_argument("--index", type=_comp_arg, required=True)

    q = sub.add_parser("biprofiles", help="parking biprofiles of size n")
    q.add_argument("--n", type=int, required=True)

    q = sub.add_parser("kreweras", help="Kreweras complement")
    q.add_argument("--partition", required=True, help='e.g. "157|234|6|89"')

    q = sub.add_parser("tree", help="binary tree reconstruction")
    actions = q.add_subparsers(dest="action", required=True)
    rebuild, tau = actions.add_parser("rebuild"), actions.add_parser("tau")
    for a in (rebuild, tau):
        a.add_argument("--left", type=_comp_arg, required=True)
        a.add_argument("--right", type=_comp_arg, required=True)
    rebuild.add_argument("--trace", action="store_true")

    q = sub.add_parser("motzkin", help="Motzkin path codec")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--word", type=_word_arg)
    g.add_argument("--path", help="string over U, D, H")

    q = sub.add_parser("factorize", help="count minimal factorizations")
    q.add_argument("--index", type=_comp_arg, required=True)
    q.add_argument("--left", type=_comp_arg, required=True)
    q.add_argument("--right", type=_comp_arg, required=True)
    q.add_argument("--list", action="store_true")

    q = sub.add_parser("incidence", help="incidence-algebra computations")
    actions = q.add_subparsers(dest="action", required=True)
    a = actions.add_parser("values")
    default = "default %(default)s"
    a.add_argument("--function", choices=("zeta", "mobius", "identity"), default="zeta", help=default)
    a.add_argument("--power", type=int, default=1, help=default)
    a.add_argument("--degree", type=int, default=6, help=default)
    a = actions.add_parser("multichains")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a = actions.add_parser("chains")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--jumps", type=_comp_arg, required=True)
    a = actions.add_parser("biane")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--orders", type=_comp_arg, required=True)
    a = actions.add_parser("mobius-number")
    a.add_argument("--n", type=int, required=True)

    q = sub.add_parser("verify", help="run cross-route verification suites")
    q.add_argument("--suite", choices=["all"] + sorted(SUITES), required=True)
    q.add_argument("--max-n", type=int, default=5)

    return p


@cached
def _shared_parser():
    """The parser every ``main`` call of this process uses, built on the
    first call and not at import: building one costs about as much as a
    median query, and parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        # every answer about a composition grows exponentially with its
        # weight: bounded here, while the library stays unbounded
        if getattr(args, "index", None) is not None:
            lagrange._check_bound(comps.weight(args.index))
        # looked up per call, so that a cmd_* replaced after the parser was
        # built (by a test or a tracer) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
