import argparse
import ast
import functools
import json
import numbers
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nclag import algebra, cli, compositions as comps, hopf, lagrange, noncrossing, parking, verify

from test_parking import all_pairs_of_profiles, is_parking_biprofile


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_cubic(capsys):
    code, out, _ = run(capsys, "expand", "--series", "g", "--degree", "3")
    assert code == 0
    assert out.strip() == "S[3] + 2*S[2,1] + S[1,2] + S[1,1,1]"


def test_expand_degree_zero(capsys):
    code, out, _ = run(capsys, "expand", "--series", "g", "--degree", "0")
    assert code == 0
    assert out.strip() == "1"


def test_expand_k_analogue(capsys):
    code, out, _ = run(
        capsys, "expand", "--series", "gk", "--k", "2", "--degree", "3"
    )
    assert code == 0
    assert out.strip() == "S[3] + 4*S[2,1] + 2*S[1,2] + 5*S[1,1,1]"


def test_expand_k_analogue_at_large_k(capsys, monkeypatch):
    # the solver's recursion descends in degree only, whatever k is; a fresh
    # memo of the shared series solves k = 400 from nothing
    monkeypatch.setattr(lagrange, "_series", functools.lru_cache(lagrange._series.__wrapped__))
    code, out, _ = run(
        capsys, "expand", "--series", "gk", "--k", "400", "--degree", "10"
    )
    assert code == 0
    assert out.startswith("S[10] + ")


def test_expand_json_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "expand", "--series", "g", "--degree", "2")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "S"
    assert {tuple(t["index"]): t["coeff"] for t in data["terms"]} == {
        (2,): "1",
        (1, 1): "1",
    }


def test_convert(capsys):
    code, out, _ = run(capsys, "convert", "--from", "G", "--to", "S", "--index", "21")
    assert code == 0
    assert out.strip() == "S[2,1] + S[1,1,1]"


def test_antipode_of_g_n_refuses_a_basis(capsys):
    # `expand --series antipode --basis B` gives the antipode of g_n on B
    code, out, err = outcome(capsys, ["antipode", "--degree", "2", "--basis", "L"])
    assert (code, out) == (2, "")
    assert "--basis" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["expand", "--series", "g", "--k", "3", "--degree", "2"], "--k"),
        (["enumerate", "--what", "nc", "--n", "3", "--k", "2"], "--k"),
        (["coproduct", "--index", "21", "--route", "noncrossing"], "--route"),
        (["coproduct", "--word", "112", "--route", "algebraic"], "--route"),
    ],
    ids=lambda x: "-".join(x) if isinstance(x, list) else x,
)
def test_an_option_the_choice_does_not_read_is_refused(capsys, argv, option):
    # only `expand --series gk` reads --k, only `enumerate --what ndpf`
    # does, and only `coproduct --degree` reads --route
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert option in err


@pytest.mark.parametrize(
    "bare, explicit",
    [
        (["expand", "--series", "gk", "--degree", "3"], ["--k", "2"]),
        (["enumerate", "--what", "ndpf", "--n", "4"], ["--k", "1"]),
        (["coproduct", "--degree", "3"], ["--route", "algebraic"]),
    ],
    ids=lambda x: "-".join(x),
)
def test_an_option_left_out_takes_its_default(capsys, bare, explicit):
    assert outcome(capsys, bare) == outcome(capsys, bare + explicit)


def test_antipode(capsys):
    code, out, _ = run(capsys, "antipode", "--degree", "3")
    assert code == 0
    assert out.strip() == "-G[3] + 4*G[2,1] + 4*G[1,2] - 12*G[1,1,1]"


def test_coproduct_routes_identical_output(capsys):
    outs = []
    for route in ("algebraic", "biprofiles", "noncrossing"):
        code, out, _ = run(
            capsys, "coproduct", "--degree", "4", "--route", route
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_enumerate_compatible(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "compatible", "--n", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_profile(capsys):
    code, out, _ = run(capsys, "profile", "--word", "2336799")
    assert code == 0
    assert "starts [2, 6, 9]" in out
    assert "lengths [3, 2, 2]" in out


def test_compatible_of_the_empty_index_agrees_with_the_enumeration(capsys):
    code, out, _ = run(capsys, "--json", "compatible", "--index", "")
    assert code == 0
    assert json.loads(out) == {"index": [], "compatible": [], "count": 0}
    code, out, _ = run(capsys, "--json", "enumerate", "--what", "compatible", "--n", "0")
    assert code == 0
    assert json.loads(out)["items"] == []


def test_profile_rejects_a_letter_below_one(capsys):
    for word in ("0", "0012"):
        code, out, err = run(capsys, "profile", "--word", word)
        assert (code, out) == (2, "")
        assert "letters must be positive" in err


def test_kreweras_rejects_an_empty_block(capsys):
    for text in ("|", "12||3"):
        code, out, err = run(capsys, "kreweras", "--partition", text)
        assert (code, out) == (2, "")
        assert err.strip() == "error: blocks must be nonempty"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convert", "--from", "G", "--to", "S", "--index", ","], "argument --index: not a composition: ','"),
        (["tree", "rebuild", "--left", ",", "--right", "1"], "argument --left: not a composition: ','"),
        (["compatible", "--index", "1a"], "argument --index: not a composition: '1a'"),
        (["kreweras", "--partition", "1,,2"], "error: not a partition: '1,,2'"),
        (["kreweras", "--partition", "12|x"], "error: not a partition: '12|x'"),
        (["profile", "--word", "1,,2"], "argument --word: not a word: '1,,2'"),
        (["motzkin", "--word", "3,4,x"], "argument --word: not a word: '3,4,x'"),
    ],
)
def test_comma_list_readers_name_the_malformed_input(capsys, argv, message):
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.strip().endswith(message)
    assert "invalid" not in err


def test_enumerate_builds_only_the_form_asked_for(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("text form built under --json")

    monkeypatch.setattr(comps, "to_text", refuse)
    monkeypatch.setattr(noncrossing, "to_text", refuse)
    for what in ("compositions", "nc", "compatible"):
        code, out, _ = run(capsys, "--json", "enumerate", "--what", what, "--n", "3")
        assert code == 0
        assert len(json.loads(out)["items"]) == {"compositions": 4, "nc": 5, "compatible": 5}[what]


def test_enumerate_the_empty_tree(capsys):
    # the one tree with no nodes prints as its empty text form
    code, out, _ = run(capsys, "enumerate", "--what", "trees", "--n", "0")
    assert (code, out) == (0, "\n")
    code, out, _ = run(capsys, "--json", "enumerate", "--what", "trees", "--n", "0")
    assert code == 0
    assert json.loads(out)["items"] == [""]


def test_kreweras(capsys):
    code, out, _ = run(capsys, "kreweras", "--partition", "157|234|6|89")
    assert code == 0
    assert out.strip() == "14|2|3|56|79|8"


def test_kreweras_output_reads_back_for_n_of_two_digits(capsys):
    # the complement of one block of 1..10 is ten singletons: "10" must read
    # back as the element 10, not as the digits 1 and 0
    code, out, _ = run(capsys, "kreweras", "--partition", ",".join(map(str, range(1, 11))))
    assert code == 0
    assert out.strip() == "1|2|3|4|5|6|7|8|9|10,"
    code, out, _ = run(capsys, "kreweras", "--partition", out.strip())
    assert code == 0
    assert out.strip() == "1,2,3,4,5,6,7,8,9,10"


def test_kreweras_of_the_empty_partition(capsys):
    # `enumerate --what nc --n 0` prints the empty partition as an empty line
    code, out, _ = run(capsys, "enumerate", "--what", "nc", "--n", "0")
    assert (code, out) == (0, "\n")
    code, out, err = run(capsys, "kreweras", "--partition", "")
    assert (code, out, err) == (0, "\n", "")
    code, out, _ = run(capsys, "--json", "kreweras", "--partition", "")
    assert code == 0
    assert json.loads(out) == {"input": [], "complement": []}


def test_tree_rebuild_trace(capsys):
    code, out, _ = run(
        capsys,
        "tree",
        "rebuild",
        "--left",
        "312321",
        "--right",
        "1312212",
        "--trace",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14  # final tree plus 13 steps


def test_tree_rebuild_trace_json(capsys):
    argv = ["tree", "rebuild", "--left", "312321", "--right", "1312212", "--trace"]
    _, text, _ = run(capsys, *argv)
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0
    assert err == ""
    trace = json.loads(out)["trace"]
    assert [f"({label!r}, {tree})" for label, tree in trace] == text.splitlines()[1:]
    assert trace[0] == ["i1=3", "(((.).).)"]


def test_tree_takes_a_one_part_composition_above_nine(capsys):
    code, out, _ = run(capsys, "--json", "tree", "rebuild", "--left", "1" * 12, "--right", "12,")
    assert code == 0
    assert json.loads(out)["right"] == [12]


@pytest.mark.parametrize("nodes, code", [(cli._MAX_TREE_NODES, 0), (cli._MAX_TREE_NODES + 1, 2)])
@pytest.mark.parametrize(
    "argv", [["tree", "tau"], ["tree", "rebuild"], ["--json", "tree", "rebuild", "--trace"]]
)
def test_tree_size_is_bounded_up_front(capsys, monkeypatch, argv, nodes, code):
    # the deepest trees, both chains: the cap bounds the quadratic output of
    # --trace, and raising NCLAG_MAX_DEGREE leaves it
    monkeypatch.setenv("NCLAG_MAX_DEGREE", "1000")
    for left, right in [(f"{nodes},", "1" * nodes), ("1" * nodes, f"{nodes},")]:
        got, out, err = outcome(capsys, [*argv, "--left", left, "--right", right])
        assert got == code
        assert ("exceed" in err) == (code == 2)


@pytest.mark.parametrize("action", ["rebuild", "tau"])
def test_tree_of_no_nodes(capsys, action):
    # the empty tree prints as its empty text form, as in `enumerate`
    code, out, err = run(capsys, "tree", action, "--left", "", "--right", "")
    assert (code, err) == (0, "")
    assert out == ("\n" if action == "rebuild" else "  ||  \n")


def test_tree_rebuild_of_no_nodes_json(capsys):
    code, out, _ = run(capsys, "--json", "tree", "rebuild", "--left", "", "--right", "")
    assert code == 0
    assert json.loads(out) == {"ok": True, "tree": "", "left": [], "right": []}


def test_tree_rebuild_failure_exit_code(capsys):
    code, out, _ = run(capsys, "tree", "rebuild", "--left", "12", "--right", "12")
    assert code == 1


def test_motzkin(capsys):
    code, out, _ = run(capsys, "motzkin", "--word", "34455")
    assert code == 0
    assert out.strip() == "UUHDD"
    code, out, _ = run(capsys, "motzkin", "--path", "UUHDD")
    assert code == 0
    assert out.strip() == "11223"


def test_motzkin_word_with_a_two_digit_letter_reads_back(capsys):
    code, out, _ = run(capsys, "motzkin", "--path", "H" * 10)
    assert code == 0
    assert out.strip() == "1,2,3,4,5,6,7,8,9,10"
    code, back, _ = run(capsys, "motzkin", "--word", out.strip())
    assert code == 0
    assert back.strip() == "H" * 10


def test_ndpf_words_with_two_digit_letters_read_back(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "ndpf", "--n", "6", "--k", "2")
    assert code == 0
    lines = out.split()
    assert "135799" in lines
    assert "1,3,5,7,9,11" in lines
    words = [comps.parse_parts(line) for line in lines]
    assert words == parking.enumerate_k_ndpf(6, 2)


def test_factorize(capsys):
    code, out, _ = run(
        capsys, "factorize", "--index", "5", "--left", "1,2", "--right", "1,1"
    )
    assert code == 0
    assert out.strip() == "7"


def test_incidence_values(capsys):
    code, out, _ = run(
        capsys,
        "incidence",
        "values",
        "--function",
        "zeta",
        "--power",
        "3",
        "--degree",
        "3",
    )
    assert code == 0
    assert out.strip() == "1 3 12 55"


@pytest.mark.parametrize("function", ["zeta", "mobius", "identity"])
def test_incidence_values_zeroth_power_is_the_identity(capsys, function):
    code, out, _ = run(
        capsys, "incidence", "values", "--function", function, "--power", "0", "--degree", "6"
    )
    assert code == 0
    assert out == "1 0 0 0 0 0 0\n"


@pytest.mark.parametrize("function", ["zeta", "mobius"])
def test_incidence_values_first_power_is_the_function(capsys, function):
    _, once, _ = run(capsys, "incidence", "values", "--function", function, "--power", "1")
    _, default, _ = run(capsys, "incidence", "values", "--function", function)
    assert once == default
    assert once != "1 0 0 0 0 0 0\n"


def test_incidence_values_negative_power_is_domain_error(capsys):
    code, out, err = run(capsys, "incidence", "values", "--power", "-1")
    assert code == 2
    assert out == ""
    assert "power must be nonnegative" in err


def test_incidence_counts(capsys):
    code, out, _ = run(capsys, "incidence", "chains", "--n", "4", "--jumps", "111")
    assert code == 0
    assert out.strip() == "16"
    code, out, _ = run(
        capsys, "incidence", "biane", "--n", "4", "--orders", "2,2,2"
    )
    assert code == 0
    assert out.strip() == "16"


def test_incidence_multichains_negative_n_names_n(capsys):
    code, out, err = run(capsys, "incidence", "multichains", "--n", "-1", "--k", "2")
    assert code == 2
    assert out == ""
    assert "n must be nonnegative" in err
    assert "degree" not in err


def test_incidence_biane_without_orders_is_the_int_one(capsys):
    code, out, _ = run(capsys, "incidence", "biane", "--n", "1", "--orders", "")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "--json", "incidence", "biane", "--n", "1", "--orders", "")
    assert code == 0
    data = json.loads(out)
    assert data == {"count": 1, "n": 1, "orders": []}
    assert type(data["count"]) is int


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "antipode", "--max-n", "4")
    assert code == 0
    assert "all checks passed" in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "--json", "verify", "--suite", "negation", "--max-n", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert all(c["ok"] for r in data["reports"] for c in r["cases"])


def test_verify_json_times_each_case_from_the_previous_one(capsys, monkeypatch):
    def suite(max_n):
        time.sleep(0.05)
        yield "slow case", True, {}
        yield "quick case", True, {}

    monkeypatch.setitem(cli.SUITES, "antipode", suite)
    code, out, _ = run(capsys, "--json", "verify", "--suite", "antipode")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    slow, quick = report["cases"]
    assert [slow["case"], quick["case"]] == ["slow case", "quick case"]
    assert slow["seconds"] >= 0.05 > quick["seconds"] >= 0
    assert report["seconds"] >= slow["seconds"]


def test_verify_json_times_a_case_below_a_millisecond(capsys, monkeypatch):
    def suite(max_n):
        time.sleep(0.0004)
        yield "sub-millisecond case", True, {}

    monkeypatch.setitem(cli.SUITES, "antipode", suite)
    code, out, _ = run(capsys, "--json", "verify", "--suite", "antipode")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    (case,) = report["cases"]
    assert 0.0004 <= case["seconds"] < 0.05
    assert report["seconds"] >= case["seconds"]
    assert case["seconds"] == round(case["seconds"], 6)


def test_factorization_failure_names_the_first_differing_pair(capsys, monkeypatch):
    true = hopf.delta_g_monomial
    terms = dict(true((2, 1)).terms)
    first, last = sorted(terms)[1], sorted(terms)[-1]
    count = terms[first]
    terms[first] += 2
    terms[last] = 0

    def corrupted(index):
        if tuple(index) == (2, 1):
            return algebra.TensorElement(("G", "G"), terms)
        return true(index)

    monkeypatch.setattr(hopf, "delta_g_monomial", corrupted)
    code, out, _ = run(
        capsys, "--json", "verify", "--suite", "factorization", "--max-n", "3"
    )
    assert code == 1
    data = json.loads(out)
    assert data["failed"] == 1
    (bad,) = [c for r in data["reports"] for c in r["cases"] if not c["ok"]]
    assert bad["case"] == "factorization counts match coproduct, I=21"
    assert bad["witness"] == {
        "index": [2, 1],
        "routes": ["factorization_tally", "delta_g_monomial"],
        "term": [list(first[0]), list(first[1])],
        "values": [count, count + 2],
    }


# One row per family with two or more routes: the route corrupted, the
# arguments at which it gains one monomial, the suite and the route that
# comes first in its case, and that case's label.
CORRUPTED_ROUTES = [
    (lagrange, "gk_component_via_phi", (2, 3), "lagrange", "gk_component",
     "k-analogue routes agree, k=2 n=3"),
    (lagrange, "gk_component_via_ndpf", (1, 3), "lagrange", "g_component",
     "g expansion counts ndpf types, n=3"),
    (lagrange, "s_to_g_via_recipe", (3,), "bases", "s_generator_on_g",
     "generator on G via recipe, n=3"),
    (lagrange, "g_neg_via_counting", (3,), "negation", "g_neg",
     "negated alphabet routes agree, n=3"),
    (lagrange, "antipode_g_formula", (3,), "antipode", "antipode_g", "antipode routes agree, n=3"),
    (hopf, "delta_g_trees", (3,), "coproduct", "delta_g_algebraic", "coproduct routes agree, n=3"),
    (hopf, "delta_g_monomial", ((2, 1),), "factorization", "factorization_tally",
     "factorization counts match coproduct, I=21"),
    # a dict route: one biprofile's split count raised by 1
    (hopf, "split_biprofile_tally", (3,), "coproduct", "parking_biprofiles",
     "biprofile regrouping, n=3"),
]


@pytest.mark.parametrize(
    "module, route, args, suite, first, label",
    CORRUPTED_ROUTES,
    ids=[row[1] for row in CORRUPTED_ROUTES],
)
def test_a_corrupted_route_is_named_with_its_first_differing_term(
    capsys, monkeypatch, module, route, args, suite, first, label
):
    true = getattr(module, route)
    value = true(*args)
    terms = getattr(value, "terms", value)
    key = max(terms)
    bumped = {**terms, key: terms[key] + 1}

    def corrupted(*a):
        x = true(*a)
        if a != args:
            return x
        return type(x)(x.basis, bumped) if hasattr(x, "terms") else bumped

    monkeypatch.setattr(module, route, corrupted)
    code, out, _ = run(capsys, "--json", "verify", "--suite", suite, "--max-n", "3")
    assert code == 1
    data = json.loads(out)
    assert data["failed"] == 1
    (bad,) = [c for r in data["reports"] for c in r["cases"] if not c["ok"]]
    assert bad["case"] == label
    assert bad["witness"]["routes"] == [first, route]
    assert bad["witness"]["term"] == json.loads(json.dumps(key))
    assert bad["witness"]["values"] == [terms[key], terms[key] + 1]


def _cheap(value):
    """Whether freeing a value costs nothing worth timing: a number, a
    string, a range, a class, or a tuple or str-keyed dict of such (route
    names, parameters, a passing case)."""
    if value is None or isinstance(value, (numbers.Number, str, range, type)):
        return True
    if isinstance(value, tuple):
        return all(map(_cheap, value))
    if isinstance(value, dict):
        return all(isinstance(k, str) and _cheap(v) for k, v in value.items())
    return False


# the values a suite keeps bound across a yield because a later case reads
# them, such as g(-A)'s inverse from the free cumulant case to the fixed
# point case; each is freed in that later case
KEPT_FOR_A_LATER_CASE = {
    "lagrange": {"inverse"},
    "coproduct": {"a", "nc"},
    "trees": {"trees", "images"},
    "appendix": {"pairs", "words"},
}


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_a_suite_frees_each_value_in_the_last_case_that_reads_it(name):
    # a value still bound at a yield is freed in the next case's time
    suite = verify.SUITES[name](5)
    held = [{k for k, v in suite.gi_frame.f_locals.items() if not _cheap(v)} for _ in suite]
    kept = KEPT_FOR_A_LATER_CASE.get(name, set())
    assert all(names <= kept for names in held), held
    assert held[-1] == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--series", "g", "--degree", "4", "--basis", "G"],
        ["convert", "--from", "G", "--to", "S", "--index", "21"],
        ["coproduct", "--degree", "3"],
        ["coproduct", "--index", "21"],
        ["antipode", "--degree", "3"],
        ["antipode", "--index", "12", "--basis", "R"],
    ],
    ids="-".join,
)
def test_elements_build_only_the_output_asked_for(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("built an output that was not asked for")

    for cls in (algebra.NSymElement, algebra.TensorElement):
        monkeypatch.setattr(cls, "__repr__", refuse)
    json_code, json_out, _ = run(capsys, "--json", *argv)
    monkeypatch.undo()
    for cls in (algebra.NSymElement, algebra.TensorElement):
        monkeypatch.setattr(cls, "to_json_dict", refuse)
    text_code, text_out, _ = run(capsys, *argv)
    assert json_code == text_code == 0
    assert json.loads(json_out)["terms"]
    assert text_out.strip()


def test_json_biprofiles_format_no_text(capsys, monkeypatch):
    def refuse(comp):
        raise AssertionError("formatted text under --json")

    monkeypatch.setattr(comps, "to_text", refuse)
    code, out, _ = run(capsys, "--json", "biprofiles", "--n", "3")
    assert code == 0
    assert json.loads(out)["count"] == 14


@pytest.mark.parametrize("n", range(10))
def test_biprofiles_output_equals_the_filter_of_all_pairs(capsys, monkeypatch, n):
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    pairs = [pair for pair in all_pairs_of_profiles(n) if is_parking_biprofile(*pair)]
    images = [(parking.c_map(left, n + 1), parking.c_map(right, n + 1)) for left, right in pairs]
    code, out, _ = run(capsys, "biprofiles", "--n", str(n))
    assert code == 0
    assert out.splitlines() == [
        f"{left} {right} -> {comps.to_text(i)} | {comps.to_text(j)}"
        for (left, right), (i, j) in zip(pairs, images)
    ]
    code, out, _ = run(capsys, "--json", "biprofiles", "--n", str(n))
    assert code == 0
    reference = {
        "n": n,
        "count": len(pairs),
        "items": [
            {
                "left": [list(left[0]), list(left[1])],
                "right": [list(right[0]), list(right[1])],
                "compositions": [list(i), list(j)],
            }
            for (left, right), (i, j) in zip(pairs, images)
        ],
    }
    assert json.loads(out) == reference
    # the answer is spliced from encoded profiles: byte for byte, it is
    # what every other command prints, json.dumps(payload, sort_keys=True).
    # Compared through the first differing byte, since a diff of the two
    # strings (2 MB at n = 9) would take minutes to print.
    want = json.dumps(reference, sort_keys=True) + "\n"
    differ = next((k for k, (a, b) in enumerate(zip(out, want)) if a != b), None)
    assert (differ, len(out)) == (None, len(want))


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


# the options each `incidence` and `tree` action reads, and no others
ACTION_OPTIONS = {
    ("incidence", "values"): {"--function", "--power", "--degree"},
    ("incidence", "multichains"): {"--n", "--k"},
    ("incidence", "chains"): {"--n", "--jumps"},
    ("incidence", "biane"): {"--n", "--orders"},
    ("incidence", "mobius-number"): {"--n"},
    ("tree", "rebuild"): {"--left", "--right", "--trace"},
    ("tree", "tau"): {"--left", "--right"},
}


def _leaf_parsers(parser, path=()):
    """(argv path, parser) of every parser that takes no further action."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def _options(parser):
    return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}


def _has_required_option(parser):
    return any(a.required for a in parser._actions if a.option_strings) or any(
        g.required for g in parser._mutually_exclusive_groups
    )


LEAVES = dict(_leaf_parsers(cli.build_parser()))


@pytest.mark.parametrize(
    "argv",
    [
        ["incidence", "chains", "--n", "4"],
        ["incidence", "biane", "--n", "4"],
    ]
    # every leaf action with a required option, run bare
    + [list(path) for path, p in LEAVES.items() if _has_required_option(p)],
    ids=lambda argv: "-".join(argv),
)
def test_missing_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    out, stderr = capsys.readouterr()
    assert out == ""
    assert "error:" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "argv, option",
    [
        (["incidence", "values", "--n", "40"], "--n"),
        (["incidence", "values", "--k", "2"], "--k"),
        (["incidence", "multichains", "--n", "3", "--k", "2", "--degree", "3"], "--degree"),
        (["incidence", "chains", "--n", "4", "--jumps", "111", "--orders", "2,2"], "--orders"),
        (["incidence", "biane", "--n", "4", "--orders", "2,3", "--function", "zeta"], "--function"),
        (["incidence", "mobius-number", "--n", "3", "--power", "1"], "--power"),
        (["incidence", "mobius-number", "--n", "3", "--jumps", "11"], "--jumps"),
        (["tree", "tau", "--left", "1", "--right", "1", "--trace"], "--trace"),
    ],
    ids=lambda x: "-".join(x) if isinstance(x, list) else x,
)
def test_incidence_refuses_an_option_it_does_not_read(capsys, argv, option):
    code, out, err = outcome(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {option}" in err


def test_each_action_parser_declares_exactly_the_options_it_reads():
    declared = {path: _options(p) for path, p in LEAVES.items() if path[0] in ("incidence", "tree")}
    assert declared == ACTION_OPTIONS


# every integer option of every leaf action, set to 10**9 with the other
# required options small and valid: (argv path, option) -> (the other
# options, the exit code); each answers at once, refused or computed in
# closed form
INT_OPTIONS_AT_A_BILLION = {
    (("expand",), "--degree"): ([], 2),
    (("expand",), "--k"): (["--series", "gk", "--degree", "2"], 2),
    (("coproduct",), "--degree"): ([], 2),
    (("antipode",), "--degree"): ([], 2),
    (("enumerate",), "--n"): (["--what", "nc"], 2),
    (("enumerate",), "--k"): (["--what", "ndpf", "--n", "2"], 2),
    (("profile",), "--encode"): (["--word", "1"], 2),
    (("biprofiles",), "--n"): ([], 2),
    (("incidence", "values"), "--power"): ([], 2),
    (("incidence", "values"), "--degree"): ([], 2),
    (("incidence", "multichains"), "--n"): (["--k", "2"], 2),
    (("incidence", "multichains"), "--k"): (["--n", "3"], 2),
    # refused: the jumps must sum to the rank, n - 1
    (("incidence", "chains"), "--n"): (["--jumps", "111"], 2),
    (("incidence", "biane"), "--n"): (["--orders", "2"], 0),
    (("incidence", "mobius-number"), "--n"): ([], 2),
    (("verify",), "--max-n"): (["--suite", "all"], 2),
}


@pytest.fixture
def c_map_up_to_the_cap(monkeypatch):
    """`parking.c_map` failing when reached above the `--encode` cap, so that
    an unbounded `profile --encode` fails without allocating its output."""
    c_map = parking.c_map

    def guarded(p, n):
        if n > 10_000:
            raise AssertionError(f"c_map reached with n = {n}")
        return c_map(p, n)

    monkeypatch.setattr(parking, "c_map", guarded)


def test_every_integer_option_has_a_row_at_a_billion():
    declared = {
        (path, o)
        for path, p in LEAVES.items()
        for a in p._actions
        if a.type is int
        for o in a.option_strings
    }
    assert declared == set(INT_OPTIONS_AT_A_BILLION)


@pytest.mark.parametrize(
    "path, option", INT_OPTIONS_AT_A_BILLION, ids=lambda v: "-".join(v) if isinstance(v, tuple) else v
)
def test_an_integer_option_at_a_billion_is_answered(
    capsys, monkeypatch, c_map_up_to_the_cap, path, option
):
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    rest, code = INT_OPTIONS_AT_A_BILLION[path, option]
    got, out, err = outcome(capsys, [*path, option, str(10**9), *rest])
    assert got == code
    assert bool(out) == (code == 0)
    assert ("error" in err) == (code == 2)


def test_profile_encode_is_bounded_before_it_is_encoded(capsys, c_map_up_to_the_cap):
    code, out, err = run(capsys, "profile", "--word", "1", "--encode", "10001")
    assert code == 2
    assert out == ""
    assert "--encode" in err
    code, out, _ = run(capsys, "--json", "profile", "--word", "1", "--encode", "10000")
    assert code == 0
    assert sum(json.loads(out)["composition"]) == 10_000


# the powers of `incidence`, each capped by the constant `cli._MAX_POWER`:
# (the action, the option, the other options)
POWER_OPTIONS = [
    (("incidence", "values"), "--power", []),
    (("incidence", "multichains"), "--k", ["--n", "6"]),
]


@pytest.mark.parametrize(
    "path, option, rest", POWER_OPTIONS, ids=lambda v: "-".join(v) if isinstance(v, tuple) else v
)
def test_incidence_powers_are_bounded_up_front(capsys, monkeypatch, path, option, rest):
    # raising NCLAG_MAX_DEGREE leaves the cap; 10**4000 ran past 60 s
    # without the cap, and --k 10**600 failed converting its count to text
    monkeypatch.setenv("NCLAG_MAX_DEGREE", "1000")
    code, out, _ = run(capsys, *path, option, str(cli._MAX_POWER), *rest)
    assert code == 0
    assert out.strip()
    for k in (cli._MAX_POWER + 1, 10**600, 10**4000):
        code, out, err = outcome(capsys, [*path, option, str(k), *rest])
        assert (code, out) == (2, "")
        assert f"error: {option} {k} exceeds {cli._MAX_POWER}" in err


def test_incidence_values_alone_runs_on_its_defaults(capsys):
    assert [path for path, p in LEAVES.items() if not _has_required_option(p)] == [
        ("incidence", "values")
    ]
    bare = outcome(capsys, ["incidence", "values"])
    spelled = ["incidence", "values", "--function", "zeta", "--power", "1", "--degree", "6"]
    assert bare == outcome(capsys, spelled)
    assert bare[0] == 0
    code, out, _ = outcome(capsys, ["incidence", "values", "-h"])
    assert code == 0
    assert all(f"default {v}" in out for v in ("zeta", "1", "6"))


def _verify_cases_of_the_benchmark():
    """VERIFY_CASES of perfbench/workloads.py, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["VERIFY_CASES"]:
            return ast.literal_eval(node.value)
    raise LookupError("VERIFY_CASES not found")


@pytest.mark.parametrize("max_n", [3, 6])
def test_verify_case_count_matches_the_benchmark(capsys, max_n):
    code, out, _ = run(capsys, "--json", "verify", "--suite", "all", "--max-n", str(max_n))
    assert code == 0
    cases = sum(len(r["cases"]) for r in json.loads(out)["reports"])
    assert cases == _verify_cases_of_the_benchmark()[max_n]


def test_convert_from_f_prints_integer_coefficients(capsys):
    code, out, _ = run(capsys, "--json", "convert", "--from", "F", "--to", "L", "--index", "3")
    assert code == 0
    coeffs = {tuple(t["index"]): t["coeff"] for t in json.loads(out)["terms"]}
    assert coeffs == {(3,): "1", (2, 1): "-2", (1, 2): "-1", (1, 1, 1): "2"}


def test_factorize_list_matches_count(capsys):
    code, out, _ = run(
        capsys, "--json", "factorize", "--index", "5", "--left", "1,2", "--right", "1,1", "--list"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["factorizations"]) == 7


def test_negative_max_n_is_refused_as_negative(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert "--max-n must be nonnegative" in err


def test_domain_error_is_exit_two(capsys):
    code, _, err = run(capsys, "factorize", "--index", "9,1", "--left", "1", "--right", "9")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("what", ["nc", "ndpf"])
def test_enumerate_negative_size_is_domain_error(capsys, what):
    code, _, err = run(capsys, "enumerate", "--what", what, "--n", "-1")
    assert code == 2
    assert "must be nonnegative" in err


def test_incidence_values_negative_degree_is_domain_error(capsys):
    code, out, err = run(
        capsys, "incidence", "values", "--function", "zeta", "--degree", "-1"
    )
    assert code == 2
    assert out == ""
    assert "must be nonnegative" in err


def test_expand_degree_is_bounded_up_front(capsys, monkeypatch):
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    code, out, err = run(capsys, "expand", "--series", "g", "--degree", "11")
    assert code == 2
    assert out == ""
    assert "NCLAG_MAX_DEGREE" in err
    monkeypatch.setenv("NCLAG_MAX_DEGREE", "11")
    code, out, _ = run(capsys, "--json", "expand", "--series", "g", "--degree", "11")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 2**10


@pytest.mark.parametrize("what", ["ndpf", "nc", "trees"])
def test_enumerate_size_is_bounded_up_front(capsys, monkeypatch, what):
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    code, out, err = run(capsys, "enumerate", "--what", what, "--n", "11")
    assert code == 2
    assert out == ""
    assert "NCLAG_MAX_DEGREE" in err


@pytest.mark.parametrize(
    "function", [["zeta"], ["zeta", "--power", "2"], ["mobius"], ["identity"]], ids="-".join
)
def test_incidence_values_at_degree_zero_is_one_value(capsys, function):
    code, out, _ = run(capsys, "incidence", "values", "--degree", "0", "--function", *function)
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["coproduct", "--degree", "11", "--route", "algebraic"],
        ["coproduct", "--degree", "11", "--route", "biprofiles"],
        ["coproduct", "--degree", "11", "--route", "noncrossing"],
        ["biprofiles", "--n", "10"],
        # 27,343,888 words, while n = 10 alone is within the bound
        ["enumerate", "--what", "ndpf", "--n", "10", "--k", "3"],
        ["enumerate", "--what", "compositions", "--n", "30"],
        ["enumerate", "--what", "compatible", "--n", "11"],
        ["expand", "--series", "gneg", "--degree", "11"],
        ["expand", "--series", "antipode", "--degree", "11"],
        ["expand", "--series", "cumulant", "--degree", "30"],
        # k * degree = 4010, while the degree alone is within the bound
        ["expand", "--series", "gk", "--k", "401", "--degree", "10"],
        ["incidence", "values", "--degree", "100000"],
        ["incidence", "multichains", "--n", "11", "--k", "2"],
        # every --index is bounded by its weight, not part by part
        ["convert", "--from", "L", "--to", "G", "--index", "9,9"],
        ["convert", "--from", "S", "--to", "L", "--index", "17,"],
        ["coproduct", "--index", "99999"],
        # 2^11 splits of a word of 11 distinct letters
        ["coproduct", "--word", "1,2,3,4,5,6,7,8,9,10,11"],
        ["antipode", "--index", "99999999", "--basis", "R"],
        ["compatible", "--index", "99999999999"],
        ["verify", "--suite", "factorization", "--max-n", "20"],
    ],
    ids="-".join,
)
def test_listing_sizes_are_bounded_up_front(capsys, monkeypatch, argv):
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "NCLAG_MAX_DEGREE" in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["coproduct", "--degree", "5", "--route", "algebraic"], 5),
        (["coproduct", "--degree", "5", "--route", "biprofiles"], 5),
        (["coproduct", "--degree", "5", "--route", "noncrossing"], 5),
        (["biprofiles", "--n", "4"], 5),
        # 55 words: more than Catalan(5) = 42, fewer than Catalan(6) = 132
        (["enumerate", "--what", "ndpf", "--n", "4", "--k", "2"], 6),
        (["enumerate", "--what", "compositions", "--n", "5"], 5),
        (["enumerate", "--what", "compatible", "--n", "5"], 5),
        (["expand", "--series", "gneg", "--degree", "4"], 4),
        (["expand", "--series", "antipode", "--degree", "4"], 4),
        (["expand", "--series", "cumulant", "--degree", "4"], 4),
        # k * degree = 1200 = 400 * 3
        (["expand", "--series", "gk", "--k", "600", "--degree", "2"], 3),
        (["incidence", "values", "--degree", "4"], 4),
        (["incidence", "multichains", "--n", "4", "--k", "2"], 4),
        # refused by weight while every part is below the bound
        (["convert", "--from", "S", "--to", "L", "--index", "2,3"], 5),
        (["coproduct", "--index", "22"], 4),
        (["coproduct", "--word", "11223"], 5),
        (["antipode", "--index", "13", "--basis", "R"], 4),
        (["compatible", "--index", "32"], 5),
        (["verify", "--suite", "bases", "--max-n", "3"], 3),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else str(v),
)
def test_bounded_sizes_pass_with_a_raised_bound(capsys, monkeypatch, argv, bound):
    monkeypatch.setenv("NCLAG_MAX_DEGREE", str(bound - 1))
    assert run(capsys, *argv)[0] == 2
    monkeypatch.setenv("NCLAG_MAX_DEGREE", str(bound))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip()


def test_ndpf_bound_admits_fuss_catalan_counts_up_to_catalan_of_the_bound(capsys, monkeypatch):
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    code, out, _ = run(capsys, "--json", "enumerate", "--what", "ndpf", "--n", "7", "--k", "2")
    assert code == 0
    assert len(json.loads(out)["items"]) == 7752  # Catalan(10) = 16796


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` call, usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


# one call of every subcommand, plain and --json, with calls that differ
# from the one before only in an option, a usage error and both error codes
MIXED_CALLS = [
    ["expand", "--series", "g", "--degree", "3"],
    ["--json", "expand", "--series", "gk", "--k", "3", "--degree", "2", "--basis", "G"],
    ["convert", "--from", "G", "--to", "S", "--index", "21"],
    ["--json", "coproduct", "--degree", "3"],
    ["coproduct", "--word", "112"],
    ["coproduct", "--index", "21"],
    ["coproduct", "--degree", "3", "--route", "noncrossing"],
    ["antipode", "--index", "12", "--basis", "G"],
    ["--json", "antipode", "--degree", "3"],
    ["enumerate", "--what", "ndpf", "--n", "3", "--k", "2"],
    ["enumerate", "--what", "nc", "--n", "3"],
    ["profile", "--word", "2336799", "--encode", "12"],
    ["--json", "profile", "--word", "113"],
    ["compatible", "--index", "21"],
    ["coproduct"],
    ["biprofiles", "--n", "2"],
    ["--json", "kreweras", "--partition", "157|234|6|89"],
    ["tree", "rebuild", "--left", "312321", "--right", "1312212", "--trace"],
    ["tree", "rebuild", "--left", "312321", "--right", "1312212"],
    ["--json", "tree", "tau", "--left", "312321", "--right", "1312212"],
    ["tree", "rebuild", "--left", "12", "--right", "12"],
    ["motzkin", "--word", "34455"],
    ["motzkin", "--path", "UUHDD"],
    ["factorize", "--index", "5", "--left", "1,2", "--right", "1,1", "--list"],
    ["incidence", "values", "--power", "2", "--degree", "4"],
    ["incidence", "chains", "--n", "4", "--jumps", "111"],
    ["--json", "incidence", "multichains", "--n", "3", "--k", "2"],
    ["enumerate", "--what", "nc", "--n", "-1"],
    ["verify", "--suite", "antipode", "--max-n", "2"],
    ["expand", "--series", "g", "--degree", "3"],
]


def _without_timing(result):
    code, out, err = result
    return code, re.sub(r", [0-9.]+s\)", ", s)", out), err


def test_calls_in_one_process_share_one_parser_and_no_state(capsys, monkeypatch):
    alone = []
    for argv in MIXED_CALLS:
        cli._shared_parser.cache_clear()
        alone.append(_without_timing(outcome(capsys, argv)))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._shared_parser.cache_clear()
    together = [_without_timing(outcome(capsys, argv)) for argv in MIXED_CALLS]
    assert len(built) == 1
    assert together == alone
    assert [code for code, _, _ in together].count(1) == 1  # the failed rebuild
    assert [code for code, _, _ in together].count(2) == 2


def test_verify_reports_a_failed_internal_check_as_a_failed_case(capsys, monkeypatch):
    monkeypatch.setattr(noncrossing, "kreweras", lambda p: p)
    code, out, err = outcome(capsys, ["verify", "--suite", "kreweras", "--max-n", "3"])
    assert code == 1
    assert "  FAIL internal invariant holds" in out.splitlines()
    assert "are not the Kreweras complement" in err
    assert "Traceback" not in err


def test_verify_goes_on_after_a_suite_whose_internal_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(noncrossing, "kreweras", lambda p: p)
    monkeypatch.setattr(cli, "SUITES", {k: cli.SUITES[k] for k in ("trees", "appendix")})
    code, out, _ = outcome(capsys, ["--json", "verify", "--suite", "all", "--max-n", "2"])
    assert code == 1
    trees, appendix = json.loads(out)["reports"]
    assert trees["cases"][-1]["case"] == "internal invariant holds"
    assert "are not the Kreweras complement" in trees["cases"][-1]["witness"]["error"]
    assert appendix["cases"] and all(case["ok"] for case in appendix["cases"])


def test_main_runs_a_subcommand_replaced_after_the_parser_was_built(capsys, monkeypatch):
    assert cli.main(["kreweras", "--partition", "1|2"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_kreweras", lambda args: seen.append(args.partition) or 0)
    assert cli.main(["kreweras", "--partition", "12"]) == 0
    assert seen == ["12"]


# Exit 1 means a failed verification or tree rebuild and nothing else: every
# other bad input is a usage or domain error, exit 2.
BAD_INPUTS = [
    [],
    ["--json"],
    ["frobnicate"],
    ["expand", "--degree", "x"],
    ["expand", "--degree", "-1"],
    ["expand", "--series", "gk", "--k", "0", "--degree", "3"],
    ["expand", "--series", "gk", "--k", "2", "--degree", "-1"],
    ["expand", "--series", "gk", "--k", "3", "--degree", "-2"],
    ["convert", "--from", "S", "--to", "G", "--index", "abc"],
    ["convert", "--from", "S", "--to", "G", "--index", "12,0"],
    ["coproduct", "--degree", "-1", "--route", "noncrossing"],
    ["coproduct", "--word", "31"],
    ["coproduct", "--degree", "3", "--word", "11"],
    ["antipode", "--index", "0"],
    ["antipode", "--degree", "2", "--basis", "L"],
    ["enumerate", "--what", "trees", "--n", "-1"],
    ["enumerate", "--what", "ndpf", "--n", "3", "--k", "0"],
    ["profile", "--word", "321"],
    ["profile", "--word", "123", "--encode", "1"],
    ["profile", "--word", "", "--encode", "-1"],
    ["compatible", "--index", "x"],
    ["biprofiles", "--n", "-1"],
    ["kreweras", "--partition", "13|24"],
    ["kreweras", "--partition", "12|2"],
    ["kreweras", "--partition", "12||3"],
    ["kreweras", "--partition", "12|"],
    ["tree", "tau", "--left", "12", "--right", "12"],
    ["tree", "rebuild", "--left", "x", "--right", "1"],
    ["tree", "rebuild", "--left", "0", "--right", "0"],
    ["motzkin", "--word", "21"],
    ["motzkin", "--path", "D"],
    ["factorize", "--index", "0", "--left", "1", "--right", "1"],
    ["incidence", "multichains", "--n", "3", "--k", "0"],
    ["incidence", "chains", "--n", "3", "--jumps", "5"],
    ["incidence", "mobius-number", "--n", "9"],
    ["incidence", "biane", "--n", "-3", "--orders", "2"],
    ["incidence", "biane", "--n", "0", "--orders", ""],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "all", "--max-n", "-1"],
    ["convert", "--from", "L", "--to", "G", "--index", "9,9"],
    ["convert", "--from", "S", "--to", "L", "--index", "17,"],
    ["coproduct", "--index", "99999"],
    ["antipode", "--index", "99999999", "--basis", "R"],
    ["compatible", "--index", "99999999999"],
    ["verify", "--suite", "factorization", "--max-n", "20"],
    ["expand", "--series", "antipode", "--k", "2", "--degree", "3"],
    ["enumerate", "--what", "compositions", "--n", "3", "--k", "1"],
    ["coproduct", "--index", "11", "--route", "biprofiles"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda argv: "-".join(argv) or "no-arguments")
def test_bad_input_is_exit_two(capsys, argv):
    code, _, err = outcome(capsys, argv)
    assert code == 2
    assert "error" in err


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "nclag", *argv], env=env, capture_output=True, text=True
        )

    ok = run_module("--json", "enumerate", "--what", "nc", "--n", "3")
    assert ok.returncode == 0
    assert len(json.loads(ok.stdout)["items"]) == 5
    bad = run_module("enumerate", "--what", "nc")
    assert bad.returncode == 2
    assert "Traceback" not in bad.stderr
