import json

import pytest

from nclag import cli


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


def test_kreweras(capsys):
    code, out, _ = run(capsys, "kreweras", "--partition", "157|234|6|89")
    assert code == 0
    assert out.strip() == "14|2|3|56|79|8"


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


def test_incidence_counts(capsys):
    code, out, _ = run(capsys, "incidence", "chains", "--n", "4", "--jumps", "111")
    assert code == 0
    assert out.strip() == "16"
    code, out, _ = run(
        capsys, "incidence", "biane", "--n", "4", "--orders", "2,2,2"
    )
    assert code == 0
    assert out.strip() == "16"


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


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["incidence", "multichains"],
        ["incidence", "chains", "--n", "4"],
        ["incidence", "biane", "--n", "4"],
        ["incidence", "mobius-number"],
        ["coproduct"],
        ["antipode"],
        ["motzkin"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_missing_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


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
