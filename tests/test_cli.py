import json

import pytest

from seqspace.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_transform_text(capsys):
    rc, out, _ = run(capsys, "transform", "--matrix", "omega",
                     "--seq", "const:1", "--n", "4")
    assert rc == 0
    assert out.splitlines() == ["1\t1", "2\t3", "3\t6", "4\t10"]


def test_transform_json(capsys):
    rc, out, _ = run(capsys, "transform", "--matrix", "gamma",
                     "--seq", "const:1", "--n", "3", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "transform"
    assert doc["values"] == ["1", "3/2", "11/6"]
    assert doc["mode"] == "exact"
    assert "version" in doc


def test_transform_float_mode(capsys):
    rc, out, _ = run(capsys, "transform", "--matrix", "cesaro",
                     "--seq", "const:1", "--n", "3", "--mode", "float", "--json")
    assert rc == 0
    assert json.loads(out)["values"] == [1.0, 1.0, 1.0]


def test_transform_float_overflow_is_reported(capsys):
    argv = ("transform", "--matrix", "omega", "--seq", "power:400", "--n",
            "200", "--mode", "float")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out.splitlines()[-1] == "# overflow at index 6"
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["overflow_at"] == 6
    assert all(v >= 1.0 for v in doc["values"][:5])
    assert doc["values"][5:] == [0.0] * 195


def test_transform_of_a_ratio_past_int64_flags_its_overflow(capsys):
    rc, out, err = run(capsys, "transform", "--matrix", "omega", "--seq",
                       "geometric:1e400", "--n", "5", "--mode", "float",
                       "--json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["overflow_at"] == 1
    assert doc["values"] == [0.0] * 5


def test_bad_seed_exit_3(capsys):
    rc, out, err = run(capsys, "check-class", "--matrix", "cesaro", "--from",
                       "c0", "--to", "c", "--route", "both", "--seed", "-1")
    assert (rc, out) == (3, "")
    assert err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("tol", ("nan", "inf", "-inf", "0", "-1e-3", "x"))
@pytest.mark.parametrize("argv", (
    ("check-class", "--matrix", "cesaro", "--from", "c", "--to", "c"),
    ("dual", "--space", "c0(omega)", "--a", "power:1"),
    ("regularity", "--matrix", "cesaro"),
), ids=lambda argv: argv[0] if isinstance(argv, tuple) else argv)
def test_bad_tolerance_exit_3(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol])
    assert exc.value.code == 3
    assert "tol" in capsys.readouterr().err


def test_check_class_exit_codes(capsys):
    assert run(capsys, "check-class", "--matrix", "cesaro",
               "--from", "c0", "--to", "c")[0] == 0
    assert run(capsys, "check-class", "--matrix", "gamma",
               "--from", "c0", "--to", "linf")[0] == 1
    assert run(capsys, "check-class", "--matrix", "omega-inv",
               "--from", "bs", "--to", "c0")[0] == 2


def test_check_class_json_both_routes(capsys):
    rc, out, _ = run(capsys, "check-class", "--matrix", "cesaro",
                     "--from", "c0", "--to", "c", "--route", "both", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "satisfied"
    assert doc["routes_agree"] is True
    assert doc["oracle"]["verdict"] == "satisfied"
    assert [c["condition"] for c in doc["conditions"]] == \
        ["bounded-rows", "columns-converge"]


def test_dual_exit_codes(capsys):
    rc, out, _ = run(capsys, "dual", "--space", "c0(omega)", "--a", "power:1")
    assert rc == 0
    assert "satisfied" in out
    assert run(capsys, "dual", "--space", "c0(omega)", "--a", "power:2")[0] == 1
    rc, out, _ = run(capsys, "dual", "--space", "c0(gamma)", "--a", "power:-1",
                     "--json")
    assert rc == 0
    assert json.loads(out)["verdict"] == "satisfied"


def test_dual_of_bs_and_cs_keeps_their_names(capsys):
    rc, out, _ = run(capsys, "dual", "--space", "cs", "--a", "const:1",
                     "--json")
    assert rc == 0
    assert json.loads(out)["space"] == "cs"
    rc, out, _ = run(capsys, "dual", "--space", "bs", "--a", "alternating")
    assert rc == 1
    assert out.startswith("beta-dual of bs for a = alternating: violated")


def test_regularity(capsys):
    rc, out, _ = run(capsys, "regularity", "--matrix", "cesaro", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "satisfied"
    assert doc["row_sums"]["limit"] == pytest.approx(1.0, abs=1e-9)
    assert run(capsys, "regularity", "--matrix", "omega")[0] == 1


def test_basis(capsys):
    rc, out, _ = run(capsys, "basis", "--matrix", "omega", "--k", "2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["entries"] == {"2": "1/2", "3": "-1/3"}
    assert doc["closed_form_route"] is True
    assert doc["route_delta"] == 0.0


def test_basis_upto_below_one_exit_3(capsys):
    rc, out, err = run(capsys, "basis", "--matrix", "omega", "--k", "2",
                       "--upto", "-5", "--json")
    assert rc == 3 and out == ""
    assert "upto" in err


def test_errors_exit_3(capsys):
    rc, _, err = run(capsys, "transform", "--matrix", "nope",
                     "--seq", "const:1", "--n", "2")
    assert rc == 3
    assert "error:" in err
    # Below n = 25 the default window does not fit on either route: the
    # message names the truncation and the smallest one the default accepts.
    check = ("check-class", "--matrix", "cesaro", "--from", "c0", "--to", "c")
    for argv, sizes, smallest in (
            (check, ("8", "24"), 25),
            (check + ("--route", "both"), ("8", "24"), 25),
            (check + ("--route", "oracle"), ("8", "24"), 25),
            (("regularity", "--matrix", "cesaro"), ("8", "24"), 25),
            (("dual", "--space", "c0(omega)", "--a", "power:1"), ("8", "24"),
             25)):
        for n in sizes:
            rc, out, err = run(capsys, *argv, "--n", n)
            assert rc == 3 and out == "", argv
            assert err == (f"error: truncation {n} is too small for the "
                           "default 24-point window: the smallest truncation "
                           f"it accepts is {smallest}\n"), argv
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv, message", (
    (("--seq", "list:1,,2", "--n", "3"), "empty item at position 2"),
    (("--seq", "power:-400", "--n", "39", "--json"),
     "the exact value at index 27 has too many digits to print; "
     "use --mode float"),
    (("--seq", "power:-400", "--n", "39"), "index 27"),
), ids=("empty-list-item", "digit-limit-json", "digit-limit-text"))
def test_a_refused_transform_is_named(capsys, argv, message):
    # Neither reaches main's catch-all, which would name the exception type.
    rc, out, err = run(capsys, "transform", "--matrix", "cesaro", *argv)
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and not err.startswith("error: ValueError")
    assert message in err and len(err.splitlines()) == 1


def test_reports_name_a_parametrized_domain_by_its_spec(capsys):
    # A domain over a matrix with parameters is named by its canonical
    # spec, not by the family's name alone; a parameterless one is as given.
    rc, out, _ = run(capsys, "check-class", "--matrix", "cesaro", "--from",
                     "c", "--to", "c(euler:0.5)", "--json")
    assert rc in (0, 1, 2)
    doc = json.loads(out)
    assert (doc["from"], doc["to"]) == ("c", "c(euler:1/2)")
    rc, out, _ = run(capsys, "dual", "--space", "c0(riesz:power:2)", "--a",
                     "harmonic", "--json")
    assert rc in (0, 1, 2) and json.loads(out)["space"] == "c0(riesz:power:2)"
    rc, out, _ = run(capsys, "dual", "--space", "c0(omega)", "--a",
                     "harmonic", "--json")
    assert json.loads(out)["space"] == "c0(omega)"


def test_json_output_is_deterministic(capsys):
    argv = ["check-class", "--matrix", "euler:1/2", "--from", "c0", "--to", "c",
            "--route", "both", "--seed", "7", "--json"]
    runs = []
    for _ in range(3):
        assert main(list(argv)) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("argv, term", (
    (("dual", "--space", "c0(omega)", "--a", "geometric:5000"), "scaled term 84"),
    (("check-class", "--matrix", "riesz:power:200", "--from", "c", "--to", "c"),
     "riesz weight t_35"),
    (("transform", "--matrix", "riesz:geometric:3", "--seq", "harmonic",
      "--n", "800", "--mode", "float"), "riesz weight t_647"),
), ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_term_out_of_float_range_exit_3(capsys, argv, term):
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and term in err
    assert "too large for a float" in err and len(err.splitlines()) == 1


def test_unexpected_exception_exit_3(capsys, monkeypatch):
    import seqspace.cli as cli

    def broken(args):
        raise RuntimeError("something\nbroke")

    monkeypatch.setitem(cli._RUNNERS, "regularity", broken)
    rc, out, err = run(capsys, "regularity", "--matrix", "cesaro")
    assert rc == 3
    assert out == ""
    assert err == "error: RuntimeError: something broke\n"
