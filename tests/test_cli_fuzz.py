"""Command lines assembled from a fixed vocabulary of valid and malformed
specs: whatever the input, the CLI leaves with a documented exit code,
never with a traceback, and never through the catch-all that names an
exception no refusal anticipated."""

import builtins
import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqspace.cli import main

#: (valid, malformed) values per kind of spec.  The weights of
#: riesz:geometric:1e300 leave float range from t_2 on, and those of
#: riesz:power:-400 underflow: t_6 is subnormal, and 0.0 from t_7 on.
MATRICES = (("cesaro", "identity", "zero", "omega", "gamma", "omega-inv",
             "gamma-inv", "sigma", "sigma-inv", "cesaro-inv", "euler:1/2",
             "euler:0.3", "taylor:1/4", "taylor:1/2", "riesz:power:2",
             "riesz:const:1", "riesz:geometric:1e300", "riesz:power:-400"),
            ("", "euler:", "euler:2", "euler:-1/2", "euler:abc", "euler:1/0",
             "euler:1e400", "euler:nan", "taylor:0", "taylor:1", "riesz:",
             "riesz:unit:0", "riesz:list:0", "cesaro:1", "omega(", "unknown"))
SEQUENCES = (("harmonic", "unit:3", "const:1", "const:-2/3", "power:-2",
              "power:2", "power:400", "geometric:1/2", "geometric:-3/4",
              "geometric:2", "alternating", "list:1,2,3"),
             ("", "unit:0", "unit:x", "power:x", "geometric:",
              "geometric:1/0", "geometric:abc", "list:", "list:1,x",
              "const:inf", "nonsense", "harmonic:2"))
SPACES = (("c0", "c", "linf", "bs", "cs", "c0(omega)", "c(gamma)",
           "linf(omega)", "c0(euler:1/2)", "c(cesaro)", "c(riesz:power:2)"),
          ("", "lp", "c0(", "c0(omega", "bs(omega)", "c0(zero)", "c0()",
           "c0(unknown)", "(omega)"))
TOLS = (("1e-3", "0.5", "1e-300", "1.5e-3"),
        ("nan", "inf", "-1", "0", "abc", ""))
DUAL_SPACES = (("c0(omega)", "c(omega)", "linf(omega)", "c0(gamma)",
                "c(gamma)", "linf(gamma)"),
               SPACES[0] + SPACES[1])
#: Truncations: class checks need at least 8, and every valid window is
#: below that.
NUMBERS = (tuple(str(k) for k in range(8, 41)),
           ("0", "1", "5", "-1", "abc", "", "1.5"))
WINDOWS = (("2", "5", "7"), ("0", "-1", "40", "x"))
KS = (("1", "3", "10"), ("0", "-1", "x"))
MODES = (("exact", "float"), ("x",))
ROUTES = (("conditions", "oracle", "both"), ("x",))
#: Seeds of one 32-bit word, of two (2^32) and of five (2^128 + 1).
SEEDS = (("0", "7", "4294967296", "340282366920938463463374607431768211457"),
         ("x", "-1", "1.5"))
KINDS = (("beta", "gamma"), ("x",))

OPTIONS = {
    "transform": (("--matrix", MATRICES), ("--seq", SEQUENCES),
                  ("--n", NUMBERS), ("--mode", MODES)),
    "check-class": (("--matrix", MATRICES), ("--from", SPACES),
                    ("--to", SPACES), ("--n", NUMBERS), ("--tol", TOLS),
                    ("--window", WINDOWS), ("--route", ROUTES),
                    ("--seed", SEEDS)),
    "dual": (("--space", DUAL_SPACES), ("--a", SEQUENCES), ("--n", NUMBERS),
             ("--kind", KINDS), ("--tol", TOLS), ("--window", WINDOWS)),
    "regularity": (("--matrix", MATRICES), ("--n", NUMBERS),
                   ("--tol", TOLS), ("--window", WINDOWS)),
    "basis": (("--matrix", MATRICES), ("--k", KS), ("--upto", NUMBERS)),
    "frobnicate": (),
}
#: Options with a default, given one time in three; the others are left
#: out one time in ten (for ``--n`` one time in twenty, and only where it is
#: required, so that no command falls back on a large default truncation).
OPTIONAL = ("--tol", "--window", "--route", "--seed", "--mode", "--kind",
            "--upto")


@st.composite
def command_lines(draw):
    """An argv from the vocabulary: each option present or not, each value
    valid or (now and then) malformed, sometimes an unknown flag at the end.
    Truncations stay at most 40."""
    command = draw(st.sampled_from(tuple(OPTIONS)))
    argv = [command]
    for flag, (valid, malformed) in OPTIONS[command]:
        if flag in OPTIONAL:
            if draw(st.integers(0, 2)) > 0:
                continue
        elif flag == "--n":
            if command == "transform" and draw(st.integers(0, 19)) == 0:
                continue
        elif draw(st.integers(0, 9)) == 0:
            continue
        bad = draw(st.integers(0, 7)) == 0
        argv += [flag, draw(st.sampled_from(malformed if bad else valid))]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(("--bogus", "--n", "extra"))))
    return argv


#: ``cli.main``'s catch-all prints ``error: <ExceptionName>: ...``.
CATCH_ALL = re.compile(r"^error: ([A-Za-z_]\w*): ", re.M)


def caught_by_the_catch_all(err: str) -> bool:
    """Whether ``err`` names an exception as the catch-all does: a builtin
    exception, or a name that ends as exception names do."""
    def exception_name(name):
        builtin = getattr(builtins, name, None)
        return (isinstance(builtin, type) and issubclass(builtin, BaseException)
                or name.endswith(("Error", "Exception", "Warning")))
    return any(map(exception_name, CATCH_ALL.findall(err)))


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:     # argparse: usage errors and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_cli_exit_codes_are_documented(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert not caught_by_the_catch_all(err), (argv, err)
