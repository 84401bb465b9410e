"""Python API calls assembled from the CLI fuzz vocabulary: whatever the
specs, ``check_class``, ``apply``, ``dual_membership``,
``regularity_report`` and ``truncate_matrix`` return or refuse with a
:class:`SeqspaceError`; only a bad index may leave as ``IndexError``.

At most one argument of a call is malformed, so most calls run.  Numbers,
tolerances, windows and seeds are passed as the API takes them: the
malformed ones that are numbers of the right kind (0, -1, nan, ...) are
kept, the strings the CLI would refuse while parsing are not."""

from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqspace import (
    apply,
    check_class,
    dual_membership,
    regularity_report,
    truncate_matrix,
)
from seqspace.errors import SeqspaceError

from test_cli_fuzz import (DUAL_SPACES, KINDS, MATRICES, MODES, NUMBERS,
                           ROUTES, SEEDS, SEQUENCES, SPACES, TOLS, WINDOWS)


def _numbers(pair, kind):
    """(valid, malformed) values that parse as ``kind``, parsed."""
    def parsed(values):
        out = []
        for value in values:
            try:
                out.append(kind(value))
            except ValueError:
                pass
        return tuple(out)
    return tuple(map(parsed, pair))


#: (valid, malformed) values per argument, as the API takes them.  A class
#: check's source is classical or a domain over omega or gamma and its
#: target classical: the pairs the checks cover.
VOCABULARY = {
    "matrix": MATRICES,
    "seq": SEQUENCES,
    "source": (tuple(s for s in SPACES[0] if "(" not in s
                     or "omega" in s or "gamma" in s), SPACES[1]),
    "classical": (tuple(s for s in SPACES[0] if "(" not in s), SPACES[1]),
    "dual_space": DUAL_SPACES,
    "n": _numbers(NUMBERS, int),
    "tol": _numbers(TOLS, float),
    "window": _numbers(WINDOWS, int),
    "mode": MODES,
    "route": ROUTES,
    "seed": _numbers(SEEDS, int),
    "kind": KINDS,
}


#: Each function's positional and keyword arguments, by vocabulary.  A
#: window is always given: the default one needs a truncation of 25.
SIGNATURES = {
    check_class: (("matrix", "source", "classical", "n"),
                  ("tol", "window", "route", "seed")),
    apply: (("matrix", "seq", "n"), ("mode",)),
    dual_membership: (("seq", "dual_space"),
                      ("n", "kind", "tol", "window")),
    regularity_report: (("matrix", "n"), ("tol", "window")),
    truncate_matrix: (("matrix", "n"), ("mode",)),
}
REQUIRED = ("n", "window")


@st.composite
def api_calls(draw):
    """A call from the vocabulary: (function, args, kwargs).  One call in
    four has one malformed argument, and each optional argument but the
    truncation and the window is left out one time in three."""
    function = draw(st.sampled_from(tuple(SIGNATURES)))
    positional, keywords = SIGNATURES[function]
    spoiled = (None if draw(st.integers(0, 3)) else
               draw(st.sampled_from(positional + keywords)))

    def value(name):
        valid, malformed = VOCABULARY[name]
        return draw(st.sampled_from(malformed if name == spoiled else valid))
    args = tuple(map(value, positional))
    kwargs = {name: value(name) for name in keywords
              if name in REQUIRED or draw(st.integers(0, 2)) > 0}
    return function, args, kwargs


# Each call gets 5 s; 300 calls take about a second, well inside a 10 s
# budget for the whole test.
@settings(max_examples=300, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(api_calls())
def test_api_calls_return_or_refuse_by_name(call):
    function, args, kwargs = call
    try:
        function(*args, **kwargs)
    except SeqspaceError:
        pass
    except IndexError as exc:
        assert "index" in str(exc), (call, exc)
