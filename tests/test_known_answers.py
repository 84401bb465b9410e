"""Known wrong answers, one strict xfail per FOUND line of CHANGES.md.

Each test asserts the textbook answer and quotes the opening of the FOUND
line that says where the tree gets it wrong.  A fix for that line makes its
test pass, and ``strict=True`` then fails the suite until the xfail is taken
off and the line is marked MENDED.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqspace import cache
from seqspace.conditions import _Engine, check_class, regularity_report
from seqspace.duality import dual_membership
from seqspace.matrices import compose
from seqspace.verdicts import Verdict
from test_float_kernels import FIRST_STREAMED, row_feature_reference

SRC = Path(__file__).resolve().parent.parent / "src"


def conditions_of(report) -> dict:
    return {c.condition: c.verdict for c in report.condition_reports}


def test_euler_one_fifth_columns_converge():
    # E_r is regular for 0 < r <= 1: its columns tend to zero.  Column k
    # peaks near row (k - 1)/r, so only the columns that settle inside the
    # window are sampled (EulerMeans.column_settles).
    got = conditions_of(check_class("euler:1/5", "c", "c"))
    assert got["columns-converge"] is not Verdict.VIOLATED


def test_euler_one_eighth_has_null_columns():
    assert regularity_report("euler:1/8").null_columns.verdict \
        is not Verdict.VIOLATED


#: The right cells per builtin family at the defaults: (Silverman-Toeplitz
#: regularity, the (c : c) headline).  A regular matrix maps c into c; omega,
#: gamma and sigma have unbounded absolute row sums; omega-inv and zero map
#: c into c0, so their row sums tend to 0, not 1.
FAMILY_ANSWERS = {
    "identity": (Verdict.SATISFIED, Verdict.SATISFIED),
    "cesaro": (Verdict.SATISFIED, Verdict.SATISFIED),
    "euler:1/2": (Verdict.SATISFIED, Verdict.SATISFIED),
    "euler:3/4": (Verdict.SATISFIED, Verdict.SATISFIED),
    "euler:5/12": (Verdict.SATISFIED, Verdict.SATISFIED),
    "riesz:power:2": (Verdict.SATISFIED, Verdict.SATISFIED),
    "taylor:1/4": (Verdict.SATISFIED, Verdict.SATISFIED),
    "taylor:1/10": (Verdict.SATISFIED, Verdict.SATISFIED),
    "omega": (Verdict.VIOLATED, Verdict.VIOLATED),
    "gamma": (Verdict.VIOLATED, Verdict.VIOLATED),
    "sigma": (Verdict.VIOLATED, Verdict.VIOLATED),
    "omega-inv": (Verdict.VIOLATED, Verdict.SATISFIED),
    "zero": (Verdict.VIOLATED, Verdict.SATISFIED),
}


@pytest.mark.parametrize("spec", sorted(FAMILY_ANSWERS))
def test_each_family_has_its_textbook_regularity_and_c_to_c(spec):
    regular, c_to_c = FAMILY_ANSWERS[spec]
    assert regularity_report(spec).verdict is regular
    assert check_class(spec, "c", "c").verdict is c_to_c


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: `seqspace regularity --matrix riesz:harmonic` exits 1 "
    "(violated), with null-columns violated at columns 2-7"))
def test_the_harmonic_riesz_mean_is_regular():
    # T_n = H_n tends to infinity, so each column t_k / T_n tends to zero
    # and the Riesz mean is regular; column 2 decays only like 0.5 / H_n.
    assert regularity_report("riesz:harmonic").verdict is Verdict.SATISFIED


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the oracle says `satisfied` on `seqspace check-class --matrix "
    "cesaro --from linf --to c --route both`"))
def test_the_oracle_does_not_put_cesaro_in_linf_to_c():
    # Schur: C_1's rows do not converge in l1, so C_1 does not map linf
    # into c.
    got = check_class("cesaro", "linf", "c", route="both")
    assert got.oracle.verdict is not Verdict.SATISFIED


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the oracle gives a false witness on `seqspace check-class "
    "--matrix taylor:9/10 --from c --to c0 --route both`"))
def test_a_null_sequence_is_no_witness_against_taylor_c_to_c0():
    # T_r is regular, so it maps 1/log(k+1), a member of c0, into c0.
    got = check_class("taylor:9/10", "c", "c0", route="both")
    assert "log-slow" not in got.oracle.witnesses


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: on 49 Taylor (X(gamma) : linf) cells (r = p/q, q <= 12) the "
    "oracle says *satisfied* against the conditions' *violated*"))
def test_taylor_routes_agree_from_linf_gamma_to_linf():
    got = check_class("taylor:1/4", "linf(gamma)", "linf", route="both")
    assert got.routes_agree() is not False


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: a product read by the matmul rule (src/seqspace/matrices.py, "
    "`ComposedMatrix._blocks`' third rule, such as `compose(\"euler:1/2\", "
    "\"euler:1/10\")`) has its table's bits only when read in chunks of 54 "
    "or more consecutive rows over the whole inner index"))
def test_a_matmul_product_streams_the_bits_of_its_table():
    # At the first truncation past the streaming line, its rows come in
    # blocks of FEATURE_BLOCK // n = 41 rows, and their sums are its row
    # traces.
    a, n = compose("euler:1/2", "euler:1/10"), FIRST_STREAMED
    eng = _Engine(a, n, 1.5e-3, n // 10)
    assert cache.is_large(8 * n * n)
    table = a.truncation_floats(n)[:len(eng.row_indices())]
    for kind in ("row_sum", "row_abs"):
        assert np.array_equal(eng.row_trace(kind)[1],
                              row_feature_reference(table, kind)), kind


@pytest.mark.parametrize("a, n", (("geometric:3", 600), ("geometric:2", 120)))
def test_the_row_sums_of_a_growing_dual_telescope(a, n):
    # MENDED: "the `row-sums-converge` verdict on growing duals".  Over omega
    # every row sum of the dual triangle is a_1 d_1 = r by telescoping, so
    # they converge; the absolute row sums grow, so a is not in the dual.
    rep = dual_membership(a, "c(omega)", n=n)
    got = {c.condition: c for c in rep.class_report.condition_reports}
    assert got["row-sums-converge"].verdict is Verdict.SATISFIED
    assert got["row-sums-converge"].observed == float(a.split(":")[1])
    assert got["bounded-rows"].verdict is Verdict.VIOLATED
    assert rep.verdict is Verdict.VIOLATED


def _address_space_cap():
    cap = 3 * 2 ** 29       # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_a_check_past_the_limit_runs_in_bounded_memory():
    # omega does not map c0 into c: its absolute row sums grow.  At
    # n = 50000 the row sample alone is 5084 x 50000 floats (1.9 GiB), so
    # the check must read it in chunks (MENDED: "past `DENSE_LIMIT` a check
    # holds its whole row sample at full width").
    argv = ["check-class", "--matrix", "omega", "--from", "c0", "--to", "c",
            "--n", "50000"]
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "seqspace", *argv], env=env,
                          preexec_fn=_address_space_cap, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 1, done.stderr[-300:]


def test_a_product_past_the_limit_runs_in_bounded_memory():
    # bs is linf(sigma): the check reads the source transfer
    # omega-inv*sigma-inv, a band of three diagonals, whose absolute row
    # sums tend to zero.  Read as one block, its 5096 sampled rows at
    # n = 50000 take 1.9 GiB; read in row chunks, the check must finish
    # under a 1.5 GiB address space and exit 0.
    argv = ["check-class", "--matrix", "omega-inv", "--from", "bs", "--to",
            "c0", "--n", "50000"]
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "seqspace", *argv], env=env,
                          preexec_fn=_address_space_cap, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-300:]


def test_a_dual_product_past_the_limit_runs_in_bounded_memory():
    # gamma*sigma-inv, the source transfer of gamma on bs, is the dual
    # triangle of the weights 1/k, read from its O(n) terms: its absolute
    # row sums are 1, so gamma does not map bs into c0.  At n = 50000 the
    # check must finish under a 1.5 GiB address space and exit 1.
    argv = ["check-class", "--matrix", "gamma", "--from", "bs", "--to",
            "c0", "--n", "50000"]
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "seqspace", *argv], env=env,
                          preexec_fn=_address_space_cap, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 1, done.stderr[-300:]


@pytest.mark.parametrize("weights", ("omega", "gamma", "sigma"))
def test_running_sums_times_their_inverse_read_as_the_identity(weights):
    # W*W^-1 is the dual triangle of W's weights over W^-1: its terms
    # a_k d_k = 1 and a_k s_k = -1 are exact, so its table is the identity
    # bit for bit (a table of the product read as running sums of the
    # rounded weights times the rounded inverse was not).
    got = compose(weights, f"{weights}-inv").truncation_floats(600)
    assert np.array_equal(got.view(np.uint64), np.eye(600).view(np.uint64))
