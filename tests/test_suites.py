"""Tests for the verification suites and their reports."""

import json

from interlacepoly.polynomials import IntPolynomial
from interlacepoly.suites import (
    VerificationReport,
    loop_digraph_polynomials,
    run_conjecture_suite,
    run_extremal_suite,
    run_identity_suite,
    run_orbit_suite,
)


def test_identity_suite_small_scale_passes():
    rep = run_identity_suite(n_max=4, word_samples=40, seed=7)
    assert rep.passed and rep.checked == 10349
    assert rep.suite == "identities" and rep.n_max == 4


def test_orbit_suite_small_scale_passes():
    rep = run_orbit_suite(max_symbols=5)
    assert rep.passed and rep.checked == 97961


def test_extremal_suite_known_two_term_counterexamples():
    rep = run_extremal_suite(n_max=5)
    # every violation is the (false) two-term classification; all the
    # proved bounds and equality classes are clean
    assert rep.violations
    assert all(
        "two-term graph" in v["detail"] for v in rep.violations
    ), rep.violations[:5]
    # the 4-cycle is among the flagged instances (graph6 "C]" et al.)
    flagged = {v["graph6"] for v in rep.violations}
    assert "C]" in flagged or "Cl" in flagged or "Cr" in flagged


def test_conjecture_suite_small_scale():
    rep = run_conjecture_suite(n_max=4, random_samples=50, random_max_order=9, seed=3)
    assert rep.passed
    assert rep.seed == 3


def test_report_schema_and_determinism():
    rep1 = run_conjecture_suite(n_max=3, random_samples=20, random_max_order=8, seed=5)
    rep2 = run_conjecture_suite(n_max=3, random_samples=20, random_max_order=8, seed=5)
    d1, d2 = rep1.to_json_dict(), rep2.to_json_dict()
    assert set(d1) == {"suite", "n_max", "checked", "violations", "seed", "elapsed_ms"}
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_violation_invariant():
    rep = VerificationReport("demo", 3)
    assert rep.passed
    rep.record("B_", "example violation")
    assert not rep.passed


def test_loop_digraph_polynomials_are_rising_factorials():
    polys = loop_digraph_polynomials(6)
    rising = IntPolynomial.one()
    for m, r in enumerate(polys, start=1):
        rising = rising * IntPolynomial((m - 1, 1))
        assert r == rising
    # the 3-loop digraph: one partition into 3 circuits, three into 2, two into 1
    assert polys[2] == IntPolynomial((0, 2, 3, 1))
