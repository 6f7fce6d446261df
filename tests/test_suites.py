"""Tests for the verification suites and their reports."""

import hashlib
import json

import numpy as np
import pytest

from interlacepoly import enumeration as en
from interlacepoly import suites
from interlacepoly.euler import (
    DoubleOccurrenceWord,
    canonical_word_tuples,
    interlace_graph,
)
from interlacepoly.graphs import (
    Graph,
    TooLargeError,
    component_masks,
    induced_subgraph,
    to_graph6,
)
from interlacepoly.suites import (
    VerificationReport,
    _componentwise_fibonacci_bounds,
    _matching_masks,
    _solid_path2_masks,
    _solid_path_plus_complete_masks,
    _tripartite_plus_isolated_masks,
    run_conjecture_suite,
    run_extremal_suite,
    run_identity_suite,
    run_orbit_suite,
)


def test_identity_suite_small_scale_passes():
    rep = run_identity_suite(n_max=4, word_samples=40, seed=7)
    assert rep.passed and rep.checked == 10349
    assert rep.suite == "identities" and rep.n_max == 4


def test_identity_suite_order_6_report_is_pinned():
    rep = run_identity_suite(n_max=6, word_samples=0)
    assert rep.passed and rep.checked == 4202406
    d = rep.to_json_dict()
    d.pop("elapsed_ms")
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a9ad5996121e1aab58fd80b499590fd59c681e2bca4bdebf9c649706e53c7e57"
    )


def test_orbit_suite_small_scale_passes():
    rep = run_orbit_suite(max_symbols=5)
    assert rep.passed and rep.checked == 97961
    with pytest.raises(TooLargeError):
        run_orbit_suite(max_symbols=suites.ORBIT_MAX_SYMBOLS + 1)


@pytest.mark.parametrize(
    "run, name",
    [
        (lambda: run_orbit_suite(-1), "max_symbols"),
        (lambda: run_identity_suite(2, word_samples=-3), "word_samples"),
        (lambda: run_conjecture_suite(3, random_samples=-5), "random_samples"),
        (
            lambda: run_conjecture_suite(7, random_samples=3, random_max_order=7),
            "random_max_order",
        ),
        (
            lambda: run_conjecture_suite(7, random_samples=3, random_max_order=65),
            "random_max_order",
        ),
    ],
    ids=["orbit-max-symbols", "identity-word-samples", "conjecture-random-samples",
         "conjecture-random-max-order-low", "conjecture-random-max-order-high"],
)
def test_suites_reject_bad_arguments_before_any_sweep(run, name, monkeypatch):
    def swept(*args):
        raise AssertionError("a sweep ran before the argument check")

    monkeypatch.setattr(en, "_level", swept)
    monkeypatch.setattr(suites, "_orbit_checks_for_order", swept)
    with pytest.raises(ValueError, match=f"^{name} must"):
        run()


def test_orbit_suite_checks_the_interlace_graph_of_a_stray_word(monkeypatch):
    # a faulty transposition that always lands on the edgeless word
    # 1 1 2 2 ..., outside the digraph of every word with an interlaced
    # pair, while the swapped pivot on ab keeps the edge ab: each
    # transposition is recorded as a stray and again for its interlace graph
    monkeypatch.setattr(suites, "_transpose_slice", lambda s, *_: tuple(sorted(s)))
    rep = run_orbit_suite(max_symbols=4)
    details = [v["detail"] for v in rep.violations]
    pairs = sum(
        interlace_graph(DoubleOccurrenceWord(t)).edge_count
        for n in range(1, 5)
        for t in canonical_word_tuples(n)
    )
    assert details.count("transposition left the digraph") == pairs > 0
    assert sum(d.startswith("H(transpose") for d in details) == pairs


def test_identity_suite_numbers_a_words_symbols_from_1(monkeypatch):
    # an anti-circuit count that is off by one fails the r(D;-2) check on
    # every word; the report writes each word as the orbit suite does
    anti = suites.anti_circuit_count
    monkeypatch.setattr(suites, "anti_circuit_count", lambda d: anti(d) + 1)
    rep = run_identity_suite(n_max=1, word_samples=0)
    recorded = [v["graph6"] for v in rep.violations]
    assert {v["detail"] for v in rep.violations} == {"r(D;-2) != (-1)^(n+a) 2^a"}
    assert recorded == [
        " ".join(str(s + 1) for s in t)
        for n in range(1, 5)
        for t in canonical_word_tuples(n)
    ]


@pytest.mark.parametrize(
    "name, detail",
    [
        ("component_count", "lowest degree of q(H) != component count of H"),
        ("independence_number", "deg q(H) below independence number of H"),
    ],
)
def test_identity_suite_checks_q_of_h_against_invariants_of_h(monkeypatch, name, detail):
    # an invariant of H that is one too many fails its own check, and only
    # that one, on every word; the count of checks does not move
    checked = run_identity_suite(n_max=1, word_samples=0).checked
    invariant = getattr(suites, name)
    monkeypatch.setattr(suites, name, lambda h: invariant(h) + 1)
    rep = run_identity_suite(n_max=1, word_samples=0)
    assert rep.checked == checked
    assert [v["detail"] for v in rep.violations] == [detail] * 337
    assert [v["graph6"] for v in rep.violations] == [
        " ".join(str(s + 1) for s in t)
        for n in range(1, 5)
        for t in canonical_word_tuples(n)
    ]


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


def _true_twin_classes(g: Graph) -> list[int]:
    closed = [g.rows[v] | (1 << v) for v in range(g.n)]
    reps: list[int] = []
    cls = [0] * g.n
    for v in range(g.n):
        for i, r in enumerate(reps):
            if closed[v] == r:
                cls[v] = i
                break
        else:
            cls[v] = len(reps)
            reps.append(closed[v])
    return cls


def _is_solid_path_plus_complete(g: Graph) -> bool:
    """Structural classifier, independent of the enumerated mask set: the
    non-complete components, reduced by true twins, must be exactly one
    path on 3 or 4 classes."""
    path_components = 0
    for cm in component_masks(g):
        sub = induced_subgraph(g, [v for v in range(g.n) if cm >> v & 1])
        if sub.edge_count == sub.n * (sub.n - 1) // 2:
            continue  # complete component
        cls = _true_twin_classes(sub)
        k = max(cls) + 1
        if k not in (3, 4):
            return False
        # quotient must be the path 0-1-...-k-1 after sorting classes along it
        quotient = {(min(cls[a], cls[b]), max(cls[a], cls[b])) for a, b in sub.edges()
                    if cls[a] != cls[b]}
        degrees = [0] * k
        for a, b in quotient:
            degrees[a] += 1
            degrees[b] += 1
        if sorted(degrees) != [1, 1] + [2] * (k - 2) or len(quotient) != k - 1:
            return False
        path_components += 1
    return path_components == 1


def test_solid_path_set_matches_structural_classifier():
    for n in range(7):
        solid = _solid_path_plus_complete_masks(n)
        two_term = np.flatnonzero(en.nonzero_term_counts(n) == 2)
        for mask in map(int, two_term):
            g = en.graph_of_mask(n, mask)
            assert (mask in solid) == _is_solid_path_plus_complete(g), (n, mask)


def test_equality_class_sizes_are_pinned():
    sizes = {
        _tripartite_plus_isolated_masks: [1, 1, 2, 8, 36, 156, 652, 2668],
        _matching_masks: [1, 1, 2, 4, 10, 26, 76, 232],
        _solid_path2_masks: [0, 0, 0, 3, 18, 75, 270, 903],
        _solid_path_plus_complete_masks: [0, 0, 0, 3, 42, 405, 3420, 27468],
    }
    for build, want in sizes.items():
        assert [len(build(n)) for n in range(8)] == want, build.__name__


def test_componentwise_fibonacci_bounds_match_per_graph_product():
    fib = [0, 1]
    while len(fib) < en.pair_count(6) + 3:
        fib.append(fib[-1] + fib[-2])
    for n in range(7):
        split = np.flatnonzero(en.component_count_table(n) >= 2)
        bounds = _componentwise_fibonacci_bounds(split, n, np.array(fib))
        for mask, bound in zip(map(int, split), bounds):
            g = en.graph_of_mask(n, mask)
            expected = 1
            for cm in component_masks(g):
                sub = induced_subgraph(g, [v for v in range(n) if cm >> v & 1])
                expected *= fib[sub.edge_count + 2]
            assert bound == expected, (n, mask)


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


def test_report_check_counts_each_instance_and_writes_only_failures(monkeypatch):
    rep = VerificationReport("demo", 3)
    with monkeypatch.context() as m:
        m.setattr(suites, "to_graph6", lambda g: pytest.fail("passing graph written"))
        rep.check(True, Graph(2, [(0, 1)]), "never recorded")
    assert rep.checked == 1 and rep.passed
    rep.check(False, Graph(2, [(0, 1)]), "graph")
    rep.check(False, (0, 1, 0, 1), "word")
    rep.check(False, "order 3", "text")
    assert rep.checked == 4
    assert rep.violations == [
        {"graph6": "A_", "detail": "graph"},
        {"graph6": "1 2 1 2", "detail": "word"},
        {"graph6": "order 3", "detail": "text"},
    ]


def test_report_mask_failures_are_counted_and_capped():
    rep = VerificationReport("demo", 4)
    masks = np.arange(1 << en.pair_count(4))
    rep.record_mask_failures(4, masks, masks % 2 == 0, "odd mask")
    assert rep.checked == 64
    assert len(rep.violations) == suites.MAX_VIOLATIONS_PER_CHECK + 1 == 21
    assert rep.violations[0] == {
        "graph6": to_graph6(en.graph_of_mask(4, 1)), "detail": "odd mask"
    }
    assert rep.violations[-1] == {"graph6": "...", "detail": "12 more: odd mask"}

