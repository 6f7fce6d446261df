"""CLI integration tests: commands, formats, JSON mode, exit codes."""

import hashlib
import json

import pytest

from interlacepoly.cli import main
from interlacepoly.enumeration import all_graphs
from interlacepoly.graphs import from_graph6, is_connected
from interlacepoly.interlace import interlace_polynomial
from interlacepoly.suites import VerificationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_edgelist(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "poly", str(f))
    assert code == 0 and out.strip() == "6x + 5x^2"


def test_poly_graph6_and_json(tmp_path, capsys):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    code, out, _ = run_cli(capsys, "poly", str(f), "--format", "graph6", "--json")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["0", "8"]}


def test_poly_edgeless(tmp_path, capsys):
    f = tmp_path / "e3.txt"
    f.write_text("3 0\n")
    code, out, _ = run_cli(capsys, "poly", str(f))
    assert code == 0 and out.strip() == "x^3"


def test_euler_count_and_partitions(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("1 2 1 2\n")
    code, out, _ = run_cli(capsys, "euler", "count", str(f))
    assert code == 0 and out.strip() == "2"
    f.write_text("1 1\n")
    code, out, _ = run_cli(capsys, "euler", "partitions", str(f))
    assert code == 0 and out.strip() == "x + x^2"
    code, out, _ = run_cli(capsys, "euler", "martin", str(f))
    assert code == 0 and out.strip() == "x"


def test_euler_orbit(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("1 2 3 1 3 4 2 4\n")
    code, out, _ = run_cli(capsys, "euler", "orbit", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    # orbit size equals the BEST count, which equals q(path;1) = 5
    assert data["euler_circuits"] == 5
    assert len(data["words"]) == 5


def test_euler_orbit_text_lists_the_json_words(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("1 2 3 1 3 4 2 4\n")
    _, out, _ = run_cli(capsys, "euler", "orbit", str(f), "--json")
    words = json.loads(out)["words"]
    code, out, err = run_cli(capsys, "euler", "orbit", str(f))
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "euler circuits (circuit orbit size): 5",
        "distinct visit words: 5",
        *words,
    ]


def test_euler_orbit_above_seven_symbols(tmp_path, capsys):
    # the digraph of a b ... h a b ... h is a cycle of doubled arcs: its
    # 2^7 circuits share one visit word, printed in the input's tokens
    f = tmp_path / "w.txt"
    f.write_text("a b c d e f g h a b c d e f g h\n")
    code, out, err = run_cli(capsys, "euler", "orbit", str(f), "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "euler_circuits": 128, "words": ["a b c d e f g h a b c d e f g h"]
    }


@pytest.mark.parametrize("action", ["count", "partitions", "martin", "orbit"])
def test_euler_empty_word(tmp_path, capsys, action):
    f = tmp_path / "w.txt"
    f.write_text("\n")
    code, out, err = run_cli(capsys, "euler", action, str(f))
    assert code == 2 and out == ""
    assert err == "error: the word is empty: it has no symbols\n"


def test_euler_format_flag_rejected(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["euler", "count", str(f), "--format", "graph6"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_enumerate_small(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # all labeled graphs of order 3
    code, out, _ = run_cli(capsys, "enumerate", "3", "--distinct")
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # distinct polynomials
    code, out, _ = run_cli(capsys, "enumerate", "1")
    assert code == 0 and out.strip().split("\t")[1] == "x"


def test_enumerate_json_lists_every_labeled_graph(capsys):
    _, text, _ = run_cli(capsys, "enumerate", "3")
    code, out, _ = run_cli(capsys, "enumerate", "3", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    g6s = [r["graph6"] for r in records]
    assert g6s == [line.split("\t")[0] for line in text.splitlines()]
    assert len(set(g6s)) == 8
    for r in records:
        q = interlace_polynomial(from_graph6(r["graph6"]))
        assert r == {"graph6": r["graph6"], **q.to_json_dict()}


def test_enumerate_distinct_connected(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4", "--distinct", "--connected")
    assert code == 0
    census: dict[str, int] = {}
    for g in filter(is_connected, all_graphs(4)):
        q = str(interlace_polynomial(g))
        census[q] = census.get(q, 0) + 1
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert {q: int(count) for count, _, q in lines} == census
    assert len(lines) == len(census)
    assert sum(int(count) for count, _, _ in lines) == 38


@pytest.mark.parametrize(
    "flags, digest",
    [
        (("--json",), "d52d4cbb435b42b821398f726868d6a226697b32aa6322324bd0001c78c498b7"),
        (("--connected",), "543972e80c5ec26bdd2d7e09f8cf9ef88df5c6ec3f325cd6c1dc9d8629cf18d2"),
    ],
)
def test_enumerate_distinct_output_is_pinned(capsys, flags, digest):
    code, out, _ = run_cli(capsys, "enumerate", "5", "--distinct", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_negative_order(capsys):
    code, out, err = run_cli(capsys, "enumerate", "-1", "--distinct")
    assert code == 2 and out == ""
    assert err == "error: order must be at least 0, got -1\n"


def test_enumerate_refuses_large_without_force(capsys):
    code, _, err = run_cli(capsys, "enumerate", "9")
    assert code == 2
    assert err == "error: order 9 exceeds 7, the largest order of the tables\n"


def test_enumerate_force_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "8", "--force"])
    assert exc.value.code == 2
    assert "--force" in capsys.readouterr().err


def test_verify_identities(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "identities",
        "--n-max", "4", "--words-n-max", "3", "--samples", "20", "--json",
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["suite"] for r in reports] == ["identities", "orbits"]
    assert all(r["violations"] == [] for r in reports)


def test_verify_extremal_reports_known_failures(capsys):
    code, out, _ = run_cli(capsys, "verify", "extremal", "--n-max", "4")
    assert code == 1
    assert "two-term" in out


def test_verify_text_lists_ten_violations_then_the_rest_as_a_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "extremal", "--n-max", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("[FAIL (24 stored)] suite=extremal n_max=5 ")
    assert len(lines) == 12 and lines[-1] == "    ... 14 more stored"


def test_verify_conjectures(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "conjectures", "--n-max", "3", "--samples", "10"
    )
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize(
    "suite, flag",
    [("extremal", "--n-max"), ("identities", "--words-n-max"), ("conjectures", "--samples")],
)
def test_verify_rejects_negative_counts(suite, flag, capsys):
    code, out, err = run_cli(capsys, "verify", suite, flag, "-1")
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "suite, flag",
    [
        ("extremal", "--seed"),
        ("extremal", "--samples"),
        ("extremal", "--words-n-max"),
        ("conjectures", "--words-n-max"),
    ],
)
def test_verify_rejects_a_flag_the_suite_ignores(suite, flag, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before the flag was checked")

    for runner in ("run_extremal_suite", "run_conjecture_suite"):
        monkeypatch.setattr(f"interlacepoly.cli.{runner}", must_not_run)
    code, out, err = run_cli(capsys, "verify", suite, "--n-max", "3", flag, "2")
    assert code == 2 and out == ""
    assert err == f"error: {flag} has no effect on the {suite} suite\n"


def test_verify_defaults_reach_the_suites_that_read_them(capsys, monkeypatch):
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return VerificationReport("fake", 0)

    for runner in ("identity", "orbit", "extremal", "conjecture"):
        monkeypatch.setattr(f"interlacepoly.cli.run_{runner}_suite", fake)
    for suite in ("identities", "extremal", "conjectures"):
        assert run_cli(capsys, "verify", suite)[0] == 0
    assert calls == [
        {"n_max": 6, "word_samples": 500, "seed": 20},
        {"max_symbols": 5},
        {"n_max": 6},
        {"n_max": 6, "random_samples": 500, "seed": 20},
    ]


def test_verify_rejects_words_n_max_above_table_cap(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before the flag was checked")

    monkeypatch.setattr("interlacepoly.cli.run_identity_suite", must_not_run)
    for symbols in ("7", "8"):
        code, out, err = run_cli(capsys, "verify", "identities", "--words-n-max", symbols)
        assert code == 2 and out == ""
        assert err == f"error: --words-n-max must be at most 6, got {symbols}\n"


@pytest.mark.parametrize("suite", ["identities", "extremal", "conjectures"])
def test_verify_rejects_an_order_above_the_tables_before_any_sweep(
    suite, capsys, monkeypatch
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a sweep ran before the order was checked")

    for reader in ("words", "distinct"):
        monkeypatch.setattr(f"interlacepoly.enumeration.{reader}", must_not_run)
    code, out, err = run_cli(capsys, "verify", suite, "--n-max", "8")
    assert code == 2 and out == ""
    assert err == "error: order 8 exceeds 7, the largest order of the tables\n"


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "poly", str(tmp_path / "missing.txt"))
    assert code == 2 and "error:" in err
    f = tmp_path / "w.txt"
    f.write_text("1 2 1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["poly", str(f), "--format", "word"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")  # not a double occurrence word
    code, _, err = run_cli(capsys, "euler", "count", str(bad))
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("!" + "?" * 78, "invalid graph6 byte 33"),
        ("~???", "graph6 order 0 needs the one-byte size form"),
        ("A`", "graph6 padding bits are not zero"),
    ],
)
def test_poly_rejects_malformed_graph6(tmp_path, capsys, text, message):
    f = tmp_path / "bad.g6"
    f.write_text(text + "\n")
    code, out, err = run_cli(capsys, "poly", str(f), "--format", "graph6")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_poly_rejects_a_repeated_edge(tmp_path, capsys):
    f = tmp_path / "k2.txt"
    f.write_text("2 2\n0 1\n1 0\n")  # K_2 has 1 edge, not the promised 2
    code, out, err = run_cli(capsys, "poly", str(f))
    assert code == 2 and out == ""
    assert err == "error: repeated edge 1 0\n"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
    code, out, _ = run_cli(capsys, "poly", "-")
    assert code == 0 and out.strip() == "2x"
