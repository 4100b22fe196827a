"""Command-line contract: file formats, exit codes, tolerance plumbing."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psdorder
from psdorder.cli import (
    read_array,
    read_matrix,
    read_model,
    read_vector,
    run,
    write_matrix,
)
from psdorder.errors import ParseError


NOT_UTF8 = b"\xff\xfe\x00\x01"


def csv(tmp_path, name, m):
    p = tmp_path / name
    write_matrix(p, np.asarray(m, dtype=float))
    return str(p)


def _reject_constant(token):
    raise ValueError(f"stdout is not strict JSON: it holds {token}")


def strict_json(text):
    """Parse stdout as JSON, rejecting the NaN/Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, (strict_json(out) if out else None)


# ----- file formats ----------------------------------------------------------

def test_read_array_csv_and_json(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,0\n0,1\n")
    np.testing.assert_array_equal(read_array(p), np.eye(2))
    # blank lines, wherever they fall, are skipped
    p.write_text("\n1,0\n  \n0,1\n\n")
    np.testing.assert_array_equal(read_array(p), np.eye(2))
    j = tmp_path / "m.json"
    j.write_text('{"n": 2, "entries": [[1, 2], [2, 1]]}')
    np.testing.assert_array_equal(read_array(j), [[1, 2], [2, 1]])
    j.write_text("[[3, 0], [0, 3]]")
    np.testing.assert_array_equal(read_array(j), 3 * np.eye(2))


def test_read_array_rejects_bad_input(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="ragged"):
        read_array(p)
    p.write_text("1,zebra\n")
    with pytest.raises(ParseError, match="malformed"):
        read_array(p)
    p.write_text("")
    with pytest.raises(ParseError, match="no rows"):
        read_array(p)
    with pytest.raises(ParseError):
        read_array(tmp_path / "absent.csv")
    p.write_bytes(NOT_UTF8)
    with pytest.raises(ParseError, match=re.escape(str(p))):
        read_array(p)
    j = tmp_path / "m.json"
    j.write_text('{"n": 3, "entries": [[1, 0], [0, 1]]}')
    with pytest.raises(ParseError, match="declared n=3"):
        read_array(j)
    j.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        read_array(j)
    j.write_text('{"n": 2}')
    with pytest.raises(ParseError, match="expected an 'entries' key"):
        read_array(j)
    j.write_text("[1, 2]")
    with pytest.raises(ParseError, match="2-D matrix"):
        read_array(j)


def test_read_matrix_symmetrizes_with_warning(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("4,0.75\n0.25,1\n")
    sym = read_matrix(p)
    assert sym.a[0, 1] == 0.5
    # the warning prints max|A - A^T| of the file, neither relative nor halved
    a = read_array(p)
    printed = re.search(r"asymmetry (\S+) exceeds", capsys.readouterr().err).group(1)
    assert float(printed) == np.abs(a - a.T).max() == 0.5
    p.write_text("1,0.2\n0.2,1\n")
    read_matrix(p)
    assert capsys.readouterr().err == ""
    p.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ParseError, match="square"):
        read_matrix(p)


def test_read_vector_shapes(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1,2,3\n")
    np.testing.assert_array_equal(read_vector(p), [1, 2, 3])
    p.write_text("1\n2\n3\n")
    np.testing.assert_array_equal(read_vector(p), [1, 2, 3])
    j = tmp_path / "v.json"
    j.write_text("[4, 5]")
    np.testing.assert_array_equal(read_vector(j), [4, 5])
    p.write_text("1,2\n3,4\n")
    with pytest.raises(ParseError):
        read_vector(p)
    # JSON takes the shapes CSV takes: flat, one row or one column
    j.write_text('{"n": 1, "entries": [[4, 5]]}')
    np.testing.assert_array_equal(read_vector(j), [4, 5])
    j.write_text("[[4], [5]]")
    np.testing.assert_array_equal(read_vector(j), [4, 5])
    for text in ("[[1, 2], [3, 4]]", "7", "[[[1]], [[2]]]"):
        j.write_text(text)
        with pytest.raises(ParseError, match="single row or column"):
            read_vector(j)


def test_write_matrix_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(1)
    tricky = np.array([[1.0 / 3.0, 0.1], [1e-300, -7.25e17]])
    for m in (tricky, rng.standard_normal((5, 5)), np.zeros((2, 2))):
        p = tmp_path / "m.csv"
        write_matrix(p, m)
        back = read_array(p)
        assert np.array_equal(back, m)  # bit-for-bit via 17 significant digits


def test_read_model(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps({
        "label": "pilot", "X": [[1.0], [1.0]], "D": [[1.0, 0.0], [0.0, 1.0]],
        "sigma2": 2.0}))
    m = read_model(p)
    assert m.label == "pilot" and m.sigma2 == 2.0 and (m.n, m.p) == (2, 1)
    p.write_text(json.dumps({"X": [[1.0], [1.0]]}))
    with pytest.raises(ParseError, match="'X' and 'D'"):
        read_model(p)
    p.write_text(json.dumps({"X": [1.0, 1.0], "D": [[1.0, 0.0], [0.0, 1.0]]}))
    with pytest.raises(ParseError, match="2-D"):
        read_model(p)
    # the library's own faults on a parsed model name the file too: a D of
    # another size than X's rows, a negative sigma2 and a D that is not square
    for model in ({"X": [[1.0], [1.0]], "D": np.eye(3).tolist()},
                  {"X": [[1.0], [1.0]], "D": np.eye(2).tolist(), "sigma2": -1},
                  {"X": [[1.0], [1.0]], "D": [[1.0, 0.0]]}):
        p.write_text(json.dumps(model))
        with pytest.raises(ParseError, match=re.escape(str(p))):
            read_model(p)


# ----- exit codes and payloads ----------------------------------------------

def test_order_check_exit_codes(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.diag([1.0, 0.0]))
    b = csv(tmp_path, "b.csv", np.eye(2))
    code, payload = run_json(capsys, ["order", "check", "--relation", "lowner", a, b])
    assert code == 0
    assert payload["holds"] is True
    assert payload["command"] == "order check"
    assert payload["detail"] == "strictly less"
    assert "tolerances" in payload and "version" in payload
    code, payload = run_json(capsys, ["order", "check", "--relation", "lowner", b, a])
    assert code == 1
    assert payload["holds"] is False
    assert payload["certificate"]["witness"] is not None


def test_order_check_all_relations(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.diag([1.0, 0.0]))
    b = csv(tmp_path, "b.csv", np.eye(2))
    for rel in ("lowner", "minus", "star", "left-star", "right-star"):
        code, payload = run_json(capsys, ["order", "check", "--relation", rel, a, b])
        assert code == 0 and payload["relation"] == rel


def test_order_minus_methods(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.diag([1.0, 0.0]))
    b = csv(tmp_path, "b.csv", np.eye(2))
    for method in ("rank", "image", "ginv"):
        code, payload = run_json(capsys, ["order", "minus", "--method", method, a, b])
        assert code == 0 and payload["method"] == method
    code, payload = run_json(capsys, ["order", "minus", b, a])
    assert code == 1


def test_order_minus_certificate_that_fails_its_check_exits_2(tmp_path, capsys):
    # the rank equation holds on a miscount (see test_orders.MISCOUNTED):
    # the image and ginv certificates fail their one direct-sum check, with
    # nothing on stdout
    a = csv(tmp_path, "a.csv", np.diag([-1.0, 2e-15, 2e-15]))
    b = csv(tmp_path, "b.csv", np.diag([0.0, 4e-15, 4e-15]))
    code, payload = run_json(capsys, ["order", "minus", a, b])
    assert code == 0 and payload["detail"] == "strictly less"
    for method in ("image", "ginv"):
        assert run(["order", "minus", "--method", method, a, b]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{method} certificate" in captured.err
        assert "fails its direct-sum check" in captured.err
    a = csv(tmp_path, "a.csv", np.diag([1.0, 1e-3, 0.0]))
    b = csv(tmp_path, "b.csv", np.diag([1.0, 1e-3, 1.0]))
    assert run(["order", "minus", "--method", "ginv", "--tol-rank", "1e-2", a, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "fails its identity check" in captured.err


def test_usage_errors_exit_2(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.eye(2))
    assert run([]) == 2
    assert run(["order"]) == 2
    assert run(["order", "check", "--relation", "bogus", a, a]) == 2
    assert run(["order", "check", "--relation", "lowner", a, str(tmp_path / "no.csv")]) == 2
    rect = tmp_path / "r.csv"
    rect.write_text("1,2,3\n4,5,6\n")
    assert run(["order", "check", "--relation", "lowner", a, str(rect)]) == 2
    err = capsys.readouterr().err
    assert "square" in err
    # a --forms list that names no file
    assert run(["qform", "check", "--forms", ",", "--cov", a, "--mean", a]) == 2
    assert "--forms needs at least one matrix path" in capsys.readouterr().err


@pytest.mark.parametrize("solver, argv", [
    ("eigh", ["order", "check", "--relation", "lowner"]),
    ("eigvalsh", ["order", "minus"]),
    ("svd", ["order", "minus", "--method", "ginv"]),
    ("svd", ["canon", "simcong"]),
])
def test_a_lapack_failure_to_converge_exits_1(tmp_path, capsys, monkeypatch, solver, argv):
    # a domain fault, whichever LAPACK routine fails: its JSON on stdout, exit 1
    a, b = csv(tmp_path, "a.csv", np.diag([1.0, 0.0])), csv(tmp_path, "b.csv", np.eye(2))

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    code, payload = run_json(capsys, argv + [a, b])
    assert (code, payload["error"]) == (1, "NonConvergence")


def test_canon_inertia(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.diag([2.0, -3.0, 0.0]))
    code, payload = run_json(capsys, ["canon", "inertia", a])
    assert code == 0
    assert payload["result"] == {"n_pos": 1, "n_neg": 1, "n_zero": 1, "rank": 2}


def test_canon_simcong_success_writes_transform(tmp_path, capsys):
    rng = np.random.default_rng(3)
    s0 = rng.uniform(-1, 1, size=(3, 3))
    while np.linalg.cond(s0) > 100:
        s0 = rng.uniform(-1, 1, size=(3, 3))
    e1, e2 = np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])
    a = csv(tmp_path, "a.csv", s0 @ e1 @ s0.T)
    b = csv(tmp_path, "b.csv", s0 @ e2 @ s0.T)
    out = tmp_path / "s.csv"
    code, payload = run_json(capsys, ["canon", "simcong", a, b, "--out", str(out)])
    assert code == 0
    assert payload["result"]["rank_a"] == 1 and payload["result"]["rank_b"] == 2
    s = read_array(out)
    np.testing.assert_array_equal(s, np.array(payload["result"]["s"]))
    np.testing.assert_allclose(s @ e1 @ s.T, read_array(a), atol=1e-8)
    np.testing.assert_allclose(s @ e2 @ s.T, read_array(b), atol=1e-8)


def test_canon_simcong_failure_payload(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.diag([1.0, 0.0]))
    b = csv(tmp_path, "b.csv", np.diag([2.0, 0.0]))
    code, payload = run_json(capsys, ["canon", "simcong", a, b])
    assert code == 1
    assert payload["error"] == "NotMinusComparable"
    assert payload["rank_triple"] == [1, 1, 1]
    bad = csv(tmp_path, "bad.csv", [[1.0, 2.0], [2.0, 1.0]])
    code, payload = run_json(capsys, ["canon", "simcong", bad, b])
    assert code == 1
    assert payload["error"] == "NotPositiveSemidefinite"


def test_canon_simcong_follows_the_rank_equation(tmp_path, capsys):
    # diag(1, 1e-10) is not below I (rank(I - A) = 1): exit 1
    a = csv(tmp_path, "a.csv", np.diag([1.0, 1e-10]))
    code, payload = run_json(capsys, ["canon", "simcong", a, csv(tmp_path, "i.csv", np.eye(2))])
    assert (code, payload["error"], payload["rank_triple"]) == (1, "NotMinusComparable", [2, 2, 1])
    # diag(1e-15, 0) is under the pair's cutoff, so below diag(0, 1) with
    # rank 0: every route and the reduction say so
    a = csv(tmp_path, "a.csv", np.diag([1e-15, 0.0]))
    b = csv(tmp_path, "b.csv", np.diag([0.0, 1.0]))
    code, payload = run_json(capsys, ["canon", "simcong", a, b])
    assert (code, payload["result"]["rank_a"], payload["result"]["rank_b"]) == (0, 0, 1)
    for method in ("rank", "image", "ginv"):
        code, payload = run_json(capsys, ["order", "minus", "--method", method, a, b])
        assert (code, payload["detail"]) == (0, "strictly less"), method
    # a holding graded pair: A = diag(0, 5e-8) is under the pair's cutoff,
    # so below B = diag(1e12, 1) with rank 0, and S, read off B - A's
    # eigenvectors, reconstructs both within recon_tol of the pair's scale
    a = csv(tmp_path, "a.csv", np.diag([0.0, 5e-8]))
    b = csv(tmp_path, "b.csv", np.diag([1e12, 1.0]))
    code, payload = run_json(capsys, ["canon", "simcong", a, b])
    result = payload["result"]
    assert (code, result["rank_a"], result["rank_b"]) == (0, 0, 2)
    assert max(result["residual_a"], result["residual_b"]) <= psdorder.DEFAULT_TOL.recon_tol


def test_preserver_verify(tmp_path, capsys):
    s = csv(tmp_path, "s.csv", [[2.0, 1.0], [0.0, 1.0]])
    code, payload = run_json(capsys, [
        "preserver", "verify", "--map", f"congruence:{s}",
        "--relation", "lowner", "--trials", "60"])
    assert code == 0
    assert payload["holds"] is True
    assert payload["result"]["n"] == 2  # inferred from the transform file
    code, payload = run_json(capsys, [
        "preserver", "verify", "--map", "trace-inflation",
        "--relation", "lowner", "--n", "2", "--trials", "120"])
    assert code == 1
    assert payload["result"]["backward_failures"] > 0
    assert payload["result"]["forward_failures"] == 0
    assert run(["preserver", "verify", "--map", "no-such-map",
                "--relation", "lowner"]) == 2


@pytest.mark.parametrize("relation", ["lowner", "minus"])
@pytest.mark.parametrize("tol", [["--tol-psd", "0.5"], ["--tol-rank", "0.5"], ["--tol-psd", "1e-300"],
                                 ["--tol-rank", "1e-300"], []])
def test_the_identity_preserves_every_order_under_any_tolerances(tmp_path, capsys, relation, tol):
    # the originals and their images are decided under the same tolerances,
    # so the identity map passes whether they relate more pairs (loose) or
    # fewer (strict) than the pairs' construction does
    s = csv(tmp_path, "eye.csv", np.eye(3))
    code, payload = run_json(capsys, [*tol, "preserver", "verify", "--map", f"congruence:{s}",
                                      "--relation", relation, "--trials", "80"])
    result = payload["result"]
    assert (code, result["forward_failures"], result["backward_failures"]) == (0, 0, 0)
    assert 0 < result["forward_checked"] == result["backward_checked"]


def test_preserver_verify_rejects_a_congruence_that_does_not_fit(tmp_path, capsys):
    # a factor that is not square, and a square one of another size than --n
    for s, n in (([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], []), (np.eye(2), ["--n", "3"])):
        path = csv(tmp_path, "s.csv", s)
        code = run(["preserver", "verify", "--map", f"congruence:{path}", "--relation", "lowner", *n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_preserver_fit(tmp_path, capsys):
    from psdorder import probe_inputs
    rng = np.random.default_rng(5)
    s0 = rng.uniform(-1, 1, size=(3, 3))
    d = tmp_path / "samples"
    d.mkdir()
    for k, probe in enumerate(probe_inputs(3)):
        write_matrix(d / f"in_{k}.csv", probe)
        write_matrix(d / f"out_{k}.csv", s0 @ probe @ s0.T)
    out = tmp_path / "fitted.csv"
    code, payload = run_json(capsys, [
        "preserver", "fit", "--samples", str(d), "--out", str(out)])
    assert code == 0
    fitted = read_array(out)
    np.testing.assert_array_equal(fitted, np.array(payload["result"]["s"]))
    probe = probe_inputs(3)[2]
    np.testing.assert_allclose(fitted @ probe @ fitted.T, s0 @ probe @ s0.T, atol=1e-8)


def test_preserver_fit_error_paths(tmp_path, capsys):
    d = tmp_path / "samples"
    d.mkdir()
    assert run(["preserver", "fit", "--samples", str(d)]) == 2  # empty dir
    not_a_dir = csv(tmp_path, "in_0.csv", np.eye(2))
    assert_usage_error(capsys, ["preserver", "fit", "--samples", not_a_dir])
    write_matrix(d / "in_0.csv", np.eye(2))
    assert run(["preserver", "fit", "--samples", str(d)]) == 2  # missing out_0
    write_matrix(d / "out_0.csv", np.eye(2))
    code, payload = run_json(capsys, ["preserver", "fit", "--samples", str(d)])
    assert code == 1  # probes incomplete: a domain rejection, not a usage error
    assert payload["error"] == "InconsistentSamples"
    write_matrix(d / "in_1.csv", np.eye(3))
    write_matrix(d / "out_1.csv", np.eye(3))
    assert_usage_error(capsys, ["preserver", "fit", "--samples", str(d)])  # mixed shapes


def _sample_dir(tmp_path, name):
    d = tmp_path / name
    d.mkdir()
    for k, probe in enumerate(psdorder.probe_inputs(2)):
        write_matrix(d / f"in_{k}.csv", probe)
        write_matrix(d / f"out_{k}.csv", 2.0 * probe)
    return d


def _file_faults(tmp_path):
    """Each file-fault case: its argv, and the path its error must name."""
    bad, model = tmp_path / "bad.csv", tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    model.write_bytes(NOT_UTF8)
    bad_samples = _sample_dir(tmp_path, "bad_samples")
    (bad_samples / "in_0.csv").write_bytes(NOT_UTF8)
    eye = csv(tmp_path, "eye.csv", np.eye(2))
    simcong = ["canon", "simcong", csv(tmp_path, "e1.csv", np.diag([1.0, 0.0])), eye]
    fit = ["preserver", "fit", "--samples", str(_sample_dir(tmp_path, "samples"))]
    missing = tmp_path / "missing" / "s.csv"
    return {
        "matrix": (["canon", "inertia", str(bad)], bad),
        "model": (["model", "compare", str(model), str(model)], model),
        "mean": (["qform", "check", "--forms", eye, "--cov", eye, "--mean", str(bad)], bad),
        "sample": (["preserver", "fit", "--samples", str(bad_samples)], bad_samples / "in_0.csv"),
        "simcong --out missing dir": ([*simcong, "--out", str(missing)], missing),
        "simcong --out dir": ([*simcong, "--out", str(tmp_path)], tmp_path),
        "fit --out missing dir": ([*fit, "--out", str(missing)], missing),
        "fit --out dir": ([*fit, "--out", str(tmp_path)], tmp_path),
    }


@pytest.mark.parametrize("case", [
    "matrix", "model", "mean", "sample",
    "simcong --out missing dir", "simcong --out dir", "fit --out missing dir", "fit --out dir",
])
def test_a_file_that_cannot_be_read_or_written_is_a_usage_error(tmp_path, capsys, case):
    # a file that is not UTF-8 text, or an --out path that cannot be written,
    # is a usage error naming the path, with nothing on stdout and no file left
    argv, path = _file_faults(tmp_path)[case]
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(path) in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_model_compare(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    m1.write_text(json.dumps({"X": [[1, 0], [0, 1]], "D": [[1, 0], [0, 1]]}))
    m2.write_text(json.dumps({"X": [[1, 0], [0, 1]], "D": [[2, 0], [0, 2]]}))
    code, payload = run_json(capsys, ["model", "compare", str(m1), str(m2)])
    assert code == 0
    assert payload["result"]["l1_geq_l2"] is True
    assert payload["result"]["l2_geq_l1"] is False
    code, payload = run_json(capsys, ["model", "compare", str(m2), str(m1)])
    assert code == 1


def test_model_blue(tmp_path, capsys):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 2))
    h = x @ np.linalg.inv(x.T @ x) @ x.T
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"X": x.tolist(), "D": np.eye(4).tolist()}))
    hat = csv(tmp_path, "hat.csv", h)
    code, payload = run_json(capsys, ["model", "blue", "--estimator", hat, str(model)])
    assert code == 0
    assert payload["result"]["is_blue"] is True
    zero = csv(tmp_path, "zero.csv", np.zeros((4, 4)))
    code, payload = run_json(capsys, ["model", "blue", "--estimator", zero, str(model)])
    assert code == 1
    assert payload["result"]["cond_i"] is False
    # L = I is unbiased, but under white noise D L^T = I leaves Im X
    ident = csv(tmp_path, "eye.csv", np.eye(4))
    code, payload = run_json(capsys, ["model", "blue", "--estimator", ident, str(model)])
    assert code == 1
    assert payload["result"] == {"cond_i": True, "cond_ii": False, "is_blue": False}


def test_qform_check(tmp_path, capsys):
    a1 = csv(tmp_path, "a1.csv", np.diag([1.0, 0.0, 0.0]))
    a2 = csv(tmp_path, "a2.csv", np.diag([0.0, 1.0, 1.0]))
    cov = csv(tmp_path, "cov.csv", np.eye(3))
    mean = tmp_path / "mean.csv"
    mean.write_text("0,0,0\n")
    code, payload = run_json(capsys, [
        "qform", "check", "--forms", f"{a1},{a2}", "--cov", cov, "--mean", str(mean)])
    assert code == 0
    assert payload["result"]["s"] == 3
    assert [f["rank"] for f in payload["result"]["forms"]] == [1, 2]
    assert "mc" not in payload["result"]
    code, payload = run_json(capsys, [
        "qform", "check", "--forms", f"{a1},{a2}", "--cov", cov, "--mean", str(mean),
        "--mc", "20000", "--seed", "3"])
    assert code == 0
    mc = payload["result"]["mc"]
    assert mc["n_samples"] == 20000 and mc["dfs"] == [1, 2]
    assert mc["max_abs_corr"] < 0.05
    assert payload["result"]["total_chisq_ks"] == mc["total_ks"]
    assert mc["total_ks"] < 0.02


def test_qform_check_overlap_fails(tmp_path, capsys):
    half = csv(tmp_path, "half.csv", 0.5 * np.eye(2))
    cov = csv(tmp_path, "cov.csv", np.eye(2))
    mean = tmp_path / "mean.csv"
    mean.write_text("0,0\n")
    code, payload = run_json(capsys, [
        "qform", "check", "--forms", f"{half},{half}", "--cov", cov, "--mean", str(mean)])
    assert code == 1
    assert payload["holds"] is False


# ----- hostile input ----------------------------------------------------------

def assert_usage_error(capsys, argv):
    """Exit 2, a message on stderr, nothing on stdout."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_a_json_matrix_must_declare_an_integer_n(tmp_path, capsys):
    # a string or a bool "n" is a usage error that names the key, not a
    # row count that seems to disagree, and no bool passes as 1
    for name, text in (("string.json", '{"n": "2", "entries": [[1, 0], [0, 1]]}'),
                       ("bool.json", '{"n": true, "entries": [[1]]}')):
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(ParseError, match="'n' must be an integer"):
            read_array(bad)
        assert_usage_error(capsys, ["canon", "inertia", str(bad)])


def test_a_model_file_must_give_sigma2_as_a_number(tmp_path, capsys):
    # a string or a bool "sigma2" is a usage error naming the key, and no
    # bool passes as 1.0; an integer is a number
    model = tmp_path / "model.json"
    good = '"X": [[1.0], [1.0]], "D": [[1.0, 0.0], [0.0, 1.0]]'
    for text in ('"2"', "true", "null"):
        model.write_text(f'{{{good}, "sigma2": {text}}}')
        with pytest.raises(ParseError, match="'sigma2' must be a number"):
            read_model(model)
        assert_usage_error(capsys, ["model", "compare", str(model), str(model)])
    model.write_text(f'{{{good}, "sigma2": 2}}')
    assert read_model(model).sigma2 == 2.0 and type(read_model(model).sigma2) is float


def test_a_json_integer_beyond_the_float_range_is_a_parse_error(tmp_path, capsys):
    # json reads it as an int, which no float holds: a usage error, not a traceback
    huge = "1" + "0" * 400
    model = tmp_path / "model.json"
    for text in (f'"X": [[1.0]], "D": [[1.0]], "sigma2": {huge}', f'"X": [[{huge}]], "D": [[1.0]]'):
        model.write_text(f"{{{text}}}")
        with pytest.raises(ParseError, match="int too large"):
            read_model(model)
        assert_usage_error(capsys, ["model", "compare", str(model), str(model)])
    matrix = tmp_path / "matrix.json"
    matrix.write_text(f"[[{huge}]]")
    assert_usage_error(capsys, ["canon", "inertia", str(matrix)])


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_matrix_entries_are_parse_errors(tmp_path, capsys, token):
    good = csv(tmp_path, "good.csv", np.eye(2))
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text(f"1,0\n0,{token}\n")
    literal = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[token]
    bad_json = tmp_path / "bad.json"
    bad_json.write_text(f'{{"n": 2, "entries": [[1, 0], [0, {literal}]]}}')
    for bad in (bad_csv, bad_json):
        with pytest.raises(ParseError, match="non-finite"):
            read_array(bad)
        assert_usage_error(capsys, ["order", "check", "--relation", "lowner", good, str(bad)])
        assert_usage_error(capsys, ["canon", "inertia", str(bad)])


@pytest.mark.parametrize("relation", ["lowner", "minus", "star"])
def test_entries_near_the_top_of_the_float_range(tmp_path, capsys, relation):
    a = csv(tmp_path, "a.csv", np.diag([1e308, 0.0]))
    b = csv(tmp_path, "b.csv", np.diag([1.5e308, 1.0]))
    code, payload = run_json(capsys, ["order", "check", "--relation", relation, a, b])
    assert code == (0 if payload["holds"] else 1)
    # a difference B - A beyond the float range is a usage error
    neg = csv(tmp_path, "neg.csv", np.diag([-1e308, 1.0]))
    assert_usage_error(capsys, ["order", "check", "--relation", relation, neg, b])


def test_non_finite_vector_and_model_entries_are_parse_errors(tmp_path, capsys):
    form = csv(tmp_path, "form.csv", np.eye(2))
    mean_csv = tmp_path / "mean.csv"
    mean_csv.write_text("0,nan\n")
    mean_json = tmp_path / "mean.json"
    mean_json.write_text("[0, Infinity]")
    for mean in (mean_csv, mean_json):
        assert_usage_error(capsys, [
            "qform", "check", "--forms", form, "--cov", form, "--mean", str(mean)])
    good = {"X": [[1.0], [1.0]], "D": [[1.0, 0.0], [0.0, 1.0]]}
    model = tmp_path / "model.json"
    for key, value in (("X", [[1.0], [float("nan")]]),
                       ("D", [[1.0, 0.0], [0.0, float("inf")]]),
                       ("sigma2", float("nan"))):
        model.write_text(json.dumps({**good, key: value}))
        with pytest.raises(ParseError, match="non-finite"):
            read_model(model)
        assert_usage_error(capsys, ["model", "compare", str(model), str(model)])


def test_matrix_as_mean_vector_is_a_usage_error(tmp_path, capsys):
    form = csv(tmp_path, "form.csv", np.eye(4))
    mean = tmp_path / "mean.json"
    mean.write_text("[[1, 2], [3, 4]]")
    assert_usage_error(capsys, [
        "qform", "check", "--forms", form, "--cov", form, "--mean", str(mean)])


def test_preserver_verify_rejects_bad_trials_and_sizes(tmp_path, capsys):
    s = csv(tmp_path, "s.csv", [[2.0, 1.0], [0.0, 1.0]])
    base = ["preserver", "verify", "--relation", "lowner"]
    for trials in ("0", "-1"):
        assert_usage_error(capsys, base + ["--map", "trace-inflation", "--trials", trials])
        assert_usage_error(capsys, base + ["--map", f"congruence:{s}", "--trials", trials])
    for n in ("1", "0", "-2"):
        assert_usage_error(capsys, base + ["--map", "rank-collapse", "--n", n])
    # --n must agree with the congruence it is checked against
    assert_usage_error(capsys, base + ["--map", f"congruence:{s}", "--n", "3"])
    code, payload = run_json(capsys, base + [
        "--map", f"congruence:{s}", "--n", "2", "--trials", "8"])
    assert code == 0 and payload["result"]["n"] == 2


def test_qform_check_rejects_negative_draw_count(tmp_path, capsys):
    form = csv(tmp_path, "form.csv", np.eye(2))
    mean = tmp_path / "mean.csv"
    mean.write_text("0,0\n")
    assert_usage_error(capsys, [
        "qform", "check", "--forms", form, "--cov", form, "--mean", str(mean),
        "--mc", "-5"])


def test_json_flag_is_gone(tmp_path, capsys):
    # JSON is the only output format, so there is no flag to ask for it.
    a = csv(tmp_path, "a.csv", np.eye(2))
    assert run(["order", "check", "--json", "--relation", "lowner", a, a]) == 2
    assert capsys.readouterr().out == ""


# ----- tolerance plumbing ----------------------------------------------------

def test_tolerance_flag_changes_rank_decision(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.diag([1.0, 1e-6]))
    code, payload = run_json(capsys, ["canon", "inertia", a])
    assert payload["result"]["rank"] == 2
    code, payload = run_json(capsys, ["canon", "inertia", "--tol-rank", "1e-5", a])
    assert payload["result"]["rank"] == 1
    assert payload["tolerances"]["rank_rel_tol"] == 1e-5


def test_tolerance_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    a = csv(tmp_path, "a.csv", np.diag([1.0, 1e-6]))
    monkeypatch.setenv("PSDORDER_TOL_RANK", "1e-5")
    code, payload = run_json(capsys, ["canon", "inertia", a])
    assert payload["result"]["rank"] == 1
    # an explicit flag beats the environment
    code, payload = run_json(capsys, ["canon", "inertia", "--tol-rank", "1e-8", a])
    assert payload["result"]["rank"] == 2
    assert payload["tolerances"]["rank_rel_tol"] == 1e-8
    monkeypatch.setenv("PSDORDER_TOL_RANK", "zebra")
    assert run(["canon", "inertia", a]) == 2
    monkeypatch.delenv("PSDORDER_TOL_RANK")
    assert run(["canon", "inertia", "--tol-rank", "-1", a]) == 2


def test_non_finite_tolerances_are_usage_errors(tmp_path, capsys, monkeypatch):
    z = csv(tmp_path, "z.csv", np.zeros((2, 2)))
    for flag in ("--tol-rank", "--tol-psd"):
        for value in ("inf", "nan"):
            assert_usage_error(capsys, ["order", "minus", flag, value, z, z])
    # certificate checks are judged against recon_tol, which has no flag
    assert_usage_error(capsys, ["order", "minus", "--tol-idem", "1e-8", z, z])
    for env in ("PSDORDER_TOL_PSD", "PSDORDER_TOL_RANK"):
        monkeypatch.setenv(env, "inf")
        assert_usage_error(capsys, ["order", "minus", z, z])
        monkeypatch.delenv(env)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["order", "check", "--relation", "minus", "Z", "BIG"],
    ["order", "check", "--relation", "star", "Z", "BIG"],
    ["order", "check", "--relation", "lowner", "Z", "BIG"],
    ["canon", "inertia", "BIG"],
])
def test_a_spectrum_beyond_the_float_range_is_an_error(tmp_path, capsys, argv):
    # BIG has finite entries and the eigenvalue 2.5e308, beyond the float
    # range: exit 2 with one line on stderr, not a verdict read from an
    # infinite cutoff ("equal", inertia (0, 0, 2)) or a NaN budget
    files = {"Z": csv(tmp_path, "z.csv", np.zeros((2, 2))),
             "BIG": csv(tmp_path, "big.csv", [[1e308, 1.5e308], [1.5e308, 1e308]])}
    assert run([files.get(x, x) for x in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "overflows" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["--tol-rank", "10", "order", "check", "--relation", "minus", "Z", "BIG"],
    ["--tol-rank", "10", "canon", "inertia", "BIG"],
])
def test_a_rank_cutoff_beyond_the_float_range_is_an_error(tmp_path, capsys, argv):
    # the spectrum of BIG = diag(1e308, 0) is finite, but 10 times its
    # radius is not: exit 2 with the typed error alone, no numpy warning
    files = {"Z": csv(tmp_path, "z.csv", np.zeros((2, 2))),
             "BIG": csv(tmp_path, "big.csv", np.diag([1e308, 0.0]))}
    assert run([files.get(x, x) for x in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the rank cutoff overflows the floating-point range\n"


def _overflow_files(tmp_path):
    """Finite inputs whose derived matrices leave the float range."""
    eye = np.eye(2)
    models = {"MX": {"X": 1e200 * eye, "D": eye}, "M1": {"X": eye, "D": eye}}
    files = {name: str(tmp_path / f"{name}.json") for name in models}
    for name, model in models.items():
        Path(files[name]).write_text(json.dumps({k: np.asarray(v).tolist() for k, v in model.items()}))
    for name, m in {"F": 1e200 * eye, "I2": eye, "M": [[1e200, 1e200]], "S": 1e200 * np.eye(3),
                    "A": 1e100 * eye, "B": 1e-300 * eye}.items():
        files[name] = csv(tmp_path, f"{name}.csv", m)
    files["congruence:S"] = "congruence:" + files["S"]
    return files


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, what", [
    (["qform", "check", "--forms", "F", "--cov", "I2", "--mean", "M"], "W^T A W"),
    (["preserver", "verify", "--map", "congruence:S", "--relation", "lowner", "--trials", "8"], "a map image"),
    (["model", "compare", "MX", "M1"], "D + X X^T"),
], ids=["qform-check", "preserver-verify", "model-compare"])
def test_a_derived_matrix_beyond_the_float_range_is_an_error(tmp_path, capsys, argv, what):
    # every input is finite, but a matrix formed from them is not: exit 2
    # with one line on stderr naming it, and no numpy warning
    files = _overflow_files(tmp_path)
    assert run([files.get(x, x) for x in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} overflows the floating-point range\n"


@pytest.mark.filterwarnings("error")
def test_simcong_reports_a_whitened_a_beyond_the_float_range(tmp_path, capsys):
    # A = 1e100 I exceeds B = 1e-300 I in B's own metric, where it would
    # leave the float range: the rank equation rejects the pair, whatever
    # its units, before any certificate is formed
    files = _overflow_files(tmp_path)
    code, payload = run_json(capsys, ["canon", "simcong", files["A"], files["B"]])
    assert code == 1
    assert payload["error"] == "NotMinusComparable"
    assert payload["message"] == "the rank equation fails: rank(B - A) = 2, rank(B) - rank(A) = -2"
    assert payload["rank_triple"] == [2, 0, 2]


def test_tol_psd_reaches_a_models_covariance(tmp_path, capsys):
    # D has the eigenvalue -0.1: within --tol-psd 0.5 of its largest entry,
    # beyond the default 1e-9
    m4, m1 = tmp_path / "m4.json", tmp_path / "m1.json"
    m4.write_text(json.dumps({"X": np.ones((4, 1)).tolist(), "D": np.diag([1, 1, 1, -0.1]).tolist()}))
    m1.write_text(json.dumps({"X": np.ones((4, 1)).tolist(), "D": np.eye(4).tolist()}))
    code, payload = run_json(capsys, ["--tol-psd", "0.5", "model", "compare", str(m4), str(m1)])
    assert code == 0 and "error" not in payload
    code, payload = run_json(capsys, ["model", "compare", str(m4), str(m1)])
    assert code == 1
    assert payload["error"] == "NotPositiveSemidefinite"
    assert payload["message"] == "minimum eigenvalue -0.1 is below -1e-09"


def test_stdout_is_single_json_line(tmp_path, capsys):
    a = csv(tmp_path, "a.csv", np.eye(2))
    run(["order", "check", "--relation", "lowner", a, a])
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    strict_json(out)


@pytest.mark.parametrize("pair, code", [((1, 2), 0), ((2, 1), 1), (None, 2)])
def test_python_m_entry_point(tmp_path, pair, code):
    files = {k: csv(tmp_path, f"e{k}.csv", np.diag([1.0] * k + [0.0] * (2 - k)))
             for k in (1, 2)}
    argv = ["order"]  # no subcommand: a usage error
    if pair:
        argv = ["order", "check", "--relation", "lowner", *(files[k] for k in pair)]
    src = str(Path(psdorder.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "psdorder", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == "" and "usage:" in proc.stderr
    else:
        assert proc.stdout.count("\n") == 1
        assert strict_json(proc.stdout)["holds"] is (code == 0)
