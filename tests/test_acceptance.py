"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single summary line;
the criteria pin exact agreement with the rational-arithmetic oracle,
reconstruction accuracy of the shared congruence, preservation sweeps,
congruence recovery, the segment below a rank-one matrix, the coincidence
of the star variants, the statistics layer, and the command-line contract.
Stated runtime budgets are asserted with a wall clock.
"""

import json
import time

import numpy as np
import pytest

from psdorder import (
    MinusMethod,
    NotMinusComparable,
    Relation,
    blue_check,
    congruence_map,
    fit_congruence,
    lowner_leq,
    mc_quadratic_forms,
    minus_leq,
    model_compare,
    preserves_order,
    probe_inputs,
    qform_rank_criterion,
    sim_congruence,
    star_family_leq,
)
from psdorder.cli import run, write_matrix
from psdorder.linmodels import LinearModel
from psdorder.numkernel import maxabs

import oracles


def bounded_cond(rng, n, limit):
    while True:
        s = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(s) < limit:
            return s


def ek(n, k):
    e = np.zeros((n, n))
    e[:k, :k] = np.eye(k)
    return e


def integer_pair(rng, trial):
    """Integer PSD pair; the mix covers true, false and borderline cases."""
    n = int(rng.integers(1, 7))
    kind = trial % 5
    if kind == 0:
        return oracles.exact_minus_pair(rng, n)
    if kind == 1:
        a = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
        b = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
        return a, b
    if kind == 2:
        a = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
        g = rng.integers(-2, 3, size=(n, int(rng.integers(1, n + 1))))
        return a, a + g @ g.T
    if kind == 3:
        b = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
        return np.zeros((n, n), dtype=int), b
    a = oracles.integer_psd(rng, n, int(rng.integers(0, n + 1)))
    return a, a.copy()


def test_criterion_1_minus_methods_match_exact_oracle():
    """1000 integer PSD pairs (n <= 6): rank, image and ginv methods all
    agree with the rational-arithmetic verdict, within 10 seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260101)
    disagreements = 0
    holds_count = 0
    for trial in range(1000):
        a, b = integer_pair(rng, trial)
        expect = oracles.exact_minus_leq(a, b)
        holds_count += int(expect)
        af, bf = a.astype(float), b.astype(float)
        for method in MinusMethod:
            if minus_leq(af, bf, method=method).holds != expect:
                disagreements += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert 200 <= holds_count <= 800  # the mix saw both outcomes in volume
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"criterion 1 (minus vs oracle): PASS -- 1000 pairs x 3 methods, "
          f"0 disagreements, {elapsed:.1f}s")


def adversarial_pair(rng):
    """Integer PSD pair that fails the rank-subtractivity equation."""
    while True:
        n = int(rng.integers(2, 7))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            # same support, scaled: classic Loewner-yes minus-no
            a = oracles.integer_psd(rng, n, int(rng.integers(1, n + 1)))
            b = int(rng.integers(2, 4)) * a
        elif kind == 1:
            a = oracles.integer_psd(rng, n, int(rng.integers(1, n + 1)))
            g = rng.integers(-2, 3, size=(n, n))
            b = a + g @ g.T
        elif kind == 2:
            a = oracles.integer_psd(rng, n, int(rng.integers(1, n + 1)))
            b = oracles.integer_psd(rng, n, int(rng.integers(1, n + 1)))
        else:
            # equal ranks, unequal matrices: minus can only hold at equality
            r = int(rng.integers(1, n + 1))
            a = oracles.integer_psd(rng, n, r)
            b = oracles.integer_psd(rng, n, r)
        if not oracles.exact_minus_leq(a, b):
            return a, b


def test_criterion_2_sim_congruence_reconstructs_and_rejects():
    """500 constructed pairs (cond(S) < 1e4, n <= 10) reconstruct to 1e-8;
    500 oracle-certified non-pairs produce zero false accepts; under 30s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260202)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 11))
        r = int(rng.integers(0, n + 1))
        s_rank = int(rng.integers(r, n + 1))
        s0 = bounded_cond(rng, n, 1e4)
        a = s0 @ ek(n, r) @ s0.T
        b = s0 @ ek(n, s_rank) @ s0.T
        res = sim_congruence(a, b)
        assert (res.rank_a, res.rank_b) == (r, s_rank)
        worst = max(worst, res.residual_a, res.residual_b)
    assert worst <= 1e-8, f"worst reconstruction residual {worst:.3e}"

    false_accepts = 0
    for _ in range(500):
        a, b = adversarial_pair(rng)
        try:
            sim_congruence(a.astype(float), b.astype(float))
            false_accepts += 1
        except NotMinusComparable:
            pass
    elapsed = time.monotonic() - t0
    assert false_accepts == 0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"criterion 2 (shared congruence): PASS -- worst residual "
          f"{worst:.2e}, 0/500 false accepts, {elapsed:.1f}s")


def test_criterion_3_congruence_preserves_trace_inflation_does_not():
    """Congruence maps preserve the PSD and minus orders in both directions
    over 500 sampled pairs for every n in 2..8; trace inflation shows a
    backward counterexample at n = 2."""
    from psdorder import MatrixMap
    rng = np.random.default_rng(20260303)
    for n in range(2, 9):
        mmap = congruence_map(bounded_cond(rng, n, 1e4))
        for rel in (Relation.LOWNER, Relation.MINUS):
            rep = preserves_order(mmap, rel, n=n, trials=500, seed=424)
            assert rep.preserves_both, (
                n, rel, rep.forward_failures, rep.backward_failures)

    rep = preserves_order(MatrixMap.trace_inflation(), Relation.LOWNER,
                          n=2, trials=200, seed=424)
    assert rep.preserves_forward
    assert rep.backward_failures >= 1
    kind, a, b = rep.counterexamples[0]
    assert kind == "backward"
    ti = MatrixMap.trace_inflation()
    assert lowner_leq(ti.apply(a), ti.apply(b)).holds and not lowner_leq(a, b).holds
    print(f"criterion 3 (preservation sweep): PASS -- 7 sizes x 2 relations "
          f"x 500 pairs clean; trace inflation: "
          f"{rep.backward_failures} backward counterexamples at n=2")


def normalize_sign(s):
    col = s[:, 0]
    nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
    return -s if col[nz[0]] < 0 else s


def test_criterion_4_congruence_recovery():
    """100 random transforms recovered from probe samples to 1e-8 relative
    error, and the refitted map reproduces 100 fresh images to 1e-8."""
    rng = np.random.default_rng(20260404)
    worst_s = worst_map = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        s = bounded_cond(rng, n, 1e4)
        fitted = fit_congruence([(p, s @ p @ s.T) for p in probe_inputs(n)])
        target = normalize_sign(s)
        worst_s = max(worst_s, maxabs(fitted - target) / max(1.0, maxabs(target)))
        fresh = rng.uniform(-1.0, 1.0, size=(n, n))
        fresh = fresh + fresh.T
        want = s @ fresh @ s.T
        got = fitted @ fresh @ fitted.T
        worst_map = max(worst_map, maxabs(got - want) / max(1.0, maxabs(want)))
    assert worst_s <= 1e-8, f"worst transform error {worst_s:.3e}"
    assert worst_map <= 1e-8, f"worst image error {worst_map:.3e}"
    print(f"criterion 4 (congruence recovery): PASS -- worst transform error "
          f"{worst_s:.2e}, worst fresh-image error {worst_map:.2e}")


def test_criterion_5_segment_below_rank_one():
    """Below a rank-one PSD matrix only its scalar multiples live: the
    coefficient is recovered from the trace ratio on 200 instances and
    off-ray perturbations are never admitted."""
    rng = np.random.default_rng(20260505)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        a = np.outer(x, x)
        lam = float(rng.uniform(0.0, 1.0))
        b = lam * a
        assert lowner_leq(b, a).holds
        lam_hat = float(np.trace(b) / np.trace(a))
        assert abs(lam_hat - lam) <= 1e-10
        assert -1e-12 <= lam_hat <= 1.0 + 1e-12
        assert maxabs(b - lam_hat * a) <= 1e-8

        # push sideways off the ray: the claim must be withdrawn
        y = rng.standard_normal(n)
        y -= (y @ x) * x
        y /= np.linalg.norm(y)
        off = b + 1e-4 * np.outer(y, y)
        assert not lowner_leq(off, a).holds
    print("criterion 5 (rank-one segment): PASS -- 200 coefficients "
          "recovered, 200 off-ray perturbations rejected")


def psd_pair_for_star(rng, trial):
    n = int(rng.integers(1, 7))
    kind = trial % 4
    if kind == 0:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = rng.uniform(0.5, 2.0, size=n)
        r = int(rng.integers(0, n + 1))
        s = int(rng.integers(r, n + 1))
        da = np.where(np.arange(n) < r, d, 0.0)
        db = np.where(np.arange(n) < s, d, 0.0)
        return (q * da) @ q.T, (q * db) @ q.T
    if kind == 1:
        a = oracles.integer_psd(rng, n, int(rng.integers(1, n + 1))).astype(float)
        return a, float(rng.integers(2, 4)) * a
    if kind == 2:
        ga = rng.standard_normal((n, max(1, n - 1)))
        gb = rng.standard_normal((n, n))
        return ga @ ga.T, gb @ gb.T
    a, b = oracles.exact_minus_pair(rng, n)
    return a.astype(float), b.astype(float)


def test_criterion_6_star_family_coincides_on_cone():
    """On 1000 PSD pairs the star, left-star and right-star verdicts are
    identical, and every held pair is also minus-comparable."""
    rng = np.random.default_rng(20260606)
    held = 0
    for trial in range(1000):
        a, b = psd_pair_for_star(rng, trial)
        verdicts = [
            star_family_leq(a, b, variant=v).holds
            for v in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR)
        ]
        assert len(set(verdicts)) == 1, (trial, verdicts)
        if verdicts[0]:
            held += 1
            assert minus_leq(a, b).holds, trial
    assert held >= 150
    print(f"criterion 6 (star family): PASS -- 1000 pairs, variants "
          f"identical, {held} holders all minus-comparable")


def test_criterion_7_statistics_layer():
    """50 white-noise least-squares fits certified best unbiased; model
    comparison matches the noise order exactly; a random projector family
    passes the rank criterion; 100k-draw Monte Carlo stays inside
    max |corr| < 0.02 and KS < 0.01.  Under 60 seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260707)

    for _ in range(50):
        n = int(rng.integers(3, 8))
        p = int(rng.integers(1, n - 1))
        while True:
            x = rng.standard_normal((n, p))
            if np.linalg.matrix_rank(x) == p:
                break
        h = x @ np.linalg.inv(x.T @ x) @ x.T
        v = blue_check(h, LinearModel(x=x, d=np.eye(n)))
        assert v.is_blue, v

    for trial in range(50):
        n = int(rng.integers(2, 6))
        x = bounded_cond(rng, n, 1e4)
        g = rng.standard_normal((n, n))
        d1 = g @ g.T + 0.1 * np.eye(n)
        if trial % 2 == 0:
            d2 = d1 + np.outer(*(2 * [rng.standard_normal(n)]))
        else:
            h2 = rng.standard_normal((n, n))
            d2 = h2 @ h2.T + 0.1 * np.eye(n)
        cmp = model_compare(LinearModel(x=x, d=d1), LinearModel(x=x, d=d2))
        assert cmp.l1_geq_l2 == lowner_leq(d1, d2).holds
        assert cmp.l2_geq_l1 == lowner_leq(d2, d1).holds

    for _ in range(10):
        n = int(rng.integers(3, 7))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        cut = sorted(rng.choice(np.arange(1, n), size=2, replace=False))
        blocks = [q[:, :cut[0]], q[:, cut[0]:cut[1]], q[:, cut[1]:]]
        rep = qform_rank_criterion([b @ b.T for b in blocks], np.eye(n),
                                   np.zeros(n))
        assert rep.overall
        assert sum(f.rank for f in rep.forms) == rep.s

    a1 = np.diag([1.0, 0.0, 0.0])
    a2 = np.diag([0.0, 1.0, 1.0])
    mc = mc_quadratic_forms([a1, a2], np.eye(3), np.zeros(3),
                            n_samples=100_000, seed=424242)
    assert mc.max_abs_corr < 0.02, mc.max_abs_corr
    assert all(k < 0.01 for k in mc.ks), mc.ks
    assert mc.total_ks < 0.01, mc.total_ks
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"
    print(f"criterion 7 (statistics layer): PASS -- 50 BLUE, 50 comparisons, "
          f"10 form families, mc corr {mc.max_abs_corr:.4f} "
          f"ks {[round(k, 4) for k in mc.ks]}, {elapsed:.1f}s")


def test_criterion_8_cli_contract(tmp_path, capsys):
    """Every CLI fixture returns the documented exit code and, for codes 0
    and 1, a parseable one-line JSON verdict.  (The overall suite runtime
    budget is visible in the pytest summary itself.)"""
    d = tmp_path
    write_matrix(d / "e1.csv", np.diag([1.0, 0.0]))
    write_matrix(d / "eye.csv", np.eye(2))
    write_matrix(d / "scaled.csv", np.diag([2.0, 0.0]))
    write_matrix(d / "indef.csv", np.array([[1.0, 2.0], [2.0, 1.0]]))
    write_matrix(d / "s.csv", np.array([[2.0, 1.0], [0.0, 1.0]]))
    write_matrix(d / "a1.csv", np.diag([1.0, 0.0, 0.0]))
    write_matrix(d / "a2.csv", np.diag([0.0, 1.0, 1.0]))
    write_matrix(d / "cov3.csv", np.eye(3))
    (d / "mean3.csv").write_text("0,0,0\n")
    (d / "m1.json").write_text(json.dumps(
        {"X": [[1, 0], [0, 1]], "D": [[1, 0], [0, 1]]}))
    (d / "m2.json").write_text(json.dumps(
        {"X": [[1, 0], [0, 1]], "D": [[2, 0], [0, 2]]}))
    (d / "ragged.csv").write_text("1,2\n3\n")
    x = np.array([[1.0], [1.0], [0.0]])
    h = x @ np.linalg.inv(x.T @ x) @ x.T
    write_matrix(d / "hat3.csv", h)
    (d / "gm.json").write_text(json.dumps(
        {"X": x.tolist(), "D": np.eye(3).tolist()}))

    def p(name):
        return str(d / name)

    corpus = [
        (["order", "check", "--relation", "lowner", p("e1.csv"), p("eye.csv")], 0),
        (["order", "check", "--relation", "lowner", p("eye.csv"), p("e1.csv")], 1),
        (["order", "check", "--relation", "star", p("e1.csv"), p("scaled.csv")], 1),
        (["order", "minus", "--method", "image", p("e1.csv"), p("eye.csv")], 0),
        (["order", "minus", "--method", "ginv", p("e1.csv"), p("scaled.csv")], 1),
        (["order", "check", "--relation", "lowner", p("e1.csv"), p("ragged.csv")], 2),
        (["order", "check", "--relation", "lowner", p("e1.csv"), p("missing.csv")], 2),
        (["canon", "inertia", p("indef.csv")], 0),
        (["canon", "simcong", p("e1.csv"), p("eye.csv")], 0),
        (["canon", "simcong", p("e1.csv"), p("scaled.csv")], 1),
        (["canon", "simcong", p("indef.csv"), p("eye.csv")], 1),
        (["preserver", "verify", "--map", f"congruence:{p('s.csv')}",
          "--relation", "minus", "--trials", "50"], 0),
        (["preserver", "verify", "--map", "trace-inflation",
          "--relation", "lowner", "--n", "2", "--trials", "120"], 1),
        (["preserver", "verify", "--map", "bogus", "--relation", "lowner"], 2),
        (["model", "compare", p("m1.json"), p("m2.json")], 0),
        (["model", "compare", p("m2.json"), p("m1.json")], 1),
        (["model", "blue", "--estimator", p("hat3.csv"), p("gm.json")], 0),
        (["model", "blue", "--estimator", p("e1.csv"), p("gm.json")], 2),
        (["qform", "check", "--forms", f"{p('a1.csv')},{p('a2.csv')}",
          "--cov", p("cov3.csv"), "--mean", p("mean3.csv")], 0),
        (["qform", "check", "--forms", f"{p('a1.csv')},{p('a1.csv')}",
          "--cov", p("cov3.csv"), "--mean", p("mean3.csv")], 1),
    ]
    for argv, want in corpus:
        code = run(argv)
        captured = capsys.readouterr()
        assert code == want, (argv, want, code, captured.err)
        if want in (0, 1):
            assert captured.out.count("\n") == 1, argv
            # strict JSON: NaN and Infinity are not valid JSON values
            json.loads(captured.out,
                       parse_constant=lambda c: pytest.fail(f"{argv}: stdout holds {c}"))
        else:
            assert captured.out == "", argv
    print(f"criterion 8 (cli contract): PASS -- {len(corpus)} fixtures, "
          "exit codes and payloads as documented")
