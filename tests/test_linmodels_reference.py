"""The linear-model layer against the per-matrix reference in
reference_linmodels.py: model_compare, blue_check and qform_rank_criterion
return every result field, certificate value and error bit for bit and of
the same type, on holding and failing inputs, NotMinusComparable
reductions and inputs that are not PSD, except the residual and budget of
blue_check's condition (ii), which the reference measures with another
projector and agree to roundoff; the Monte
Carlo check draws the same degrees of freedom and its statistics agree to
roundoff.  Inputs with two faults may report the other fault first; that
precedence is pinned at the end.  A derived matrix beyond the float range
is a PsdOrderError here and a ValueError in the reference; those inputs
are pinned on their own.  A generated property holds the three cheap
analyses of a sweep, fit_congruence (against reference_preservers.py),
model_compare and qform_rank_criterion, to their references bit for bit."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_linmodels as ref
import reference_preservers
from psdorder import (
    DimensionMismatch,
    LinearModel,
    NotPositiveSemidefinite,
    PsdOrderError,
    SymMatrix,
    blue_check,
    fit_congruence,
    mc_quadratic_forms,
    model_compare,
    probe_inputs,
    qform_rank_criterion,
)


def _bits(obj):
    """Structure of a result with each leaf replaced by its type and bits."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, SymMatrix):
        return (type(obj).__name__, _bits(obj.a))
    if isinstance(obj, (float, np.floating)):
        return (type(obj).__name__, struct.pack("<d", float(obj)))
    if isinstance(obj, dict):
        return ("dict", [(k, _bits(v)) for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_bits(v) for v in obj])
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, [(f.name, _bits(getattr(obj, f.name))) for f in dataclasses.fields(obj)])
    return (type(obj).__name__, obj)


def _outcome(call, *args):
    """The bits of call(*args), or the type and message of its error."""
    try:
        return _bits(call(*args))
    except (PsdOrderError, ValueError) as exc:
        return ("raises", type(exc).__name__, str(exc))


def _orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _families(n):
    """(forms, V, mu) for qform_rank_criterion: independent and dependent
    projector families pulled back through V's factor, graded pairs whose
    reduction fails, a zero form, a singular V, scaled copies, and inputs
    that are not PSD or do not fit."""
    rng = np.random.default_rng(200 + n)
    out = []
    for independent in (True, False):
        for centred in (True, False):
            r = _orthogonal(rng, n) * rng.uniform(0.5, 2.0, n)
            r_inv = np.linalg.inv(r)
            q = _orthogonal(rng, n)
            half = max(1, n // 2)
            first = q[:, :half]
            second = q[:, half:] if independent else q[:, half - 1:]
            forms = [r_inv.T @ (b @ b.T) @ r_inv for b in (first, second)]
            mu = np.zeros(n) if centred else rng.standard_normal(n)
            out.append((forms, r @ r.T, mu))
    forms, v, mu = out[0]
    out += [
        ([c * f for f in forms], c * v, mu) for c in (2.0 ** -40, 1e40)
    ]
    # three forms, one of them zero; a singular V
    q = _orthogonal(rng, n)
    out.append(([np.outer(q[:, 0], q[:, 0]), np.zeros((n, n)), np.outer(q[:, -1], q[:, -1])],
                np.eye(n), rng.standard_normal(n)))
    out.append(([np.eye(n)], (q[:, :1] * 2.0) @ q[:, :1].T, np.zeros(n)))
    # rank-subtractive but graded: the reduction raises NotMinusComparable
    for g in (1e-12, 5e-10, 1e-6):
        u, w = rng.standard_normal((2, n, 1))
        out.append(([u @ u.T, g * (w @ w.T)], np.eye(n), np.zeros(n)))
    bad = np.eye(n)
    bad[0, 0] = -1.0
    tiny_negative = np.diag(np.r_[-1e-10, np.ones(n - 1)])
    out += [
        ([bad, np.eye(n)], np.eye(n), np.zeros(n)),  # a form not PSD
        ([np.eye(n)], bad, np.zeros(n)),  # V not PSD
        # each form passes, but W^T A W brings out A's tiny negative eigenvalue
        ([tiny_negative, np.eye(n)], np.diag(np.r_[1e6, np.ones(n - 1)]), np.zeros(n)),
        ([np.eye(n), np.eye(n + 1)], np.eye(n), np.zeros(n)),  # a form of the wrong size
        ([np.eye(n)], np.eye(n), np.zeros(n + 1)),  # a mean of the wrong length
        ([], np.eye(n), np.zeros(n)),  # no forms
    ]
    return out


def _models(n):
    """Pairs of models for model_compare: a shared design with ordered,
    unordered and equal noise, designs of other row counts, a zero design
    and a singular noise matrix."""
    rng = np.random.default_rng(300 + n)
    q = _orthogonal(rng, n)
    x = rng.standard_normal((n, n))
    d1 = rng.uniform(0.5, 2.0, n)
    d2 = d1 + rng.uniform(0.0, 1.0, n)
    d3 = d1.copy()
    d3[0] += 1.0
    d3[-1] *= 0.5
    cov = lambda d: (q * d) @ q.T  # noqa: E731
    p = max(1, n - 1)
    x_tall = rng.standard_normal((n + 2, p))
    return [
        (LinearModel(x, cov(d1)), LinearModel(x, cov(d2))),
        (LinearModel(x, cov(d2)), LinearModel(x, cov(d1))),
        (LinearModel(x, cov(d1)), LinearModel(x, cov(d3))),
        (LinearModel(x, cov(d1)), LinearModel(x, cov(d1))),
        (LinearModel(x[:, :p], cov(d1)), LinearModel(x_tall, np.eye(n + 2))),
        (LinearModel(np.zeros((n, p)), np.eye(n)), LinearModel(x[:, :p], cov(d1))),
        (LinearModel(x, cov(np.r_[np.zeros(n - 1), 1.0])), LinearModel(x, cov(d1))),
        (LinearModel(x[:, :p], np.eye(n)), LinearModel(x, np.eye(n))),  # p differs
    ]


def _estimators(n):
    """(L, model) for blue_check: generalized and ordinary least squares,
    the identity, estimators that are not unbiased, one of them with D L^T
    inside Im X and one under a D whose eigenvalue -1e-10 passes as PSD,
    and one of the wrong size."""
    rng = np.random.default_rng(400 + n)
    p = max(1, n // 2)
    x = rng.standard_normal((n, p))
    g = rng.standard_normal((n, n))
    d = g @ g.T + 0.5 * np.eye(n)
    di = np.linalg.inv(d)
    gls = x @ np.linalg.solve(x.T @ di @ x, x.T @ di)
    ols = x @ np.linalg.solve(x.T @ x, x.T)
    model = LinearModel(x, d)
    tiny_negative = LinearModel(x, np.diag(np.r_[np.ones(n - 1), -1e-10]))
    last = np.zeros((n, n))
    last[-1, -1] = 1.0
    return [
        (gls, model),
        (ols, model),
        (gls, LinearModel(x, np.eye(n))),
        (ols, LinearModel(x, np.eye(n), sigma2=1e-30)),
        (np.eye(n), model),
        (0.5 * gls, model),
        (rng.standard_normal((n, n)), model),
        (last, tiny_negative),
        (np.eye(n + 1), model),
    ]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_qform_rank_criterion_matches_the_reference_bit_for_bit(n):
    seen = set()
    for i, (forms, v, mu) in enumerate(_families(n)):
        got = _outcome(qform_rank_criterion, forms, v, mu)
        assert got == _outcome(ref.qform_rank_criterion, forms, v, mu), (n, i)
        if got[0] == "raises":
            seen.add(got[1])
        else:
            report = qform_rank_criterion(forms, v, mu)
            seen.add(report.overall)
            seen.update(e.reason.split()[0] for e in report.forms if e.verdict.holds and e.reason)
    assert {True, False, "block", "NotPositiveSemidefinite", "DimensionMismatch", "ValueError"} <= seen


@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_inputs_raise_as_the_reference_does(n):
    # a matrix derived from finite input that leaves the float range raises
    # PsdOrderError naming it, with no numpy warning; the per-matrix
    # reference lets numpy warn and then raises ValueError, as raw input
    # does, so it is not compared on these inputs
    cases = [
        (qform_rank_criterion, [np.eye(n)], np.eye(n), np.full(n, 1e200), "W^T A W"),
    ]
    for call, *args, what in cases:
        got = _outcome(call, *args)
        assert got == ("raises", "PsdOrderError", f"{what} overflows the floating-point range")


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_model_compare_matches_the_reference_bit_for_bit(n):
    seen = set()
    for i, (l1, l2) in enumerate(_models(n)):
        got = _outcome(model_compare, l1, l2)
        assert got == _outcome(ref.model_compare, l1, l2), (n, i)
        if got[0] != "raises":
            v = model_compare(l1, l2)
            seen.add((v.l1_geq_l2, v.l2_geq_l1))
    assert seen == {(True, False), (False, True), (False, False), (True, True)}


def _blue_outcome(call, l, model):
    """_outcome of call(l, model), a blue_check, with the residual and
    budget of condition (ii) taken out of its certificate and returned
    apart, as floats, once their comparison is checked to be cond_ii."""
    try:
        verdict = call(l, model)
    except (PsdOrderError, ValueError):
        return _outcome(call, l, model), None
    cert = dict(verdict.certificate)
    sides = cert.pop("residual_dl"), cert.pop("budget_dl")
    assert verdict.cond_ii == (sides[0] <= sides[1]) and {type(x) for x in sides} == {float}
    return _bits(dataclasses.replace(verdict, certificate=cert)), sides


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_blue_check_matches_the_reference_bit_for_bit(n):
    seen = set()
    for i, (l, model) in enumerate(_estimators(n)):
        got, sides = _blue_outcome(blue_check, l, model)
        want, want_sides = _blue_outcome(ref.blue_check, l, model)
        assert got == want, (n, i)
        if sides is not None:
            # the residuals part by roundoff, far below the budget
            assert abs(sides[0] - want_sides[0]) <= 1e-6 * want_sides[1], (n, i)
            assert sides[1] == pytest.approx(want_sides[1], rel=1e-12), (n, i)
        if got[0] == "raises":
            seen.add(got[1])
        else:
            verdict = blue_check(l, model)
            seen.add((verdict.cond_i, verdict.cond_ii))
    assert {(True, True), (True, False), (False, True), (False, False), "DimensionMismatch"} <= seen


@pytest.mark.parametrize("n", [2, 3, 6])
def test_mc_quadratic_forms_matches_the_reference_to_roundoff(n):
    # on centred families, as perfbench draws them: with a mean the forms
    # carry a large constant part, and the correlations of what is left
    # lose digits to cancellation in either order of summation
    families = _families(n)
    centred = [f for f in families[:-6] if not np.any(f[2])]
    assert len(centred) >= 7
    for i, (forms, v, mu) in enumerate(centred):
        got = mc_quadratic_forms(forms, v, mu, 3000, seed=11 + i)
        want = ref.mc_quadratic_forms(forms, v, mu, 3000, seed=11 + i)
        assert (got.dfs, got.total_df) == (want.dfs, want.total_df), (n, i)
        assert type(got.dfs[0]) is type(want.dfs[0]) is int
        for a, b in zip(got.ks + [got.total_ks], want.ks + [want.total_ks]):
            assert (a is None) == (b is None) and (a is None or abs(a - b) <= 1e-12), (n, i)
        assert got.corr.shape == want.corr.shape
        assert np.abs(got.corr - want.corr).max() <= 1e-12, (n, i)
        assert abs(got.max_abs_corr - want.max_abs_corr) <= 1e-12, (n, i)
    for forms, v, mu in families[-6:]:
        assert _outcome(mc_quadratic_forms, forms, v, mu, 100, 1) == _outcome(
            ref.mc_quadratic_forms, forms, v, mu, 100, 1)


def test_two_faults_report_the_structural_one_first():
    # Each family of matrices is decomposed in one call, so every input of
    # it is checked for shape and finiteness before any is certified PSD;
    # the per-matrix reference certified each matrix as it came to it.
    bad = np.diag([1.0, -1.0])
    # qform: V not PSD and a form of the wrong size
    args = ([np.eye(3)], bad, np.zeros(2))
    with pytest.raises(NotPositiveSemidefinite):
        ref.qform_rank_criterion(*args)
    with pytest.raises(DimensionMismatch, match="form 0 is 3x3"):
        qform_rank_criterion(*args)
    # qform: a first form not PSD and a second one not finite
    args = ([bad, [[np.inf, 0.0], [0.0, 1.0]]], np.eye(2), np.zeros(2))
    with pytest.raises(NotPositiveSemidefinite):
        ref.qform_rank_criterion(*args)
    with pytest.raises(ValueError, match="finite"):
        qform_rank_criterion(*args)
    # qform: a first compressed form not PSD and a second one not finite
    args = ([np.diag([-1e-10, 1.0]), np.diag([1e20, 0.0])], np.diag([1e150, 1.0]), np.zeros(2))
    with pytest.raises(NotPositiveSemidefinite):
        ref.qform_rank_criterion(*args)
    with pytest.raises(PsdOrderError, match=r"^W\^T A W overflows"):
        qform_rank_criterion(*args)


def _generated_case(kind, n, k, rng):
    """(call, reference, args) for the property below: samples of a
    congruence scaled by 2^k in shuffled order, probes and extra samples
    mixed; two models with designs of equal or unequal row counts, the
    second noisier than the first or not; an independent or a dependent
    family of forms scaled by 2^k, with or without a mean (which W = (V : mu)
    weighs against V, so V and mu are left unscaled)."""
    if kind == "fit_congruence":
        s = 2.0 ** k * _orthogonal(rng, n) * rng.uniform(0.5, 2.0, n)
        inputs = probe_inputs(n) + [g @ g.T for g in rng.standard_normal((rng.integers(0, 4), n, 2))]
        samples = [(inputs[i], s @ inputs[i] @ s.T) for i in rng.permutation(len(inputs))]
        return fit_congruence, reference_preservers.fit_congruence, (samples,)
    if kind == "model_compare":
        p = int(rng.integers(1, n + 1))
        g = 2.0 ** k * rng.standard_normal((n, int(rng.integers(1, n + 1))))
        first = LinearModel(rng.standard_normal((n, p)), g @ g.T)
        rows = n + int(rng.integers(0, 3))
        h = rng.standard_normal((rows, 1))
        noise = g @ g.T + h[:n] @ h[:n].T if rows == n else np.eye(rows) + h @ h.T
        second = LinearModel(first.x if rows == n and rng.uniform() < 0.5 else rng.standard_normal((rows, p)), noise)
        return model_compare, ref.model_compare, (first, second)
    r = _orthogonal(rng, n) * rng.uniform(0.5, 2.0, n)
    r_inv = np.linalg.inv(r)
    q = _orthogonal(rng, n)
    half = max(1, n // 2)
    second = q[:, half:] if rng.uniform() < 0.5 else q[:, half - 1:]
    forms = [2.0 ** k * r_inv.T @ (b @ b.T) @ r_inv for b in (q[:, :half], second)]
    mu = np.zeros(n) if rng.uniform() < 0.5 else rng.standard_normal(n)
    return qform_rank_criterion, ref.qform_rank_criterion, (forms, r @ r.T, mu)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["fit_congruence", "model_compare", "qform_rank_criterion"]), st.integers(1, 10),
       st.integers(-60, 60), st.integers(0, 2**32 - 1))
def test_sweep_analyses_match_their_references_on_generated_inputs(kind, n, k, seed):
    call, reference, args = _generated_case(kind, n, k, np.random.default_rng(seed))
    got = _outcome(call, *args)
    assert got == _outcome(reference, *args)
    assert got[0] != "raises" or kind == "qform_rank_criterion", got
