"""Per-matrix reference for the linear-model layer.

Each function here computes what its namesake in psdorder.linmodels
computes, the way that module did before it moved onto stacked spectra:
every matrix it certifies is certified on its own, each reduction is a
sim_congruence call, the Loewner verdicts of model_compare are both read
from one decomposition of M1 - M2 (reference_verdicts.lowner_both), and
the Monte Carlo forms are three-operand einsums on the symmetric root of
V taken from reference_verdicts.canonical_eig.  V, the forms and the
compressed forms W^T A W are certified from their canonical_eig spectra
(reference_verdicts.certified_eig), and each minus question is decided by
the rank equation (reference_verdicts.minus_verdict), as the module
decides them on the eigh spectra its stacks hold.  Every rank reported
comes from those equations, each form's own count in its triple (form,
total, total - form) and the total's in the first triple, for the
criterion and the Monte Carlo degrees of freedom alike.  Each efficiency
matrix of model_compare is formed model by model: the eigh spectrum of the Gram
matrix D + X X^T, its columns as eigh returns them, since the
pseudoinverse shows no basis, its spectral pseudoinverse and the product
X^T (D + X X^T)^+ X, as a PsdMatrix certified from eigvalsh where the
module certifies it from eigh: the two could part only on a matrix
whose smallest eigenvalue lies within a few eps times its radius of the
PSD threshold, which no input here comes near.  blue_check is Rao's
fundamental BLUE equation written without the module's helpers: L X = X
as the module measures it, and L D Z = 0 with Z = I - X X^+ from numpy's
pinv, where the module projects D L^T off an SVD basis of Im X, relative
to L D and against recon_tol plus the angle that basis can turn by; the
two must decide alike on every estimator here, none of which is near the
budget, and their residuals and budgets agree to roundoff.
psdorder.linmodels decomposes each family of matrices in one stacked
eigh call and must return every value these return, bit for bit and of
the same type; only the Monte Carlo statistics may differ, by roundoff,
since the root and the forms are summed in another order.
"""

import numpy as np

from psdorder.errors import DimensionMismatch
from psdorder.linmodels import (
    _MC_SHARD,
    BlueVerdict,
    ComparisonVerdict,
    McReport,
    QFormEntry,
    QFormReport,
)
from psdorder.numkernel import PsdMatrix, SymMatrix, identity_budget, maxabs, rel_residual
from psdorder.rng import normal_matrix, substream
from psdorder.special import chi2_cdf, ks_uniform_distance
from psdorder.tolerances import DEFAULT_TOL
from reference_verdicts import canonical_eig, certified_eig, lowner_both, minus_verdict, sim_congruence


def efficiency_matrix(model, tol=DEFAULT_TOL):
    x = model.x
    values, vectors = np.linalg.eigh(SymMatrix(model.d.a + x @ x.T).a)
    keep = np.abs(values) > tol.rank_cutoff(values)
    ginv = (vectors * np.where(keep, 1.0 / np.where(keep, values, 1.0), 0.0)) @ vectors.T
    return PsdMatrix(x.T @ ginv @ x, tol)


def model_compare(l1, l2, tol=DEFAULT_TOL):
    if l1.p != l2.p:
        raise DimensionMismatch(f"models estimate different parameter dimensions: {l1.p} vs {l2.p}")
    m1 = efficiency_matrix(l1, tol)
    m2 = efficiency_matrix(l2, tol)
    forward, backward = lowner_both(m2, m1, tol)
    return ComparisonVerdict(l1_geq_l2=forward.holds, l2_geq_l1=backward.holds, m1=m1, m2=m2,
                             certificate={"m2_leq_m1": forward, "m1_leq_m2": backward})


def blue_check(l, model, tol=DEFAULT_TOL):
    l = np.asarray(l, dtype=float)
    if l.shape != (model.n, model.n):
        raise DimensionMismatch(f"estimator must be {model.n}x{model.n}, got {l.shape}")
    x = model.x
    lx = l @ x
    residual_lx = rel_residual(lx - x, lx, x)
    # Rao's equation L D Z = 0, Z = I - X X^+ projecting onto (Im X)-perp;
    # the budget allows for Wedin's bound on the turn of an SVD basis of Im X
    ld = l @ model.d.a
    outside = np.abs(ld @ (np.eye(model.n) - x @ np.linalg.pinv(x))).max()
    residual_dl = float(outside / np.abs(ld).max()) if outside else 0.0
    sv = np.linalg.svd(x, compute_uv=False)
    kept = sv[sv > tol.rank_cutoff(sv, max(x.shape))]
    budget_dl = tol.recon_tol + (float(max(x.shape) * np.finfo(float).eps * sv[0] / kept[-1]) if kept.size else 0.0)
    return BlueVerdict(cond_i=residual_lx <= identity_budget(tol, maxabs(l)), cond_ii=residual_dl <= budget_dl,
                       certificate={"residual_lx": residual_lx, "residual_dl": residual_dl, "budget_dl": budget_dl})


def _setup(a_list, v, mu, tol):
    v = certified_eig(v, tol)[0]
    mats = []
    for i, a in enumerate(a_list):
        p = certified_eig(a, tol)[0]
        if p.n != v.n:
            raise DimensionMismatch(f"form {i} is {p.n}x{p.n}, expected {v.n}x{v.n}")
        mats.append(p.a)
    mats.append(sum(mats, np.zeros((v.n, v.n))))
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape[0] != v.n:
        raise DimensionMismatch(f"mean has length {mu.shape[0]} but covariance is {v.n}x{v.n}")
    if len(mats) == 1:
        raise ValueError("need at least one quadratic form")
    return v, mats, np.hstack([v.a, mu[:, None]])


def _compressed_verdicts(mats, w, tol):
    """The compressed forms, each certified, the compressed total, and each
    form's minus verdict below the total, from the spectra of the form, the
    total and their difference."""
    *t_forms, (t_total, values_t, _) = (certified_eig(w.T @ m @ w, tol) for m in mats)
    verdicts = [minus_verdict([values_i, values_t, canonical_eig(SymMatrix(t_total.a - t_i.a))[0]], t_i.n, tol=tol)
                for t_i, values_i, _ in t_forms]
    return [t_i for t_i, _, _ in t_forms], t_total, verdicts


def qform_rank_criterion(a_list, v, mu, tol=DEFAULT_TOL):
    _, mats, w = _setup(a_list, v, mu, tol)
    t_forms, t_total, verdicts = _compressed_verdicts(mats, w, tol)
    entries = []
    for i, (t_i, verdict) in enumerate(zip(t_forms, verdicts)):
        # sim_congruence decides the same rank equation
        sim = sim_congruence(t_i, t_total, tol) if verdict.holds else None
        reason = "" if verdict.holds else "compressed form is not below the compressed total"
        entries.append(QFormEntry(index=i, rank=verdict.certificate["rank_a"], verdict=verdict, sim=sim,
                                  reason=reason))
    return QFormReport(w=w, forms=entries, s=verdicts[0].certificate["rank_b"],
                       overall=all(verdict.holds for verdict in verdicts))


def mc_quadratic_forms(a_list, v, mu, n_samples, seed, tol=DEFAULT_TOL):
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    v, mats, w = _setup(a_list, v, mu, tol)
    mu = w[:, -1]
    verdicts = _compressed_verdicts(mats, w, tol)[2]
    dfs = [verdict.certificate["rank_a"] for verdict in verdicts] + [verdicts[0].certificate["rank_b"]]
    values, vectors = canonical_eig(v)
    root = (vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.T
    q_values = np.empty((len(mats), n_samples))
    done = 0
    shard = 0
    while done < n_samples:
        count = min(_MC_SHARD, n_samples - done)
        x = normal_matrix(substream(seed, shard), count, v.n) @ root + mu
        for j, m in enumerate(mats):
            q_values[j, done:done + count] = np.einsum("ij,jk,ik->i", x, m, x)
        done += count
        shard += 1
    ks = [ks_uniform_distance(chi2_cdf(q, df)) if df > 0 else None for q, df in zip(q_values, dfs)]
    k = len(mats) - 1
    if k > 1:
        live = np.flatnonzero(q_values[:k].std(axis=1) > 0.0)
        corr = np.eye(k)
        if live.size > 1:
            corr[np.ix_(live, live)] = np.corrcoef(q_values[live])
        max_abs_corr = float(np.abs(corr - np.eye(k)).max())
    else:
        corr = np.ones((1, 1))
        max_abs_corr = 0.0
    return McReport(n_samples=n_samples, seed=seed, dfs=dfs[:k], ks=ks[:k], corr=corr,
                    max_abs_corr=max_abs_corr, total_df=dfs[k], total_ks=ks[k])
