"""Per-matrix reference for the linear-model layer.

Each function here computes what its namesake in psdorder.linmodels
computes, the way that module did before it moved onto stacked spectra:
every matrix it certifies becomes a PsdMatrix of its own, each rank is
read from reference_verdicts.inertia, each minus question a minus_leq
call, each reduction a sim_congruence call, the Loewner verdicts of
model_compare both read from one decomposition of M1 - M2
(reference_verdicts.lowner_both), and the
Monte Carlo forms are three-operand einsums on the symmetric root of V
taken from sym_eig.  psdorder.linmodels decomposes each family of matrices
in one stacked eigh call and must return every value these return, bit for
bit and of the same type; only the Monte Carlo statistics may differ, by
roundoff, since the root and the forms are summed in another order.
"""

import numpy as np

from psdorder.canonical import sim_congruence
from psdorder.errors import DimensionMismatch, NotMinusComparable, PreconditionViolated
from psdorder.linmodels import (
    _MC_SHARD,
    BlueVerdict,
    ComparisonVerdict,
    McReport,
    QFormEntry,
    QFormReport,
    efficiency_matrix,
    estimator_covariance,
)
from psdorder.numkernel import (
    PsdMatrix,
    column_span,
    identity_budget,
    image_in_span,
    maxabs,
    rel_residual,
    sym_eig,
)
from psdorder.orders import matrices_equal, minus_leq
from psdorder.rng import normal_matrix, substream
from psdorder.special import chi2_cdf, ks_uniform_distance
from psdorder.tolerances import DEFAULT_TOL
from reference_verdicts import inertia, lowner_both


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
    v_ly = estimator_covariance(l, model, tol)
    v_y = PsdMatrix(model.sigma2 * model.d.a, tol)
    if matrices_equal(v_ly, v_y, tol):
        raise PreconditionViolated("V(Ly) equals V(y); the estimator conditions do not apply")
    lx = l @ model.x
    residual_lx = rel_residual(lx - model.x, lx, model.x)
    cond_i = residual_lx <= identity_budget(tol, l)
    ld = l @ model.d.a
    basis, angle = column_span(model.x, tol)
    cond_ii = bool(image_in_span(ld, basis, tol, angle * maxabs(ld)))
    certificate = {"residual_lx": residual_lx}
    sim = None
    try:
        sim = sim_congruence(v_ly, v_y, tol)
        cond_iii = sim.rank_a < sim.rank_b
        certificate["ranks"] = (sim.rank_a, sim.rank_b)
    except NotMinusComparable as exc:
        cond_iii = False
        certificate["sim_cong_failure"] = str(exc)
    return BlueVerdict(cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii, certificate=certificate, sim_cong=sim)


def _setup(a_list, v, mu, tol):
    v = v if isinstance(v, PsdMatrix) else PsdMatrix(v, tol)
    mats = []
    for i, a in enumerate(a_list):
        p = a if isinstance(a, PsdMatrix) else PsdMatrix(a, tol)
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


def qform_rank_criterion(a_list, v, mu, tol=DEFAULT_TOL):
    _, mats, w = _setup(a_list, v, mu, tol)
    *t_forms, t_total = (PsdMatrix(w.T @ m @ w, tol) for m in mats)
    s_rank = inertia(t_total, tol).rank
    entries = []
    overall = True
    for i, t_i in enumerate(t_forms):
        r_i = inertia(t_i, tol).rank
        verdict = minus_leq(t_i, t_total, tol=tol)
        sim = None
        reason = ""
        if verdict.holds:
            try:
                sim = sim_congruence(t_i, t_total, tol)
                r_i = sim.rank_a
            except NotMinusComparable as exc:
                reason = str(exc)
        else:
            reason = "compressed form is not below the compressed total"
        holds = verdict.holds and (sim is not None)
        overall = overall and holds
        entries.append(QFormEntry(index=i, rank=r_i, verdict=verdict, sim=sim, reason=reason))
    return QFormReport(w=w, forms=entries, s=s_rank, overall=overall)


def mc_quadratic_forms(a_list, v, mu, n_samples, seed, tol=DEFAULT_TOL):
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    v, mats, w = _setup(a_list, v, mu, tol)
    mu = w[:, -1]
    dfs = [inertia(PsdMatrix(w.T @ m @ w, tol), tol).rank for m in mats]
    values, vectors = sym_eig(v)
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
