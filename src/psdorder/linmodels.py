"""Statistics layer: linear-model comparison, BLUE checks, quadratic forms.

A linear model (y, X beta, sigma^2 D) is summarized for comparison purposes
by its efficiency matrix M = X^T (D + X X^T)^- X; one model is at least as
good as another exactly when the efficiency matrices are PSD-ordered the
right way around.  Best linear unbiased estimation and Cochran-style
independence of quadratic forms both reduce to rank-subtractivity questions,
so this module leans on sim_congruence for its certificates, plus a seeded
Monte Carlo routine to validate the distributional claims empirically.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import SimCongResult, sim_congruence
from .errors import (
    DimensionMismatch,
    NotMinusComparable,
    NotPositiveSemidefinite,
    PreconditionViolated,
)
from .numkernel import (
    PsdMatrix,
    column_span,
    identity_budget,
    image_in_span,
    maxabs,
    numerical_rank,
    pinv,
    rel_residual,
    sym_eig,
)
from .orders import OrderVerdict, lowner_both, matrices_equal, minus_leq
from .rng import normal_matrix, substream
from .special import chi2_cdf, ks_uniform_distance
from .tolerances import DEFAULT_TOL, ToleranceConfig

# Draws per Monte Carlo shard.  Shard k reads its own stream,
# substream(seed, k), so this size is part of what a seed draws.
_MC_SHARD = 20000


@dataclass
class LinearModel:
    """The triplet (y, X beta, sigma^2 D) of a linear model."""

    x: np.ndarray
    d: PsdMatrix
    sigma2: float = 1.0
    label: str = ""

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatch(f"design matrix must be 2-D, got {x.ndim}-D")
        if not np.all(np.isfinite(x)):
            raise ValueError("design matrix entries must be finite")
        x.setflags(write=False)
        self.x = x
        if not isinstance(self.d, PsdMatrix):
            self.d = PsdMatrix(self.d)
        if self.d.n != x.shape[0]:
            raise DimensionMismatch(
                f"covariance is {self.d.n}x{self.d.n} but the design has "
                f"{x.shape[0]} rows"
            )
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2!r}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ComparisonVerdict:
    """Both directions of a model comparison, with the efficiency matrices
    and the PSD-order verdicts they reduce to."""

    l1_geq_l2: bool
    l2_geq_l1: bool
    m1: PsdMatrix
    m2: PsdMatrix
    certificate: dict


@dataclass(frozen=True)
class BlueVerdict:
    """The three estimator conditions, their certificates, and the verdict."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    certificate: dict
    sim_cong: SimCongResult | None

    @property
    def is_blue(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


@dataclass(frozen=True)
class QFormEntry:
    """Per-form outcome of the rank criterion."""

    index: int
    rank: int
    verdict: OrderVerdict
    sim: SimCongResult | None
    reason: str = ""


@dataclass(frozen=True)
class QFormReport:
    """Rank-criterion outcome for a family of quadratic forms.

    `overall` asserts only the rank/congruence part; whether the total form
    is actually chi-squared distributed is an empirical question, answered
    by mc_quadratic_forms (McReport.total_ks).
    """

    w: np.ndarray
    forms: list
    s: int
    overall: bool


@dataclass(frozen=True)
class McReport:
    """Seeded Monte Carlo summary for a family of quadratic forms."""

    n_samples: int
    seed: int
    dfs: list
    ks: list
    corr: np.ndarray
    max_abs_corr: float
    total_df: int
    total_ks: float | None


def efficiency_matrix(model: LinearModel, tol: ToleranceConfig = DEFAULT_TOL) -> PsdMatrix:
    """M = X^T (D + X X^T)^- X with the pseudoinverse as the inner inverse.

    The result does not depend on which inner inverse is used because
    Im X is always inside Im(D + X X^T).
    """
    gram = model.d.a + model.x @ model.x.T
    m = model.x.T @ pinv(gram, tol) @ model.x
    return PsdMatrix(m, tol)


def model_compare(
    l1: LinearModel, l2: LinearModel, tol: ToleranceConfig = DEFAULT_TOL
) -> ComparisonVerdict:
    """Compare two models over the same parameter vector.

    l1 is at least as good as l2 exactly when M2 <= M1 in the PSD order;
    both directions are certified from the one spectrum of M1 - M2.  The
    observation counts may differ, only the parameter dimension must agree.
    """
    if l1.p != l2.p:
        raise DimensionMismatch(
            f"models estimate different parameter dimensions: {l1.p} vs {l2.p}"
        )
    m1 = efficiency_matrix(l1, tol)
    m2 = efficiency_matrix(l2, tol)
    forward, backward = lowner_both(m2, m1, tol)
    return ComparisonVerdict(
        l1_geq_l2=forward.holds,
        l2_geq_l1=backward.holds,
        m1=m1,
        m2=m2,
        certificate={"m2_leq_m1": forward, "m1_leq_m2": backward},
    )


def estimator_covariance(
    l, model: LinearModel, tol: ToleranceConfig = DEFAULT_TOL
) -> PsdMatrix:
    """Covariance sigma^2 L D L^T of the linear statistic L y."""
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[1] != model.n:
        raise DimensionMismatch(
            f"estimator must have {model.n} columns, got shape {l.shape}"
        )
    return PsdMatrix(model.sigma2 * (l @ model.d.a @ l.T), tol)


def blue_check(l, model: LinearModel, tol: ToleranceConfig = DEFAULT_TOL) -> BlueVerdict:
    """Is L y the best linear unbiased estimator of X beta?

    Three conditions: L X = X; Im(L D) inside Im X; and the covariances
    V(Ly), V(y) admit one congruence to (E_r, E_s) with r < s.  The check
    only applies when V(Ly) differs from V(y); equality raises
    PreconditionViolated.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != (model.n, model.n):
        raise DimensionMismatch(
            f"estimator must be {model.n}x{model.n}, got {l.shape}"
        )
    v_ly = estimator_covariance(l, model, tol)
    v_y = PsdMatrix(model.sigma2 * model.d.a, tol)
    if matrices_equal(v_ly, v_y, tol):
        raise PreconditionViolated(
            "V(Ly) equals V(y); the estimator conditions do not apply"
        )

    lx = l @ model.x
    residual_lx = rel_residual(lx - model.x, lx, model.x)
    cond_i = residual_lx <= identity_budget(tol, l)

    # the basis of Im X is known only up to the angle column_span bounds,
    # which moves the part of L D outside it by up to that much of L D
    ld = l @ model.d.a
    basis, angle = column_span(model.x, tol)
    cond_ii = bool(image_in_span(ld, basis, tol, angle * maxabs(ld)))

    certificate: dict = {"residual_lx": residual_lx}
    sim: SimCongResult | None = None
    try:
        sim = sim_congruence(v_ly, v_y, tol)
        cond_iii = sim.rank_a < sim.rank_b
        certificate["ranks"] = (sim.rank_a, sim.rank_b)
    except (NotMinusComparable, NotPositiveSemidefinite) as exc:
        cond_iii = False
        certificate["sim_cong_failure"] = str(exc)
    return BlueVerdict(
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        certificate=certificate,
        sim_cong=sim,
    )


def _stack_w(v: PsdMatrix, mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape[0] != v.n:
        raise DimensionMismatch(
            f"mean has length {mu.shape[0]} but covariance is {v.n}x{v.n}"
        )
    return np.hstack([v.a, mu[:, None]])


def _coerce_forms(a_list, n, tol):
    forms = []
    for i, a in enumerate(a_list):
        p = a if isinstance(a, PsdMatrix) else PsdMatrix(a, tol)
        if p.n != n:
            raise DimensionMismatch(f"form {i} is {p.n}x{p.n}, expected {n}x{n}")
        forms.append(p)
    return forms


def _setup(a_list, v, mu, tol):
    """The setup the quadratic-form checks share: V coerced, the matrices of
    the forms followed by their total, and W = (V : mu)."""
    v = v if isinstance(v, PsdMatrix) else PsdMatrix(v, tol)
    mats = [f.a for f in _coerce_forms(a_list, v.n, tol)]
    mats.append(sum(mats, np.zeros((v.n, v.n))))
    return v, mats, _stack_w(v, mu)


def qform_rank_criterion(
    a_list, v, mu, tol: ToleranceConfig = DEFAULT_TOL
) -> QFormReport:
    """Rank criterion for independence of the quadratic forms x^T A_i x.

    With W = (V : mu), each compressed form W^T A_i W must sit below the
    compressed total W^T A W in the rank-subtractivity order, certified by
    an explicit shared congruence per form.  A form compressed to zero
    passes trivially with rank 0.
    """
    _, mats, w = _setup(a_list, v, mu, tol)
    *t_forms, t_total = (PsdMatrix(w.T @ m @ w, tol) for m in mats)
    if not t_forms:
        raise ValueError("need at least one quadratic form")
    s_rank = numerical_rank(t_total, tol)
    entries = []
    overall = True
    for i, t_i in enumerate(t_forms):
        r_i = numerical_rank(t_i, tol)
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
        entries.append(
            QFormEntry(index=i, rank=r_i, verdict=verdict, sim=sim, reason=reason)
        )
    return QFormReport(w=w, forms=entries, s=s_rank, overall=overall)


def mc_quadratic_forms(
    a_list,
    v,
    mu,
    n_samples: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> McReport:
    """Seeded Monte Carlo check of independence and chi-squared margins.

    Draws x ~ N(mu, V) through the symmetric square root of V from the
    deterministic normal streams, _MC_SHARD draws per sub-seed of `seed`,
    and reports pairwise correlations of the Q_i plus per-form KS
    distances against chi-squared with the ranks of the compressed forms
    as degrees of freedom.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    mu = np.asarray(mu, dtype=float).reshape(-1)
    v, mats, w = _setup(a_list, v, mu, tol)
    *dfs, total_df = (numerical_rank(PsdMatrix(w.T @ m @ w, tol), tol) for m in mats)
    *forms, total = mats

    eig = sym_eig(v)
    root = (eig.vectors * np.sqrt(np.maximum(eig.values, 0.0))) @ eig.vectors.T

    q_values = np.empty((len(forms), n_samples))
    q_total = np.empty(n_samples)
    done = 0
    shard = 0
    while done < n_samples:
        count = min(_MC_SHARD, n_samples - done)
        z = normal_matrix(substream(seed, shard), count, v.n)
        x = z @ root + mu
        for j, f in enumerate(forms):
            q_values[j, done:done + count] = np.einsum("ij,jk,ik->i", x, f, x)
        q_total[done:done + count] = np.einsum("ij,jk,ik->i", x, total, x)
        done += count
        shard += 1

    ks = []
    for j, df in enumerate(dfs):
        if df == 0:
            ks.append(None)
            continue
        ks.append(ks_uniform_distance(chi2_cdf(q_values[j], df)))
    total_ks = (
        ks_uniform_distance(chi2_cdf(q_total, total_df)) if total_df > 0 else None
    )
    if len(forms) > 1:
        # degenerate forms (constant Q, e.g. df 0) carry no correlation
        live = np.flatnonzero(q_values.std(axis=1) > 0.0)
        corr = np.eye(len(forms))
        if live.size > 1:
            corr[np.ix_(live, live)] = np.corrcoef(q_values[live])
        off = corr - np.eye(len(forms))
        max_abs_corr = float(np.abs(off).max())
    else:
        corr = np.ones((1, 1))
        max_abs_corr = 0.0
    return McReport(
        n_samples=n_samples,
        seed=seed,
        dfs=dfs,
        ks=ks,
        corr=corr,
        max_abs_corr=max_abs_corr,
        total_df=total_df,
        total_ks=total_ks,
    )
