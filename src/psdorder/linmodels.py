"""Statistics layer: linear-model comparison, BLUE checks, quadratic forms.

A linear model (y, X beta, sigma^2 D) is summarized for comparison purposes
by its efficiency matrix M = X^T (D + X X^T)^- X; one model is at least as
good as another exactly when the efficiency matrices are PSD-ordered the
right way around.  Best linear unbiased estimation is decided by Rao's
fundamental BLUE equation, from two residuals of matrix products.
Cochran-style independence of quadratic forms reduces to
rank-subtractivity questions, certified by the shared congruence of
sim_congruence, plus a seeded Monte Carlo routine to validate the
distributional claims empirically.
"""

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .canonical import SimCongResult, _sim_congruence
from .errors import DimensionMismatch, PsdOrderError
from .numkernel import (
    PsdMatrix,
    _coerce,
    _spectral_pinv,
    _symmetrize,
    column_span,
    derived,
    eigh_stack,
    identity_budget,
    maxabs,
    outside_span,
    over_scale,
    rel_residual,
    require_psd,
    sym_array,
)
from .orders import OrderVerdict, Relation, _lowner_verdicts, _minus_stack, _per_pair, _rank_verdict
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
        self.x = _coerce(self.x, square=False)
        self.x.setflags(write=False)
        if not isinstance(self.d, PsdMatrix):
            self.d = PsdMatrix(self.d)
        if self.d.n != self.n:
            raise DimensionMismatch(
                f"covariance is {self.d.n}x{self.d.n} but the design has {self.n} rows"
            )
        if not 0 <= self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2!r}")

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
    """The two conditions of Rao's BLUE equation and the verdict.  The
    certificate holds the residual of the first, `residual_lx`, and the two
    sides of the second: `residual_dl`, the largest entry of the part of
    D L^T outside Im X over the largest entry of D L^T, and `budget_dl`,
    the budget it is held against."""

    cond_i: bool
    cond_ii: bool
    certificate: dict

    @property
    def is_blue(self) -> bool:
        return self.cond_i and self.cond_ii


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


def _gram_sandwiches(models, tol: ToleranceConfig) -> np.ndarray:
    """X^T (D + X X^T)^+ X of models whose designs share a shape, before
    symmetrization, from one decomposition of their Gram matrices."""
    x = np.array([model.x for model in models])
    gram = derived("D + X X^T", lambda: np.array([model.d.a for model in models]) + x @ x.swapaxes(-1, -2))
    return derived("X^T (D + X X^T)^+ X", lambda: x.swapaxes(-1, -2) @ _spectral_pinv(
        *eigh_stack(_symmetrize(gram)), tol) @ x)


def efficiency_matrix(model: LinearModel, tol: ToleranceConfig = DEFAULT_TOL) -> PsdMatrix:
    """M = X^T (D + X X^T)^- X with the pseudoinverse as the inner inverse.

    The result does not depend on which inner inverse is used because
    Im X is always inside Im(D + X X^T).
    """
    return PsdMatrix(_gram_sandwiches([model], tol)[0], tol)


def model_compare(
    l1: LinearModel, l2: LinearModel, tol: ToleranceConfig = DEFAULT_TOL
) -> ComparisonVerdict:
    """Compare two models over the same parameter vector.

    l1 is at least as good as l2 exactly when M2 <= M1 in the PSD order.
    M1, M2 and M1 - M2 are decomposed in one call: M1 and M2 are certified
    PSD from their eigenvalues, and both directions are decided from the
    one spectrum of M1 - M2.  The observation counts may differ, only the
    parameter dimension must agree; models of one count share one Gram call.
    """
    if l1.p != l2.p:
        raise DimensionMismatch(
            f"models estimate different parameter dimensions: {l1.p} vs {l2.p}"
        )
    stack, m = np.empty((3, l1.p, l1.p)), None  # M1 and M2 are written into the stack of M1 - M2
    if l1.n == l2.n:  # one pass; a fault is raised again below, model by model, as it is alone
        with suppress(PsdOrderError):
            m = _symmetrize(_gram_sandwiches([l1, l2], tol), out=stack[:2])
    for i, model in enumerate((l1, l2) if m is None else ()):
        _symmetrize(_gram_sandwiches([model], tol)[0], out=stack[i])
    stack[2] = derived("M1 - M2", np.subtract, stack[0], stack[1])
    values, vectors = eigh_stack(stack)
    scales = require_psd(stack[:2], values[:2], tol)
    forward, backward = _lowner_verdicts(scales.max(keepdims=True), values[2:], vectors[2:], tol, 2)
    return ComparisonVerdict(
        l1_geq_l2=forward.holds,
        l2_geq_l1=backward.holds,
        m1=PsdMatrix._certified(stack[0]),
        m2=PsdMatrix._certified(stack[1]),
        certificate={"m2_leq_m1": forward, "m1_leq_m2": backward},
    )


def blue_check(l, model: LinearModel, tol: ToleranceConfig = DEFAULT_TOL) -> BlueVerdict:
    """Is L y the best linear unbiased estimator of X beta?

    Rao's fundamental BLUE equation L (X : D Z) = (X : 0), with Z spanning
    the orthogonal complement of Im X: (i) L X = X, and (ii) L D Z = 0,
    that is Im(D L^T) inside Im X.  Both are relative residuals of
    products, infinite beyond the float range; (ii) measures the part of
    D L^T outside Im X.  The only decomposition is the SVD of X that gives
    a basis of Im X.  Neither condition depends on sigma^2.
    """
    l = _coerce(l, square=False)
    if l.shape != (model.n, model.n):
        raise DimensionMismatch(
            f"estimator must be {model.n}x{model.n}, got {l.shape}"
        )
    basis, angle = column_span(model.x, tol)
    # L X and D L^T enter residuals alone, which fail beyond the float range
    with np.errstate(over="ignore", invalid="ignore"):
        lx = l @ model.x
        residual_lx = rel_residual(lx - model.x, lx, model.x)
        residual_dl = over_scale(*(x.item() for x in outside_span(model.d.a @ l.T, basis)))
    # the basis of Im X is known only up to the angle column_span bounds,
    # which moves the part of D L^T outside it by up to that much of D L^T
    budget_dl = tol.recon_tol + float(angle)
    return BlueVerdict(
        cond_i=residual_lx <= identity_budget(tol, maxabs(l)),
        cond_ii=residual_dl <= budget_dl,
        certificate={"residual_lx": residual_lx, "residual_dl": residual_dl, "budget_dl": budget_dl},
    )


def _setup(a_list, v, mu, tol):
    """The work the quadratic-form checks share, in two eigh_stack calls: one
    certifies V and the forms (no forms raise); the other the k forms and their
    total compressed to W^T A W, W = (V : mu), and the k differences total - form.
    Returns the forms and their total, W, V's spectrum, the compressed matrices,
    their largest entries, the second stack's spectra gathered per triple
    (form, total, total - form) by orders._per_pair, and the family's one rank
    count: the triples' rank equations (orders._minus_stack), each against its
    cutoff."""
    v = sym_array(v)
    mats = []
    for i, a in enumerate(a_list):
        m = sym_array(a)
        if m.shape != v.shape:
            raise DimensionMismatch(f"form {i} is {len(m)}x{len(m)}, expected {len(v)}x{len(v)}")
        mats.append(m)
    # V, the forms and a last slot for their sum in one stack, sliced for both calls
    stack = np.array([v, *mats, v])
    values_v, vectors_v = eigh_stack(stack[:-1])
    require_psd(stack[:-1], values_v, tol)
    mats = stack[1:]
    mats[-1] = derived("the sum of the forms", sum, mats[:-1], np.zeros(v.shape))
    mu = _coerce(np.reshape(mu, -1), ndim=1, square=False)
    if mu.shape[0] != len(v):
        raise DimensionMismatch(
            f"mean has length {mu.shape[0]} but covariance is {len(v)}x{len(v)}"
        )
    if len(mats) == 1:
        raise ValueError("need at least one quadratic form")

    w = np.hstack([v, mu[:, None]])
    t = _symmetrize(derived("W^T A W", lambda: w.T @ mats @ w))
    k = len(mats) - 1
    values, vectors = eigh_stack(np.concatenate([t, derived("the total minus a form", np.subtract, t[k], t[:k])]))
    scales = require_psd(t, values[:k + 1], tol).tolist()
    # the stack [forms, total, total - forms] has the shared-B layout: one triple per form
    values, vectors = _per_pair(values, k), _per_pair(vectors, k)
    return mats, w, (values_v[0], vectors_v[0]), t, scales, (values, vectors), _minus_stack(values, tol)


def qform_rank_criterion(
    a_list, v, mu, tol: ToleranceConfig = DEFAULT_TOL
) -> QFormReport:
    """Rank criterion for independence of the quadratic forms x^T A_i x.

    With W = (V : mu), each compressed form W^T A_i W must sit below the
    compressed total W^T A W in the rank-subtractivity order, certified by an
    explicit shared congruence per form.  A form compressed to zero passes
    trivially with rank 0.  The minus verdicts are the rank route's, built
    from _setup's rank count, and decide.  Each form's rank is its verdict's
    rank_a and s the total's rank_b in the first triple (on the cone every
    triple's cutoff is the total's radius times the relative cutoff).  Each
    holding form's reduction takes its verdict's ranks and cutoff, and the
    spectra of the form, the total and their difference from that stack.  A
    reduction whose certificate fails a check raises PsdOrderError.
    """
    _, w, _, t, scales, (values, vectors), (decisions, ranks, cutoffs) = _setup(a_list, v, mu, tol)
    verdicts = [_rank_verdict(Relation.MINUS, *triple, method="rank")
                for triple in zip(decisions.T.tolist(), ranks.T.tolist(), cutoffs.tolist())]
    entries = []
    for i, verdict in enumerate(verdicts):
        cert, sim = verdict.certificate, None
        if verdict.holds:  # the verdict's ranks and cutoff, and the pair's scale
            sim = _sim_congruence(t[[i, -1]], values[i], vectors[i], cert["rank_a"], cert["rank_b"],
                                  cert["cutoff"], max(scales[i], scales[-1]), tol)
        entries.append(QFormEntry(index=i, rank=cert["rank_a"], verdict=verdict, sim=sim,
                                  reason="" if sim else "compressed form is not below the compressed total"))
    return QFormReport(w=w, forms=entries, s=ranks[1, 0].item(), overall=all(e.verdict.holds for e in entries))


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
    and reports pairwise correlations of the Q_i plus the KS distances of
    each form and of their total against chi-squared with the ranks of
    the compressed forms as degrees of freedom.  V's spectrum and the ranks,
    those qform_rank_criterion reports, come from _setup.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    mats, w, (lam, q), *_, (_, ranks, _) = _setup(a_list, v, mu, tol)
    # one entry per form, then the total's, in dfs, q_values and ks alike
    dfs = np.append(ranks[0], ranks[1, 0]).tolist()
    n = len(w)
    mu = w[:, -1]
    root = (q * np.sqrt(np.maximum(lam, 0.0))) @ q.T

    q_values = np.empty((len(mats), n_samples))
    for shard, start in enumerate(range(0, n_samples, _MC_SHARD)):
        x = normal_matrix(substream(seed, shard), min(_MC_SHARD, n_samples - start), n) @ root + mu
        q_values[:, start:start + _MC_SHARD] = derived(
            "a quadratic form's value", lambda: np.array([np.einsum("ij,ij->i", x @ m, x) for m in mats]))

    ks = [ks_uniform_distance(chi2_cdf(q, df)) if df > 0 else None for q, df in zip(q_values, dfs)]
    k = len(mats) - 1
    corr = np.eye(k)
    # a lone form has no correlation and no spread to check; degenerate forms
    # (constant Q, e.g. df 0) carry none
    if k > 1:
        live = np.flatnonzero(derived("the spread of a form", lambda: q_values[:k].std(axis=1)) > 0.0)
        if live.size > 1:
            corr[np.ix_(live, live)] = derived("the correlation of two forms", np.corrcoef, q_values[live])
    max_abs_corr = float(np.abs(corr - np.eye(k)).max())
    return McReport(
        n_samples=n_samples,
        seed=seed,
        dfs=dfs[:k],
        ks=ks[:k],
        corr=corr,
        max_abs_corr=max_abs_corr,
        total_df=dfs[k],
        total_ks=ks[k],
    )
