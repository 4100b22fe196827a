"""Partial-order checks for symmetric matrices.

Three families are covered: the PSD (Loewner) order A <= B iff B - A is
positive semidefinite, the rank-subtractivity (minus) order
rank(B - A) = rank(B) - rank(A), and the star family, which on symmetric
arguments reduces to the identity A^2 = A B, i.e. A (B - A) = 0, for
every variant.  On the PSD cone star implies minus and minus implies
Loewner, and the star decision is the minus decision plus that identity.

Every check returns an OrderVerdict carrying a machine-checkable
certificate: an eigenvalue witness, residual norms, or a rank triple.
Every verdict is built by one function, _verdict, the rank-decided ones
(minus, the star family, the quadratic-form criterion) through its
rank-triple form _rank_verdict.  The Loewner order is the PSD rule
(numkernel.psd_rule) on B - A and on A - B.  The rank equation decides
the minus order for every method and is the first step of the star
order; a holding minus verdict can carry more on request, the direct sum
Im B = Im A (+) Im(B - A) or an explicit inner inverse, each checked
before it is returned.  Both, and sim_congruence's S, are read off one
basis of the pair's eigenvectors (_oblique_basis), which one direct-sum
check certifies for all three (_direct_sum).

Each decision is written once, over stacks of pairs with a leading axis
(_lowner_stack, _minus_stack, _star_identity): order_holds_many decides a
whole stack, and linmodels each form of a family below its total, from one
stacked eigendecomposition; the scalar checks run the same code at k = 1.
A pair is one stack [A, B, B - A], scanned once for its largest entries
(maxabs_stack), and every threshold, budget and residual of the pair
reads them: its scale is the larger of A's and B's.
A decision that reads no eigenvector takes the values alone
(eigvalsh_stack): the stacked decisions, the scalar minus rank route and
the star family, which read the same bits.  The scalar Loewner
check, whose failing verdict carries an eigenvector, and the image and
ginv minus routes decide on eigh's values, which LAPACK computes by
another route: they agree with a values-only decision except on a pair
with an eigenvalue within a few eps times the spectral radius of its
cutoff (the threshold, for Loewner), which either backward-stable
solver may put on either side.
A scalar check passes A and B through one gate (numkernel.sym_pair),
which forms B - A once, scans only it for finiteness and returns the
pair's stack; the check decomposes all its matrices in one stacked call
and scans the stack only where a threshold or a budget needs the
largest entries.  Eigenvectors are put in canonical order (a stable
descending sort of their eigenvalues, and the first entry above
numkernel._SIGN_EPS of each made positive) only where a result shows
their order: S's n columns.  G and the direct-sum check, which do not
depend on the order or signs of the basis, read eigh's eigenvectors as
they come.  A Loewner witness is the one column of that order read from
eigh's output by canonical_column.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, PsdOrderError
from .numkernel import (
    canonical_column,
    derived,
    eigh_stack,
    eigvalsh_stack,
    fix_signs,
    identity_budget,
    maxabs_stack,
    min_singular_value,
    over_scale,
    psd_rule,
    sym_pair,
    sym_stack,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig


class Relation(str, Enum):
    LOWNER = "lowner"
    MINUS = "minus"
    STAR = "star"
    LEFT_STAR = "left-star"
    RIGHT_STAR = "right-star"


class MinusMethod(str, Enum):
    RANK = "rank"
    IMAGE = "image"
    GINV = "ginv"


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an order check.

    `detail` refines the boolean: "equal", "strictly less",
    "strictly greater" (the reverse comparison holds instead), or
    "incomparable".
    """

    holds: bool
    relation: str
    certificate: dict = field(default_factory=dict)
    detail: str = ""


def _detail(holds: bool, equal: bool, reverse_holds: bool) -> str:
    if holds and equal:
        return "equal"
    if holds:
        return "strictly less"
    if reverse_holds:
        return "strictly greater"
    return "incomparable"


def _verdict(relation: Relation, holds: bool, reverse: bool, equal: bool, **certificate) -> OrderVerdict:
    """The one builder of an OrderVerdict: A below B in `relation` or not,
    its detail from whether B is below A and whether they are equal
    (_detail), and the certificate's entries in the order given."""
    return OrderVerdict(holds, relation.value, certificate, _detail(holds, equal, reverse))


def _lowner_stack(scale, values, tol):
    """Loewner decisions for stacked pairs, from the ascending spectra
    `values` (k, n) of their differences B - A, both read from them: B <= A
    is the PSD test of the negation.  Returns the smallest eigenvalues of
    B - A and of A - B (k, 2), whether each passes the PSD rule
    (numkernel.psd_rule; A <= B, B <= A; a pair is equal when both hold,
    i.e. every eigenvalue of B - A is within the threshold), and the
    threshold (k, 1), the rule's against `scale`, the larger of the largest
    entries of each pair's A and B."""
    if values.shape[-1]:
        min_eigs = values[:, [0, -1]]
        min_eigs[:, 1] *= -1.0
        # the smallest eigenvalue of a finite matrix is finite or -inf, and
        # so is minus its largest; looked for without a numpy reduction
        if -math.inf in min_eigs.ravel().tolist():
            raise PsdOrderError("an eigenvalue of B - A overflows the floating-point range")
    else:
        min_eigs = np.zeros((len(values), 2))
    holds, threshold = psd_rule(min_eigs, scale[:, None], tol)
    return min_eigs, holds, threshold


def _lowner_verdicts(scale, values, vectors, tol, count):
    """The first `count` of the verdicts A <= B and B <= A, from the one
    spectrum of B - A, values (1, n) and vectors (1, n, n) as eigh_stack
    returns them, and the pair's scale (1,).  A verdict
    that fails gives as its witness the one eigenvector that a stable
    descending sort puts last (A <= B) or first (B <= A), its first entry
    above _SIGN_EPS made positive, read from eigh's columns by
    canonical_column; no other eigenvector is ordered."""
    min_eigs, holds, threshold = _lowner_stack(scale, values, tol)
    threshold, *min_eigs, forward, backward = np.concatenate((threshold[0], min_eigs[0], holds[0])).tolist()
    holds = forward == 1.0, backward == 1.0  # converted with the floats, in one call
    return tuple(
        _verdict(Relation.LOWNER, holds[i], holds[1 - i], all(holds), min_eig=min_eigs[i], threshold=threshold,
                 # the eigenvector of the smallest eigenvalue of B - A, or of A - B
                 witness=None if holds[i] else canonical_column(values[0], vectors[0], last=i == 0))
        for i in range(count)
    )


def lowner_leq(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """A <= B in the PSD sense: is B - A positive semidefinite?

    The certificate records the smallest eigenvalue of B - A, the threshold
    it was held against and, on failure, a unit vector x with
    x^T (B - A) x < 0.
    """
    stack = sym_pair(a, b)
    return _lowner_verdicts(_scan(stack, 1)[0], *eigh_stack(stack[2:]), tol, 1)[0]


# _minus_stack's decisions: r_B - r_A - r_{B-A}, r_A - r_B - r_{B-A} and r_{B-A} vanish
_RANK_EQUATIONS = np.array([[-1, 1, -1], [1, -1, -1], [0, 0, 1]])
# the oblique basis's blocks in its column order, A, B - A, B, by place in the stack [A, B, B - A]
_BLOCKS, _SPECTRA = np.array([0, 2, 1]), np.arange(3)[:, None]


def _minus_stack(values, tol):
    """The rank equation rank(B - A) = rank(B) - rank(A) for stacked pairs,
    from the spectra (k, 3, n) of their A, B and B - A, whose ranks count
    against one cutoff per pair, taken from its three spectra together.
    Returns the decisions (3, k): A below B, B below A (the same counts, as
    -(B - A) has the rank of B - A) and equality (rank(B - A) = 0); the
    ranks (3, k); and the cutoffs.  |values| is taken once: the cutoff's
    radius reads the same bits from it as from the spectra."""
    k, _, n = values.shape
    mags = np.abs(values)
    cutoff = tol.rank_cutoff(mags.reshape(k, 3 * n), n)
    ranks = (mags > cutoff[:, None, None]).sum(axis=-1).T
    return _RANK_EQUATIONS @ ranks == 0, ranks, cutoff


def _rank_verdict(relation, decision, triple, cutoff, **extra):
    """_verdict from one pair's decisions (A below B, B below A, equal), rank triple and cutoff
    as _minus_stack gives them, the certificate the triple, the cutoff, then `extra`."""
    rank_a, rank_b, rank_diff = triple
    return _verdict(relation, *decision, rank_a=rank_a, rank_b=rank_b, rank_diff=rank_diff, cutoff=cutoff, **extra)


def _minus_pair(a, b, tol, vectors=False):
    """The rank equation of one pair for every caller: A, B and B - A from
    the pair gate (numkernel.sym_pair) as one stack, decomposed in one call,
    eigvalsh_stack or, with `vectors`, eigh_stack, and decided by
    _minus_stack.  Returns that (3, n, n) stack, the decisions (A below B,
    B below A, equal), the rank triple, the cutoff, the values (3, n) and
    the eigenvector columns (3, n, n) or None."""
    stack = sym_pair(a, b)
    values, vecs = eigh_stack(stack) if vectors else (eigvalsh_stack(stack), None)
    decisions, ranks, cutoff = _minus_stack(values[None], tol)
    return stack, decisions[:, 0].tolist(), ranks[:, 0].tolist(), cutoff.item(), values, vecs


def _certificate_fails(name, check):
    """The error of a certificate (`name`: image, ginv or congruence) that
    fails its own `check` on a verdict the rank equation holds."""
    return PsdOrderError(f"the {name} certificate of a holding minus verdict fails its {check}")


def _direct_sum(name, m, tol):
    """The direct-sum check of every minus certificate (`name`: image, ginv
    or congruence): the n x n basis `m` of a pair whose rank equation holds
    (_oblique_basis, or S, its columns scaled) is invertible, its smallest
    singular value clearing the rank cutoff, which with the rank equation
    is Im B = Im A (+) Im(B - A).  Returns that sigma_min; a basis that fails
    raises PsdOrderError naming it."""
    sigma_min, direct = min_singular_value(m, tol)
    if not direct:
        raise _certificate_fails(name, f"direct-sum check: sigma_min {sigma_min:.3e}")
    return sigma_min


def _oblique_basis(values, vectors, cutoff, ordered=False):
    """The basis m = (A's kept eigenvectors : B - A's kept : B's dropped)
    of a pair whose rank equation holds, which makes it n x n, and each
    column's eigenvalue, from the spectra of A, B and B - A, (3, n) and
    (3, n, n), masked by `cutoff`.  On the cone Im B = Im A (+) Im(B - A),
    so m is invertible, and S = m diag(sqrt(lambda)) gives A = S E_r S^T
    and B = S E_s S^T.  Only those n columns are gathered, each block in
    its spectrum's order or, `ordered`, in canonical order: a stable
    descending sort, and the first entry above _SIGN_EPS of each column
    made positive (fix_signs)."""
    n, keep = values.shape[-1], np.abs(values) > cutoff
    keep[1] ^= True  # B's dropped columns
    order = np.argsort(-values, axis=-1, kind="stable") if ordered else np.arange(n)
    index = (n * _SPECTRA + order)[_BLOCKS]  # each candidate's row among all 3n
    index = index[keep.ravel()[index]]
    rows = vectors.swapaxes(-1, -2).reshape(3 * n, n)[index]
    return (fix_signs(rows) if ordered else rows).T.copy(), values.ravel()[index]


def _ginv_certificate(stack, values, vectors, rank_a, cutoff, tol):
    """An inner inverse G of A with G A = G B and A G = B G, which exists
    exactly when A is below B, for a pair whose rank equation holds.

    G = S^-T E_r S^-1 for S = m diag(sqrt(lambda)) (_oblique_basis), that
    is W_r^T W_r, W_r the first r rows of S^-1 = diag(1 / sqrt(lambda)) m^-1,
    which over A's eigenvalues inverts a negative one as A^+ does: G is
    P^T A^+ P, P the projector onto Im A along Im(B - A) (+) Ker B, for m's
    columns in any order and signs, so m is eigh's, unsorted.  The
    certificate checks that m is invertible (_direct_sum) and that G meets
    the three identities.  `stack`: the pair's [A, B, B - A].
    """
    ab, n = stack[:2], len(stack[0])
    m, lam = _oblique_basis(values, vectors, cutoff)
    sigma_min = _direct_sum("ginv", m, tol)
    w = np.linalg.inv(m)[:rank_a]
    g = (w / lam[:rank_a, None]).T @ w
    # one buffer, scanned once: the differences of A G A = A, G A = G B and
    # A G = B G, then G A, G B, A G, B G, A, B and G
    x = np.empty((10, n, n))
    x[7:9], x[9] = ab, g
    np.matmul(g, ab, out=x[3:5])
    np.matmul(ab, g, out=x[5:7])
    np.subtract(x[5] @ ab[0], ab[0], out=x[0])
    np.subtract(x[3:7:2], x[4:7:2], out=x[1:3])
    maxima = maxabs_stack(x).tolist()
    # A G A = A is judged against the pair's scale, as the rank equation
    # judges the pair (G = 0 on an A under the cutoff), the others against their sides
    scale = max(maxima[7:9])
    den = (scale, max(maxima[3:5]), max(maxima[5:7]))
    residuals = dict(zip(("inner", "left", "right"), map(over_scale, maxima[:3], den)))
    budget = identity_budget(tol, maxima[9] * scale)
    worst = max(residuals, key=residuals.get)
    if residuals[worst] > budget:
        raise _certificate_fails(
            "ginv", f"identity check: {worst} residual {residuals[worst]:.3e} over {budget:.3e}")
    return {"sigma_min": sigma_min, "g": g, "residuals": residuals}


def minus_leq(
    a,
    b,
    method: MinusMethod | str = MinusMethod.RANK,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderVerdict:
    """A <= B in the rank-subtractivity sense.

    The rank equation decides, for every method and for sim_congruence: the
    ranks of A, B and B - A, decomposed together, count against one cutoff
    from their three spectra, and both directions and equality are read from
    that one count (_minus_pair).  The certificate is the rank triple, the
    cutoff and the method.  `method` names what a holding verdict carries
    besides: "rank" nothing, "image" {"contained": True}, that
    Im B = Im A (+) Im(B - A), so both images lie in Im B, and "ginv" an
    explicit inner inverse witness G.  Both certificates pass the one
    direct-sum check (_direct_sum) on the basis they read off eigh's
    factors; the rank route reads eigenvalues alone (eigvalsh_stack).  A
    requested certificate that fails its own check raises PsdOrderError,
    naming the check.  The inputs are checked by one gate, which scans B - A
    alone for finiteness (see numkernel.sym_pair).
    """
    method = MinusMethod(method)
    stack, decision, triple, cutoff, values, vectors = _minus_pair(a, b, tol, method is not MinusMethod.RANK)
    holds, extra = decision[0], {}
    if holds and method is MinusMethod.IMAGE:
        # Im B = Im A (+) Im(B - A) exactly when the basis, with B's null
        # space, fills R^n; its singular values do not depend on the order
        # or sign of its columns, so they are left as eigh returns them
        _direct_sum("image", _oblique_basis(values, vectors, cutoff)[0], tol)
        extra = {"contained": True}
    elif holds and method is MinusMethod.GINV:
        extra = _ginv_certificate(stack, values, vectors, triple[0], cutoff, tol)
    return _rank_verdict(Relation.MINUS, decision, triple, cutoff, method=method.value, **extra)


def _star_identity(x, d, max_x, max_d, scale, cutoff, tol):
    """X (B - A) = 0, the star order's identity, for each X of a stack `x`
    against B - A, `d` (one, or one per X), whose largest entries are
    `max_x` (one per X) and `max_d`.  X, B - A and the rank cutoff are
    divided by `scale`, the pair's (1 for a zero pair), which keeps the
    product clear of underflow and overflow; `scale` and `cutoff` are
    floats or one per X.  Returns each product's largest entry, the
    residual, and the budget it is held against: recon_tol |X| |B - A|
    plus n |X| times the cutoff, the roundoff of forming B - A from A and B
    known to about the cutoff.  The largest entries are divided rather
    than the quotients scanned: division by scale > 0 is monotone, so both
    give the same bits.  A product that is a fair part of |X| |B - A|
    fails, however small B - A is next to X."""
    scale = scale + (scale == 0.0)  # 1 for a zero pair, and a float stays a float
    units = np.asarray(scale)[..., None, None]
    budget = max_x / scale * (tol.recon_tol * (max_d / scale) + x.shape[-1] * (cutoff / scale))
    return maxabs_stack(x / units @ (d / units)), budget


def star_family_leq(
    a,
    b,
    variant: Relation | str = Relation.STAR,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderVerdict:
    """A below B in the star order or one of its one-sided variants.

    On symmetric arguments all three reduce to A^2 = A B, that is
    A (B - A) = 0 (its transpose gives the other identity for free, and the
    image containment the one-sided variants are defined with follows from
    it).  The test has two steps.  The rank equation decides first, as it
    decides minus_leq (_minus_pair), so star implies minus by construction;
    its count gives both directions and equality (rank(B - A) = 0).  Then
    X (B - A) = 0 is judged for X = A and, for the reverse test, X = B, in
    one stacked product (_star_identity).  The certificate is the rank
    triple and the cutoff, and the residual and budget of the identity.
    """
    variant = Relation(variant)
    if variant not in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR):
        raise ValueError(f"{variant.value!r} is not a star-family relation")
    stack, (holds, reverse, equal), triple, cutoff, _, _ = _minus_pair(a, b, tol)
    maxima = maxabs_stack(stack)
    # a float scale keeps B - A one (n, n) matrix, and the product's bits with it
    residual, budget = (x.tolist() for x in _star_identity(
        stack[:2], stack[2], maxima[:2], maxima[2], max(maxima[:2].tolist()), cutoff, tol))
    decision = holds and residual[0] <= budget[0], reverse and residual[1] <= budget[1], equal
    return _rank_verdict(variant, decision, triple, cutoff, residual=residual[0], budget=budget[0])


def order_leq(
    a,
    b,
    relation: Relation | str,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderVerdict:
    """A below B in `relation`, decided by the check that owns it; the minus
    order takes its default (rank) route."""
    relation = Relation(relation)
    if relation is Relation.LOWNER:
        return lowner_leq(a, b, tol)
    if relation is Relation.MINUS:
        return minus_leq(a, b, tol=tol)
    return star_family_leq(a, b, relation, tol)


def order_holds_many(a, b, relation: Relation | str, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """order_leq(a[i], b[i], relation, tol).holds, as a bool array, for
    every pair of two (k, n, n) stacks on which order_leq returns; B may
    also be one (n, n) matrix, paired with every A.  Both stacks are
    checked and symmetrized, then decided by holds_stack.  The minus and
    star decisions read the values-only spectra order_leq's rank route
    reads, and get its answer.  The Loewner decision reads them
    where lowner_leq reads eigh's, so a pair with an eigenvalue within a
    few eps times the spectral radius of its threshold may be decided
    otherwise than lowner_leq decides it; every other pair gets its
    answer."""
    a = sym_stack(a)
    shared = np.ndim(b) == 2
    b = sym_stack(np.expand_dims(b, 0) if shared else b)
    if b.shape != ((1, *a.shape[1:]) if shared else a.shape):
        raise DimensionMismatch(f"stack shape mismatch: {a.shape} vs {b.shape}")
    return holds_stack(a, b, relation, tol)


def _scan(stack, k):
    """One scan of the stack [A, B, B - A] of k pairs: each pair's scale
    (k,), the larger of its A's and B's largest entries, and the largest
    entries (k,) of each A and each B - A."""
    maxima = maxabs_stack(stack)
    max_a, max_d = maxima[:k], maxima[len(stack) - k:]
    return np.maximum(max_a, maxima[k:len(stack) - k]), max_a, max_d


def _per_pair(x, k):
    """`x`, one entry per matrix of the stack [A, B, B - A] of k pairs, as
    (k, 3, ...): each pair's entries of A, B and B - A, gathered at once;
    a shared B (len(x) = 2k + 1) gives its entry k to every pair."""
    b_step = 0 if len(x) == 2 * k + 1 else 1
    return x.take(np.arange(k)[:, None] * (1, b_step, 1) + (0, k, len(x) - k), axis=0)


def holds_stack(a, b, relation: Relation | str, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """order_holds_many on stacks as sym_stack returns them, B (k, n, n) or
    (1, n, n), formed into one stack [A, B, B - A], a shared B in it once,
    scanned once where a threshold or a budget reads it (_scan) and
    decomposed in one values-only call (eigvalsh_stack), of B - A alone for
    the Loewner order.  Each decision runs once over the stack; the star
    family's is the minus decision and A (B - A) = 0 (_star_identity), as
    star_family_leq decides a pair."""
    relation = Relation(relation)
    k = len(a)
    stack = np.concatenate([a, b, derived("B - A", np.subtract, b, a)])
    d = stack[len(stack) - k:]
    if relation is Relation.LOWNER:
        return _lowner_stack(_scan(stack, k)[0], eigvalsh_stack(d), tol)[1][:, 0]
    decisions, _, cutoff = _minus_stack(_per_pair(eigvalsh_stack(stack), k), tol)
    if relation is Relation.MINUS:
        return decisions[0]
    scale, max_a, max_d = _scan(stack, k)
    residual, budget = _star_identity(a, d, max_a, max_d, scale, cutoff, tol)
    return decisions[0] & (residual <= budget)
