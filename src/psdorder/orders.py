"""Partial-order checks for symmetric matrices.

Three families are covered: the PSD (Loewner) order A <= B iff B - A is
positive semidefinite, the rank-subtractivity (minus) order
rank(B - A) = rank(B) - rank(A), and the star family, which on symmetric
arguments reduces to the identity A^2 = A B for every variant.

Every check returns an OrderVerdict carrying a machine-checkable
certificate: an eigenvalue witness, a rank triple, residual norms, or an
explicit inner inverse, depending on the route taken.

Each decision is written once, over stacks of pairs with a leading axis
(_lowner_stack, _minus_stack, _star_stack): order_holds_many decides a
whole stack from one stacked eigendecomposition, and the scalar checks
read their verdict and certificate from the same arithmetic at k = 1.
A scalar check checks and symmetrizes each input once, forms B - A once,
and decomposes all its matrices in one stacked eigh call.  Eigenvectors
are put in canonical order only where the bits of a result depend on
their order (the ginv route, a Loewner witness); the star and image
containment tests read them as eigh returns them.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, PsdOrderError
from .numkernel import (
    _spectral_pinv,
    canonical_order,
    derived,
    eigh_stack,
    identity_budget,
    image_in_span,
    maxabs_stack,
    min_singular_value,
    rel_residual,
    rel_residual_stack,
    sym_array,
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


def _pair(a, b):
    """A, B and B - A as arrays, each input checked and symmetrized once."""
    a, b = sym_array(a), sym_array(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"size mismatch: {len(a)} vs {len(b)}")
    return a, b, derived("B - A", np.subtract, b, a)


def matrices_equal(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality up to the reconstruction tolerance, relative to the larger
    of the two entry scales; exactly equal matrices (zero included) are
    always equal."""
    return _equal(*_pair(a, b), tol)


def _equal(a, b, d, tol):
    """matrices_equal on symmetric arrays A, B and their difference d."""
    return rel_residual(d, a, b) <= tol.recon_tol


def _detail(holds: bool, equal: bool, reverse_holds: bool) -> str:
    if holds and equal:
        return "equal"
    if holds:
        return "strictly less"
    if reverse_holds:
        return "strictly greater"
    return "incomparable"


def _lowner_stack(a, b, values, tol):
    """Loewner decisions for stacked pairs, from the ascending spectra
    `values` (k, n) of their differences B - A, both read from them: B <= A
    is the PSD test of the negation.  Returns the smallest eigenvalues of
    B - A and of A - B (k, 2), whether each is at least -threshold (A <= B,
    B <= A; a pair is equal when both hold, i.e. every eigenvalue of B - A
    is within the threshold), and the threshold: psd_tol times the largest
    entry of A and B."""
    threshold = tol.psd_tol * np.maximum(maxabs_stack(a), maxabs_stack(b))
    if values.shape[-1]:
        min_eigs = values[:, [0, -1]]
        min_eigs[:, 1] *= -1.0
        # the smallest eigenvalue of a finite matrix is finite or -inf, and
        # so is minus its largest; looked for without a numpy reduction
        if -math.inf in min_eigs.ravel().tolist():
            raise PsdOrderError("an eigenvalue of B - A overflows the floating-point range")
    else:
        min_eigs = np.zeros((len(values), 2))
    return min_eigs, min_eigs >= -threshold[:, None], threshold


def _lowner_verdicts(a, b, values, vectors, tol, count):
    """The first `count` of the verdicts A <= B and B <= A, from the one
    spectrum of B - A, values (1, n) and vectors (1, n, n) as eigh_stack
    returns them; eigenvectors are ordered only for a verdict that fails,
    to give its witness."""
    min_eigs, holds, threshold = _lowner_stack(a[None], b[None], values, tol)
    (min_eigs,), (holds,), (threshold,) = min_eigs.tolist(), holds.tolist(), threshold.tolist()
    if not all(holds[:count]):
        vectors = canonical_order(values, vectors)[1][0]
    return tuple(
        OrderVerdict(
            holds=holds[i],
            relation=Relation.LOWNER.value,
            certificate={
                "min_eig": min_eigs[i],
                "threshold": threshold,
                # the eigenvector of the smallest eigenvalue of B - A, or of A - B
                "witness": None if holds[i] else vectors[:, (-1, 0)[i]],
            },
            detail=_detail(holds[i], all(holds), holds[1 - i]),
        )
        for i in range(count)
    )


def lowner_leq(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """A <= B in the PSD sense: is B - A positive semidefinite?

    The certificate records the smallest eigenvalue of B - A, the threshold
    it was held against and, on failure, a unit vector x with
    x^T (B - A) x < 0.
    """
    a, b, d = _pair(a, b)
    return _lowner_verdicts(a, b, *eigh_stack(d[None]), tol, 1)[0]


# _minus_stack's decisions: r_B - r_A - r_{B-A}, r_A - r_B - r_{B-A} and r_{B-A} vanish
_RANK_EQUATIONS = np.array([[-1, 1, -1], [1, -1, -1], [0, 0, 1]])


def _minus_stack(values, tol):
    """The rank equation rank(B - A) = rank(B) - rank(A) for stacked pairs,
    from the spectra (k, 3, n) of their A, B and B - A, whose ranks count
    against one cutoff per pair, taken from its three spectra together.
    Returns the decisions (3, k): A below B, B below A (the same counts, as
    -(B - A) has the rank of B - A) and equality (rank(B - A) = 0); the
    ranks (3, k); and the cutoffs."""
    k, _, n = values.shape
    cutoff = tol.rank_cutoff(values.reshape(k, 3 * n), n)
    ranks = (np.abs(values) > cutoff[:, None, None]).sum(axis=-1).T
    return _RANK_EQUATIONS @ ranks == 0, ranks, cutoff


def _rank_verdict(decision, triple, cutoff):
    """The rank route's verdict A below B for one pair, from its decisions
    (A below B, B below A, equal), its rank triple and its cutoff as
    _minus_stack gives them: the triple and the cutoff are the
    certificate."""
    holds, reverse, equal = decision
    return OrderVerdict(
        holds=holds,
        relation=Relation.MINUS.value,
        certificate=dict(zip(("rank_a", "rank_b", "rank_diff"), triple), cutoff=cutoff,
                         method=MinusMethod.RANK.value),
        detail=_detail(holds, equal, reverse),
    )


def _rank_verdicts(values, tol):
    """_rank_verdict for each pair of a stack, from the spectra (k, 3, n) of
    their A, B and B - A (see _minus_stack)."""
    decisions, ranks, cutoffs = _minus_stack(values, tol)
    return list(map(_rank_verdict, decisions.T.tolist(), ranks.T.tolist(), cutoffs))


def _minus_by_image(a, d, span_b, dims, cutoff, tol):
    """Im B = Im A (+) Im(B - A): the rank equation plus a containment
    identity.

    B = A + (B - A) puts Im B inside Im A + Im(B - A), so once both
    summands lie in Im B and their dimensions add up to that of Im B, the
    sum fills Im B and is direct.  Containment is tested on the matrices
    themselves (image_in_span) against `span_b`, B's eigenvectors with the
    columns under the cutoff zeroed, in any order and sign.  The
    dimensions are the ranks the rank equation counted, and the test
    allows for the error in the eigenbasis of B, n times the cutoff (see
    _star_stack).
    """
    dim_a, dim_b, dim_c = dims
    contained = bool(image_in_span(np.array([a, d]), span_b, tol, len(a) * cutoff).all())
    holds = contained and dim_a + dim_c == dim_b
    cert = {
        "dim_a": dim_a,
        "dim_b": dim_b,
        "dim_diff": dim_c,
        "contained": contained,
    }
    return holds, cert


def _minus_by_ginv(a, b, d, values, vectors, cutoff, tol):
    """Constructive route: build an inner inverse G of A with G A = G B and
    A G = B G, which exists exactly when A is below B.

    G is assembled from the oblique projector onto Im A along
    Im(B - A) (+) (Im B)-perp; if the three pieces fail to decompose R^n the
    pair is not comparable and the certificate says which check failed.
    `values`, `vectors`: the canonical spectra of A, B and B - A, masked
    by the shared cutoff; A^+ reads A's under its own.
    """
    keep_a, keep, keep_d = (np.abs(v) > cutoff for v in values)
    q_a, q_b, q_d = vectors
    u_a = q_a[:, keep_a]
    u_c = q_d[:, keep_d]
    u_perp = q_b[:, ~keep]
    r = u_a.shape[1]
    cert: dict = {
        "dim_a": r,
        "dim_b": int(keep.sum()),
        "dim_diff": u_c.shape[1],
    }
    if r + u_c.shape[1] + u_perp.shape[1] != len(a):
        cert["reason"] = "dimension mismatch"
        return False, cert
    m = np.hstack([u_a, u_c, u_perp])
    cert["sigma_min"], direct = min_singular_value(m, tol)
    if not direct:
        cert["reason"] = "sum not direct"
        return False, cert
    proj = m[:, :r] @ np.linalg.inv(m)[:r, :]
    g = proj.T @ _spectral_pinv(values[0], q_a, tol) @ proj
    ga, gb, ag, bg = g @ a, g @ b, a @ g, b @ g
    aga = ag @ a
    # each identity's residual relative to the two sides it compares; the
    # roundoff of the products grows with the dimensionless |G| |A, B|
    lhs, rhs = np.array([aga, ga, ag]), np.array([a, gb, bg])
    residuals = dict(zip(("inner", "left", "right"), rel_residual_stack(lhs - rhs, lhs, rhs).tolist()))
    cert["g"] = g
    cert["residuals"] = residuals
    if max(residuals.values()) > identity_budget(tol, g, a, b):
        cert["reason"] = "identity residual"
        return False, cert
    return True, cert


def minus_leq(
    a,
    b,
    method: MinusMethod | str = MinusMethod.RANK,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderVerdict:
    """A <= B in the rank-subtractivity sense.

    Three interchangeable routes: "rank" checks the defining rank equation
    with one shared cutoff, "image" checks that Im B splits as the direct
    sum of Im A and Im(B - A), and "ginv" constructs an explicit inner
    inverse witness.  All three count against one cutoff from the spectra
    of A, B and B - A, decomposed together, and they agree whenever those
    rank decisions are clean.  The rank route reads both directions from
    the one count of _minus_stack, and the image route its dimensions; the
    image and ginv routes rerun on (B, A) with the same cutoff, the ginv
    route on the negated spectrum of B - A.  Each holds only where the
    rank equation does, so the rerun is skipped where the reverse equation
    fails.
    """
    method = MinusMethod(method)
    a, b, d = _pair(a, b)
    values, vectors = eigh_stack(np.array([a, b, d]))
    decisions, ranks, cutoff = _minus_stack(values[None], tol)
    (holds, reverse, equal), cutoff = decisions[:, 0].tolist(), cutoff[0]
    r_a, r_b, r_d = ranks = ranks[:, 0].tolist()
    if method is MinusMethod.RANK:
        return _rank_verdict((holds, reverse, equal), ranks, cutoff)
    if method is MinusMethod.IMAGE:
        # each image spanned by its eigenvectors with those under the cutoff
        # zeroed; the reverse test reads A's, and tests B - A for A - B
        spans = vectors * (np.abs(values) > cutoff)[:, None, :]
        holds, cert = _minus_by_image(a, d, spans[1], ranks, cutoff, tol)
        reverse = not holds and reverse and _minus_by_image(b, d, spans[0], (r_b, r_a, r_d), cutoff, tol)[0]
    else:
        values, vectors = canonical_order(values, vectors)
        holds, cert = _minus_by_ginv(a, b, d, values, vectors, cutoff, tol)
        # -(B - A): the spectrum of B - A negated and reversed, as views
        (v_a, v_b, v_d), (q_a, q_b, q_d) = values, vectors
        reverse = not holds and reverse and _minus_by_ginv(
            b, a, -d, (v_b, v_a, -v_d[::-1]), (q_b, q_a, q_d[:, ::-1]), cutoff, tol)[0]
    cert["method"] = method.value
    return OrderVerdict(
        holds=holds,
        relation=Relation.MINUS.value,
        certificate=cert,
        detail=_detail(holds, equal, reverse),
    )


def _star_stack(a, b, values_b, vectors_b, tol):
    """Whether each A of a stack is star-below its B, with the certificate
    parts: the residual of A^2 = A B relative to |A^2| and |A B|, the
    budget it is held against, and whether Im A sits inside Im B.  B comes
    with its spectrum as eigh_stack returns it, values (k, n) and
    eigenvector columns (k, n, n), in any order and sign.

    A^2 = A B gives A^2 = B A by transposing, so Im A = Im A^2 lies in
    Im B.  The containment is tested as well because it is linear in a
    part of A outside Im B, where the identity is quadratic: diag(1, t)
    meets A^2 = A diag(1, 0) up to t^2.  B is known only up to its rank
    cutoff c: a change of B that small moves A B by up to n |A| c
    entrywise and the part of A outside Im B by up to n c, so both tests
    allow that on top of recon_tol.  The products are formed from A and B
    divided by their common largest entry, which keeps them clear of
    underflow and overflow; rounding is monotone, so the largest entry of
    A divided by it is that of the divided A.  Im B is spanned by B's
    eigenvectors with the columns under the cutoff zeroed, so one pass
    covers pairs of any mix of ranks.
    """
    max_a = maxabs_stack(a)
    scale = np.maximum(max_a, maxabs_stack(b))
    scale[scale == 0.0] = 1.0
    a, b = a / scale[:, None, None], b / scale[:, None, None]
    cutoff = tol.rank_cutoff(values_b)
    slack = a.shape[-1] * cutoff / scale
    aa, ab = a @ a, a @ b
    den = np.maximum(maxabs_stack(aa), maxabs_stack(ab))
    # where both products vanish, so does their difference: residual and
    # budget term are 0, as x / inf is
    den[den == 0.0] = np.inf
    residual = maxabs_stack(aa - ab) / den
    budget = tol.recon_tol + max_a / scale * slack / den
    span_b = vectors_b * (np.abs(values_b) > cutoff[:, None])[:, None, :]
    contained = image_in_span(a, span_b, tol, slack)
    return (residual <= budget) & contained, residual, budget, contained


def star_family_leq(
    a,
    b,
    variant: Relation | str = Relation.STAR,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderVerdict:
    """A below B in the star order or one of its one-sided variants.

    On symmetric arguments all three reduce to A^2 = A B (its transpose
    gives the other identity for free, and the image containment the
    one-sided variants are defined with follows from it); the test and its
    certificate are described under _star_stack.
    """
    variant = Relation(variant)
    if variant not in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR):
        raise ValueError(f"{variant.value!r} is not a star-family relation")
    a, b, d = _pair(a, b)
    # the test (A, B) and the reverse test (B, A) in one pass over a stack
    # of two, on the spectra of B and of A from one call
    ba = np.array([b, a])
    values, vectors = eigh_stack(ba)
    (holds, reverse), residual, budget, contained = (
        x.tolist() for x in _star_stack(ba[::-1], ba, values, vectors, tol)
    )
    cert = {"residual": residual[0], "budget": budget[0], "image_contained": contained[0]}
    # equality is read only when A is below B
    equal = holds and _equal(a, b, d, tol)
    return OrderVerdict(
        holds=holds,
        relation=variant.value,
        certificate=cert,
        detail=_detail(holds, equal, reverse),
    )


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
    checked and symmetrized, then decided by holds_stack.  Only the star
    family's forward test runs, so this answers a pair whose reverse test
    raises (PsdOrderError: the rank cutoff of A's spectrum overflows)."""
    a = sym_stack(a)
    shared = np.ndim(b) == 2
    b = sym_stack(np.expand_dims(b, 0) if shared else b)
    if b.shape != ((1, *a.shape[1:]) if shared else a.shape):
        raise DimensionMismatch(f"stack shape mismatch: {a.shape} vs {b.shape}")
    return holds_stack(a, b, relation, tol)


def holds_stack(a, b, relation: Relation | str, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """order_holds_many on stacks as sym_stack returns them, B (k, n, n) or
    (1, n, n).  One stacked eigendecomposition covers the whole stack (of
    B - A, of A, B and B - A, or of B, read for its eigenvalues alone but
    for the star family), then each decision runs once over the stack."""
    relation = Relation(relation)
    if relation is Relation.LOWNER:
        values, _ = eigh_stack(derived("B - A", np.subtract, b, a))
        return _lowner_stack(a, b, values, tol)[1][:, 0]
    if relation is Relation.MINUS:
        values, _ = eigh_stack(np.concatenate([a, b, derived("B - A", np.subtract, b, a)]))
        parts = np.split(values, [len(a), len(a) + len(b)])
        return _minus_stack(np.stack(np.broadcast_arrays(*parts), axis=1), tol)[0][0]
    values, vectors = eigh_stack(b)
    return _star_stack(a, b, values, vectors, tol)[0]
