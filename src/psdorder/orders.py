"""Partial-order checks for symmetric matrices.

Three families are covered: the PSD (Loewner) order A <= B iff B - A is
positive semidefinite, the rank-subtractivity (minus) order
rank(B - A) = rank(B) - rank(A), and the star family, which on symmetric
arguments reduces to the identity A^2 = A B for every variant.

Every check returns an OrderVerdict carrying a machine-checkable
certificate: an eigenvalue witness, residual norms, or a rank triple.  The
rank equation decides the minus order for every method; a holding minus
verdict can carry more on request, the containment of the images or an
explicit inner inverse, each checked before it is returned.

Each decision is written once, over stacks of pairs with a leading axis
(_lowner_stack, _minus_stack, _star_stack): order_holds_many decides a
whole stack from one stacked eigendecomposition, and the scalar checks
read their verdict and certificate from the same arithmetic at k = 1.
A decision that reads no eigenvector takes the values alone
(eigvalsh_stack): the stacked Loewner and minus decisions and the
scalar minus rank route, which read the same bits.  The scalar Loewner
check, whose failing verdict carries an eigenvector, and the image and
ginv minus routes decide on eigh's values, which LAPACK computes by
another route: they agree with a values-only decision except on a pair
with an eigenvalue within a few eps times the spectral radius of its
cutoff (the threshold, for Loewner), which either backward-stable
solver may put on either side.
A scalar check passes A and B through one gate as a stack (_pair), forms
B - A once and scans only it for finiteness, takes the largest entries
of A and B in one scan where a threshold or a scale needs them, and
decomposes all its matrices in one stacked call.  Eigenvectors are put
in canonical order only where the bits of a result depend on their
order: the ginv certificate of a holding minus verdict, whose identities
multiply G by the gate's (A, B) stack.  A Loewner witness is the one
column canonical_order would give, read from eigh's output by
canonical_column; the star and image tests read eigh's eigenvectors.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, PsdOrderError
from .numkernel import (
    _spectral_pinv,
    canonical_column,
    canonical_order,
    derived,
    eigh_stack,
    eigvalsh_stack,
    identity_budget,
    image_in_span,
    maxabs,
    maxabs_stack,
    min_singular_value,
    over_scale,
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


def _pair(a, b):
    """A and B checked and symmetrized, as one (2, n, n) stack, and B - A,
    through numkernel.sym_pair: raw input is copied once and scanned once,
    as B - A, for finiteness.  A non-finite entry of A or B raises
    ValueError, as sym_array does, and a finite pair whose difference
    leaves the float range PsdOrderError."""
    return sym_pair(a, b, difference=True)


def _pair_scale(ab):
    """The largest entry of A and B together, as a (1,) array, from their
    (2, n, n) stack in one scan."""
    return maxabs_stack(ab.reshape(1, 2 * ab.shape[-1], ab.shape[-1]))


def matrices_equal(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality up to the reconstruction tolerance, relative to the larger
    of the two entry scales; exactly equal matrices (zero included) are
    always equal."""
    ab, d = _pair(a, b)
    return _equal(d, _pair_scale(ab).item(), tol)


def _equal(d, scale, tol):
    """matrices_equal from the difference d of two symmetric arrays and the
    largest entry `scale` of the two: rel_residual(d, A, B) against
    recon_tol."""
    return over_scale(maxabs(d), scale) <= tol.recon_tol


def _detail(holds: bool, equal: bool, reverse_holds: bool) -> str:
    if holds and equal:
        return "equal"
    if holds:
        return "strictly less"
    if reverse_holds:
        return "strictly greater"
    return "incomparable"


def _lowner_stack(scale, values, tol):
    """Loewner decisions for stacked pairs, from the ascending spectra
    `values` (k, n) of their differences B - A, both read from them: B <= A
    is the PSD test of the negation.  Returns the smallest eigenvalues of
    B - A and of A - B (k, 2), whether each is at least -threshold (A <= B,
    B <= A; a pair is equal when both hold, i.e. every eigenvalue of B - A
    is within the threshold), and the threshold: psd_tol times `scale`
    (k,), the largest entry of each pair's A and B."""
    threshold = tol.psd_tol * scale
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


def _lowner_verdicts(scale, values, vectors, tol, count):
    """The first `count` of the verdicts A <= B and B <= A, from the one
    spectrum of B - A, values (1, n) and vectors (1, n, n) as eigh_stack
    returns them, and the largest entry `scale` (1,) of A and B.  A verdict
    that fails gives as its witness the one eigenvector that
    canonical_order would put last (A <= B) or first (B <= A), read from
    eigh's columns by canonical_column; no other eigenvector is ordered."""
    min_eigs, holds, threshold = _lowner_stack(scale, values, tol)
    (min_eigs,), (holds,), (threshold,) = min_eigs.tolist(), holds.tolist(), threshold.tolist()
    return tuple(
        OrderVerdict(
            holds=holds[i],
            relation=Relation.LOWNER.value,
            certificate={
                "min_eig": min_eigs[i],
                "threshold": threshold,
                # the eigenvector of the smallest eigenvalue of B - A, or of A - B
                "witness": None if holds[i] else canonical_column(values[0], vectors[0], last=i == 0),
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
    ab, d = _pair(a, b)
    return _lowner_verdicts(_pair_scale(ab), *eigh_stack(d[None]), tol, 1)[0]


# _minus_stack's decisions: r_B - r_A - r_{B-A}, r_A - r_B - r_{B-A} and r_{B-A} vanish
_RANK_EQUATIONS = np.array([[-1, 1, -1], [1, -1, -1], [0, 0, 1]])


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


def _rank_verdict(decision, triple, cutoff, method=MinusMethod.RANK, extra=None):
    """The minus verdict A below B for one pair, from its decisions (A below
    B, B below A, equal), its rank triple and its cutoff as _minus_stack
    gives them.  The triple, the cutoff and the method are the certificate,
    whatever the method; `extra`, the image or ginv certificate of a
    holding verdict, is appended to it."""
    holds, reverse, equal = decision
    return OrderVerdict(
        holds=holds,
        relation=Relation.MINUS.value,
        certificate=dict(zip(("rank_a", "rank_b", "rank_diff"), triple), cutoff=cutoff,
                         method=method.value, **(extra or {})),
        detail=_detail(holds, equal, reverse),
    )


def _rank_verdicts(values, tol):
    """_rank_verdict for each pair of a stack, from the spectra (k, 3, n) of
    their A, B and B - A (see _minus_stack)."""
    decisions, ranks, cutoffs = _minus_stack(values, tol)
    return list(map(_rank_verdict, decisions.T.tolist(), ranks.T.tolist(), cutoffs))


def _certificate_fails(method, check):
    """The error of a requested certificate that fails its own `check` on a
    verdict the rank equation holds."""
    return PsdOrderError(f"the {method.value} certificate of a holding minus verdict fails its {check}")


def _image_certificate(a, d, values_b, vectors_b, cutoff, tol):
    """Im B = Im A (+) Im(B - A) for a pair whose rank equation holds.

    B = A + (B - A) puts Im B inside Im A + Im(B - A), and the ranks add
    up, so once both summands lie in Im B the sum fills Im B and is
    direct.  Containment is tested on the matrices themselves
    (image_in_span) against B's eigenvectors, `vectors_b` as eigh returns
    them, with the columns under the cutoff zeroed.  The test allows for
    the error in the eigenbasis of B, n times the cutoff (see _star_stack).
    """
    span_b = vectors_b * (np.abs(values_b) > cutoff)
    if not image_in_span(np.array([a, d]), span_b, tol, len(a) * cutoff).all():
        raise _certificate_fails(MinusMethod.IMAGE, "containment check: Im A or Im(B - A) leaves Im B")
    return {"contained": True}


def _ginv_certificate(ab, scale, values, vectors, rank_a, cutoff, tol):
    """An inner inverse G of A with G A = G B and A G = B G, which exists
    exactly when A is below B, for a pair whose rank equation holds.

    G is assembled from the oblique projector onto Im A along
    Im(B - A) (+) (Im B)-perp.  The rank equation makes the three pieces'
    dimensions add up to n; the certificate checks that their sum is
    direct and that G meets the three identities.  `ab`: the (2, n, n)
    stack of A and B; `scale`: its largest entry.  `values`, `vectors`:
    the spectra of A, B and B - A as eigh returns them, put in canonical
    order here, since G's bits depend on the order of the columns, and
    masked by the cutoff; A^+ reads A's under its own.
    """
    values, vectors = canonical_order(values, vectors)
    keep_a, keep, keep_d = np.abs(values) > cutoff
    q_a, q_b, q_d = vectors
    m = np.concatenate((q_a, q_d, q_b), axis=1)[:, np.concatenate((keep_a, keep_d, ~keep))]
    sigma_min, direct = min_singular_value(m, tol)
    if not direct:
        raise _certificate_fails(MinusMethod.GINV, f"direct-sum check: sigma_min {sigma_min:.3e}")
    proj = m[:, :rank_a] @ np.linalg.inv(m)[:rank_a, :]
    g = proj.T @ _spectral_pinv(values[0], q_a, tol) @ proj
    left, right = g @ ab, ab @ g
    # the sides of A G A = A, G A = G B and A G = B G; each identity's
    # residual is relative to its two sides, and the roundoff of the
    # products grows with the dimensionless |G| |A, B|
    sides = np.array([(right[0] @ ab[0], ab[0]), left, right])
    num, den = maxabs_stack(sides[:, 0] - sides[:, 1]), maxabs_stack(sides.reshape(3, 2 * len(g), len(g)))
    residuals = dict(zip(("inner", "left", "right"), map(over_scale, num.tolist(), den.tolist())))
    budget = identity_budget(tol, g, scale)
    worst = max(residuals, key=residuals.get)
    if residuals[worst] > budget:
        raise _certificate_fails(
            MinusMethod.GINV, f"identity check: {worst} residual {residuals[worst]:.3e} over {budget:.3e}")
    return {"sigma_min": sigma_min, "g": g, "residuals": residuals}


def minus_leq(
    a,
    b,
    method: MinusMethod | str = MinusMethod.RANK,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderVerdict:
    """A <= B in the rank-subtractivity sense.

    The rank equation decides, for every method: the ranks of A, B and
    B - A, decomposed together, count against one cutoff from their three
    spectra, and both directions and equality are read from that one count
    (_minus_stack).  The certificate is the rank triple, the cutoff and the
    method.  `method` names what a holding verdict carries besides: "rank"
    nothing, "image" the containment of Im A and Im(B - A) in Im B, which
    with the ranks makes Im B their direct sum, and "ginv" an explicit
    inner inverse witness G.  The rank route reads eigenvalues alone
    (eigvalsh_stack), the image and ginv routes eigh's factors.  A
    requested certificate that fails its own check raises PsdOrderError,
    naming the check.  The inputs are checked by one gate, which scans
    B - A alone for finiteness (see _pair).
    """
    method = MinusMethod(method)
    ab, d = _pair(a, b)
    a, b = ab
    stack = np.array([a, b, d])
    if method is MinusMethod.RANK:
        values = eigvalsh_stack(stack)
    else:
        values, vectors = eigh_stack(stack)
    decisions, ranks, cutoff = _minus_stack(values[None], tol)
    decision, triple, cutoff = decisions[:, 0].tolist(), ranks[:, 0].tolist(), cutoff[0]
    holds, extra = decision[0], None
    if holds and method is MinusMethod.IMAGE:
        extra = _image_certificate(a, d, values[1], vectors[1], cutoff, tol)
    elif holds and method is MinusMethod.GINV:
        extra = _ginv_certificate(ab, _pair_scale(ab).item(), values, vectors, triple[0], cutoff, tol)
    return _rank_verdict(decision, triple, cutoff, method, extra)


def _star_stack(a, b, values_b, vectors_b, tol, maxima=None):
    """Whether each A of a stack is star-below its B, with the certificate
    parts: the residual of A^2 = A B relative to |A^2| and |A B|, the
    budget it is held against, and whether Im A sits inside Im B.  B comes
    with its spectrum as eigh_stack returns it, values (k, n) and
    eigenvector columns (k, n, n), in any order and sign; `maxima`, the
    largest entries (k,) of the A and of the B, when the caller has them.

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
    max_a, max_b = (maxabs_stack(a), maxabs_stack(b)) if maxima is None else maxima
    scale = np.maximum(max_a, max_b)
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
    ab, d = _pair(a, b)
    # the test (A, B) and the reverse test (B, A) in one pass over a stack
    # of two, on the spectra of B and of A from one call, with the largest
    # entries of A and B scanned once
    ba = ab[::-1]
    values, vectors = eigh_stack(ba)
    maxima = maxabs_stack(ab)
    (holds, reverse), residual, budget, contained = (
        x.tolist() for x in _star_stack(ab, ba, values, vectors, tol, (maxima, maxima[::-1]))
    )
    cert = {"residual": residual[0], "budget": budget[0], "image_contained": contained[0]}
    # equality is read only when A is below B
    equal = holds and _equal(d, max(maxima.tolist()), tol)
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
    raises (PsdOrderError: the rank cutoff of A's spectrum overflows).
    The minus decision reads the values-only spectra order_leq's rank
    route reads, and gets its answer.  The Loewner decision reads them
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


def _pair_spectra(a, b) -> np.ndarray:
    """The ascending spectra (k, 3, n) of A, B and B - A for stacks as
    holds_stack takes them, from one values-only call (eigvalsh_stack; a
    shared B decomposed once)."""
    values = eigvalsh_stack(np.concatenate([a, b, derived("B - A", np.subtract, b, a)]))
    parts = np.split(values, [len(a), len(a) + len(b)])
    return np.stack(np.broadcast_arrays(*parts), axis=1)


def holds_stack(a, b, relation: Relation | str, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """order_holds_many on stacks as sym_stack returns them, B (k, n, n) or
    (1, n, n).  One stacked eigendecomposition covers the whole stack, then
    each decision runs once over the stack: the Loewner and minus decisions
    read the values alone (eigvalsh_stack) of B - A, or of A, B and B - A;
    the star family reads B's eigenvectors as well (eigh_stack)."""
    relation = Relation(relation)
    if relation is Relation.LOWNER:
        values = eigvalsh_stack(derived("B - A", np.subtract, b, a))
        return _lowner_stack(np.maximum(maxabs_stack(a), maxabs_stack(b)), values, tol)[1][:, 0]
    if relation is Relation.MINUS:
        return _minus_stack(_pair_spectra(a, b), tol)[0][0]
    values, vectors = eigh_stack(b)
    return _star_stack(a, b, values, vectors, tol)[0]
