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
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .numkernel import (
    SymMatrix,
    eig_stack,
    identity_budget,
    image_in_span,
    maxabs_stack,
    min_singular_value,
    pinv,
    rel_residual,
    sym_eig,
    sym_eigs,
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
    sa = a if isinstance(a, SymMatrix) else SymMatrix(a)
    sb = b if isinstance(b, SymMatrix) else SymMatrix(b)
    if sa.n != sb.n:
        raise DimensionMismatch(f"size mismatch: {sa.n} vs {sb.n}")
    return sa, sb


def matrices_equal(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality up to the reconstruction tolerance, relative to the larger
    of the two entry scales; exactly equal matrices (zero included) are
    always equal."""
    sa, sb = _pair(a, b)
    return rel_residual(sb.a - sa.a, sa.a, sb.a) <= tol.recon_tol


def _detail(holds: bool, equal: bool, reverse_holds: bool) -> str:
    if holds and equal:
        return "equal"
    if holds:
        return "strictly less"
    if reverse_holds:
        return "strictly greater"
    return "incomparable"


def _lowner_stack(a, b, values, tol):
    """Loewner decisions for stacked pairs, from the descending spectra
    `values` (k, n) of their differences B - A, both read from them: B <= A
    is the PSD test of the negation.  Returns the smallest eigenvalues of
    B - A and of A - B (k, 2), whether each is at least -threshold (A <= B,
    B <= A; a pair is equal when both hold, i.e. every eigenvalue of B - A
    is within the threshold), and the threshold: psd_tol times the largest
    entry of A and B."""
    threshold = tol.psd_tol * np.maximum(maxabs_stack(a), maxabs_stack(b))
    if values.shape[-1]:
        min_eigs = values[:, [-1, 0]]
        min_eigs[:, 1] *= -1.0
    else:
        min_eigs = np.zeros((len(values), 2))
    return min_eigs, min_eigs >= -threshold[:, None], threshold


def lowner_both(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[OrderVerdict, OrderVerdict]:
    """The verdicts A <= B and B <= A in the PSD sense, both read from the
    one spectrum of B - A (see _lowner_stack).

    Each certificate records the smallest eigenvalue of its difference, the
    threshold it was held against and, on failure, a unit vector x with
    x^T (difference) x < 0.
    """
    sa, sb = _pair(a, b)
    eig = sym_eig(SymMatrix(sb.a - sa.a))
    min_eigs, holds, threshold = _lowner_stack(sa.a[None], sb.a[None], eig.values[None], tol)
    (min_eigs,), (holds,), (threshold,) = min_eigs.tolist(), holds.tolist(), threshold.tolist()
    return tuple(
        OrderVerdict(
            holds=holds[i],
            relation=Relation.LOWNER.value,
            certificate={
                "min_eig": min_eigs[i],
                "threshold": threshold,
                # the eigenvector of the smallest eigenvalue of B - A, or of A - B
                "witness": None if holds[i] else eig.vectors[:, (-1, 0)[i]],
            },
            detail=_detail(holds[i], all(holds), holds[1 - i]),
        )
        for i in (0, 1)
    )


def lowner_leq(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """A <= B in the PSD sense: is B - A positive semidefinite?  The
    certificate is described under lowner_both."""
    return lowner_both(a, b, tol)[0]


def _minus_stack(values, tol):
    """The rank equation rank(B - A) = rank(B) - rank(A) for stacked pairs,
    from the spectra (3, k, n) of their A, B and B - A.  All three ranks
    count against one cutoff per pair, taken from the largest of its three
    spectral radii, so the counts are consistent with each other.  Returns
    the decisions (3, k): A below B, B below A (the same counts, as
    -(B - A) has the rank of B - A) and equality (rank(B - A) = 0); the
    ranks (3, k); and the cutoffs."""
    mags = np.abs(values)
    cutoff = tol.rank_cutoff(values.shape[-1], mags.max(axis=(0, 2), initial=0.0))
    r_a, r_b, r_d = ranks = (mags > cutoff[:, None]).sum(axis=-1)
    return np.array([r_d == r_b - r_a, r_d == r_a - r_b, r_d == 0]), ranks, cutoff


def _minus_by_image(sa, sb, eigs, cutoff, tol):
    """Im B = Im A (+) Im(B - A): the rank equation plus a containment
    identity.

    B = A + (B - A) puts Im B inside Im A + Im(B - A), so once both
    summands lie in Im B and their dimensions add up to that of Im B, the
    sum fills Im B and is direct.  Containment is tested on the matrices
    themselves (image_in_span), not on their eigenbases.  It allows for
    the error in the eigenbasis of B, n times the cutoff (see _star_holds).
    """
    u_b = eigs[1].image(tol, cutoff)
    dim_a, dim_b, dim_c = (e.rank(tol, cutoff) for e in eigs)
    slack = sb.n * cutoff
    contained = all(image_in_span(m, u_b, tol, slack) for m in (sa.a, sb.a - sa.a))
    holds = contained and dim_a + dim_c == dim_b
    cert = {
        "dim_a": dim_a,
        "dim_b": dim_b,
        "dim_diff": dim_c,
        "contained": contained,
    }
    return holds, cert


def _minus_by_ginv(sa, sb, eigs, cutoff, tol):
    """Constructive route: build an inner inverse G of A with G A = G B and
    A G = B G, which exists exactly when A is below B.

    G is assembled from the oblique projector onto Im A along
    Im(B - A) (+) (Im B)-perp; if the three pieces fail to decompose R^n the
    pair is not comparable and the certificate says which check failed.
    """
    eig_a, eig_b, eig_d = eigs
    u_a = eig_a.image(tol, cutoff)
    u_c = eig_d.image(tol, cutoff)
    keep = eig_b.nonzero(tol, cutoff)
    u_perp = eig_b.vectors[:, ~keep]
    r = u_a.shape[1]
    cert: dict = {
        "dim_a": r,
        "dim_b": int(keep.sum()),
        "dim_diff": u_c.shape[1],
    }
    if r + u_c.shape[1] + u_perp.shape[1] != sa.n:
        cert["reason"] = "dimension mismatch"
        return False, cert
    m = np.hstack([u_a, u_c, u_perp])
    cert["sigma_min"], direct = min_singular_value(m, tol)
    if not direct:
        cert["reason"] = "sum not direct"
        return False, cert
    proj = m[:, :r] @ np.linalg.inv(m)[:r, :]
    g = proj.T @ pinv(sa, tol) @ proj
    ga, gb, ag, bg = g @ sa.a, g @ sb.a, sa.a @ g, sb.a @ g
    aga = ag @ sa.a
    # each identity's residual relative to the two sides it compares; the
    # roundoff of the products grows with the dimensionless |G| |A, B|
    residuals = {
        "inner": rel_residual(aga - sa.a, aga, sa.a),
        "left": rel_residual(ga - gb, ga, gb),
        "right": rel_residual(ag - bg, ag, bg),
    }
    cert["g"] = g
    cert["residuals"] = residuals
    if max(residuals.values()) > identity_budget(tol, g, sa.a, sb.a):
        cert["reason"] = "identity residual"
        return False, cert
    return True, cert


_MINUS_ROUTES = {
    MinusMethod.IMAGE: _minus_by_image,
    MinusMethod.GINV: _minus_by_ginv,
}


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
    the one count of _minus_stack; the other two rerun on (B, A) with the
    negated spectrum of B - A and the same cutoff.
    """
    method = MinusMethod(method)
    sa, sb = _pair(a, b)
    e_a, e_b, e_d = eigs = sym_eigs(sa, sb, sb.a - sa.a)
    decisions, ranks, cutoff = _minus_stack(np.array([[e.values] for e in eigs]), tol)
    (holds, reverse, equal), cutoff = decisions[:, 0].tolist(), cutoff[0]
    if method is MinusMethod.RANK:
        cert = dict(zip(("rank_a", "rank_b", "rank_diff"), ranks[:, 0].tolist()), cutoff=cutoff)
    else:
        route = _MINUS_ROUTES[method]
        holds, cert = route(sa, sb, eigs, cutoff, tol)
        reverse = not holds and route(sb, sa, (e_b, e_a, e_d.negated()), cutoff, tol)[0]
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
    with its spectrum, values (k, n) and eigenvector columns (k, n, n).

    A^2 = A B gives A^2 = B A by transposing, so Im A = Im A^2 lies in
    Im B.  The containment is tested as well because it is linear in a
    part of A outside Im B, where the identity is quadratic: diag(1, t)
    meets A^2 = A diag(1, 0) up to t^2.  B is known only up to its rank
    cutoff c: a change of B that small moves A B by up to n |A| c
    entrywise and the part of A outside Im B by up to n c, so both tests
    allow that on top of recon_tol.  The products are formed from A and B
    divided by their common largest entry, which keeps them clear of
    underflow and overflow.  Pairs whose Im B has the same eigenvector
    columns are tested together, on bases of one shape.
    """
    scale = np.maximum(maxabs_stack(a), maxabs_stack(b))
    scale[scale == 0.0] = 1.0
    a, b = a / scale[:, None, None], b / scale[:, None, None]
    n = a.shape[-1]
    mags = np.abs(values_b)
    cutoff = tol.rank_cutoff(n, mags.max(axis=-1, initial=0.0))
    slack = n * cutoff / scale
    aa, ab = a @ a, a @ b
    den = np.maximum(maxabs_stack(aa), maxabs_stack(ab))
    # where both products vanish, so does their difference: residual and
    # budget term are 0, as x / inf is
    den[den == 0.0] = np.inf
    residual = maxabs_stack(aa - ab) / den
    budget = tol.recon_tol + maxabs_stack(a) * slack / den
    # Im B is spanned by the leading (positive) and trailing (negative)
    # eigenvector columns that clear the cutoff, so the number kept and the
    # number of leading ones name the columns
    cut = cutoff[:, None]
    keep = mags > cut
    shape = keep.sum(axis=-1) * (n + 1) + (values_b > cut).sum(axis=-1)
    shapes = set(shape.tolist())
    rows = vectors_b.swapaxes(-1, -2)
    contained = np.empty(len(a), dtype=bool)
    for key in shapes:
        # a single group (always so for one pair) is taken by views, not copies
        members = shape == key if len(shapes) > 1 else slice(None)
        basis = rows[members][:, keep[members][0]].swapaxes(-1, -2)
        contained[members] = image_in_span(a[members], basis, tol, slack[members])
    return (residual <= budget) & contained, residual, budget, contained


def _star_holds(sa, sb, tol):
    """_star_stack at k = 1, with the certificate."""
    eig_b = sym_eig(sb)
    holds, residual, budget, contained = (
        x[0] for x in _star_stack(sa.a[None], sb.a[None], eig_b.values[None], eig_b.vectors[None], tol)
    )
    cert = {"residual": float(residual), "budget": float(budget), "image_contained": bool(contained)}
    return bool(holds), cert


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
    sa, sb = _pair(a, b)
    holds, cert = _star_holds(sa, sb, tol)
    equal = matrices_equal(sa, sb, tol)
    reverse = not holds and _star_holds(sb, sa, tol)[0]
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
    """order_leq(a[i], b[i], relation, tol).holds for every pair of two
    (k, n, n) stacks, as a bool array; B may also be one (n, n) matrix,
    paired with every A.  One stacked eigendecomposition covers the whole
    stack (of B - A, of A, B and B - A, or of B; a shared B is decomposed
    once), then each decision runs once over the stack."""
    relation = Relation(relation)
    a = sym_stack(a)
    shared = np.ndim(b) == 2
    b = sym_stack(np.expand_dims(b, 0) if shared else b)
    if b.shape != ((1, *a.shape[1:]) if shared else a.shape):
        raise DimensionMismatch(f"stack shape mismatch: {a.shape} vs {b.shape}")
    if relation is Relation.LOWNER:
        values, _ = eig_stack(sym_stack(b - a))
        return _lowner_stack(a, b, values, tol)[1][:, 0]
    if relation is Relation.MINUS:
        values, _ = eig_stack(np.concatenate([a, b, sym_stack(b - a)]))
        parts = np.split(values, [len(a), len(a) + len(b)])
        return _minus_stack(np.stack(np.broadcast_arrays(*parts)), tol)[0][0]
    values, vectors = eig_stack(b)
    return _star_stack(a, b, values, vectors, tol)[0]
