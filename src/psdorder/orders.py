"""Partial-order checks for symmetric matrices.

Three families are covered: the PSD (Loewner) order A <= B iff B - A is
positive semidefinite, the rank-subtractivity (minus) order
rank(B - A) = rank(B) - rank(A), and the star family, which on symmetric
arguments reduces to the identity A^2 = A B for every variant.

Every check returns an OrderVerdict carrying a machine-checkable
certificate: an eigenvalue witness, a rank triple, residual norms, or an
explicit inner inverse, depending on the route taken.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .numkernel import (
    SymMatrix,
    identity_budget,
    image_in_span,
    maxabs,
    min_singular_value,
    pinv,
    rel_residual,
    shared_cutoff,
    sym_eig,
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


def _lowner_verdict(check, equal: bool, reverse_holds: bool) -> OrderVerdict:
    return OrderVerdict(
        holds=check.ok,
        relation=Relation.LOWNER.value,
        certificate={
            "min_eig": check.min_eig,
            "threshold": check.threshold,
            "witness": check.witness,
        },
        detail=_detail(check.ok, equal, reverse_holds),
    )


def lowner_both(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[OrderVerdict, OrderVerdict]:
    """The verdicts A <= B and B <= A in the PSD sense, both read from the
    one spectrum of B - A: B <= A is the PSD test of its negation.

    Each certificate records the smallest eigenvalue of its difference, the
    threshold it was held against (psd_tol times the largest entry of A and
    B) and, on failure, a unit vector x with x^T (difference) x < 0.  The
    pair is equal when every eigenvalue of B - A is within the threshold.
    """
    sa, sb = _pair(a, b)
    eig = sym_eig(SymMatrix(sb.a - sa.a))
    threshold = tol.psd_tol * max(maxabs(sa.a), maxabs(sb.a))
    up, down = eig.psd(threshold), eig.negated().psd(threshold)
    equal = eig.radius <= threshold
    return _lowner_verdict(up, equal, down.ok), _lowner_verdict(down, equal, up.ok)


def lowner_leq(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """A <= B in the PSD sense: is B - A positive semidefinite?  The
    certificate is described under lowner_both."""
    return lowner_both(a, b, tol)[0]


def _minus_by_rank(sa, sb, eigs, cutoff, tol):
    """The rank equation rank(B - A) = rank(B) - rank(A)."""
    r_a, r_b, r_d = (e.rank(tol, cutoff) for e in eigs)
    holds = r_d == r_b - r_a
    cert = {"rank_a": r_a, "rank_b": r_b, "rank_diff": r_d, "cutoff": cutoff}
    return holds, cert


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
    MinusMethod.RANK: _minus_by_rank,
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
    of A, B and B - A, and they agree whenever those rank decisions are
    clean.  The reverse question reruns the route on (B, A) with the
    negated spectrum of B - A and the same cutoff.
    """
    method = MinusMethod(method)
    route = _MINUS_ROUTES[method]
    sa, sb = _pair(a, b)
    e_a, e_b, e_d = eigs = (sym_eig(sa), sym_eig(sb), sym_eig(sb.a - sa.a))
    cutoff = shared_cutoff(eigs, tol)
    holds, cert = route(sa, sb, eigs, cutoff, tol)
    cert["method"] = method.value
    equal = e_d.rank(tol, cutoff) == 0
    reverse = not holds and route(sb, sa, (e_b, e_a, e_d.negated()), cutoff, tol)[0]
    return OrderVerdict(
        holds=holds,
        relation=Relation.MINUS.value,
        certificate=cert,
        detail=_detail(holds, equal, reverse),
    )


def _star_holds(sa, sb, tol):
    """Whether A is star-below B, with the certificate: the residual of
    A^2 = A B relative to |A^2| and |A B|, the budget it is held against,
    and whether Im A sits inside Im B.

    A^2 = A B gives A^2 = B A by transposing, so Im A = Im A^2 lies in
    Im B.  The containment is tested as well because it is linear in a
    part of A outside Im B, where the identity is quadratic: diag(1, t)
    meets A^2 = A diag(1, 0) up to t^2.  B is known only up to its rank
    cutoff c: a change of B that small moves A B by up to n |A| c
    entrywise and the part of A outside Im B by up to n c, so both tests
    allow that on top of recon_tol.  The products are formed from A and B
    divided by their common largest entry, which keeps them clear of
    underflow and overflow.
    """
    eig_b = sym_eig(sb)
    scale = max(maxabs(sa.a), maxabs(sb.a)) or 1.0
    a, b = sa.a / scale, sb.a / scale
    slack = sb.n * eig_b.cutoff(tol) / scale
    aa, ab = a @ a, a @ b
    den = max(maxabs(aa), maxabs(ab))
    residual = rel_residual(aa - ab, aa, ab)
    budget = tol.recon_tol + (maxabs(a) * slack / den if den else 0.0)
    contained = image_in_span(a, eig_b.image(tol), tol, slack)
    cert = {"residual": residual, "budget": budget, "image_contained": contained}
    return residual <= budget and contained, cert


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
    certificate are described under _star_holds.
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
