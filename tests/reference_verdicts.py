"""SymMatrix-based reference for the scalar verdicts, inertia and
sim_congruence.

Each function here decides one pair the way the scalar checks did before
they moved onto plain arrays: every input becomes a SymMatrix (a PsdMatrix
for sim_congruence), each matrix is decomposed on its own by sym_eig, in
canonical order with its eigenvectors, and every decision is read from
those EigDecompositions.  The checks in psdorder.orders and
psdorder.canonical decompose all the matrices of a verdict in one stacked
eigh call and order eigenvectors only where they read them; they must
return every value these return, bit for bit and of the same type.  The
decision arithmetic of the star test (_star_stack) is shared, not copied.
"""

import numpy as np

from psdorder.canonical import Inertia, SimCongResult, canonical_ek
from psdorder.errors import DimensionMismatch, NotMinusComparable
from psdorder.numkernel import (
    PsdMatrix,
    SymMatrix,
    identity_budget,
    image_in_span,
    maxabs,
    min_singular_value,
    pinv,
    rel_residual,
    sym_eig,
)
from psdorder.orders import MinusMethod, OrderVerdict, Relation, _detail, _star_stack
from psdorder.tolerances import DEFAULT_TOL


def _pair(a, b):
    sa, sb = SymMatrix(a), SymMatrix(b)
    if sa.n != sb.n:
        raise DimensionMismatch(f"size mismatch: {sa.n} vs {sb.n}")
    return sa, sb


def lowner_both(a, b, tol=DEFAULT_TOL):
    sa, sb = _pair(a, b)
    eig = sym_eig(SymMatrix(sb.a - sa.a))
    threshold = tol.psd_tol * max(maxabs(sa.a), maxabs(sb.a))
    min_eigs = (float(eig.values[-1]), -float(eig.values[0]))
    holds = [m >= -threshold for m in min_eigs]
    return tuple(
        OrderVerdict(
            holds=holds[i],
            relation=Relation.LOWNER.value,
            certificate={
                "min_eig": min_eigs[i],
                "threshold": threshold,
                "witness": None if holds[i] else eig.vectors[:, (-1, 0)[i]],
            },
            detail=_detail(holds[i], all(holds), holds[1 - i]),
        )
        for i in (0, 1)
    )


def _by_image(sa, sb, eigs, cutoff, tol):
    u_b = eigs[1].image(tol, cutoff)
    dim_a, dim_b, dim_c = (e.rank(tol, cutoff) for e in eigs)
    slack = sb.n * cutoff
    contained = all(image_in_span(m, u_b, tol, slack) for m in (sa.a, sb.a - sa.a))
    cert = {"dim_a": dim_a, "dim_b": dim_b, "dim_diff": dim_c, "contained": contained}
    return contained and dim_a + dim_c == dim_b, cert


def _by_ginv(sa, sb, eigs, cutoff, tol):
    eig_a, eig_b, eig_d = eigs
    u_a = eig_a.image(tol, cutoff)
    u_c = eig_d.image(tol, cutoff)
    keep = eig_b.nonzero(tol, cutoff)
    u_perp = eig_b.vectors[:, ~keep]
    r = u_a.shape[1]
    cert = {"dim_a": r, "dim_b": int(keep.sum()), "dim_diff": u_c.shape[1]}
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


def minus_leq(a, b, method="rank", tol=DEFAULT_TOL):
    method = MinusMethod(method)
    sa, sb = _pair(a, b)
    sd = SymMatrix(sb.a - sa.a)
    eigs = [sym_eig(m) for m in (sa, sb, sd)]
    radius = np.abs(np.concatenate([e.values for e in eigs])).max(initial=0.0)
    cutoff = tol.rank_cutoff(np.array([radius]), sa.n)
    r_a, r_b, r_d = (e.rank(tol, cutoff) for e in eigs)
    holds, reverse = r_d == r_b - r_a, r_d == r_a - r_b
    if method is MinusMethod.RANK:
        cert = {"rank_a": r_a, "rank_b": r_b, "rank_diff": r_d, "cutoff": cutoff}
    else:
        route = _by_image if method is MinusMethod.IMAGE else _by_ginv
        holds, cert = route(sa, sb, eigs, cutoff, tol)
        swapped = (eigs[1], eigs[0], eigs[2].negated())
        reverse = not holds and route(sb, sa, swapped, cutoff, tol)[0]
    cert["method"] = method.value
    return OrderVerdict(holds=holds, relation=Relation.MINUS.value, certificate=cert,
                        detail=_detail(holds, r_d == 0, reverse))


def _star_holds(sa, sb, tol):
    eig_b = sym_eig(sb)
    holds, residual, budget, contained = (
        x[0] for x in _star_stack(sa.a[None], sb.a[None], eig_b.values[None], eig_b.vectors[None], tol)
    )
    cert = {"residual": float(residual), "budget": float(budget), "image_contained": bool(contained)}
    return bool(holds), cert


def star_family_leq(a, b, variant=Relation.STAR, tol=DEFAULT_TOL):
    sa, sb = _pair(a, b)
    holds, cert = _star_holds(sa, sb, tol)
    equal = rel_residual(sb.a - sa.a, sa.a, sb.a) <= tol.recon_tol
    reverse = not holds and _star_holds(sb, sa, tol)[0]
    return OrderVerdict(holds=holds, relation=Relation(variant).value, certificate=cert,
                        detail=_detail(holds, equal, reverse))


def inertia(a, tol=DEFAULT_TOL):
    eig = sym_eig(SymMatrix(a))
    cutoff = tol.rank_cutoff(eig.values)
    n_pos = int(np.count_nonzero(eig.values > cutoff))
    n_neg = int(np.count_nonzero(eig.values < -cutoff))
    return Inertia(n_pos, n_neg, len(eig.values) - n_pos - n_neg)


def sim_congruence(a, b, tol=DEFAULT_TOL):
    pa, pb = PsdMatrix(a, tol), PsdMatrix(b, tol)
    if pa.n != pb.n:
        raise NotMinusComparable(f"size mismatch: {pa.n} vs {pb.n}")
    n = pa.n
    eig_b = sym_eig(pb)
    s_rank = int(np.count_nonzero(eig_b.values > tol.rank_cutoff(eig_b.values)))
    inv_scales = np.full(n, 1.0 / np.sqrt(eig_b.values[0]) if s_rank else 1.0)
    inv_scales[:s_rank] = 1.0 / np.sqrt(eig_b.values[:s_rank])
    v = inv_scales[:, None] * eig_b.vectors.T
    a_tilde = v @ pa.a @ v.T
    spill = rel_residual(a_tilde[s_rank:, :], a_tilde)
    if spill > tol.recon_tol:
        raise NotMinusComparable(f"transformed A leaks {spill:.3e} outside the rank-{s_rank} block")
    u = np.zeros((0, 0))
    r_rank = 0
    if s_rank:
        eig_block = sym_eig(a_tilde[:s_rank, :s_rank])
        lam = eig_block.values
        near_one = np.abs(lam - 1.0) <= tol.recon_tol
        near_zero = np.abs(lam) <= tol.recon_tol
        if not np.all(near_one | near_zero):
            worst = lam[~(near_one | near_zero)]
            raise NotMinusComparable(
                "block spectrum not idempotent: eigenvalues "
                f"{np.array2string(worst, precision=4)} away from {{0, 1}}"
            )
        r_rank = int(np.count_nonzero(near_one))
        u = eig_block.vectors
    v_inv = eig_b.vectors * (1.0 / inv_scales)
    z = np.eye(n)
    z[:s_rank, :s_rank] = u
    s = v_inv @ z
    residual_a = rel_residual(s @ canonical_ek(n, r_rank) @ s.T - pa.a, pa.a)
    residual_b = rel_residual(s @ canonical_ek(n, s_rank) @ s.T - pb.a, pb.a)
    sigma_min, invertible = min_singular_value(s, tol)
    if not invertible:
        raise NotMinusComparable(f"constructed transform is singular (sigma_min={sigma_min:.3e})")
    if max(residual_a, residual_b) > tol.recon_tol:
        raise NotMinusComparable(
            f"reconstruction residuals ({residual_a:.3e}, {residual_b:.3e}) out of budget"
        )
    return SimCongResult(s=s, rank_a=r_rank, rank_b=s_rank, residual_a=residual_a,
                         residual_b=residual_b, sigma_min=sigma_min)
