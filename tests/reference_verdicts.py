"""SymMatrix-based reference for the scalar verdicts, inertia and
sim_congruence.

Each function here decides one pair the way the scalar checks did before
they moved onto plain arrays: every input becomes a SymMatrix, each
matrix is decomposed on its own, and every decision is read from those
spectra, masked against the cutoff where it counts a rank.  A decision
that reads eigenvectors takes them from sym_eig, in canonical order; the
minus rank route, the star family and inertia read eigenvalues alone,
from np.linalg.eigvalsh, as the code does.  sim_congruence decides the rank
equation on the sym_eig spectra of A, B and B - A (minus_verdict),
certifies A and B PSD from theirs, the eigh values its reduction reads,
and reduces the pair with the ranks of that count: S is the basis of A's
and B - A's kept eigenvectors and B's dropped ones, scaled column by
column, as the ginv reference reads G off the same basis and the image
reference checks that basis by its smallest singular value.
The checks in psdorder.orders and psdorder.canonical decompose all the
matrices of a verdict in one stacked call and order eigenvectors only
where they read them; they must return every value these return, bit for
bit and of the same type.  The star reference is minus_verdict on the
rank route's spectra plus the identity A (B - A) = 0, its products formed
one at a time.
"""

import numpy as np

from psdorder.canonical import Inertia, SimCongResult, canonical_ek
from psdorder.errors import DimensionMismatch, NotMinusComparable, PsdOrderError
from psdorder.numkernel import (
    SymMatrix,
    identity_budget,
    maxabs,
    min_singular_value,
    rel_residual,
    require_psd,
    sym_eig,
)
from psdorder.orders import MinusMethod, OrderVerdict, Relation, _detail
from psdorder.tolerances import DEFAULT_TOL


def _pair(a, b):
    sa, sb = SymMatrix(a), SymMatrix(b)
    if sa.n != sb.n:
        raise DimensionMismatch(f"size mismatch: {sa.n} vs {sb.n}")
    return sa, sb


def lowner_both(a, b, tol=DEFAULT_TOL):
    sa, sb = _pair(a, b)
    values, vectors = sym_eig(SymMatrix(sb.a - sa.a))
    threshold = tol.psd_tol * max(maxabs(sa.a), maxabs(sb.a))
    min_eigs = (float(values[-1]), -float(values[0]))
    holds = [m >= -threshold for m in min_eigs]
    return tuple(
        OrderVerdict(
            holds=holds[i],
            relation=Relation.LOWNER.value,
            certificate={
                "min_eig": min_eigs[i],
                "threshold": threshold,
                "witness": None if holds[i] else vectors[:, (-1, 0)[i]],
            },
            detail=_detail(holds[i], all(holds), holds[1 - i]),
        )
        for i in (0, 1)
    )


def _by_image(_sa, _sb, eigs, cutoff, tol):
    """Im B = Im A (+) Im(B - A): the oblique basis, with B's null space,
    is invertible, by its smallest singular value; the pair itself is not
    read."""
    sigma_min, direct = min_singular_value(_oblique_basis(eigs, cutoff)[0], tol)
    if not direct:
        raise PsdOrderError("the image certificate of a holding minus verdict fails its "
                            f"direct-sum check: sigma_min {sigma_min:.3e}")
    return {"contained": True}


def _oblique_basis(eigs, cutoff):
    """(A's kept eigenvectors : B - A's kept : B's dropped), from sym_eig
    spectra, and the eigenvalue of each column."""
    (v_a, q_a), (v_b, q_b), (v_d, q_d) = eigs
    pieces = [(v_a, q_a, np.abs(v_a) > cutoff), (v_d, q_d, np.abs(v_d) > cutoff), (v_b, q_b, np.abs(v_b) <= cutoff)]
    return np.hstack([q[:, keep] for _, q, keep in pieces]), np.concatenate([v[keep] for v, _, keep in pieces])


def _by_ginv(sa, sb, eigs, cutoff, tol):
    m, lam = _oblique_basis(eigs, cutoff)
    sigma_min, direct = min_singular_value(m, tol)
    if not direct:
        raise PsdOrderError("the ginv certificate of a holding minus verdict fails its "
                            f"direct-sum check: sigma_min {sigma_min:.3e}")
    r = int(np.count_nonzero(np.abs(eigs[0][0]) > cutoff))
    # G = S^-T E_r S^-1, S = m diag(sqrt(lambda)): the first r rows of m^-1 over A's eigenvalues
    w = np.linalg.inv(m)[:r, :]
    g = (w / lam[:r, None]).T @ w
    ga, gb, ag, bg = g @ sa.a, g @ sb.a, sa.a @ g, sb.a @ g
    aga = ag @ sa.a
    residuals = {
        "inner": rel_residual(aga - sa.a, sa.a, sb.a),
        "left": rel_residual(ga - gb, ga, gb),
        "right": rel_residual(ag - bg, ag, bg),
    }
    budget = identity_budget(tol, g, max(maxabs(sa.a), maxabs(sb.a)))
    worst = max(residuals, key=residuals.get)
    if residuals[worst] > budget:
        raise PsdOrderError("the ginv certificate of a holding minus verdict fails its identity "
                            f"check: {worst} residual {residuals[worst]:.3e} over {budget:.3e}")
    return {"sigma_min": sigma_min, "g": g, "residuals": residuals}


def minus_verdict(spectra, n, method=MinusMethod.RANK, tol=DEFAULT_TOL, certify=None):
    """The minus verdict from the spectra of A, B and B - A, in any order:
    the rank equation decides, and a holding verdict carries what
    certify(cutoff) returns, the certificate asked for."""
    radius = np.abs(np.concatenate(spectra)).max(initial=0.0)
    cutoff = float(tol.rank_cutoff(np.array([radius]), n))
    r_a, r_b, r_d = (int(np.count_nonzero(np.abs(v) > cutoff)) for v in spectra)
    holds, reverse = r_d == r_b - r_a, r_d == r_a - r_b
    cert = {"rank_a": r_a, "rank_b": r_b, "rank_diff": r_d, "cutoff": cutoff, "method": method.value}
    if holds and certify is not None:
        cert.update(certify(cutoff))
    return OrderVerdict(holds=holds, relation=Relation.MINUS.value, certificate=cert,
                        detail=_detail(holds, r_d == 0, reverse))


def minus_leq(a, b, method="rank", tol=DEFAULT_TOL):
    method = MinusMethod(method)
    sa, sb = _pair(a, b)
    mats = (sa, sb, SymMatrix(sb.a - sa.a))
    if method is MinusMethod.RANK:
        return minus_verdict([np.linalg.eigvalsh(m.a) for m in mats], sa.n, method, tol)
    eigs = [sym_eig(m) for m in mats]
    by = _by_image if method is MinusMethod.IMAGE else _by_ginv
    return minus_verdict([v for v, _ in eigs], sa.n, method, tol, lambda cutoff: by(sa, sb, eigs, cutoff, tol))


def star_family_leq(a, b, variant=Relation.STAR, tol=DEFAULT_TOL):
    """The minus verdict on eigvalsh's spectra, as the rank route decides
    it, and the identity X (B - A) = 0 for X = A and, reversed, X = B, each
    product formed alone from the matrices divided by the pair's largest
    entry and judged against recon_tol |X| |B - A| + n |X| cutoff."""
    sa, sb = _pair(a, b)
    d = SymMatrix(sb.a - sa.a)
    minus = minus_verdict([np.linalg.eigvalsh(m.a) for m in (sa, sb, d)], sa.n, tol=tol)
    cert = {k: minus.certificate[k] for k in ("rank_a", "rank_b", "rank_diff", "cutoff")}
    scale = max(maxabs(sa.a), maxabs(sb.a)) or 1.0
    identity = []
    for x in (sa, sb):
        residual = maxabs((x.a / scale) @ (d.a / scale))
        cutoff = cert["cutoff"] / scale
        budget = maxabs(x.a) / scale * (tol.recon_tol * (maxabs(d.a) / scale) + sa.n * cutoff)
        identity.append((residual, budget))
    (residual, budget), (reverse_residual, reverse_budget) = identity
    holds = minus.holds and residual <= budget
    reverse = cert["rank_diff"] == cert["rank_a"] - cert["rank_b"] and reverse_residual <= reverse_budget
    return OrderVerdict(holds=holds, relation=Relation(variant).value,
                        certificate={**cert, "residual": residual, "budget": budget},
                        detail=_detail(holds, cert["rank_diff"] == 0, reverse))


def inertia(a, tol=DEFAULT_TOL):
    values = np.linalg.eigvalsh(SymMatrix(a).a)
    cutoff = tol.rank_cutoff(values)
    n_pos = int(np.count_nonzero(values > cutoff))
    n_neg = int(np.count_nonzero(values < -cutoff))
    return Inertia(n_pos, n_neg, len(values) - n_pos - n_neg)


def certified_eig(a, tol=DEFAULT_TOL):
    """A SymMatrix of `a` and its sym_eig spectrum, certified PSD from it."""
    m = SymMatrix(a)
    values, vectors = sym_eig(m)
    require_psd(m.a[None], values[None, ::-1], tol)
    return m, values, vectors


def _congruence_fails(check):
    return PsdOrderError(f"the congruence certificate of a holding minus verdict fails its {check}")


def sim_congruence(a, b, tol=DEFAULT_TOL):
    sa, sb = _pair(a, b)
    mats = (sa, sb, SymMatrix(sb.a - sa.a))
    eigs = [sym_eig(m) for m in mats]
    for m, (values, _) in zip(mats[:2], eigs):
        require_psd(m.a[None], values[None, ::-1], tol)
    cert = minus_verdict([v for v, _ in eigs], sa.n, tol=tol).certificate
    r_rank, s_rank, d_rank, cutoff = (cert[k] for k in ("rank_a", "rank_b", "rank_diff", "cutoff"))
    if d_rank != s_rank - r_rank:
        raise NotMinusComparable(
            f"the rank equation fails: rank(B - A) = {d_rank}, rank(B) - rank(A) = {s_rank - r_rank}"
        )
    n = sa.n
    m, lam = _oblique_basis(eigs, cutoff)
    sigmas = np.sqrt(np.maximum(lam, cutoff))
    sigmas[s_rank:] = np.sqrt(eigs[1][0][0]) if s_rank else 1.0
    s = m * sigmas
    sigma_min, direct = min_singular_value(s, tol)
    if not direct:
        raise _congruence_fails(f"direct-sum check: sigma_min {sigma_min:.3e}")
    residual_a = rel_residual(s @ canonical_ek(n, r_rank) @ s.T - sa.a, sa.a, sb.a)
    residual_b = rel_residual(s @ canonical_ek(n, s_rank) @ s.T - sb.a, sa.a, sb.a)
    if max(residual_a, residual_b) > tol.recon_tol:
        raise _congruence_fails(
            f"reconstruction check: residuals ({residual_a:.3e}, {residual_b:.3e}) out of budget"
        )
    return SimCongResult(s=s, rank_a=r_rank, rank_b=s_rank, residual_a=residual_a,
                         residual_b=residual_b, sigma_min=sigma_min)
