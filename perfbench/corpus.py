"""Seeded inputs for the two workloads, with ground truth from numpy alone.

Every case is built so that its answer follows from the construction (a
pair B = A + H H^T is Loewner-ordered, a pair of congruent E_k's is
rank-subtractive, ...).  `verify` then re-derives each label with plain
numpy (eigenvalues, singular values, products) and refuses a corpus whose
construction and numpy disagree.  Nothing here imports psdorder: the
program under test only ever sees the arrays stored in `Case.inputs`.

Cases that expose a known psdorder defect are picked out by their class
alone (operation, size, label, scale; never by what psdorder answers) and
kept apart from the timed cases, in the defect probe.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verdicts_small", "sweeps")

ORDER_OPS = ("lowner", "minus_rank", "minus_image", "minus_ginv", "star")
STAR_VARIANTS = ("star", "left-star", "right-star")

# Relative tolerance of the numpy label checks.  Constructions keep every
# intended nonzero eigenvalue or residual at least 1e-2 of the input scale,
# so the checks have many orders of magnitude of room on both sides.
_CHECK_TOL = 1e-9


@dataclass
class Case:
    """One call of the program: which operation, on which inputs, and the
    answer the construction guarantees."""

    index: int
    op: str
    n: int
    label: str  # "holds" or "fails" by construction
    k: int | None  # inputs scaled by 10**k; None for unscaled cases
    inputs: dict
    expect: dict = field(default_factory=dict)
    defect: str | None = None  # the known defect the case exposes

    @property
    def name(self) -> str:
        scale = "unscaled" if self.k is None else f"k={self.k:+d}"
        return f"#{self.index} {self.op} n={self.n} {self.label} {scale}"


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _bounded_factor(rng, n):
    """Orthogonal times a diagonal in [0.5, 2]: condition number <= 4."""
    return _orthogonal(rng, n) * rng.uniform(0.5, 2.0, n)


def _even_ks(m):
    """m exponents spread evenly over [-6, 6]."""
    if m == 1:
        return [0]
    return [int(round(-6 + 12 * j / (m - 1))) for j in range(m)]


# ----------------------------------------------------------------- verdicts


def _lowner_pair(rng, n, holds):
    if holds:
        g = rng.standard_normal((n, n))
        a = g @ g.T
        h = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        return a, a + h @ h.T
    q = _orthogonal(rng, n)
    n_neg = int(rng.integers(1, n))
    d = rng.uniform(0.5, 2.0, n)
    d[:n_neg] *= -1.0
    g = rng.standard_normal((n, n))
    base = g @ g.T + 2.0 * np.eye(n)
    return base, base + (q * d) @ q.T


def _minus_pair(rng, n, holds, orthogonal=False):
    s = _orthogonal(rng, n) if orthogonal else _bounded_factor(rng, n)
    if holds:
        r = int(rng.integers(1, n))
        k = int(rng.integers(r + 1, n + 1))
        d_a = np.r_[np.ones(r), np.zeros(n - r)]
        d_b = np.r_[np.ones(k), np.zeros(n - k)]
    else:
        # Same support, different weights: rank(B - A) = rank A = rank B.
        r = int(rng.integers(1, n + 1))
        d_a = np.r_[np.ones(r), np.zeros(n - r)]
        d_b = d_a * rng.uniform(1.5, 2.5, n)
    return (s * d_a) @ s.T, (s * d_b) @ s.T


def _star_pair(rng, n, holds):
    q = _orthogonal(rng, n)
    support = np.zeros(n, bool)
    support[rng.permutation(n)[: int(rng.integers(1, n))]] = True
    d_a = np.where(support, rng.uniform(0.5, 1.5, n), 0.0)
    if holds:
        grow = ~support
        d_b = d_a + np.where(grow, rng.uniform(0.5, 1.5, n), 0.0)
    else:
        d_b = d_a.copy()
        d_b[np.flatnonzero(support)[0]] *= 2.0
    return (q * d_a) @ q.T, (q * d_b) @ q.T


def _inertia_matrix(rng, n):
    counts = rng.multinomial(n, [0.4, 0.4, 0.2])
    d = np.r_[
        rng.uniform(0.5, 2.0, counts[0]),
        -rng.uniform(0.5, 2.0, counts[1]),
        np.zeros(counts[2]),
    ]
    q = _orthogonal(rng, n)
    return (q * d) @ q.T, tuple(int(c) for c in counts)


def _verdict_case(rng, index, op, n, label, k):
    holds = label == "holds"
    c = 1.0 if k is None else 10.0**k
    if op == "inertia":
        m, counts = _inertia_matrix(rng, n)
        return Case(index, op, n, label, k, {"a": c * m},
                    {"inertia": counts})
    if op == "lowner":
        a, b = _lowner_pair(rng, n, holds)
    elif op in ("minus_rank", "minus_image", "minus_ginv", "sim_congruence"):
        # The image and ginv routes count rank(B - A) against a cutoff from
        # B - A alone ("minus_cutoff" in known_defect).  Their timed holding
        # pairs use an orthogonal factor, so that B - A is as large as A
        # and B and roundoff stays near a tenth of that cutoff at n = 10.
        # With the general factor one n = 10 pair in about 30000 crossed
        # it.  The 3x3 pairs of the probe keep the general factor.
        orthogonal = op in ("minus_image", "minus_ginv") and holds and n > 3
        a, b = _minus_pair(rng, n, holds, orthogonal)
    else:
        a, b = _star_pair(rng, n, holds)
    inputs = {"a": c * a, "b": c * b}
    expect = {"holds": holds, "detail": "strictly less" if holds else "incomparable"}
    if op == "star":
        inputs["variant"] = STAR_VARIANTS[index % len(STAR_VARIANTS)]
    if op == "sim_congruence":
        expect = {"rank_a": _rank(a), "rank_b": _rank(b)}
    return Case(index, op, n, label, k, inputs, expect)


def _verdict_corpus(rng, sizes, per_class):
    """Every (op, n, label) class gets `per_class` unscaled cases and
    `per_class` cases scaled by 10**k, k spread evenly over [-6, 6].

    The first case is an unscaled holding Loewner pair, so the set-up
    child (one CLI call on the first input) always has a plain verdict.

    The holding 3x3 pairs of the image and ginv routes all go to the
    defect probe ("minus_cutoff" in `known_defect`).  They get three times
    as many cases, so that their wrong answers, about one in a hundred,
    show on every seed.
    """
    classes = [(op, label) for op in ORDER_OPS for label in ("holds", "fails")]
    classes += [("sim_congruence", "holds"), ("inertia", "holds")]
    cases = []
    for n in sizes:
        for op, label in classes:
            probed = op in ("minus_image", "minus_ginv") and n == 3 and label == "holds"
            for k in ([None] * per_class + _even_ks(per_class)) * (3 if probed else 1):
                cases.append(_verdict_case(rng, len(cases), op, n, label, k))
    return cases


# ------------------------------------------------------------------- sweeps


def _congruence_factor(rng, n, orthogonal):
    return _orthogonal(rng, n) if orthogonal else _bounded_factor(rng, n)


def _probes(n):
    """e_i e_i^T for every i, then (e_0 + e_i)(e_0 + e_i)^T for i >= 1."""
    eye = np.eye(n)
    out = [np.outer(eye[i], eye[i]) for i in range(n)]
    out += [np.outer(eye[0] + eye[i], eye[0] + eye[i]) for i in range(1, n)]
    return out


def _sweep_case(rng, index, op, n, k, size):
    """One batch analysis.  `size` sets its amount of work (trials, extra
    samples, draws), or for the cheap analyses whether the case holds."""
    c = 1.0 if k is None else 10.0 ** (k / 2.0)  # images scale by 10**k
    # The seed psdorder's own samplers get (trial pairs, projectors, Monte
    # Carlo draws) is fixed per case; --seed varies every matrix built
    # here.  With sampler seeds drawn from --seed, a rare cutoff defect in
    # those internal draws fired on 1-5 sweep calls per seed, which made
    # failed_share swing by a third from seed to seed.
    seed = index + 1
    if op.startswith("preserves_"):
        relation = op.split("_", 1)[1]
        if relation == "trace":
            return Case(index, op, n, "fails", k,
                        {"map": "trace-inflation", "relation": "lowner",
                         "n": n, "trials": size, "seed": seed},
                        {"forward": True, "backward": False})
        s = c * _congruence_factor(rng, n, orthogonal=relation == "star")
        return Case(index, op, n, "holds", k,
                    {"s": s, "relation": relation, "n": n, "trials": size,
                     "seed": seed},
                    {"forward": True, "backward": True})
    if op == "projector_suite":
        s = c * _bounded_factor(rng, n)
        return Case(index, op, n, "holds", k,
                    {"s": s, "n": n, "trials": size, "seed": seed},
                    {"forward": True, "backward": True})
    if op == "fit_congruence":
        s = c * _bounded_factor(rng, n)
        given = _probes(n)
        for _ in range(size):
            g = rng.standard_normal((n, 2))
            given.append(g @ g.T)
        samples = [(x, s @ x @ s.T) for x in given]
        col = s[:, 0]
        first = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
        return Case(index, op, n, "holds", k, {"samples": samples},
                    {"s": s * np.sign(first)})
    if op == "model_compare":
        x1 = rng.standard_normal((n, n))
        q = _orthogonal(rng, n)
        d1 = rng.uniform(0.5, 2.0, n)
        comparable = bool(size)
        if comparable:
            d2 = d1 + rng.uniform(0.0, 1.0, n)
            d2[int(rng.integers(n))] += 0.5
        else:
            d2 = d1.copy()
            d2[0] += 1.0
            d2[-1] = 0.5 * d1[-1]
        return Case(index, op, n, "holds" if comparable else "fails", k,
                    {"x1": x1, "d1": (q * d1) @ q.T, "x2": x1.copy(),
                     "d2": (q * d2) @ q.T},
                    {"l1_geq_l2": comparable, "l2_geq_l1": False})
    if op == "blue_check":
        p = int(rng.integers(1, n))
        x = rng.standard_normal((n, p))
        g = rng.standard_normal((n, n))
        d = g @ g.T + 0.5 * np.eye(n)
        blue = bool(size)
        if blue:  # generalized least squares
            di = np.linalg.inv(d)
            l = x @ np.linalg.solve(x.T @ di @ x, x.T @ di)
        else:  # ordinary least squares under non-spherical noise
            l = x @ np.linalg.solve(x.T @ x, x.T)
        return Case(index, op, n, "holds" if blue else "fails", k,
                    {"l": l, "x": x, "d": d}, {"is_blue": blue})
    if op in ("qform", "mc_qform"):
        independent = op == "mc_qform" or bool(size)
        forms, v, mu = _qforms(rng, n, independent, centred=op == "mc_qform")
        inputs = {"forms": forms, "v": v, "mu": mu}
        expect = {"overall": independent}
        if op == "mc_qform":
            inputs.update(n_samples=size, seed=seed)
            expect = {"dfs": [_rank(f) for f in forms]}
        return Case(index, op, n, "holds" if independent else "fails", k,
                    inputs, expect)
    raise ValueError(f"unknown sweep op {op!r}")


def _qforms(rng, n, independent, centred):
    """Forms x^T A_i x for x ~ N(mu, V), V = R R^T.

    Independent families pull disjoint coordinate projectors back through
    R, so x^T A_i x = z^T P_i z with z standard normal: independent
    chi-squared pieces.  In dependent families the two projectors share a
    direction, so their ranks no longer add up.

    R is orthogonal.  With cond R up to 4, roundoff in the compressed
    forms W^T A_i W crossed psdorder's n * eps rank cutoff on about one
    case in a thousand (the "rank_cutoff" defect, which the projector suite
    at n = 5 shows in the probe).  With R orthogonal the largest roundoff
    over 40000 forms of each kind was about 0.6 of the cutoff.
    """
    r = _orthogonal(rng, n)
    r_inv = np.linalg.inv(r)
    q = _orthogonal(rng, n)
    sizes = [int(rng.integers(1, n // 2 + 1)), int(rng.integers(1, n // 2 + 1))]
    first = q[:, : sizes[0]]
    if independent:
        second = q[:, sizes[0]: sizes[0] + sizes[1]]
    else:
        second = q[:, sizes[0] - 1: sizes[0] - 1 + sizes[1]]
    forms = [r_inv.T @ (b @ b.T) @ r_inv for b in (first, second)]
    mu = np.zeros(n) if centred else rng.standard_normal(n)
    return forms, r @ r.T, mu


# Sweep mix.  Cheap analyses (about 1-3 ms at these sizes) make up about
# two thirds of the timed calls, so latency_p50_ms sits inside that band;
# the order sweeps and the Monte Carlo runs (about 5-80 ms) are the upper
# tail that sets latency_p95_ms.  Trial and draw counts vary within each op
# so that each band is a continuum rather than a few spikes.  The corpus is
# kept small so that a run repeats every case some 30 times.
_KS = tuple(_even_ks(7))  # -6, -4, ..., 6
_SWEEP_PLAN = (
    # op, sizes n, work sizes (trials, extra samples or draws; for the
    # three cheap analyses, whether the case holds), scale exponents k
    ("preserves_lowner", (5, 10), (4, 6, 8), _KS),
    ("preserves_minus", (5, 10), (4, 6, 8), _KS),
    ("preserves_star", (5, 10), (4, 6, 8), _KS),
    ("preserves_trace", (5, 10), (4, 6, 8, 10), ()),
    ("projector_suite", (10,), (2, 3, 4), _KS),
    ("fit_congruence", (4, 6, 8, 10), (2, 4, 6), _KS),
    ("model_compare", (4, 6, 8, 10), (1, 1, 1, 1, 0, 0, 0, 0), ()),
    ("blue_check", (4, 6, 8, 10), (1, 1, 1, 1, 0, 0, 0, 0), ()),
    ("qform", (4, 6, 8, 10), (1, 1, 1, 1, 0, 0, 0, 0), ()),
    ("mc_qform", (6,), (6000, 8000, 10000), ()),
    # Defect probe only (see `known_defect`).  Each wrong answer comes from
    # one unlucky internal draw, about one call in eight here, so these
    # classes get enough cases to show on every seed.
    ("projector_suite", (5,), (8,) * 33, _KS),
    ("projector_suite", (10,), (4,), (6,) * 12),
)


def _sweep_corpus(rng):
    """Per (op, n): one unscaled case per work size, then one case for
    each scale exponent k, with the congruence scaled so that images scale
    by 10**k (work sizes taken in turn)."""
    cases = []
    for op, sizes, works, ks in _SWEEP_PLAN:
        for n in sizes:
            plan = [(work, None) for work in works]
            plan += [(works[j % len(works)], k) for j, k in enumerate(ks)]
            for work, k in plan:
                cases.append(_sweep_case(rng, len(cases), op, n, k, work))
    return cases


# ------------------------------------------------------------ construction


DEFECTS = ("scale_floor", "scale_ceiling", "minus_cutoff", "rank_cutoff")


def known_defect(case) -> str | None:
    """The known psdorder defect a case exposes, judged by its class alone.

    - "scale_floor": star-order pairs scaled by 10**k with k <= -4 (ROADMAP
      item 4).  star_family_leq calls incomparable pairs "strictly less",
      and the star preserver sweep reports a backward failure.
    - "scale_ceiling": the projector suite with images scaled by 10**6.
      When a drawn projector is the identity, lowner_leq gets two images
      of I that are equal up to roundoff of about 1e-9, but its PSD test
      allows only 1e-9 * max(1, spectral radius of B - A), so it answers
      that they are not below each other.
    - "minus_cutoff": holding 3x3 pairs on the image and ginv minus routes.
      These routes count rank(B - A) against a cutoff from B - A alone, so
      roundoff of the order of A and B can count as a nonzero eigenvalue;
      about one pair in a hundred is answered wrongly.
    - "rank_cutoff": the projector suite at n = 5.  The n * eps cutoff of
      the rank route counts a roundoff eigenvalue of I - P as nonzero.
    """
    k = case.k
    if case.op in ("star", "preserves_star") and k is not None and k <= -4:
        return "scale_floor"
    if case.op == "projector_suite" and k is not None and k >= 6:
        return "scale_ceiling"
    if case.op in ("minus_image", "minus_ginv") and case.n == 3 and case.label == "holds":
        return "minus_cutoff"
    if case.op == "projector_suite" and case.n == 5:
        return "rank_cutoff"
    return None


def build(workload: str, seed: int):
    """The corpus of one workload: the timed cases dealt into parts that a
    run passes over in turn, and the defect probe.  The same seed gives
    the same cases.

    Timed case i goes to part i mod the number of parts, so every part has
    nearly the same mix.  Parts keep each pass short (about 0.3 s).
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verdicts_small":
        cases, parts = _verdict_corpus(rng, sizes=(3, 10), per_class=52), 4
    elif workload == "sweeps":
        cases, parts = _sweep_corpus(rng), 4
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for case in cases:
        case.defect = known_defect(case)
    timed = [c for c in cases if c.defect is None]
    probe = [c for c in cases if c.defect is not None]
    return [timed[p::parts] for p in range(parts)], probe


def digest(cases) -> str:
    """SHA-256 over every case's metadata and input bytes."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(repr((obj.dtype.str, obj.shape)).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            for key in sorted(obj):
                h.update(key.encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for item in obj:
                feed(item)
            h.update(b"]")
        else:
            h.update(repr(obj).encode())

    for case in cases:
        feed([case.index, case.op, case.n, case.label, case.k, case.inputs,
              case.expect, case.defect])
    return h.hexdigest()


# ------------------------------------------------------------ numpy checks


def _rank(m):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > _CHECK_TOL * s[0])) if s[0] > 0 else 0


def _psd_margin(m):
    """Smallest eigenvalue relative to the spectral radius."""
    w = np.linalg.eigvalsh(m)
    return float(w[0] / max(np.abs(w).max(), np.finfo(float).tiny))


def _lowner_label(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max())
    if np.abs(b - a).max() <= _CHECK_TOL * scale:
        return "equal"
    if _psd_margin(b - a) >= -_CHECK_TOL:
        return "strictly less"
    return "strictly greater" if _psd_margin(a - b) >= -_CHECK_TOL else "incomparable"


def _minus_label(a, b):
    def below(x, y):
        return _rank(y - x) == _rank(y) - _rank(x)

    if below(a, b):
        return "strictly less"
    return "strictly greater" if below(b, a) else "incomparable"


def _star_label(a, b):
    def below(x, y):
        scale = max(np.abs(x).max(), np.abs(y).max()) ** 2
        return np.abs(x @ x - x @ y).max() <= _CHECK_TOL * scale

    if below(a, b):
        return "strictly less"
    return "strictly greater" if below(b, a) else "incomparable"


def _inertia_counts(m):
    w = np.linalg.eigvalsh(m)
    cut = _CHECK_TOL * np.abs(w).max()
    pos, neg = int(np.sum(w > cut)), int(np.sum(w < -cut))
    return (pos, neg, len(w) - pos - neg)


def check_label(case) -> str:
    """Empty when numpy confirms the constructed answer, else the reason."""
    i, e = case.inputs, case.expect
    op = case.op
    if op == "inertia":
        got = _inertia_counts(i["a"])
        return "" if got == e["inertia"] else f"numpy inertia {got}"
    if op in ORDER_OPS:
        label = {"lowner": _lowner_label, "star": _star_label}.get(
            op, _minus_label)(i["a"], i["b"])
        return "" if label == e["detail"] else f"numpy says {label}"
    if op == "sim_congruence":
        ranks = (_rank(i["a"]), _rank(i["b"]))
        ok = _minus_label(i["a"], i["b"]) == "strictly less"
        return "" if ok and ranks == (e["rank_a"], e["rank_b"]) else f"ranks {ranks}"
    if op.startswith("preserves_") or op == "projector_suite":
        if "s" not in i:
            return "" if i["n"] >= 2 and i["trials"] >= 2 else "too small"
        sv = np.linalg.svd(i["s"], compute_uv=False)
        if sv[-1] < 0.2 * sv[0]:
            return f"congruence factor has condition {sv[0] / sv[-1]:.3g}"
        if i.get("relation") == "star" and sv[-1] < (1 - _CHECK_TOL) * sv[0]:
            return "star needs an orthogonal factor up to scale"
        return ""
    if op == "fit_congruence":
        s = e["s"]
        bad = [np.abs(s @ x @ s.T - y).max() > _CHECK_TOL * np.abs(y).max()
               for x, y in i["samples"] if np.abs(y).max() > 0]
        return "sample images disagree with S" if any(bad) else ""
    if op == "model_compare":
        def eff(x, d):
            return x.T @ np.linalg.inv(d + x @ x.T) @ x
        m1, m2 = eff(i["x1"], i["d1"]), eff(i["x2"], i["d2"])
        got = (_psd_margin(m1 - m2) >= -_CHECK_TOL, _psd_margin(m2 - m1) >= -_CHECK_TOL)
        want = (e["l1_geq_l2"], e["l2_geq_l1"])
        return "" if got == want else f"numpy efficiency order {got}"
    if op == "blue_check":
        # Rao's criterion: L y is BLUE of X beta iff L X = X and
        # L D Z = 0 for Z spanning the orthogonal complement of Im X.
        x, d, l = i["x"], i["d"], i["l"]
        z = np.eye(x.shape[0]) - x @ np.linalg.pinv(x)
        unbiased = np.abs(l @ x - x).max() <= _CHECK_TOL * np.abs(x).max()
        ldz = np.abs(l @ d @ z).max() / (np.abs(l).max() * np.abs(d).max())
        if _CHECK_TOL < ldz < 1e-3:
            return f"L D Z = {ldz:.3g} is too close to call"
        blue = unbiased and ldz <= _CHECK_TOL
        return "" if blue == e["is_blue"] else f"numpy BLUE {blue}"
    if op in ("qform", "mc_qform"):
        w = np.hstack([i["v"], i["mu"][:, None]])
        comp = [w.T @ f @ w for f in i["forms"]]
        additive = sum(_rank(c) for c in comp) == _rank(sum(comp))
        want = e.get("overall", True)
        if op == "mc_qform":
            v = i["v"]
            idem = all(np.abs(f @ v @ f - f).max() <= 1e-8 * np.abs(f).max()
                       for f in i["forms"])
            if not idem or [_rank(f) for f in i["forms"]] != e["dfs"]:
                return "forms are not chi-squared under V"
        return "" if additive == want else f"numpy rank additivity {additive}"
    return f"no numpy check for {op}"


def verify(cases) -> list:
    """(case name, reason) for every case whose label numpy rejects."""
    return [(c.name, why) for c in cases if (why := check_label(c))]
