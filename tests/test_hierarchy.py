"""The order hierarchy on the PSD cone: the star order implies the minus
order, and the minus order implies the Loewner order (Mitra,
Bhimasankaram & Malik, Matrix Partial Orders, Shorted Operators and
Applications, World Scientific 2010).

Two sources of certified PSD pairs feed it: a family A = Q diag(d_A) Q^T
+ delta x x^T, B = Q diag(d_A + grow) Q^T, whose perturbation sweeps from
far below the rank cutoff to far above it, and a hypothesis strategy that
builds labelled pairs as the benchmark corpus does, from the construction
alone.  Two fixtures pin the star decision's two steps: the rank equation
and the identity A (B - A) = 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psdorder import (
    NotPositiveSemidefinite,
    Relation,
    congruence_map,
    lowner_leq,
    minus_leq,
    order_holds_many,
    star_family_leq,
)
from psdorder.numkernel import require_psd

STAR_VARIANTS = (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _certified(a, b):
    """Whether A and B are both PSD by psdorder's own certificate."""
    try:
        require_psd(np.array([a, b]), np.linalg.eigvalsh(np.array([a, b])))
    except NotPositiveSemidefinite:
        return False
    return True


def _assert_hierarchy(a, b):
    """star => minus => Loewner for A below B, in every star variant; returns
    whether star and minus held."""
    star = {star_family_leq(a, b, v).holds for v in STAR_VARIANTS}
    minus = minus_leq(a, b)
    assert len(star) == 1
    (star,) = star
    assert minus.holds or not star
    assert lowner_leq(a, b).holds or not minus.holds
    return star, minus.holds


def delta_family(count=3000, seed=4):
    """A = Q diag(d_A) Q^T + delta x x^T below or beside
    B = Q diag(d_A + grow) Q^T, n = 2 to 7, log10 delta uniform on [-17, -3]:
    without delta, A is star-below B (grow lives off the support of d_A)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        q = _orthogonal(rng, n)
        support = np.zeros(n, bool)
        support[rng.permutation(n)[: int(rng.integers(1, n))]] = True
        d_a = np.where(support, rng.uniform(0.5, 1.5, n), 0.0)
        grow = np.where(support, 0.0, rng.uniform(0.5, 1.5, n))
        x = rng.standard_normal(n)
        delta = 10.0 ** rng.uniform(-17, -3)
        yield (q * d_a) @ q.T + delta * np.outer(x, x), (q * (d_a + grow)) @ q.T


def test_hierarchy_on_the_delta_family():
    # the image containment against B's own cutoff held star on 1,345 of
    # these pairs where the rank equation rejects minus
    pairs = list(delta_family())
    assert all(_certified(a, b) for a, b in pairs)
    star, minus = np.array([_assert_hierarchy(a, b) for a, b in pairs]).T
    assert 300 < star.sum() < len(pairs) - 300
    # and the identity rejects no pair of this family whose rank equation holds
    assert (star == minus).all()
    # the stacked decision, one stack per size, gives each pair its answer
    for n in range(2, 8):
        index = [i for i, (a, _) in enumerate(pairs) if len(a) == n]
        a, b = (np.array(m) for m in zip(*(pairs[i] for i in index)))
        assert order_holds_many(a, b, Relation.STAR).tolist() == star[index].tolist()


# ----- labelled pairs built as the benchmark corpus builds them -------------


def _lowner_pair(rng, n, holds):
    g = rng.standard_normal((n, n))
    if holds:
        h = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        return g @ g.T, g @ g.T + h @ h.T
    q = _orthogonal(rng, n)
    d = rng.uniform(0.5, 2.0, n)
    d[: int(rng.integers(1, n))] *= -1.0
    base = g @ g.T + 2.0 * np.eye(n)
    return base, base + (q * d) @ q.T


def _minus_pair(rng, n, holds):
    # S = Q1 D Q2 with D in [0.5, 2]: condition at most 4, and A and B do
    # not commute
    s = (_orthogonal(rng, n) * rng.uniform(0.5, 2.0, n)) @ _orthogonal(rng, n)
    if holds:
        r = int(rng.integers(1, n))
        k = int(rng.integers(r + 1, n + 1))
        d_a, d_b = np.r_[np.ones(r), np.zeros(n - r)], np.r_[np.ones(k), np.zeros(n - k)]
    else:  # same support, other weights: rank(B - A) = rank A = rank B
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
        d_b = d_a + np.where(support, 0.0, rng.uniform(0.5, 1.5, n))
    else:
        d_b = d_a.copy()
        d_b[np.flatnonzero(support)[0]] *= 2.0
    return (q * d_a) @ q.T, (q * d_b) @ q.T


_BUILD = {Relation.LOWNER: _lowner_pair, Relation.MINUS: _minus_pair, Relation.STAR: _star_pair}
_CHECK = {Relation.LOWNER: lowner_leq, Relation.MINUS: minus_leq, Relation.STAR: star_family_leq}


@st.composite
def labelled_pairs(draw):
    """(relation, label, A, B): a pair of `relation` that holds or is
    incomparable by construction, n = 2 to 10, scaled by 10^k with
    |k| <= 6 or unscaled."""
    relation = draw(st.sampled_from(list(_BUILD)))
    n, holds = draw(st.integers(2, 10)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = 10.0 ** draw(st.one_of(st.just(0), st.integers(-6, 6)))
    a, b = _BUILD[relation](rng, n, holds)
    return relation, holds, c * a, c * b


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(labelled_pairs())
def test_hierarchy_on_labelled_pairs(pair):
    relation, holds, a, b = pair
    if not _certified(a, b):
        return
    want = "strictly less" if holds else "incomparable"
    assert _CHECK[relation](a, b).detail == want
    for x, y in ((a, b), (b, a)):
        _assert_hierarchy(x, y)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(labelled_pairs(), st.integers(0, 2**32 - 1))
def test_verdicts_are_invariant_under_congruence(pair, seed):
    # every invertible congruence preserves the Loewner and minus orders,
    # drawn as S = Q1 D Q2 with D in [0.5, 2]; an orthogonal one the star order
    relation, holds, a, b = pair
    if not _certified(a, b):
        return
    rng, n, check = np.random.default_rng(seed), len(a), _CHECK[relation]
    s = _orthogonal(rng, n)
    if relation is not Relation.STAR:
        s = (s * rng.uniform(0.5, 2.0, n)) @ _orthogonal(rng, n)
    fa, fb = congruence_map(s).apply(np.array([a, b]))
    assert check(a, b).detail == ("strictly less" if holds else "incomparable")
    for (x, y), (fx, fy) in (((a, b), (fa, fb)), ((b, a), (fb, fa))):
        want, got = check(x, y), check(fx, fy)
        assert (got.holds, got.detail) == (want.holds, want.detail), (relation, holds, n)


# ----- the star decision's two steps -----------------------------------------


def test_star_rejects_a_pair_the_rank_equation_rejects():
    # A^2 = A B up to 1e-20, but rank(A) = 2 > rank(B): star fails and
    # reads "strictly greater", as minus does
    a, b = np.diag([1.0, 1e-10]), np.diag([1.0, 0.0])
    minus = minus_leq(a, b)
    assert (minus.holds, minus.detail) == (False, "strictly greater")
    for variant in STAR_VARIANTS:
        v = star_family_leq(a, b, variant)
        assert (v.holds, v.detail) == (False, "strictly greater")
        assert v.certificate["residual"] <= v.certificate["budget"]
        assert [v.certificate[k] for k in ("rank_a", "rank_b", "rank_diff")] == [2, 1, 1]


@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_star_rejects_a_pair_the_identity_rejects(eps):
    # B - A = eps v v^T with v = (1, 1) / sqrt 2 meets Im A: the rank
    # equation holds, and A (B - A), half of |A| |B - A|, fails the identity
    a, v = np.diag([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)
    b = a + eps * np.outer(v, v)
    assert minus_leq(a, b).holds
    for variant in STAR_VARIANTS:
        star = star_family_leq(a, b, variant)
        assert (star.holds, star.detail) == (False, "incomparable")
        assert star.certificate["residual"] > 1e5 * star.certificate["budget"]
