"""The scalar verdicts, inertia and sim_congruence against the
SymMatrix-based reference in reference_verdicts.py: every holds, detail,
certificate value, result field and error, bit for bit and of the same
type, on holding and failing pairs with repeated eigenvalues among them,
and the two minus certificates, sim_congruence and the ginv route, on
generated pairs below each other."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_verdicts as ref
from psdorder import (
    MinusMethod,
    PsdOrderError,
    Relation,
    inertia,
    lowner_leq,
    minus_leq,
    sim_congruence,
    star_family_leq,
)


def _bits(obj):
    """Structure of a result with each leaf replaced by its type and bits."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (float, np.floating)):
        return (type(obj).__name__, struct.pack("<d", float(obj)))
    if isinstance(obj, dict):
        return ("dict", [(k, _bits(v)) for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_bits(v) for v in obj])
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, [(f.name, _bits(getattr(obj, f.name))) for f in dataclasses.fields(obj)])
    return (type(obj).__name__, obj)


def _outcome(call, a, b):
    """The bits of call(a, b), or of the error it raises, and whether it
    held (a verdict) or returned (the others)."""
    try:
        result = call(a, b)
    except PsdOrderError as exc:
        return ("raises", type(exc).__name__, str(exc)), False
    return _bits(result), getattr(result, "holds", True)


def _pairs(n):
    """Pairs of every relation that hold, fail both ways or are equal, on
    generic and on exactly repeated spectra, with a slightly skewed copy of
    some so that symmetrization is exercised; each pair also reversed."""
    rng = np.random.default_rng(100 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q * rng.uniform(0.5, 2.0, n)
    cong = lambda m, d: (m * np.asarray(d, dtype=float)) @ m.T  # noqa: E731
    e = lambda k: np.r_[np.ones(k), np.zeros(n - k)]  # noqa: E731
    g = rng.standard_normal((n, n))
    h = rng.standard_normal((n, max(1, n // 2)))
    d_a = np.where(rng.uniform(size=n) < 0.5, rng.uniform(0.5, 1.5, n), 0.0)
    grow = np.where(d_a == 0.0, rng.uniform(0.5, 1.5, n), 0.0)
    pairs = [
        (g @ g.T, g @ g.T + h @ h.T),  # Loewner
        (g @ g.T, g @ g.T + cong(q, np.r_[np.ones(n - 1), -0.2])),  # indefinite difference
        (cong(s, e(1)), cong(s, e(n - 1))),  # minus
        (cong(s, e(n - 1)), cong(s, 2.0 * e(n - 1))),  # same image, not minus
        (cong(q, d_a), cong(q, d_a + grow)),  # star
        (cong(q, rng.uniform(0.5, 1.5, n)), cong(q, rng.uniform(0.5, 1.5, n))),
        (np.diag(e(1)), np.eye(n)),  # exactly repeated eigenvalues
        (np.eye(n), 2.0 * np.eye(n)),
        (cong(q, e(n // 2)), np.eye(n)),  # a projector below I
        (0.5 * cong(q, e(n // 2)), np.eye(n)),
        (np.zeros((n, n)), cong(s, e(n - 1))),
        (cong(s, e(n - 1)), cong(s, e(n - 1))),  # equal
        (np.zeros((n, n)), np.zeros((n, n))),
    ]
    skew = 1e-12 * rng.standard_normal((n, n))
    pairs += [(a + skew, b) for a, b in pairs[:6:2]]
    return pairs + [(b, a) for a, b in pairs]


CALLS = {
    "lowner_leq": (lowner_leq, lambda a, b: ref.lowner_both(a, b)[0]),
    **{
        f"minus_{m.value}": (
            lambda a, b, m=m: minus_leq(a, b, method=m),
            lambda a, b, m=m: ref.minus_leq(a, b, method=m),
        )
        for m in MinusMethod
    },
    **{
        v.value: (
            lambda a, b, v=v: star_family_leq(a, b, v),
            lambda a, b, v=v: ref.star_family_leq(a, b, v),
        )
        for v in (Relation.STAR, Relation.LEFT_STAR, Relation.RIGHT_STAR)
    },
    "inertia_a": (lambda a, b: inertia(a), lambda a, b: ref.inertia(a)),
    "inertia_diff": (lambda a, b: inertia(b - a), lambda a, b: ref.inertia(b - a)),
    "sim_congruence": (sim_congruence, ref.sim_congruence),
}


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_verdicts_match_the_symmatrix_reference_bit_for_bit(n):
    outcomes = {name: set() for name in CALLS}
    for i, (a, b) in enumerate(_pairs(n)):
        for name, (call, reference) in CALLS.items():
            got, want = _outcome(call, a, b), _outcome(reference, a, b)
            assert got == want, (n, i, name)
            outcomes[name].add(got[1])
    # both outcomes of every verdict, and of sim_congruence, were compared
    for name, seen in outcomes.items():
        assert seen == ({True} if name.startswith("inertia") else {True, False}), name


def _factor(kind, n, rng):
    """An invertible congruence factor: general, a scaled orthogonal one,
    a signed permutation times a power of two, under which a pair's
    spectra repeat exactly, or a general block beside a signed permutation,
    rows shuffled, whose pairs' eigenvectors hold exact zeros of both signs."""
    if kind == "permutation":
        return 2.0 ** rng.integers(-3, 4) * np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
    if kind == "block":
        k = rng.integers(1, n + 1)
        f = np.zeros((n, n))
        f[:k, :k], f[k:, k:] = _factor("general", k, rng), _factor("permutation", n - k, rng)
        return f[rng.permutation(n)]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * (rng.uniform(0.5, 2.0, n) if kind == "general" else rng.uniform(0.5, 2.0))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 10), st.sampled_from(["general", "orthogonal", "permutation", "block"]),
       st.integers(0, 2**32 - 1))
def test_minus_certificates_match_the_reference_on_generated_pairs(data, n, kind, seed):
    # A = S E_r S^T below B = S E_s S^T: sim_congruence forms S and its
    # reconstructions from S's leading columns and the ginv route G's
    # identities from stacked products, where the reference multiplies by
    # E_k and by each matrix on its own; the bits agree as the BLAS
    # kernel sums, so they are compared on many pairs.  The image route
    # checks the same basis, as eigh returns it, by the ginv route's
    # direct-sum check
    s_rank = data.draw(st.integers(0, n))
    r_rank = data.draw(st.integers(0, s_rank))
    factor = _factor(kind, n, np.random.default_rng(seed))
    a, b = ((factor * np.r_[np.ones(k), np.zeros(n - k)]) @ factor.T for k in (r_rank, s_rank))
    for name in ("sim_congruence", "minus_ginv", "minus_image"):
        call, reference = CALLS[name]
        got = _outcome(call, a, b)
        assert got == _outcome(reference, a, b), name
        assert got[1], name


def test_sim_congruence_orders_tied_columns_as_canonical_order_does():
    # S orders only its kept columns, each block by a stable descending
    # sort: on exactly tied eigenvalues it keeps eigh's order within a tie,
    # as the reference's canonical_eig does, where reversing eigh's
    # ascending order would not
    e = ref.ek
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert sim_congruence(e(3, 2), np.eye(3)).s.tobytes() == swap.tobytes()
    pairs = [(e(3, 2), np.eye(3)), (e(4, 1), e(4, 3)), (np.zeros((3, 3)), e(3, 2)),
             (np.zeros((3, 3)), np.eye(3)), (np.zeros((3, 3)), np.zeros((3, 3)))]
    pairs += [(2.0**k * e(4, r), 2.0**k * e(4, q)) for k in (-60, -1, 1, 60) for q in range(5) for r in range(q + 1)]
    for a, b in pairs:
        got = _outcome(sim_congruence, a, b)
        assert got == _outcome(ref.sim_congruence, a, b), (a, b)
        assert got[1]


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.data(), st.integers(2, 8), st.floats(-16.0, -4.0), st.integers(0, 2**32 - 1))
def test_sim_congruence_reduces_exactly_the_pairs_minus_holds(data, n, log_delta, seed):
    # A = S E_r S^T + delta x x^T and B = S E_k S^T, S = Q1 D Q2 of
    # condition at most 4: delta x x^T counts toward the ranks or not by the
    # pair's one cutoff.  sim_congruence reduces the pair exactly when the
    # ginv route holds it, with that verdict's ranks, and raises
    # NotMinusComparable exactly when the rank equation fails
    k = data.draw(st.integers(0, n))
    r = data.draw(st.integers(0, k))
    rng = np.random.default_rng(seed)
    s = (_factor("orthogonal", n, rng) * rng.uniform(0.5, 2.0, n)) @ _factor("orthogonal", n, rng).T
    x = rng.standard_normal(n)
    a = (s * np.r_[np.ones(r), np.zeros(n - r)]) @ s.T + 10.0**log_delta * np.outer(x, x)
    b = (s * np.r_[np.ones(k), np.zeros(n - k)]) @ s.T
    verdict = minus_leq(a, b, method=MinusMethod.GINV)
    got = _outcome(sim_congruence, a, b)
    assert got == _outcome(ref.sim_congruence, a, b)
    if verdict.holds:
        res = sim_congruence(a, b)
        assert (res.rank_a, res.rank_b) == (verdict.certificate["rank_a"], verdict.certificate["rank_b"])
    else:
        assert got[0][:2] == ("raises", "NotMinusComparable")
