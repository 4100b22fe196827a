"""How each corpus case calls the program, and how its result is judged.

`bind` turns a case into a zero-argument callable that goes through the
public functions of psdorder, looked up on their modules at call time so
that a tracer patched onto those modules sees them.  `judge` compares the
returned object with the answer the corpus construction guarantees.
"""

import numpy as np

from corpus import ORDER_OPS
from psdorder import canonical, linmodels, orders, preservers

# Monte Carlo acceptance: with at least 6000 draws a Kolmogorov-Smirnov
# distance above 0.04 has probability below 1e-8 under the true law, and a
# sample correlation above 0.06 sits more than 4.6 standard errors out.
_MC_KS_MAX = 0.04
_MC_CORR_MAX = 0.06
# Relative accuracy required of a recovered or constructed congruence.
_RECON_TOL = 1e-6

_MINUS_METHOD = {"minus_rank": "rank", "minus_image": "image", "minus_ginv": "ginv"}


def bind(case):
    """Zero-argument callable performing the case's public call(s)."""
    i = case.inputs
    op = case.op
    if op == "lowner":
        return lambda: orders.lowner_leq(i["a"], i["b"])
    if op in _MINUS_METHOD:
        method = _MINUS_METHOD[op]
        return lambda: orders.minus_leq(i["a"], i["b"], method=method)
    if op == "star":
        return lambda: orders.star_family_leq(i["a"], i["b"], i["variant"])
    if op == "sim_congruence":
        return lambda: canonical.sim_congruence(i["a"], i["b"])
    if op == "inertia":
        return lambda: canonical.inertia(i["a"])
    if op == "preserves_trace":
        return lambda: preservers.preserves_order(
            preservers.MatrixMap.trace_inflation(), i["relation"], i["n"],
            trials=i["trials"], seed=i["seed"])
    if op.startswith("preserves_"):
        return lambda: preservers.preserves_order(
            preservers.congruence_map(i["s"]), i["relation"], i["n"],
            trials=i["trials"], seed=i["seed"])
    if op == "projector_suite":
        return lambda: preservers.projector_fixed_point_suite(
            preservers.congruence_map(i["s"]), i["n"], trials=i["trials"],
            seed=i["seed"])
    if op == "fit_congruence":
        return lambda: preservers.fit_congruence(i["samples"])
    if op == "model_compare":
        return lambda: linmodels.model_compare(
            linmodels.LinearModel(i["x1"], i["d1"]),
            linmodels.LinearModel(i["x2"], i["d2"]))
    if op == "blue_check":
        return lambda: linmodels.blue_check(
            i["l"], linmodels.LinearModel(i["x"], i["d"]))
    if op == "qform":
        return lambda: linmodels.qform_rank_criterion(i["forms"], i["v"], i["mu"])
    if op == "mc_qform":
        return lambda: linmodels.mc_quadratic_forms(
            i["forms"], i["v"], i["mu"], i["n_samples"], i["seed"])
    raise ValueError(f"unknown op {op!r}")


def _rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def judge(case, result):
    """Empty string for a right answer, otherwise what was wrong."""
    e = case.expect
    op = case.op
    if op in ORDER_OPS:
        got = (bool(result.holds), result.detail)
        want = (e["holds"], e["detail"])
        return "" if got == want else f"expected {want}, got {got}"
    if op == "sim_congruence":
        i = case.inputs
        n = case.n
        e_r = np.diag(np.r_[np.ones(result.rank_a), np.zeros(n - result.rank_a)])
        e_s = np.diag(np.r_[np.ones(result.rank_b), np.zeros(n - result.rank_b)])
        ranks = (result.rank_a, result.rank_b)
        if ranks != (e["rank_a"], e["rank_b"]):
            return f"expected ranks {(e['rank_a'], e['rank_b'])}, got {ranks}"
        err = max(_rel_err(result.s @ e_r @ result.s.T, i["a"]),
                  _rel_err(result.s @ e_s @ result.s.T, i["b"]))
        return "" if err <= _RECON_TOL else f"reconstruction error {err:.3g}"
    if op == "inertia":
        got = (result.n_pos, result.n_neg, result.n_zero)
        return "" if got == e["inertia"] else f"expected {e['inertia']}, got {got}"
    if op.startswith("preserves_") or op == "projector_suite":
        got = (result.preserves_forward, result.preserves_backward)
        want = (e["forward"], e["backward"])
        return "" if got == want else (
            f"expected forward/backward {want}, got {got} "
            f"({result.forward_failures}/{result.backward_failures} failures)")
    if op == "fit_congruence":
        err = _rel_err(result, e["s"])
        return "" if err <= _RECON_TOL else f"recovered S off by {err:.3g}"
    if op == "model_compare":
        got = (result.l1_geq_l2, result.l2_geq_l1)
        want = (e["l1_geq_l2"], e["l2_geq_l1"])
        return "" if got == want else f"expected {want}, got {got}"
    if op == "blue_check":
        got = result.is_blue
        return "" if got == e["is_blue"] else f"expected BLUE={e['is_blue']}, got {got}"
    if op == "qform":
        got = result.overall
        return "" if got == e["overall"] else f"expected overall={e['overall']}, got {got}"
    if op == "mc_qform":
        if list(result.dfs) != e["dfs"]:
            return f"expected dfs {e['dfs']}, got {result.dfs}"
        if result.total_df != sum(e["dfs"]):
            return f"expected total df {sum(e['dfs'])}, got {result.total_df}"
        ks = max(result.ks + [result.total_ks])
        if ks > _MC_KS_MAX:
            return f"KS distance {ks:.3g} above {_MC_KS_MAX}"
        if result.max_abs_corr > _MC_CORR_MAX:
            return f"correlation {result.max_abs_corr:.3g} above {_MC_CORR_MAX}"
        return ""
    raise ValueError(f"unknown op {op!r}")

