"""Spans around psdorder's public functions and numpy.linalg entry points.

The tracer patches every public function of the package's layer modules
wherever it is bound (orders imports sym_eig by name, so the name in
orders is patched as well as the one in numkernel), the SymMatrix and
PsdMatrix constructors, and the LAPACK-backed numpy.linalg functions.
Each span adds its duration minus its children's to its layer's self
time.  Counts (eigendecompositions, SVDs, estimated flops, matrix
constructions, repeated decompositions) are kept per public call.
Everything stays in memory; `metrics` turns it into the per-layer numbers.
Nothing is recorded outside a call opened with `begin`.
"""

import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

from corpus import ORDER_OPS

LAYERS = ("numkernel", "orders", "canonical", "preservers", "linmodels", "rng",
          "special")

_EIG_FUNCS = ("eigh", "eigvalsh")
_LINALG_FUNCS = _EIG_FUNCS + ("svd", "inv", "qr", "solve", "pinv", "lstsq",
                              "norm", "det", "cholesky")


def _shape(a):
    a = np.asarray(a)
    return a.shape[-2:] if a.ndim >= 2 else (a.size, 1)


def est_flops(func, args, kwargs):
    """Flop estimate of one numpy.linalg call from its argument shapes.

    Dense counts from Golub & Van Loan, Matrix Computations (4th ed.):
    symmetric eigenvalues 4n^3/3, with vectors 9n^3; Golub-Reinsch SVD
    4mn^2 - 4n^3/3 for values only and 14mn^2 + 8n^3 with thin factors
    (m >= n); inverse 2n^3; Householder QR with Q 4mn^2 - 4n^3/3; LU
    solve 2n^3/3 + 2n^2 per right-hand side.
    """
    if not args:
        return 0.0
    m, n = _shape(args[0])
    m, n = max(m, n), min(m, n)
    if func == "eigh":
        return 9.0 * n**3
    if func == "eigvalsh":
        return 4.0 * n**3 / 3.0
    if func == "svd":
        if not kwargs.get("compute_uv", True):
            return 4.0 * m * n * n - 4.0 * n**3 / 3.0
        return 14.0 * m * n * n + 8.0 * n**3
    if func == "inv":
        return 2.0 * n**3
    if func == "qr":
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    if func == "solve":
        rhs = _shape(args[1])[1] if len(args) > 1 else 1
        return 2.0 * n**3 / 3.0 + 2.0 * n * n * rhs
    return 0.0


def _matrix_key(a):
    # Adding 0.0 turns -0.0 into 0.0, so B - A and -(A - B) hash alike.
    return hash((np.asarray(a, dtype=float) + 0.0).tobytes())


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        # A frame is [start, child seconds, eigs, svds, special self
        # seconds], the counters as they stood when the span opened.
        self._stack = []
        self._patches = []
        self._seen = set()
        self.eigs = 0
        self.svds = 0
        self.repeats = 0
        self.flops = 0.0
        self.constructions = 0
        self.self_s = defaultdict(float)
        self.ops = 0
        self.op_s = 0.0
        self.durations = defaultdict(list)  # name -> seconds per call
        self.eig_counts = defaultdict(list)  # name -> eigs per call
        self.svd_counts = defaultdict(list)
        self.pairs = 0
        self.preserve_s = 0.0
        self.sample_s = 0.0
        self.draws = 0
        self.mc_s = 0.0
        self.special_in_mc_s = 0.0

    # ---------------------------------------------------------- spans

    def _open(self):
        frame = [0.0, 0.0, self.eigs, self.svds, self.self_s["special"]]
        self._stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def _close(self, frame, layer):
        dur = perf_counter() - frame[0]
        self._stack.pop()
        self.self_s[layer] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def begin(self):
        """Open the span of one public call made by the benchmark."""
        self._seen.clear()
        self._open()

    def end(self):
        frame = self._stack[-1]
        self.op_s += self._close(frame, "harness")
        self.ops += 1

    def _wrap(self, layer, name, fn, on_exit=None):
        tracer = self

        def span(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = tracer._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = tracer._close(frame, layer)
                if on_exit is not None:
                    on_exit(frame, dur, args, kwargs, result)

        span.__wrapped__ = fn
        span.__name__ = name
        return span

    # ------------------------------------------------------ recorders

    def _linalg_hook(self, func):
        def on_exit(frame, dur, args, kwargs, result):
            self.flops += est_flops(func, args, kwargs)
            if func == "svd":
                self.svds += 1
            if func in _EIG_FUNCS:
                self.eigs += 1
                key = _matrix_key(args[0])
                neg = _matrix_key(-np.asarray(args[0], dtype=float))
                if key in self._seen or neg in self._seen:
                    self.repeats += 1
                self._seen.add(key)
        return on_exit

    def _record(self, name, frame, dur, svds=False):
        self.durations[name].append(dur)
        self.eig_counts[name].append(self.eigs - frame[2])
        if svds:
            self.svd_counts[name].append(self.svds - frame[3])

    def _verdict_hook(self, route_of):
        def on_exit(frame, dur, args, kwargs, result):
            if result is None:
                return
            route = route_of(args, kwargs)
            outcome = "holds" if result.holds else "fails"
            self._record(f"{route}.{outcome}", frame, dur,
                         svds=route == "minus_image")
        return on_exit

    def _named_hook(self, name):
        def on_exit(frame, dur, args, kwargs, result):
            if result is not None:
                self._record(name, frame, dur)
        return on_exit

    def _hooks(self, module, name):
        """Extra recording for the calls the per-layer metrics name."""
        if module == "orders":
            if name == "lowner_leq":
                return self._verdict_hook(lambda a, k: "lowner")
            if name == "minus_leq":
                def minus_route(a, k):
                    method = k.get("method", a[2] if len(a) > 2 else "rank")
                    return "minus_" + getattr(method, "value", method)
                return self._verdict_hook(minus_route)
            if name == "star_family_leq":
                return self._verdict_hook(lambda a, k: "star")
        if module == "canonical" and name in ("sim_congruence", "inertia"):
            return self._named_hook(name)
        if module == "linmodels" and name in ("model_compare", "blue_check",
                                              "qform_rank_criterion"):
            return self._named_hook(name)
        if module == "preservers" and name == "fit_congruence":
            return self._named_hook(name)
        if module == "preservers" and name == "preserves_order":
            def preserves(frame, dur, args, kwargs, result):
                if result is not None:
                    self.pairs += result.trials
                    self.preserve_s += dur
            return preserves
        if module == "preservers" and name == "sample_pair":
            def sample(frame, dur, args, kwargs, result):
                self.sample_s += dur
            return sample
        if module == "linmodels" and name == "mc_quadratic_forms":
            def mc(frame, dur, args, kwargs, result):
                if result is not None:
                    self.draws += result.n_samples
                    self.mc_s += dur
                    # Self time, so chi2_cdf calling gammainc_lower_reg
                    # is not counted twice.
                    self.special_in_mc_s += self.self_s["special"] - frame[4]
            return mc
        return None

    # ------------------------------------------------------- patching

    def install(self, package):
        """Patch the layer modules of `package` and numpy.linalg."""
        modules = [package] + [getattr(package, name) for name in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(layer, name, obj,
                                                   self._hooks(layer, name))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, name, wrappers[id(obj)])
        numkernel = package.numkernel
        for cls in (numkernel.SymMatrix, numkernel.PsdMatrix):
            self._patch(cls, "__init__",
                        self._wrap("numkernel", cls.__name__, cls.__init__,
                                   self._construction_hook(cls)))
        for func in _LINALG_FUNCS:
            self._patch(np.linalg, func,
                        self._wrap("linalg", func, getattr(np.linalg, func),
                                   self._linalg_hook(func)))

    def _construction_hook(self, cls):
        def on_exit(frame, dur, args, kwargs, result):
            # PsdMatrix.__init__ runs SymMatrix.__init__ on the same
            # object; count the object once.
            if type(args[0]) is cls:
                self.constructions += 1
        return on_exit

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -------------------------------------------------------- metrics

    def metrics(self):
        """Per-layer numbers by the names BENCHMARK.json lists.

        A layer the workload never reaches reads 0.  Timings are in the
        units their names carry; shares are of the time spent in public
        calls made by the benchmark.
        """
        ops = max(self.ops, 1)
        op_s = self.op_s or float("inf")

        def p50_us(name):
            d = self.durations.get(name)
            return float(np.median(d)) * 1e6 if d else 0.0

        def mean(counts):
            return float(np.mean(counts)) if counts else 0.0

        out = {
            "linalg.eig_calls_per_op": self.eigs / ops,
            "linalg.repeat_ratio": self.repeats / self.eigs if self.eigs else 0.0,
            "linalg.est_mflop_per_op": self.flops / ops / 1e6,
            "linalg.self_share": self.self_s["linalg"] / op_s,
            "numkernel.self_share": self.self_s["numkernel"] / op_s,
            "numkernel.symmatrix_per_op": self.constructions / ops,
            "rng.self_share": self.self_s["rng"] / op_s,
            "preservers.pairs_per_s": self.pairs / self.preserve_s if self.preserve_s else 0.0,
            "preservers.sample_share": self.sample_s / self.preserve_s if self.preserve_s else 0.0,
            "linmodels.mc_draws_per_s": self.draws / self.mc_s if self.mc_s else 0.0,
            "special.share_of_mc": self.special_in_mc_s / self.mc_s if self.mc_s else 0.0,
        }
        holds, fails = [], []
        for route in ORDER_OPS:
            for outcome in ("holds", "fails"):
                name = f"{route}.{outcome}"
                out[f"orders.{name}.p50_us"] = p50_us(name)
                out[f"linalg.eigs.{name}"] = mean(self.eig_counts.get(name))
                (holds if outcome == "holds" else fails).extend(
                    self.durations.get(name, ()))
        for outcome in ("holds", "fails"):
            name = f"minus_image.{outcome}"
            out[f"linalg.svds.{name}"] = mean(self.svd_counts.get(name))
        out["orders.fails_to_holds"] = (
            float(np.median(fails) / np.median(holds)) if holds and fails else 0.0)
        for name in ("sim_congruence", "inertia"):
            out[f"canonical.{name}.p50_us"] = p50_us(name)
            out[f"linalg.eigs.{name}"] = mean(self.eig_counts.get(name))
        out["preservers.fit_congruence.p50_us"] = p50_us("fit_congruence")
        for name in ("model_compare", "blue_check", "qform_rank_criterion"):
            out[f"linmodels.{name}.p50_us"] = p50_us(name)
        return out
