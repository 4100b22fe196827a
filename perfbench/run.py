"""psdorder benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdicts_small --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  Wrong answers are
listed on stderr, one line per case.  With --trace 1 the run also puts
the defect probe (the cases that expose known psdorder defects) to
psdorder once and counts its wrong answers.  `--workload all` runs every
workload both ways and prints a table of every metric instead.
perfbench/README.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# One BLAS thread in this process and in every child it starts.  Set before
# numpy is imported.
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

# Seconds one pass over one part of each corpus takes on the reference
# machine (2-vCPU Intel Xeon, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31).  A run makes
# --seconds / PASS_SECONDS whole passes, so it does the same work on any
# machine and takes about --seconds on that one.
PASS_SECONDS = {"verdicts_small": 0.2, "sweeps": 0.22}
# p95 needs at least 10 samples beyond it.
MIN_CALLS = 200
MIN_PASSES = 4
CLI_CHILDREN = 11
CHILD_TIMEOUT_S = 60


def _fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    return code


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# ------------------------------------------------------------ measuring


class Measurement:
    """Call latencies of every pass, which part each pass covered, and
    wrong answers."""

    def __init__(self):
        self.parts = []  # part index of each pass
        self.latencies = []  # one list of seconds per pass
        self.attempted = 0
        self.failed = 0
        self.wrong = {}  # case index -> "name: reason", first seen

    def fastest(self):
        """Each case's fastest repetition (more if needed for MIN_CALLS
        samples in all): the call rate they imply and the pooled
        latencies.  Every case contributes the same number of samples, so
        the op mix behind the percentiles is the corpus's own.

        On a shared 2-vCPU Xeon VM each vCPU flips between a fast and a
        slow state (about 0.9 against 1.35 ms for one 100x100 eigh) every
        0.1 s or so, and the share of time it is fast drifts from about a
        third to under a tenth over minutes.  Any mean, median or upper
        share of the repetitions tracks that share.  Over five 40-second
        runs on one CPU, the rate's spread (interquartile range over
        median) was 0.07 for each case's fastest repetition, 0.11 for its
        fastest tenth and 0.21 for its fastest half on verdicts_small, and
        0.13, 0.22 and 0.32 on sweeps.  The two vCPUs are fast at largely
        different times, so `measure` moves the process from one to the
        other between rounds: over five sweeps runs interleaved with five
        that stayed put, the spread of the fastest repetition's rate was
        0.07 against 0.19, and of p95 0.08 against 0.27.
        """
        runs = {}
        for part, latencies in zip(self.parts, self.latencies):
            runs.setdefault(part, []).append(latencies)
        cases = sum(len(r[0]) for r in runs.values())
        keep = math.ceil(MIN_CALLS / cases)
        kept = [t for r in runs.values() for per_case in zip(*r)
                for t in sorted(per_case)[:keep]]
        return len(kept) / math.fsum(kept), kept


def measure(parts, calls, passes, tracer=None, on_round=None):
    """Whole passes in a closed loop: one caller, each call issued as soon
    as the previous one returns.  Pass i goes over part i mod len(parts).
    Results are judged after each pass, outside the timed loop.

    Each round of passes (one pass over every part) runs pinned to the
    next CPU this process may use, so every case is repeated on every CPU.
    The CPUs of a shared VM slow down and speed up independently of each
    other; see Measurement.fastest.  `on_round(r)`, if given, runs before
    round r, outside the timed calls.
    """
    import ops

    cpus = sorted(os.sched_getaffinity(0))
    m = Measurement()
    try:
        for i in range(passes):
            if i % len(parts) == 0:
                os.sched_setaffinity(0, {cpus[(i // len(parts)) % len(cpus)]})
                if on_round is not None:
                    on_round(i // len(parts))
            cases, part_calls = parts[i % len(parts)], calls[i % len(parts)]
            outcomes, latencies = [], []
            for call in part_calls:
                t0 = perf_counter()
                if tracer is not None:
                    tracer.begin()
                try:
                    result = call()
                except Exception as exc:  # a raise is a failed call, not a crash
                    result = exc
                if tracer is not None:
                    tracer.end()
                latencies.append(perf_counter() - t0)
                outcomes.append(result)
            m.parts.append(i % len(parts))
            m.latencies.append(latencies)
            for case, result in zip(cases, outcomes):
                if isinstance(result, Exception):
                    why = f"raised {type(result).__name__}: {result}"
                else:
                    try:
                        why = ops.judge(case, result)
                    except Exception as exc:
                        why = f"unreadable result ({type(exc).__name__}: {exc})"
                m.attempted += 1
                if why:
                    m.failed += 1
                    m.wrong.setdefault(case.index, f"{case.name}: {why}")
    finally:
        os.sched_setaffinity(0, cpus)
    return m


def reference_probe(np):
    """Fixed numpy-only work that tracks the machine, not the program."""
    m = np.random.default_rng(12345).standard_normal((200, 200))
    m = m + m.T
    eigh_ms, loop_us = [], []
    for _ in range(9):
        t0 = perf_counter()
        np.linalg.eigh(m)
        eigh_ms.append((perf_counter() - t0) * 1e3)
        t0 = perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        loop_us.append((perf_counter() - t0) * 1e6)
    return {"eigh200_ms": statistics.median(eigh_ms),
            "pyloop_us": statistics.median(loop_us)}


# ------------------------------------------------------------ CLI children


def cli_invocation(case, directory, np):
    """CLI arguments for the first case of a workload, and its verdict."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = case.inputs

    def save(name, matrix):
        path = directory / name
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
        return str(path)

    if case.op == "lowner":
        return (["order", "check", "--relation", "lowner",
                 save("A.csv", inputs["a"]), save("B.csv", inputs["b"])],
                case.expect["holds"])
    if case.op == "preserves_lowner":
        return (["preserver", "verify", "--map",
                 "congruence:" + save("S.csv", inputs["s"]),
                 "--relation", "lowner", "--trials", str(inputs["trials"]),
                 "--seed", str(inputs["seed"]), "--n", str(inputs["n"])],
                True)
    raise ValueError(f"no CLI form for {case.op}")


def _check_child(code, stdout, stderr, holds):
    """Empty when the CLI exited with the code its verdict implies and
    printed that verdict."""
    want = 0 if holds else 1
    if code != want:
        return f"exit code {code}, expected {want}: {stderr[-300:]}"
    try:
        got = json.loads(stdout)["holds"]
    except (ValueError, KeyError, TypeError):
        return f"unreadable verdict {stdout[-300:]!r}"
    return "" if got == holds else f"verdict holds={got}, expected {holds}"


class CliChildren:
    """Fresh interpreters that each run the CLI once through cli_child.py:
    the wall time of each, the import and first-call times each reports,
    and what was wrong with its exit code or verdict."""

    def __init__(self, argv, holds):
        self.argv, self.holds = argv, holds
        self.walls, self.imports, self.calls, self.errors = [], [], [], []

    def run(self):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), *self.argv],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        self.walls.append(perf_counter() - t0)
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.errors.append(f"CLI child failed: {proc.stderr[-300:]}")
            return
        if why := _check_child(report["code"], report["stdout"], proc.stderr, self.holds):
            self.errors.append(why)
        self.imports.append(report["import_s"])
        self.calls.append(report["first_call_ms"])


def run_probe(probe, defects):
    """Each defect-probe case once, untimed: the wrong answers per known
    defect, and one line per wrong case."""
    import ops

    wrong = dict.fromkeys(defects, 0)
    lines = []
    for case in probe:
        try:
            why = ops.judge(case, ops.bind(case)())
        except Exception as exc:
            why = f"raised {type(exc).__name__}: {exc}"
        if why:
            wrong[case.defect] += 1
            lines.append(f"{case.name} ({case.defect}): {why}")
    return wrong, lines


# ------------------------------------------------------------ the record


def git_head():
    """Commit of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_record(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_head": git_head(),
        "pins": PINS,
    }


# ------------------------------------------------------------ one run


def run_one(workload, seed, seconds, trace, spec):
    """Returns (exit code, result dict or None)."""
    if not (SRC / "psdorder" / "__init__.py").is_file():
        return _fail(f"no psdorder sources under {SRC}"), None
    sys.path.insert(0, str(SRC))
    import numpy as np
    import psdorder

    if Path(psdorder.__file__).resolve().parent != (SRC / "psdorder").resolve():
        return _fail(f"psdorder imported from {psdorder.__file__}, not {SRC}"), None
    import corpus
    import ops
    import tracer as tracing

    def everything(built):
        parts, probe = built
        return [case for part in parts for case in part] + probe

    # The first build is only digested, so the run holds one corpus.
    first = corpus.digest(everything(corpus.build(workload, seed)))
    parts, probe = corpus.build(workload, seed)
    cases = everything((parts, probe))
    digest = corpus.digest(cases)
    problems = []
    if digest != first:
        problems.append("corpus differs between two builds from one seed")
    rejected = corpus.verify(cases)
    for name, why in rejected:
        print(f"corpus: {name}: {why}", file=sys.stderr)
    if rejected:
        return _fail(f"numpy rejects {len(rejected)} corpus labels", 3), None

    env = machine_record(np)
    refs = [reference_probe(np)]
    calls = [[ops.bind(c) for c in part] for part in parts]
    # A traced run spends half its seconds untraced and half traced.  Every
    # part gets the same number of passes.
    budget = seconds / 2 if trace else seconds
    passes = max(MIN_PASSES, math.ceil(MIN_CALLS / len(parts[0])),
                 round(budget / PASS_SECONDS[workload]))
    passes = len(parts) * math.ceil(passes / len(parts))
    measure(parts, calls, 1)  # warm-up: caches, lazy imports, first calls
    # The CLI children run one at a time between rounds of the untraced
    # passes, spread over the whole run, so that their median samples the
    # machine over the run rather than over a few seconds of it.
    cli = CliChildren(*cli_invocation(parts[0][0], OUT / "inputs" / f"{workload}-{seed}", np))
    rounds = passes // len(parts)
    due = Counter(j * rounds // CLI_CHILDREN for j in range(CLI_CHILDREN))
    plain = measure(parts, calls, passes,
                    on_round=lambda r: [cli.run() for _ in range(due[r])])
    problems += cli.errors
    runs = [plain]
    defect_lines = []

    if trace:
        tr = tracing.Tracer()
        tr.install(psdorder)
        try:
            traced = measure(parts, calls, passes, tr)
        finally:
            tr.uninstall()
        runs.append(traced)
        wrong, defect_lines = run_probe(probe, corpus.DEFECTS)
        refs.append(reference_probe(np))
        values = tr.metrics()
        values.update({
            "cli.import_s": statistics.median(cli.imports) if cli.imports else 0.0,
            "cli.first_call_ms": statistics.median(cli.calls) if cli.calls else 0.0,
            "trace.overhead_ratio":
                plain.fastest()[0] / traced.fastest()[0],
            "probe.failed_share": sum(wrong.values()) / max(len(probe), 1),
            "env.ref_eigh200_ms": statistics.mean(r["eigh200_ms"] for r in refs),
            "env.ref_pyloop_us": statistics.mean(r["pyloop_us"] for r in refs),
        })
        values.update({f"probe.wrong.{name}": count for name, count in wrong.items()})
        wanted = spec["per_layer"]
    else:
        refs.append(reference_probe(np))
        rate, latencies = plain.fastest()
        # Cut points at 5%, 10%, ..., 95%, interpolated linearly.
        cuts = statistics.quantiles(latencies, n=20, method="inclusive")
        values = {
            "ops_per_s": rate,
            "latency_p50_ms": cuts[9] * 1e3,
            "latency_p95_ms": cuts[18] * 1e3,
            "setup_s": statistics.median(cli.walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]

    timed_wrong = {}
    for r in runs:
        timed_wrong.update(r.wrong)
    for _, wrong_case in sorted(timed_wrong.items()):
        print(f"wrong: {wrong_case}", file=sys.stderr)
    for line in defect_lines:
        print(f"known defect: {line}", file=sys.stderr)
    for why in problems:
        print(f"problem: {why}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not computed: {missing}", 3), None
    failed = sum(r.failed for r in runs)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "passes": passes, "calls_per_pass": len(parts[0]),
              "probe_cases": len(probe), "corpus_sha256": digest, "env": env,
              "reference_probes": refs,
              "pass_seconds": [math.fsum(t) for t in plain.latencies],
              "wrong": timed_wrong, "known_defects": defect_lines,
              "problems": problems, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    print("env: " + json.dumps(env), file=sys.stderr)
    return 0, result


def run_all(seed, seconds, spec):
    """Every workload of BENCHMARK.json, untraced then traced, each run in
    its own process."""
    ok = True
    print(f"{'workload':16} {'metric':36} {'value':>14}  unit")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload:16} trace={trace} exited {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                print(f"{workload:16} {name:36} {m['value']:14.6g}  {m['unit']}")
            print(f"{workload:16} {'correct / attempted / failed':36} "
                  f"{str(result['correct']):>14}  {result['attempted']} / {result['failed']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="verdicts_small, sweeps or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read {spec_path}: {exc}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, spec)
    if args.workload not in PASS_SECONDS:
        return _fail(f"unknown workload {args.workload!r}")
    code, result = run_one(args.workload, args.seed, args.seconds, args.trace, spec)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
