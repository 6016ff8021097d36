"""Benchmark of the certified reparametrization, `qcreparam reparam`.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from `src/`.  One
process generates the workload's seeded map pool (see `workloads.py`), then
runs each map through the user's path, `qcreparam reparam` called in-process
through `qcreparam.cli.main`, as a closed loop with one client, and checks
every result outside the timed region.

--trace 0 cycles through the pool until --seconds have passed (at least one
full pass) and reports the end-to-end metrics.  Between maps it times a
fixed numpy kernel that does not use qcreparam (`reference`), and map times
are reported relative to it, in seconds at the kernel's fastest speed.
--trace 1 runs every pool map once untraced and once traced (see
`spans.py`), runs `audit_cases` on the traced result, and reports the
per-layer metrics: per-map means of self times and counts, plus ratios over
all the run's maps.

Standard output carries one `name = value unit` line per metric, a `# env`
line with the seed and an environment fingerprint, and as its last line the
JSON result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# everything a fresh process imports before its first map, the lazy scipy
# imports of the pipeline included
IMPORTS = ("import numpy, scipy, qcreparam, qcreparam.cli; "
           "from scipy.signal import fftconvolve; "
           "from scipy.spatial import cKDTree, ConvexHull")

E2E_UNITS = {"setup_s": "s", "map_norm_s.p50": "s", "peak_rss_mb": "MB",
             "excess_ratio.max": "ratio"}
# the fastest time of `reference` on one vCPU of a 2.0 GHz Xeon (Python 3.11,
# numpy 2.4, one BLAS thread); it fixes the scale of `map_norm_s.p50`
REFERENCE_S = 0.0065
COUNT_METRICS = (
    "cli.bytes_written", "reparam.delta_tries", "reparam.threshold_tries",
    "reparam.eta_tries", "field.stencil_evals", "field.ellipse_fields",
    "field.composed_nodes", "field.distinct_cell_share",
    "seminorm.ellipse_calls", "seminorm.gauge_points",
    "beltrami.solver_iterations", "beltrami.solver_nodes",
    "beltrami.newton_nodes")
DETAIL_KEYS = ("map_s", "seminorm.ellipse_calls", "reparam.delta_tries",
               "beltrami.solver_iterations", "field.distinct_cell_share")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "qcreparam", "__init__.py")):
        sys.exit(f"error: no qcreparam sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    from scipy.signal import fftconvolve  # noqa: F401
    from scipy.spatial import ConvexHull, cKDTree  # noqa: F401
    import qcreparam.cli  # noqa: F401


def fingerprint(seed):
    import numpy
    import scipy
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


# -- set-up ---------------------------------------------------------------------

def import_probe():
    """Wall time of a fresh interpreter doing the benchmark's imports."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {IMPORTS}"],
                   check=True, cwd=ROOT)
    return time.perf_counter() - t


def setup(workload, seed, workdir):
    """Generate the pool SETUP_REPEATS times; returns (paths, setup seconds).

    One set-up is a fresh process's imports plus the seeded generation with
    its map files written; the median over the repeats is reported.
    """
    times = []
    for r in range(SETUP_REPEATS):
        probe = import_probe()
        t = time.perf_counter()
        paths = workload.generate(seed, os.path.join(workdir, f"maps{r}"))
        times.append(probe + time.perf_counter() - t)
    return paths, statistics.median(times)


# -- host speed reference -------------------------------------------------------

_REF = {}


def reference():
    """Wall time of a fixed numpy kernel (matmul, sin, FFT) that does not use
    qcreparam.

    On a shared host a core's speed changes by up to 2x within seconds, and
    by 40 % between runs minutes apart.  The program and this kernel slow
    down together, so a map's time over the kernel's time around it is
    steady where the map's wall time alone is not.
    """
    import numpy as np

    if not _REF:
        rng = np.random.default_rng(0)
        _REF.update(b=rng.normal(size=(100, 100)), a=rng.normal(size=20000))
    a, b = _REF["a"], _REF["b"]
    t = time.perf_counter()
    total = 0.0
    for _ in range(16):
        total += float((b @ b).sum()) + float(np.sin(a).sum()) + float(np.abs(np.fft.rfft2(b)).sum())
    return time.perf_counter() - t


# -- one map through the user's path --------------------------------------------

class MapCheck:
    """Outcome of one `reparam` run, checked outside the timed region."""

    def __init__(self, code, outdir, error=None):
        self.report = b""
        self.excess = None
        self.problems = []
        if error is not None:
            self.problems.append(f"raised {error}")
            return
        if code != 0:
            self.problems.append(f"exit code {code}")
        try:
            with open(os.path.join(outdir, "report.txt"), "rb") as fh:
                self.report = fh.read()
        except OSError as exc:
            self.problems.append(f"no report: {exc}")
            return
        values, slacks, status = parse_report(self.report.decode())
        if status != "ok":
            self.problems.append(f"status {status}")
        bad = [name for name, slack in slacks.items() if not slack >= 0]
        if bad:
            self.problems.append(f"negative slack: {','.join(bad)}")
        try:
            self.excess = ((values["energy_after"] - values["area_before"])
                           / values["epsilon"])
        except KeyError as exc:
            self.problems.append(f"report lacks {exc}")

    @property
    def ok(self):
        return not self.problems


def parse_report(text):
    values, slacks, status = {}, {}, None
    for line in text.splitlines():
        if line.startswith("status = "):
            status = line[len("status = "):]
        elif " : lhs = " in line:
            name, rest = line.split(" : ", 1)
            slacks[name] = float(rest.rsplit("slack = ", 1)[1])
        elif " = " in line:
            key, val = line.split(" = ", 1)
            try:
                values[key] = float(val)
            except ValueError:
                pass
    return values, slacks, status


def run_map(cli_main, path, outdir):
    """One `qcreparam reparam` call; returns (seconds, MapCheck)."""
    from workloads import EPSILON

    argv = ["reparam", "--input", path, "--epsilon", format(EPSILON, ".17g"),
            "--outdir", outdir]
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(outdir, "report.txt"))     # never check a stale one
    error = None
    code = None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception as exc:  # a failing map is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
    return dt, MapCheck(code, outdir, error)


def output_bytes(outdir):
    return sum(os.path.getsize(os.path.join(outdir, f))
               for f in ("report.txt", "phi.qcmap", "omega_boundary.csv")
               if os.path.exists(os.path.join(outdir, f)))


# -- the two modes ----------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_report = {}

    def record(self, mid, check, reference=None):
        """Count one run of map `mid`; compare its report with earlier runs."""
        self.attempted += 1
        first = self.first_report.setdefault(mid, check.report)
        if check.ok and check.report != first:
            check.problems.append("report differs from the first run of this map")
        if check.ok and reference is not None and check.report != reference:
            check.problems.append("traced report differs from the untraced one")
        if not check.ok:
            self.failed += 1
            print(f"# map {mid} failed: {'; '.join(check.problems)}", file=sys.stderr)


def run_untraced(paths, seconds, workdir, tally):
    """Closed loop over the pool until `seconds` pass and every map ran once.

    `reference` runs before the first map and after every map.  A run's
    relative time is its wall time over the mean of the two reference times
    around it; a map's relative time is the median over its runs, and
    `map_norm_s.p50` is the median over the pool times REFERENCE_S.
    `peak_rss_mb` is read after the first pass: later passes do the same
    work, but after some dozens of maps the allocator's heap may grow by a
    step of ~45 MB, so a reading at the end would depend on how many passes
    the host's speed allowed.  Returns the end-to-end metrics and the
    per-map details.
    """
    from qcreparam import cli

    wall = [[] for _ in paths]
    rel = [[] for _ in paths]
    excess = {}
    ref = reference()
    start = time.perf_counter()
    k = 0
    while k < len(paths) or time.perf_counter() - start < seconds:
        mid = k % len(paths)
        dt, check = run_map(cli.main, paths[mid], os.path.join(workdir, f"out{mid}"))
        ref_after = reference()
        tally.record(mid, check)
        if check.ok:
            wall[mid].append(dt)
            rel[mid].append(2.0 * dt / (ref + ref_after))
            excess[mid] = check.excess
        ref = ref_after
        k += 1
        if k == len(paths):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rel_map = [statistics.median(r) for r in rel if r]
    best = [min(t) for t in wall if t]
    metrics = {
        # a run where no map passed is marked incorrect; its values are moot
        "map_norm_s.p50": REFERENCE_S * statistics.median(rel_map) if rel_map else 0.0,
        "excess_ratio.max": max(excess.values()) if excess else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"runs": k,
               "peak_rss_mb.end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "map_s.p50": statistics.median(best) if best else 0.0,
               "maps_per_s": len(best) / sum(best) if best else 0.0,
               "map_s_per_map": [round(min(t), 4) if t else None for t in wall],
               "map_norm_s_per_map": [round(REFERENCE_S * statistics.median(r), 4)
                                      if r else None for r in rel],
               "repeats_per_map": [len(t) for t in wall],
               "excess_ratio_per_map": [round(excess[m], 6) if m in excess else None
                                        for m in range(len(paths))]}
    return metrics, details


def run_traced(paths, workdir, tally, seed, trace_path):
    """Each pool map untraced then traced, then audited; per-layer metrics.

    The first map runs once more before them, so that neither side pays the
    process's first call.  `trace.overhead_frac` compares the two sides'
    times relative to `reference`, timed around each run, since single wall
    times on a shared host differ by more than the tracing costs.
    """
    import numpy as np

    import spans as tr
    from qcreparam import cli, reparam

    tracer = tr.Tracer()
    per_map = []
    untraced_rel = traced_rel = 0.0
    _, warm = run_map(cli.main, paths[0], os.path.join(workdir, "out0"))
    tally.record(0, warm)
    for mid, path in enumerate(paths):
        outdir = os.path.join(workdir, f"out{mid}")
        ref_before = reference()
        dt, plain = run_map(cli.main, path, outdir)
        ref_between = reference()
        tally.record(mid, plain)
        first = len(tracer.spans)
        with tracer:
            with tracer.root(tr.MAP_SPAN, mid):
                _, check = run_map(cli.main, path, outdir)
        last = len(tracer.spans)
        ref_after = reference()
        result = tracer.noted("epsilon_conformal", first)
        if check.ok and result is not None:
            phi, _, report = result
            try:
                with tracer.root(tr.AUDIT_SPAN, mid):
                    reparam.audit_cases(report, phi, np.random.default_rng(seed), num=64)
            except AssertionError as exc:
                check.problems.append(f"audit_cases failed: {exc}")
        tally.record(mid, check, reference=plain.report)
        if check.ok:
            layers = tr.map_layers(tracer.spans, first, last, output_bytes(outdir))
            audits = [r for r in tracer.spans[last:] if r[0] == tr.AUDIT_SPAN]
            layers["reparam.audit_cases_s"] = sum(r[2] - r[1] for r in audits)
            per_map.append(layers)
            untraced_rel += 2.0 * dt / (ref_before + ref_between)
            traced_rel += 2.0 * layers["map_s"] / (ref_between + ref_after)
        tracer.release(first)
    tracer.dump(trace_path)
    details = {"per_map": [{k: round(m.get(k, 0.0), 4) for k in DETAIL_KEYS} for m in per_map],
               "spans": os.path.relpath(trace_path, ROOT)}
    return summarize_layers(per_map, traced_rel, untraced_rel), details


def summarize_layers(per_map, traced_rel, untraced_rel):
    """Per-map means of the layer metrics, ratios of the means, overhead."""
    if not per_map:
        return {}
    names = sorted(set().union(*per_map) | set(COUNT_METRICS))
    mean = {k: sum(m.get(k, 0.0) for m in per_map) / len(per_map) for k in names}

    def ratio(num, den, scale):
        return scale * mean[num] / mean[den] if mean[den] else 0.0

    mean["seminorm.ellipse_ms_per_call"] = ratio("seminorm.ellipse_s", "seminorm.ellipse_calls", 1e3)
    mean["seminorm.gauge_ns_per_point"] = ratio("seminorm.gauge_s", "seminorm.gauge_points", 1e9)
    mean["beltrami.solve_ms_per_iter"] = ratio("beltrami.solve_s", "beltrami.solver_iterations", 1e3)
    mean["beltrami.invert_us_per_node"] = ratio("beltrami.invert_s", "beltrami.newton_nodes", 1e6)
    mean["beltrami.newton_kept_share"] = ratio("beltrami.newton_kept", "beltrami.newton_nodes", 1.0)
    mean["trace.overhead_frac"] = traced_rel / untraced_rel - 1.0
    mean["trace.map_s"] = mean.pop("map_s")
    del mean["beltrami.newton_kept"]
    return mean


# -- output ------------------------------------------------------------------------

def metric_unit(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    for suffix, unit in (("_ms_per_call", "ms"), ("_ns_per_point", "ns"),
                         ("_ms_per_iter", "ms"), ("_us_per_node", "us"),
                         ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    # one client on one core: with multithreaded BLAS, a matmul waits for its
    # slowest thread, and on a shared machine that doubles the run-to-run
    # spread; a caller may still set these variables
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    import_library()
    from workloads import EPSILON, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workdir = os.path.join(WORK, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        paths, setup_s = setup(workload, args.seed, workdir)
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{workload.name}-s{args.seed}.json")
            metrics, details = run_traced(paths, workdir, tally, args.seed, trace_path)
        else:
            metrics, details = run_untraced(paths, args.seconds, workdir, tally)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = fingerprint(args.seed)
    env.update(workload=workload.name, n=workload.n, target=workload.target,
               pool=len(paths), epsilon=EPSILON, trace=args.trace,
               fail_frac=tally.failed / max(tally.attempted, 1), **details)
    print("# env " + json.dumps(env, sort_keys=True))
    out = {}
    for name in sorted(metrics):
        unit = metric_unit(name)
        print(f"{name} = {metrics[name]:.6g} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    # printed, but no metric: fail_frac is 0 on every workload; the wall
    # times follow the host's speed more than the program's (see `reference`)
    print(f"fail_frac = {env['fail_frac']:.6g} ratio")
    if "maps_per_s" in env:
        print(f"map_s.p50 = {env['map_s.p50']:.6g} s (wall, fastest run of each map)")
        print(f"maps_per_s = {env['maps_per_s']:.6g} maps/s")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
