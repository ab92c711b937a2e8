"""Benchmark of ``wroncrit``: one workload, one seed, a fixed run length.

    python3 bench/run.py --workload verify --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  One
process runs the operations of a workload back to back (a closed loop with a
single caller), in whole passes over the workload's inputs until
``--seconds`` have gone by, and checks every output against the oracles in
``oracles.py``.  The last line printed is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Spans of a traced run are written to ``bench/out/``.  The end-to-end times
are scaled to a reference speed of the machine by a calibration loop timed
next to each measurement; see ``calibrate``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# BLAS threads are fixed before numpy is loaded: at most the usable cores,
# and at most two, so that runs on different machines stay comparable
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402

SETUP_REPS = 3
IMPORT_REPS = 5
# the reference speed: about the calibration loop's median time on the host that
# set the bounds (a shared 2-core x86-64 VM, Python 3.11.7, numpy 2.4.6)
CAL_NOMINAL_S = 0.010
FAULT_OF_CHECK = (  # the check that names each fault of the ledger
    ("duplicate_y", "F1"),
    ("admissibility_margin", "F2"),
    ("roots_of_unity_orbit", "F3"),
)
WORKLOAD_NAMES = ("verify", "exact")


def import_program():
    """Import numpy and wroncrit from this checkout; exit 2 if it has none."""
    if not os.path.isfile(os.path.join(SRC, "wroncrit", "__init__.py")):
        print(f"error: no wroncrit sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401

    import wroncrit
    import wroncrit.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.dirname(os.path.abspath(wroncrit.__file__))) != SRC:
        print(f"error: wroncrit was imported from {wroncrit.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return wroncrit


def blas_threads_in_use() -> str:
    """Thread count OpenBLAS reports, when numpy bundles a library we can ask."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(libdir, "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def make_workload(name: str, workdir: str):
    import workloads as W

    if name == "verify":
        return W.VerifyWorkload(lambda seed: W.generic_cases(seed) + W.degenerate_cases(seed),
                                workdir)
    return W.ExactWorkload(lambda seed: W.exact_cases(seed) + W.numberfield_cases(seed))


class Ledger:
    """Attempted and failed operations, and the checks each failure broke."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_case: dict[str, tuple[int, tuple[str, ...]]] = {}

    def record(self, name: str, broken) -> None:
        self.attempted += 1
        if broken:
            self.failed += 1
            count, _ = self.by_case.get(name, (0, ()))
            self.by_case[name] = (count + 1, tuple(broken))

    def lines(self) -> list[str]:
        out = [f"ledger: attempted {self.attempted}, failed {self.failed}"]
        for name, (count, broken) in sorted(self.by_case.items()):
            faults = [f for check, f in FAULT_OF_CHECK if check in broken] or ["unattributed"]
            out.append(f"  failed {name} x{count}: {', '.join(broken)} -> {'+'.join(faults)}")
        return out


def calibrate() -> float:
    """Wall time of a fixed loop that does not touch ``wroncrit``.

    On a shared host the speed of a core drifts by 2x and more over seconds
    to minutes, as other tenants come and go, and the drift moves this loop
    and the operations alike.  An operation's time multiplied by
    CAL_NOMINAL_S over this loop's time, measured just before and just after
    it, is the time it would have taken at the reference speed.  The loop
    mixes the two kinds of work the workloads do: Fraction arithmetic and
    small batched numpy linear algebra.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    J = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(i, 2 * i + 1)
    x = J
    for _ in range(8):
        x = numpy.linalg.pinv(x) + 1e-3 * J
    return time.perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at the reference speed, from the loop times around them."""
    return seconds * CAL_NOMINAL_S / ((cal_before + cal_after) / 2)


def at_reference_speed(measure) -> float:
    """The seconds ``measure()`` returns, scaled to the reference speed."""
    before = calibrate()
    seconds = measure()
    return scaled(seconds, before, calibrate())


# a fresh interpreter with numpy loaded, as a user's would be, times the
# import of the program at the reference speed
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import numpy
from run import at_reference_speed, calibrate

def load():
    t0 = time.perf_counter()
    import wroncrit, wroncrit.cli
    return time.perf_counter() - t0

calibrate()
print(at_reference_speed(load))
"""


def import_seconds() -> float:
    """Import time of ``wroncrit`` in a child interpreter, at the reference speed."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, BENCH_DIR, SRC],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def run_passes(wl, cases, wc, seconds: float, ledger: Ledger, stats: dict, tracer=None):
    """Whole passes over ``cases`` until ``seconds`` are spent.

    Returns the calibrated operation times of each case (one per pass), see
    ``calibrate``, and the number of passes.
    """
    times = {case.name: [] for case in cases}
    passes = 0
    t_end = time.perf_counter() + seconds
    cal = calibrate()
    while True:
        for case in cases:
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(case, wc)
                broken = None
            except Exception as e:  # a program failure is a failed operation, not a crash
                broken = [f"raised:{type(e).__name__}"]
            dt = time.perf_counter() - t0
            cal_after = calibrate()
            times[case.name].append(scaled(dt, cal, cal_after))
            cal = cal_after
            ledger.record(case.name, broken if broken is not None
                          else wl.check(case, out, stats))
        passes += 1
        if time.perf_counter() >= t_end:
            return times, passes


def median_times(times: dict) -> list[float]:
    """Each case's median calibrated operation time over the run."""
    return [statistics.median(t) for t in times.values()]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wc = import_program()
    import numpy

    import oracles
    import workloads as W
    from tracing import COUNTS, SPAN_NAMES, Tracer

    print(f"env: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"blas threads {BLAS_THREADS} set, {blas_threads_in_use()} in use, "
          f"{len(os.sched_getaffinity(0))} usable cores, one process, closed loop")
    bad = oracles.self_test(W.SL2_LADDER)
    for line in bad:
        print(f"oracle self-test: {line}")

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        wl = make_workload(args.workload, workdir)
        calibrate()  # warm-up
        made = []

        def make_inputs() -> float:
            t1 = time.perf_counter()
            made.append(wl.setup(args.seed, wc))
            return time.perf_counter() - t1

        import_times = [import_seconds() for _ in range(IMPORT_REPS)]
        setup_times = [at_reference_speed(make_inputs) for _ in range(SETUP_REPS)]
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        cases = made[-1]
        ledger = Ledger()
        stats = {"reported": 0, "distinct_verified": 0, "orbits_found": 0}

        if not args.trace:
            times, passes = run_passes(wl, cases, wc, args.seconds, ledger, stats)
            flat = [t for ts in times.values() for t in ts]
            med = median_times(times)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "ops_per_s": metric(len(med) / sum(med), "1/s"),
                "op_s_p50": metric(statistics.median(med), "s"),
                "orbits_found": metric(stats["orbits_found"] / passes, "count"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            if len(flat) >= 100:
                p90 = statistics.quantiles(flat, n=10)[-1]
                print(f"op_s_p90: {p90:.6f} s over {len(flat)} operations")
            print(f"operations: {len(flat)} in {passes} passes of {len(cases)}")
        else:
            # untraced and traced passes alternate, so that both see the same
            # state of the machine; their ratio is the tracing overhead
            tracer = Tracer(wc)
            plain = {case.name: [] for case in cases}
            traced = {case.name: [] for case in cases}
            passes = 0
            t_end = time.perf_counter() + args.seconds
            n_setup = None
            while passes == 0 or time.perf_counter() < t_end:
                for name, ts in run_passes(wl, cases, wc, 0, ledger, stats)[0].items():
                    plain[name] += ts
                tracer.install()
                try:
                    if n_setup is None:
                        wl.setup(args.seed, wc)  # spans of one loading of the inputs
                        n_setup = len(tracer.start)
                    for name, ts in run_passes(wl, cases, wc, 0, ledger, stats, tracer)[0].items():
                        traced[name] += ts
                finally:
                    tracer.uninstall()
                passes += 1
            tracer.save(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.npz"))
            metrics = per_layer(tracer, n_setup, passes, stats, SPAN_NAMES, COUNTS)
            overhead = sum(median_times(traced)) / sum(median_times(plain)) - 1
            metrics["trace.overhead"] = metric(overhead, "ratio")
            print(f"operations: {passes} passes untraced, {passes} traced, "
                  f"{len(tracer.start)} spans")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in ledger.lines():
        print(line)
    print(json.dumps({"correct": not bad, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def per_layer(tracer, n_setup: int, passes: int, stats: dict, span_names, count_names) -> dict:
    """Per pass of the inputs: one traced loading plus 1/passes of the traced passes."""
    setup = tracer.self_times(0, n_setup)
    ops = tracer.self_times(n_setup, len(tracer.start))
    out = {}
    for name in span_names:
        calls = setup.get(name, (0, 0.0))[0] + ops.get(name, (0, 0.0))[0] / passes
        own = setup.get(name, (0, 0.0))[1] + ops.get(name, (0, 0.0))[1] / passes
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_s"] = metric(own, "s")
    c = tracer.counts
    values = {
        "bethe.start_yield": (c["hits"] / c["starts"] if c["starts"] else 0.0, "ratio"),
        "bethe.orbit_yield": (stats["distinct_verified"] / stats["reported"]
                              if stats["reported"] else 0.0, "ratio"),
        "multiplicity.local_multiplicity.not_isolated": (c["not_isolated"] / passes, "count"),
        "multiplicity.local_multiplicity.not_a_solution": (c["not_a_solution"] / passes, "count"),
        "multiplicity.cleared_terms": (c["cleared_terms"] / passes, "count"),
        "wronskian_eq.ladder_tries": (c["ladder_tries"] / passes, "count"),
    }
    for name in count_names:
        out[name] = metric(*values[name])
    return out


if __name__ == "__main__":
    sys.exit(main())
