"""End-to-end and per-layer benchmark of the signelim CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze_deep --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
op is `signelim.cli.main(argv)` called in-process with stdout captured, and
the next op starts when the previous one has returned. Inputs are generated
from the seed (see workloads.py); every op's exit code and result digest is
checked against expected.json and every certificate is replayed with
`verify_certificate`, outside the timed region.

Ops run in whole passes over the workload's slots, one input variant per
slot and pass. The pass count comes from --seconds and the workload's
nominal pass cost, never from timing the program, so every run of a given
length times the same ops (see workloads.py). The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  setup_s      median time to import signelim and signelim.cli, over this
               process and fresh child processes started before the first
               pass and after every pass
  wall_s       time for all timed ops of the run, the sum of their latencies
  op_p50_s     median op latency
  op_tail_s    latency of the 11th slowest op, the highest percentile with
               at least 10 samples beyond it (percentile and count printed)
  peak_rss_mb  peak resident memory of this process (ru_maxrss)
failed_frac (failed / attempted) is printed with the others; the result
line carries it as `failed` and `attempted`.

--trace 1 runs the same untraced loop, then traces one more pass on inputs
no untimed or timed op has seen (the slots' traced variant), so caches that
the program keys on its inputs start as cold as for a timed op. It reports
per-layer metrics: for each wrapped entry point M.F, M.F.s (time, outermost
calls), M.F.self_s and M.F.calls, the counters of tracer.py, and
trace.overhead_s, the time the tracer's wrappers spend outside the calls
they wrap, which is what tracing adds to the traced pass. Traced ops are
checked like untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
WORK_ROOT = ROOT / ".perfbench_work"

# One client thread; native libraries must not add threads beyond nproc.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)

# Import timings: this process, then fresh children before the first pass
# and after each pass, so the median covers the whole run; median reported.
SETUP_CHILDREN_BEFORE = 4
SETUP_CHILDREN_PER_PASS = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import signelim, signelim.cli; "
    "print(time.perf_counter() - t)"
)

# Result fields compared per command. Tool metadata (version, backend,
# timing, stats blocks) is left out so that it may change freely.
DIGEST_FIELDS = {
    "analyze": ("reports", "cs_lower", "data_upper", "certificate", "counting_crosscheck"),
    "certify": ("certificate", "verified"),
    "bound": ("bound", "base_point", "collisions"),
}
METADATA_KEYS = frozenset({"version", "backend", "timing_seconds", "stats"})

TAIL_BEYOND = 10


def _strip_metadata(value):
    if isinstance(value, dict):
        return {k: _strip_metadata(v) for k, v in value.items() if k not in METADATA_KEYS}
    if isinstance(value, list):
        return [_strip_metadata(v) for v in value]
    return value


def result_digest(command: str, document: dict) -> str:
    payload = {f: _strip_metadata(document.get(f)) for f in DIGEST_FIELDS[command]}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _certificates(command: str, document: dict) -> list[dict]:
    found = [document.get("certificate")]
    if command == "analyze":
        found += [r.get("certificate") for r in document.get("reports", [])]
    unique = {json.dumps(c, sort_keys=True): c for c in found if c}
    return list(unique.values())


@dataclass
class OpResult:
    slot: str
    variant: int
    latency: float
    exit_code: object
    digest: object
    output_bytes: int
    error: str  # empty when the op is correct


class Runner:
    """Writes inputs, runs ops through the CLI and checks their results."""

    def __init__(self, signelim, workload, workdir: Path, expected, tracer=None):
        self.se = signelim
        self.workload = workload
        self.workdir = workdir
        self.expected = expected
        self.tracer = tracer
        self._ops = {}
        self._replayed = {}
        self._count = 0

    def prepare(self, slot, variant):
        key = (slot.name, variant)
        if key not in self._ops:
            self._ops[key] = workloads.write_inputs(self.workload, slot, variant, self.workdir)
        return self._ops[key]

    def run(self, op) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self._count
            tracer.op_command = op.slot.command
        self._count += 1
        failure = ""
        cli = self.se.cli
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception:  # an op that raises is a failed op; keep going
                code = None
                failure = "raised: " + traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
        text = out.getvalue()
        if tracer is not None and tracer.on:
            tracer.add_output_bytes(len(text.encode("utf-8")))
        digest = None
        if not failure:
            failure, digest = self._check(op, code, text)
        return OpResult(op.slot.name, op.variant, latency, code, digest, len(text), failure)

    def _check(self, op, code, text):
        try:
            document = json.loads(text)
        except ValueError:
            return f"exit {code}, stdout is not one JSON document", None
        digest = result_digest(op.slot.command, document)
        if self.expected is not None:
            recorded = self.expected.get(op.slot.name, [])
            want = recorded[op.variant] if op.variant < len(recorded) else None
            if want is None:
                return "no expected result recorded", digest
            if [code, digest] != want:
                return f"got exit {code} digest {digest[:12]}, expected {want[0]} {want[1][:12]}", digest
        if not self._replay(op, document):
            return "certificate failed replay", digest
        return "", digest

    def _replay(self, op, document) -> bool:
        key = (op.slot.name, op.variant)
        if key not in self._replayed:
            certificates = _certificates(op.slot.command, document)
            ok = True
            if certificates:
                was_on = self.tracer is not None and self.tracer.on
                if was_on:
                    self.tracer.on = False
                try:
                    ok = all(self._verify(op.gate_path, c) for c in certificates)
                finally:
                    if was_on:
                        self.tracer.on = True
            self._replayed[key] = ok
        return self._replayed[key]

    def _verify(self, gate_path, cert: dict) -> bool:
        se = self.se
        expansion = se.expand(se.load_gate(gate_path))
        certificate = se.Certificate(
            base_point=tuple(cert["base_point"]),
            witnesses=tuple(
                (tuple(Fraction(v) for v in w["w"]), se.parse_sign_string(w["total_sign"]))
                for w in cert["witnesses"]
            ),
            n_reduced=cert["n_reduced"],
        )
        return bool(se.verify_certificate(expansion, certificate))


def run_passes(runner, passes, after_pass=None):
    """Closed loop over `passes` (lists of (slot, variant)); OpResults in order.

    Inputs of a pass are written before its first op is timed.
    """
    results = []
    for items in passes:
        ops = [runner.prepare(slot, variant) for slot, variant in items]
        for op in ops:
            results.append(runner.run(op))
        if after_pass is not None:
            after_pass()
    return results


def warm_up(runner, workload):
    """One untimed op on an input that no timed or traced op uses."""
    slot = workloads.slot_named(workload, workload.smoke[0])
    runner.run(runner.prepare(slot, workload.warm_up_variant))


def tail(latencies):
    """(latency, percentile, count) with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(results, setup_samples):
    latencies = [r.latency for r in results]
    tail_value, tail_pct, count = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(latencies), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} imports",
        "wall_s": f"{count} ops",
        "op_p50_s": f"{count} ops",
        "op_tail_s": f"p{tail_pct:.1f} of {count} ops",
        "peak_rss_mb": "ru_maxrss",
    }
    return metrics, notes


def pin_threads():
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def import_in_child() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def import_signelim():
    """Import the checkout's signelim; return (package, import seconds)."""
    if not (SRC / "signelim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no signelim sources under {SRC}")
    import_in_child()  # untimed: compiles bytecode and warms the file cache
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import signelim
    import signelim.cli

    seconds = time.perf_counter() - start
    if Path(signelim.__file__).resolve().parent != (SRC / "signelim").resolve():
        raise SystemExit(f"perfbench: imported signelim from {signelim.__file__}, not {SRC}")
    return signelim, seconds


def environment(signelim) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": signelim.backend_name(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "machine": platform.machine(),
    }


def load_expected(workload_name):
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload_name]


def measure(signelim, workload, seed, seconds, workdir, setup_samples):
    """Warm up, then run the untraced loop: (runner, results).

    Appends the child import timings to `setup_samples`.
    """
    runner = Runner(signelim, workload, workdir, load_expected(workload.name))
    warm_up(runner, workload)
    setup_samples += [import_in_child() for _ in range(SETUP_CHILDREN_BEFORE)]

    def after_pass():
        setup_samples.extend(import_in_child() for _ in range(SETUP_CHILDREN_PER_PASS))

    passes = workloads.schedule(workload, seed, workload.passes(seconds))
    return runner, run_passes(runner, passes, after_pass)


def trace_pass(runner, workload, seed):
    """Run the traced pass under a fresh tracer: (results, tracer)."""
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    tracer.on = True
    try:
        return run_passes(runner, [workloads.traced_pass(workload, seed)]), tracer
    finally:
        tracer.on = False
        tracer.uninstall()


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="signelim CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    signelim, first_import = import_signelim()
    setup_samples = [first_import]
    workload = workloads.WORKLOADS[args.workload]
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(environment(signelim), sort_keys=True))

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner, results = measure(signelim, workload, args.seed, args.seconds, workdir, setup_samples)
        metrics, notes = end_to_end(results, setup_samples)
        traced = trace_pass(runner, workload, args.seed) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    everything = results + (traced[0] if traced is not None else [])
    failed = [r for r in everything if r.error]
    for r in failed[:10]:
        print(f"FAILED {r.slot} variant {r.variant}: {r.error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {_format(value)} {unit} ({notes[name]})")
    print(f"metric failed_frac {len(failed) / len(everything):.6g} ratio ({len(failed)} of {len(everything)} ops)")

    if traced is None:
        reported = metrics
    else:
        traced_results, tracer = traced
        reported = tracer.layer_metrics()
        traced_wall = sum(r.latency for r in traced_results)
        reported["trace.overhead_s"] = (tracer.overhead, "s")
        for name in tracer.absent:
            print(f"layer {name} absent", file=sys.stderr)
        for name in sorted(tracer.broken_counters):
            print(f"counter {name} unavailable", file=sys.stderr)
        shares = sorted(
            ((v / traced_wall, n) for n, (v, u) in reported.items() if n.endswith(".self_s")),
            reverse=True,
        )
        for share, name in shares:
            if share >= 0.005:
                print(f"share {name[: -len('.self_s')]} {share:.3f} of traced wall {traced_wall:.4g} s")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
