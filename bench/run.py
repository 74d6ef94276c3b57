"""Benchmark of the codedcache command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the benchmark exits with status 2 without printing a result
when it is not there.  Scratch files go to ``.bench_work/`` and traces to
``.bench_out/`` at the repository root.

Load shape: a closed loop, one client, one process, no worker threads
(``CODEDCACHE_THREADS`` is removed from the environment).  An op is one
workload's fixed sequence of ``codedcache.cli.main(argv)`` calls.  In
``--trace 0`` each op follows a set-up of its own, and rounds of set-up and
op run back to back while one more round of median length still ends
within S seconds; at least one runs.  Their times are scaled to a reference
host speed (``REF_LOOP_S``).  Every op's stdout
and every file it writes is checked: simulation reports against a report
rendered from closed forms (see ``Simulate``), everything else against
sha256 digests pinned below.  An op fails on a nonzero exit, an exception,
or any mismatch.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with ops traced by ``tracing.Tracer``, then runs one more
traced op under tracemalloc, writes the spans to ``.bench_out/`` and
reports the per-layer metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  README.md lists the
workloads, the metrics and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
import typing
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Optional, Union

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import tracing  # noqa: E402

# The host's speed swings by up to 1.7x within seconds (README.md, Noise).
# Each timed set-up and op is bracketed by passes of a fixed pure-Python
# loop, and its wall time is scaled by REF_LOOP_S over the mean of the two
# loop times around it: the time it would take on a host where one loop
# pass takes REF_LOOP_S.
REF_LOOP_S = 0.04
GF_PAIRS = 10000
GF_REPEATS = 5

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "op_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "gf.add_ns": ("ns", "lower"),
    "gf.mul_ns": ("ns", "lower"),
    "gf.mat_rank_us": ("us", "lower"),
    "codes.check_ccp_s": ("s", "lower"),
    "codes.windows_checked": ("count", "lower"),
    "codes.rank_checks": ("count", "lower"),
    "codes.search_cyclic_generators_s": ("s", "lower"),
    "codes.candidates_examined": ("count", "lower"),
    "codes.divisors_found": ("count", "higher"),
    "codes.divisor_yield": ("ratio", "higher"),
    "analysis.construct_candidate_set_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "design.codeword_matrix_s": ("s", "lower"),
    "design.resolvable_design_s": ("s", "lower"),
    "design.codewords": ("count", "lower"),
    "design.peak_alloc_mib": ("MiB", "lower"),
    "caching.generate_delivery_s": ("s", "lower"),
    "caching.equations": ("count", "lower"),
    "caching.simulate_s": ("s", "lower"),
    "caching.load_bytes": ("bytes", "lower"),
    "caching.equation_subfile_matrix_s": ("s", "lower"),
    "caching.transpose_s": ("s", "lower"),
    "caching.verify_lemma4_s": ("s", "lower"),
    "caching.scheme_from_eq_subfile_s": ("s", "lower"),
    "caching.simulate_matrix_s": ("s", "lower"),
    "caching.matrix_cells": ("count", "lower"),
    "caching.matrix_nonzeros": ("count", "lower"),
    "caching.matrix_density": ("ratio", "higher"),
    "caching.peak_alloc_mib": ("MiB", "lower"),
    "schemefile.load_scheme_s": ("s", "lower"),
    "schemefile.codeword_digest_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cli:
    """One CLI call whose stdout and written files have pinned sha256s."""

    argv: tuple[str, ...]
    stdout: str
    files: tuple[tuple[str, str], ...] = ()

    def args(self, seed: int) -> list[str]:
        return list(self.argv)

    def check(self, out: str, seed: int) -> list[str]:
        errors = []
        if _sha(out.encode()) != self.stdout:
            errors.append(f"{self.argv[0]}: stdout sha256 {_sha(out.encode())}")
        for name, digest in self.files:
            path = Path(name)
            got = _sha(path.read_bytes()) if path.is_file() else "missing"
            if got != digest:
                errors.append(f"{self.argv[0]}: {name} sha256 {got}")
        return errors

    def equations(self) -> int:
        return 0


@dataclass(frozen=True)
class Simulate:
    """``simulate SCHEME --files F --bytes B --seed SEED [--alpha A]
    [--transpose]`` on a generator-matrix scheme file with uniform-random
    demands.  The expected report is rendered from closed forms: every
    user recovers exactly its missing subfiles, F_s = q^k z, Delta =
    q^k (q-1) z n / alpha, and the transposed scheme swaps the two."""

    scheme: str
    files: int
    bytes: int
    alpha: Optional[int] = None
    transpose: bool = False

    def args(self, seed: int) -> list[str]:
        argv = ["simulate", self.scheme, "--files", str(self.files),
                "--bytes", str(self.bytes), "--seed", str(seed)]
        if self.alpha is not None:
            argv += ["--alpha", str(self.alpha)]
        if self.transpose:
            argv.append("--transpose")
        return argv

    def _shape(self) -> tuple[int, int, int, int, int]:
        """(users, q, alpha, F_s, Delta) of the base scheme."""
        doc = json.loads(Path(self.scheme).read_text())
        rows = doc["source"]["rows"]
        q, k, n = doc["domain"]["q"], len(rows), len(rows[0])
        alpha = self.alpha if self.alpha is not None else k + 1
        z = alpha // math.gcd(n, alpha)
        return n * q, q, alpha, q ** k * z, q ** k * (q - 1) * z * n // alpha

    def equations(self) -> int:
        """Equations broadcast and decoded by this call."""
        _, _, _, f_s, delta = self._shape()
        return f_s if self.transpose else delta

    def expected(self, seed: int) -> str:
        users, q, alpha, f_s, delta = self._shape()
        if self.transpose:
            # users miss the base equations they take part in: each has
            # alpha participants and every user takes part equally often
            missing = delta * alpha // users
            f_s, delta = delta, f_s
        else:
            missing = f_s - f_s // q  # a user caches 1/q of the subfiles
        demands = _uniform_demands(seed, users, self.files)
        report = {
            "format": "codedcache-simulation",
            "version": 1,
            "transposed": self.transpose,
            "num_users": users,
            "num_files": self.files,
            "subfile_bytes": self.bytes,
            "F_s": f_s,
            "delta": delta,
            "rate": str(Fraction(delta, f_s)),
            "load_bytes": delta * self.bytes,
            "seed": seed,
            "demands": demands,
            "all_ok": True,
            "users": [{"user": u, "demanded": demands[u], "recovered": missing,
                       "complete": True, "exact": True} for u in range(users)],
        }
        return json.dumps(report, indent=2) + "\n"

    def check(self, out: str, seed: int) -> list[str]:
        if out != self.expected(seed):
            return [f"simulate: report sha256 {_sha(out.encode())} differs "
                    "from the closed-form report"]
        return []


Step = Union[Cli, Simulate]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Cli, ...]
    op: tuple[Step, ...]
    fields: tuple[int, ...]  # alphabets of the gf scalar micro-benchmark


def _uniform_demands(seed: int, users: int, files: int) -> list[int]:
    """The CLI's "uniform-random" demands: 8 little-endian bytes per user
    from the 64-bit LCG seeded with seed + 1, reduced mod the file count."""
    mask = (1 << 64) - 1
    state, out = (seed + 1) & mask, []
    for _ in range(users):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask
        out.append(state % files)
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Pinned digests were taken at the commit that added this benchmark; the
# outputs are byte-identical across runs and must stay so.
WORKLOADS = {w.name: w for w in (
    Workload(
        "simulate",
        setup=(Cli(("construct", "spc", "--k", "7", "--q", "3", "--out", "spc7.json"),
                   stdout="e83b8cf421f664e93aa677697db63046222eefe2518aff720e7e529810fd70bb",
                   files=(("spc7.json",
                           "dff2fcd983f298575f9a44be7e9f50eac35a3fa9e206c15498c74e359d6e19c1"),)),),
        op=(Simulate("spc7.json", files=27, bytes=16),
            Simulate("spc7.json", files=27, bytes=16, alpha=4)),
        fields=(3,),
    ),
    Workload(
        "transpose",
        setup=(Cli(("construct", "spc", "--k", "4", "--q", "4", "--out", "spc4.json"),
                   stdout="6571503eb86e355d9f145cf5eec900200ef56d3948e1ec59b40055acb38b7da8",
                   files=(("spc4.json",
                           "6b0bca79030d158ae30a4767286b2fc1fccfdb18485deb2ed2397fbeb07bdabc"),)),),
        op=(Simulate("spc4.json", files=24, bytes=16, transpose=True),),
        fields=(4,),
    ),
    Workload(
        "search",
        setup=(),
        op=(Cli(("search", "--n", "12", "--q", "5", "--budget", "1500000",
                 "--cyclic-limit", "100000"),
                stdout="023d4bd8bb2c2ea4eed65549af16f85e3588e50b00364d9e34defc8f473015ec"),),
        fields=(5,),
    ),
    Workload(
        "certify",
        setup=(),
        op=(Cli(("construct", "mds", "--n", "24", "--k", "10", "--q", "32",
                 "--out", "mds24.json"),
                stdout="20357179fa4e4454da61491e38d5698a9616168284d7a09ba3c95cad553ac1c0",
                files=(("mds24.json",
                        "24a791dc66103f397d1bad0e32c43e3cb6ad9a5a008c7b1d53b0994a2553e65d"),)),
            Cli(("verify", "mds24.json"),
                stdout="86617eb67118d762e702c6c6f28d97a1c5ef06cdad5a76d78a8d54e4e1a0283a"),
            Cli(("construct", "mds", "--n", "15", "--k", "3", "--q", "16",
                 "--digest", "--out", "mds15.json"),
                stdout="9fab0a2fe9849be23a927e2aee3e282605522f471057004eed2635d974e1ccf8",
                files=(("mds15.json",
                        "7c2618830afe491b6cc8a77f6cc7c8aee645ebc6757087de29b33788136df8f5"),))),
        fields=(32, 16),
    ),
)}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def _import_package() -> dict:
    """Import codedcache afresh from SRC; the package module and its
    layer modules by short name."""
    for name in [m for m in sys.modules
                 if m == "codedcache" or m.startswith("codedcache.")]:
        del sys.modules[name]
    # typing's caches hold module-level aliases such as Union[CachingScheme,
    # dict], which would keep every earlier copy of the package alive and
    # let peak_rss_mib grow with the number of set-ups
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    pkg = importlib.import_module("codedcache")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"codedcache resolved to {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"codedcache.{name}")
            for name in ("cli",) + tracing.LAYERS}
    mods["codedcache"] = pkg
    return mods


def _call(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with stdout captured; (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 2
    return status, out.getvalue()


def _check(steps, argvs, results, seed) -> list[str]:
    errors = []
    for step, argv, (status, out) in zip(steps, argvs, results):
        if status != 0:
            errors.append(f"{' '.join(argv)}: exit status {status}")
        errors += step.check(out, seed)
    return errors


def run_op(cli, steps, seed: int) -> tuple[float, list[str], list[str]]:
    """Run one op; (wall seconds, errors, sha256 of each step's stdout)."""
    argvs = [step.args(seed) for step in steps]
    results = []
    gc.collect()
    start = perf_counter()
    try:
        for argv in argvs:
            results.append(_call(cli, argv))
        elapsed = perf_counter() - start
        return (elapsed, _check(steps, argvs, results, seed),
                [_sha(out.encode()) for _, out in results])
    except Exception:
        return perf_counter() - start, [traceback.format_exc()], []


def set_up(workload: Workload) -> tuple[dict, float, list[str]]:
    """Import the package afresh and write the workload's scheme files;
    (modules, wall seconds, errors)."""
    gc.collect()
    start = perf_counter()
    mods = _import_package()
    argvs = [step.args(0) for step in workload.setup]
    results = [_call(mods["cli"], argv) for argv in argvs]
    elapsed = perf_counter() - start
    return mods, elapsed, _check(workload.setup, argvs, results, 0)


def _reference_loop() -> float:
    """Wall seconds of one pass of a fixed pure-Python loop: integer
    arithmetic and dict stores, then building and transposing a 128 x 768
    list of lists.  The second half follows the host's slow phases on
    allocation-heavy ops (transpose), the first on arithmetic (certify);
    scaling by both steadied each workload best."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(120000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    acc += sum([x * 3 % 7 for x in range(80000)])
    rows = [[(i * j) % 7 for j in range(768)] for i in range(128)]
    cols = [list(col) for col in zip(*rows)]
    for i, col in enumerate(cols):
        table[i] = col[0] + acc
    return perf_counter() - start


def _another(start: float, seconds: float, times: list[float]) -> bool:
    """Whether to start another round (or pair): always a first one, then
    while one more of median length still ends within ``seconds``."""
    return not times or perf_counter() - start + statistics.median(times) <= seconds


@contextlib.contextmanager
def _workdir(name: str):
    path = ROOT / ".bench_work" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)


def gf_scalar_ns(gf, fields, seed: int) -> tuple[float, float]:
    """Mean over the fields of the median ns per ScalarDomain.add / .mul
    call on a seeded stream of GF_PAIRS operand pairs."""
    rng = random.Random(seed)
    add_ns, mul_ns = [], []
    for q in fields:
        dom = gf.natural_domain(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(GF_PAIRS)]
        for fn, out in ((dom.add, add_ns), (dom.mul, mul_ns)):
            runs = []
            for _ in range(GF_REPEATS):
                start = perf_counter()
                for a, b in pairs:
                    fn(a, b)
                runs.append((perf_counter() - start) / GF_PAIRS * 1e9)
            out.append(statistics.median(runs))
    return statistics.fmean(add_ns), statistics.fmean(mul_ns)


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{len(values)} samples, quartiles {q1:.4f} / {q3:.4f}"


def _failures(errors: list[str]) -> None:
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(workload: Workload, seed: int, seconds: float):
    """Untraced ops, each after a set-up of its own: the end-to-end
    metrics, with times scaled by the reference loop."""
    times, walls, setup_times, setup_walls, loops = [], [], [], [], []
    setup_errors, failed, digests, rounds = [], 0, [], []
    start = perf_counter()
    while _another(start, seconds, rounds):
        began = perf_counter()
        before = _reference_loop()
        mods, setup_wall, errors = set_up(workload)
        setup_errors += errors
        middle = _reference_loop()
        elapsed, errors, digests = run_op(mods["cli"], workload.op, seed)
        after = _reference_loop()
        rounds.append(perf_counter() - began)
        setup_walls.append(setup_wall)
        setup_times.append(setup_wall * 2 * REF_LOOP_S / (before + middle))
        walls.append(elapsed)
        times.append(elapsed * 2 * REF_LOOP_S / (middle + after))
        loops += [before, middle, after]
        failed += bool(errors)
        _failures(errors)
    op_s = statistics.median(times)
    _failures(setup_errors)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setup_times)
    # the count reads the set-up's scheme files
    equations = 0 if setup_errors else sum(step.equations() for step in workload.op)
    lines = [f"op_s = {op_s:.6f} s ({_spread(times)})",
             f"op wall s {statistics.median(walls):.6f} ({_spread(walls)}), "
             f"reference loop s {statistics.median(loops):.6f} ({_spread(loops)})",
             "op wall times " + " ".join(f"{t:.3f}" for t in walls)]
    if equations:
        lines.append(f"equations_per_s = {equations / op_s:.1f} 1/s "
                     f"({equations} equations per op)")
    lines += [f"peak_rss_mib = {rss_mib:.3f} MiB",
              f"setup_s = {setup_s:.6f} s ({_spread(setup_times)}); "
              f"wall {statistics.median(setup_walls):.6f} s",
              f"failed_ops_ratio = {failed / len(times):g} ({failed} of {len(times)} ops)"]
    lines += [f"sha256 step {i} stdout {d}" for i, d in enumerate(digests)]
    metrics = {"op_s": op_s, "peak_rss_mib": rss_mib, "setup_s": setup_s}
    return not setup_errors and not failed, len(times), failed, metrics, lines


def traced(workload: Workload, seed: int, seconds: float):
    """Untraced and traced ops alternately, then one traced op under
    tracemalloc: the per-layer metrics.  Spans go to .bench_out/."""
    origin = perf_counter()
    mods, _, setup_errors = set_up(workload)
    _failures(setup_errors)
    cli = mods["cli"]
    add_ns, mul_ns = gf_scalar_ns(mods["gf"], workload.fields, seed)
    tracer = tracing.Tracer(mods)
    ops: list[dict] = []
    failed = 0

    def one_op(trace: bool, memory: bool = False) -> None:
        nonlocal failed
        op = len(ops)
        with tracer.tracing(op, memory) if trace else contextlib.nullcontext():
            elapsed, errors, digests = run_op(cli, workload.op, seed)
        if trace:
            errors += tracer.errors[op]
        failed += bool(errors)
        _failures(errors)
        ops.append({"op": op, "traced": trace, "memory": memory,
                    "seconds": elapsed, "errors": errors, "sha256": digests})

    pairs: list[float] = []
    start = perf_counter()
    while _another(start, seconds, pairs):
        began = perf_counter()
        # alternate which of the pair goes first, so drift in machine
        # speed does not bias the tracing overhead
        first = len(pairs) % 2 == 1
        one_op(first)
        one_op(not first)
        pairs.append(perf_counter() - began)
    one_op(True, memory=True)

    plain = [o["seconds"] for o in ops if not o["traced"]]
    timed = [o for o in ops if o["traced"] and not o["memory"]]
    per_op = [tracer.op_metrics(o["op"]) for o in timed]
    layer = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    layer["gf.add_ns"], layer["gf.mul_ns"] = add_ns, mul_ns
    for name in ("design", "caching"):
        layer[f"{name}.peak_alloc_mib"] = tracer.peak_alloc_mib(ops[-1]["op"], name)
    untraced_s = statistics.median(plain)
    traced_s = statistics.median(o["seconds"] for o in timed)
    layer["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: layer[name] for name in PER_LAYER}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "machine": machine(),
        "ops": ops, "metrics": metrics, "spans": tracer.to_json(origin),
    }, indent=1) + "\n")
    lines = [f"{name} = {metrics[name]:.6g} {PER_LAYER[name][0]}" for name in PER_LAYER]
    lines.append(f"traced op_s {traced_s:.6f} s, untraced op_s {untraced_s:.6f} s "
                 f"({_spread(plain)})")
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    return not setup_errors and not failed, len(ops), failed, metrics, lines


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; (result object, human-readable lines)."""
    header = (f"workload={workload.name} seed={seed} seconds={seconds:g} "
              f"trace={int(trace)} " + " ".join(f"{k}={v}" for k, v in machine().items()))
    with _workdir(workload.name):
        correct, attempted, failed, metrics, lines = (
            traced if trace else end_to_end)(workload, seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name][0]}
                          for name, value in metrics.items()}}
    return result, [header] + lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    os.environ.pop("CODEDCACHE_THREADS", None)
    try:
        result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import codedcache from {SRC}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
