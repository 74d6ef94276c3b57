"""Spans and counters recorded from outside the codedcache package.

While a ``Tracer`` is active it replaces every public module-level function
of the layer modules (``gf``, ``codes``, ``design``, ``caching``,
``analysis``, ``schemefile``), the method ``EqSubfileMatrix.transpose`` and
``cli.main`` with wrappers that record a span (name, start, end, parent, op)
around each call.  The replacement is made in every package module that
binds the function, so calls between modules and within one module are
traced alike; the originals are put back when tracing ends.  The library
code itself is not changed.

Counters are read off the arguments and results of the wrapped calls and
cross-checked against the package's closed forms; a mismatch is recorded as
an error of the op.  In a memory pass the tracer also folds the tracemalloc
peak into every open span at each span boundary, so each span knows the
peak traced memory (above the op's start) reached while it was open.

Spans stay in memory until ``to_json`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import tracemalloc
from time import perf_counter

LAYERS = ("gf", "codes", "design", "caching", "analysis", "schemefile")
MIB = float(1 << 20)

# Per-layer time metrics: metric name -> span name whose durations are summed.
TIME_METRICS = (
    "codes.check_ccp",
    "codes.search_cyclic_generators",
    "analysis.construct_candidate_set",
    "design.codeword_matrix",
    "design.resolvable_design",
    "caching.generate_delivery",
    "caching.simulate",
    "caching.equation_subfile_matrix",
    "caching.transpose",
    "caching.verify_lemma4",
    "caching.scheme_from_eq_subfile",
    "caching.simulate_matrix",
    "schemefile.load_scheme",
    "schemefile.codeword_digest",
)

COUNTERS = (
    "codes.windows_checked",
    "codes.rank_checks",
    "codes.candidates_examined",
    "codes.divisors_found",
    "design.codewords",
    "caching.equations",
    "caching.load_bytes",
    "caching.matrix_cells",
    "caching.matrix_nonzeros",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "peak")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.peak = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters for ops run inside ``tracing(op)``."""

    def __init__(self, modules: dict):
        """``modules`` maps "cli" and each name in LAYERS to the imported
        module, and "codedcache" to the package itself."""
        self.modules = modules
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, int]] = {}
        self.errors: dict[int, list[str]] = {}
        self.memory_ops: set[int] = set()
        self._stack: list[int] = []
        self._op = -1
        self._memory = False
        self._originals: dict[str, object] = {}

    # ------------------------------------------------------------ recording

    def _targets(self):
        """(span name, owner, attribute) of every function to wrap."""
        yield "cli.main", self.modules["cli"], "main"
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    yield f"{layer}.{attr}", mod, attr
        matrix_cls = getattr(self.modules["caching"], "EqSubfileMatrix", None)
        if matrix_cls is not None and "transpose" in vars(matrix_cls):
            yield "caching.transpose", matrix_cls, "transpose"

    @contextlib.contextmanager
    def tracing(self, op: int, memory: bool = False):
        """Wrap the package's functions and record op ``op`` as one root span."""
        self._op = op
        self._memory = memory
        self.counters[op] = dict.fromkeys(COUNTERS, 0)
        self.errors[op] = []
        if memory:
            self.memory_ops.add(op)
        patched = []
        wrappers = {}
        for name, owner, attr in self._targets():
            fn = vars(owner)[attr]
            self._originals[name] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        # rebind every alias (from-imports, re-exports) of a wrapped function
        owners = list(self.modules.values())
        owners.append(vars(self.modules["caching"]).get("EqSubfileMatrix"))
        for owner in filter(None, owners):
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    patched.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        if memory:
            tracemalloc.start()
        root = self._open("op")
        try:
            yield
        finally:
            self._close(root)
            if memory:
                tracemalloc.stop()
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)
            self._memory = False
            self._op = -1

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return wrapper

    def _open(self, name: str) -> int:
        if self._memory:
            self._fold_peak()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        if self._memory:
            self._fold_peak()
        self._stack.pop()

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for i in self._stack:
            if peak > self.spans[i].peak:
                self.spans[i].peak = peak
        tracemalloc.reset_peak()

    # ---------------------------------------------------------- hook helpers

    def original(self, name: str):
        """The unwrapped package function, for closed forms used by hooks."""
        return self._originals[name]

    def count(self, name: str, amount: int) -> None:
        self.counters[self._op][name] += amount

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors[self._op].append(message)

    # ---------------------------------------------------------------- output

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer times and counters of one traced op."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time: dict[int, float] = {}
        for _, s in spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out = {f"{name}_s": totals.get(name, 0.0) for name in TIME_METRICS}
        rank_calls = calls.get("gf.mat_rank", 0)
        out["gf.mat_rank_us"] = (totals["gf.mat_rank"] / rank_calls * 1e6
                                 if rank_calls else 0.0)
        out["analysis.self_s"] = (out["analysis.construct_candidate_set_s"]
                                  - out["codes.search_cyclic_generators_s"])
        out["cli.self_s"] = sum(s.duration - child_time.get(i, 0.0)
                                for i, s in spans if s.name == "cli.main")
        out.update(self.counters[op])
        examined = out["codes.candidates_examined"]
        out["codes.divisor_yield"] = (out["codes.divisors_found"] / examined
                                      if examined else 0.0)
        cells = out["caching.matrix_cells"]
        out["caching.matrix_density"] = (out["caching.matrix_nonzeros"] / cells
                                         if cells else 0.0)
        return out

    def peak_alloc_mib(self, op: int, layer: str) -> float:
        """Peak traced memory while any span of ``layer`` was open in the
        memory-pass op ``op``, in MiB above the op's start."""
        peaks = [s.peak for s in self.spans
                 if s.op == op and s.name.startswith(layer + ".")]
        return max(peaks, default=0) / MIB

    def to_json(self, origin: float) -> list[dict]:
        return [{"name": s.name, "start": s.start - origin,
                 "end": s.end - origin, "parent": s.parent, "op": s.op,
                 **({"peak_mib": s.peak / MIB} if s.op in self.memory_ops else {})}
                for s in self.spans]


# ---------------------------------------------------------------------------
# hooks: counters and closed-form cross-checks, run after the wrapped call
# ---------------------------------------------------------------------------


def _check_ccp(t: Tracer, args: dict, cert) -> None:
    t.count("codes.windows_checked", len(cert.windows))
    t.count("codes.rank_checks", sum(len(w.checks) for w in cert.windows))


def _search_cyclic_generators(t: Tracer, args: dict, found) -> None:
    # Candidates decided: the search covers min(space, limit) monic
    # candidates; anything less than the full space is a silent truncation.
    space = t.original("codes.cyclic_search_space")(args["n"], args["k"],
                                                     args["domain"])
    t.count("codes.candidates_examined", min(space, args["limit"]))
    t.count("codes.divisors_found", len(found))
    t.check(args["limit"] >= space,
            f"cyclic search n={args['n']} k={args['k']} truncated at "
            f"{args['limit']} of {space} candidates")


def _codeword_matrix(t: Tracer, args: dict, cm) -> None:
    t.count("design.codewords", cm.num_codewords)
    source = args["source"]
    if hasattr(source, "k"):
        expect = source.domain.q ** source.k
        t.check(cm.num_codewords == expect,
                f"codewords {cm.num_codewords} != q**k = {expect}")


def _placement(t: Tracer, args: dict, scheme) -> None:
    d = args["d"]
    expect = t.original("caching.code_point_metrics")(
        d.n, d.q, args["alpha"], d.num_points)["F_s"]
    t.check(scheme.f_s == expect, f"F_s {scheme.f_s} != closed form {expect}")


def _generate_delivery(t: Tracer, args: dict, plan) -> None:
    t.count("caching.equations", plan.delta)
    expect = t.original("caching.expected_delta")(args["scheme"])
    t.check(plan.delta == expect, f"equations {plan.delta} != expected_delta {expect}")


def _simulate(t: Tracer, args: dict, report) -> None:
    t.count("caching.load_bytes", report.load_bytes)


def _equation_subfile_matrix(t: Tracer, args: dict, matrix) -> None:
    scheme, plan = args["scheme"], args["plan"]
    t.count("caching.matrix_cells", plan.delta * scheme.f_s)
    t.count("caching.matrix_nonzeros", sum(len(eq.terms) for eq in plan.equations))
    # the transposed scheme's subpacketization is the base equation count
    expect = t.original("caching.code_point_metrics")(
        scheme.n, scheme.q, scheme.alpha, scheme.num_points, True)["F_s"]
    t.check(plan.delta == expect,
            f"transposed F_s {plan.delta} != closed form {expect}")


_HOOKS = {
    "codes.check_ccp": _check_ccp,
    "codes.search_cyclic_generators": _search_cyclic_generators,
    "design.codeword_matrix": _codeword_matrix,
    "caching.placement": _placement,
    "caching.generate_delivery": _generate_delivery,
    "caching.simulate": _simulate,
    "caching.simulate_matrix": _simulate,
    "caching.equation_subfile_matrix": _equation_subfile_matrix,
}
