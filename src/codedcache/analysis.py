"""Parameter search, budget fitting, and baseline comparisons.

construct_candidate_set answers, for fixed (n, q) and every dimension k,
whether the library can build a certified length-n code at gain k+1, and
records a replayable construction route.  The remaining operations put the
resulting operating points next to the classical single-cache-point scheme:
its exact rate and binomial subpacketization, the memory-sharing lower bound
for matching an intermediate (M/N, R) pair, and the large-K subpacketization
scaling exponents.

All rate and subpacketization arithmetic is exact (Fraction / big int);
floating point appears only in the scaling exponents and in the bisection
for the memory-sharing bound.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._frozen import frozen
from .caching import CachingScheme, code_point_metrics
from .codes import (
    GeneratorMatrix,
    _cyclic_shortcut_oks,
    build_claim5,
    build_claim6,
    build_claim9,
    build_cyclic,
    build_mds,
    build_spc,
    cyclic_search_space,
    extend_ccp,
    search_cyclic_generators,
)
from .errors import (
    DomainError,
    NonIntegralCachePoint,
    NoFeasibleK,
    NoSolutionInRange,
)
from .gf import ScalarDomain, natural_domain

# ---------------------------------------------------------------------------
# candidate search over k
# ---------------------------------------------------------------------------


@frozen
class CandidateEntry:
    """Search outcome for one dimension k at gain k+1.

    n_prime is the reduced length (n mod (k+1)) + (k+1); z and alpha_cols
    describe the window pattern at that length.  When found, route holds the
    construction steps that rebuild the certified length-n code.
    """

    k: int
    n_prime: int
    z: int
    alpha_cols: int
    found: bool
    route: tuple[dict, ...]
    notes: tuple[str, ...]


def _extend(step: dict, dom: ScalarDomain,
            g: Optional[GeneratorMatrix]) -> GeneratorMatrix:
    if g is None:
        raise DomainError("extend step with nothing to extend")
    return extend_ccp(g, step["s"])


# route steps: op -> (rebuild from the step, the alphabet and the code built
# so far; the step's label in the search table)
_ROUTE_STEPS = {
    "spc": (lambda s, dom, g: build_spc(s["k"], dom),
            lambda s: f"spc(k={s['k']})"),
    "cyclic": (lambda s, dom, g: build_cyclic(s["n"], s["gen_poly"], dom),
               lambda s: f"cyclic(n={s['n']},g={','.join(map(str, s['gen_poly']))})"),
    "mds": (lambda s, dom, g: build_mds(s["n"], s["k"], dom),
            lambda s: f"mds(n={s['n']},k={s['k']})"),
    "claim5": (lambda s, dom, g: build_claim5(s["t"], s["z"], s["alpha_cols"], dom),
               lambda s: f"block-vandermonde(t={s['t']},z={s['z']},a={s['alpha_cols']})"),
    "claim6": (lambda s, dom, g: build_claim6(s["t"], s["z"], dom),
               lambda s: f"block-banded(t={s['t']},z={s['z']})"),
    "claim9": (lambda s, dom, g: build_claim9(s["t"], dom.q),
               lambda s: f"block-banded-ring(t={s['t']})"),
    "extend": (_extend, lambda s: f"extend(s={s['s']})"),
}


def replay_route(route: Sequence[dict], q: int) -> GeneratorMatrix:
    """Rebuild the generator matrix described by a candidate route."""
    dom = natural_domain(q)
    g: Optional[GeneratorMatrix] = None
    for step in route:
        if step["op"] not in _ROUTE_STEPS:
            raise DomainError(f"unknown route step {step['op']!r}")
        g = _ROUTE_STEPS[step["op"]][0](step, dom, g)
    if g is None:
        raise DomainError("empty route")
    return g


def _route_label(entry: CandidateEntry) -> str:
    """The search table's construction column: the route's step labels
    joined by +, or - for a k with no construction."""
    if not entry.found:
        return "-"
    return "+".join(_ROUTE_STEPS[step["op"]][1](step) for step in entry.route)


def _with_extension(step: dict, built_n: int, n: int, a: int) -> list[dict]:
    route = [step]
    s = (n - built_n) // a
    if s:
        route.append({"op": "extend", "s": s})
    return route


def _candidate_for_k(n: int, q: int, k: int, limit: int) -> CandidateEntry:
    a = k + 1
    dom = natural_domain(q)
    is_field = dom.kind == "field"
    n_prime = (n % a) + a
    g = math.gcd(n_prime, a)
    z = a // g
    alpha_cols = n_prime // g
    notes: list[str] = []
    route: Optional[list[dict]] = None

    # cyclic codes at each admissible length, shortest first, first
    # generator polynomial (in lexicographic order) that certifies
    if is_field:
        n2 = n_prime
        while n2 <= n and route is None:
            space = cyclic_search_space(n2, k, dom)
            if space > limit:
                notes.append(f"cyclic length {n2} skipped: "
                             f"{space} candidates exceed limit {limit}")
            else:
                for gen in search_cyclic_generators(n2, k, dom, limit):
                    if all(_cyclic_shortcut_oks(gen, n2, k, dom)):
                        route = _with_extension(
                            {"op": "cyclic", "n": n2, "gen_poly": list(gen)},
                            n2, n, a)
                        break
            n2 += a
    else:
        notes.append("cyclic search requires a field")

    if route is None and z == 1:
        route = _with_extension({"op": "spc", "k": k}, a, n, a)
    if route is None and z == 2:
        t = a // 2
        if is_field:
            route = _with_extension({"op": "claim6", "t": t, "z": 2},
                                    3 * t, n, a)
        elif t >= 2:
            route = _with_extension({"op": "claim9", "t": t}, 3 * t, n, a)
        else:
            notes.append("ring z = 2 construction needs k >= 3")

    if route is None and is_field:
        if q >= n_prime:
            route = _with_extension({"op": "mds", "n": n_prime, "k": k},
                                    n_prime, n, a)
        elif alpha_cols == z + 1:
            if q >= z:
                route = _with_extension(
                    {"op": "claim6", "t": n_prime - a, "z": z}, n_prime, n, a)
            else:
                notes.append(f"block construction at alpha=z+1 needs q >= {z}")
        elif q > alpha_cols:
            route = _with_extension(
                {"op": "claim5", "t": g, "z": z, "alpha_cols": alpha_cols},
                n_prime, n, a)
        else:
            notes.append(f"block construction needs q > {alpha_cols}")
    elif route is None and z > 2:
        notes.append("no construction for z > 2 over a non-field modulus")

    return CandidateEntry(k, n_prime, z, alpha_cols, route is not None,
                          tuple(route or ()), tuple(notes))


def construct_candidate_set(n: int, q: int,
                            cyclic_search_limit: int = 10 ** 6) -> list[CandidateEntry]:
    """Search every k in 1..n-1 for a certified length-n code at gain k+1.

    Branch order per k: cyclic codes at lengths n', n'+(k+1), ... up to n
    (skipping lengths whose candidate space exceeds the limit), then the
    parity-check and banded-block families for z <= 2, then the Vandermonde
    construction when q >= n', then the block constructions for alpha_cols
    = z+1 and alpha_cols > z+1.  Non-prime-power moduli only support the
    z <= 2 families.  A negative limit raises DomainError.
    """
    if n < 2 or q < 2:
        raise DomainError(f"need n >= 2 and q >= 2, got n={n}, q={q}")
    if cyclic_search_limit < 0:
        raise DomainError(
            f"cyclic search limit must be >= 0, got {cyclic_search_limit}")
    return [_candidate_for_k(n, q, k, cyclic_search_limit) for k in range(1, n)]


def k_max_for_budget(n: int, q: int, budget: int,
                     entries: Sequence[CandidateEntry]) -> dict:
    """Largest found k among entries, construct_candidate_set(n, q, ...)'s
    table, whose subpacketization q^k * z fits the budget.

    Returns {"k_max", "F_s", "g_max"}.
    """
    if budget < q:
        raise NoFeasibleK(f"budget {budget} below the minimum {q}")
    best: Optional[tuple[int, int]] = None
    for e in entries:
        if not e.found:
            continue
        f_s = q ** e.k * e.z
        if f_s <= budget and (best is None or e.k > best[0]):
            best = (e.k, f_s)
    if best is None:
        raise NoFeasibleK(f"no certified k for n={n}, q={q} fits {budget}")
    return {"k_max": best[0], "F_s": best[1], "g_max": best[0] + 1}


# ---------------------------------------------------------------------------
# single-cache-point baseline and the memory-sharing bound
# ---------------------------------------------------------------------------


@frozen
class ComparisonRow:
    """One operating point: K users, cache fraction M/N, rate R, F_s and gain."""
    scheme_id: str
    big_k: int
    m_over_n: Fraction
    r: Fraction
    f_s: int
    gain: Fraction


def mn_metrics(big_k: int, m_over_n) -> ComparisonRow:
    """Exact rate and binomial subpacketization of the classical scheme
    at an integral cache point: R = K(1-m)/(1+Km), F_s = C(K, Km)."""
    m = Fraction(m_over_n)
    if big_k < 1 or not 0 <= m <= 1:
        raise DomainError(f"need K >= 1 and 0 <= M/N <= 1, got {big_k}, {m}")
    t = m * big_k
    if t.denominator != 1:
        raise NonIntegralCachePoint(f"K*M/N = {t} is not an integer")
    t = int(t)
    rate = Fraction(big_k - t, 1 + t)
    return ComparisonRow(f"mn(K={big_k},M/N={m})", big_k, m, rate,
                         math.comb(big_k, t), Fraction(1 + t))


def _mn_rate(big_k: int, x):
    """Classical rate at cache fraction x; exact when x is a Fraction."""
    return big_k * (1 - x) / (1 + big_k * x)


def memory_sharing_bound(big_k: int, m_over_n, rate) -> dict:
    """Cache fraction split that reaches (M/N, R) by sharing between the
    classical scheme at M*/N and its complement at 1 - M*/N.

    Solves lambda*h(x) + (1-lambda)*h(1-x) = R with the memory constraint
    lambda*x + (1-lambda)*(1-x) = M/N eliminated into
    lambda = (1 - x - M/N)/(1 - 2x), by bisection on x in [0, 1/2]; the
    shared rate is strictly decreasing there, from K(1-M/N) at x=0.
    Returns lambda and M*/N as floats, the integral point M'/N = t'/K with
    t' the least integer t < K/2 whose shared rate is at most R (ceil(K/2)
    when there is none; decided exactly in Fractions), and the binomial
    subpacketization C(K, t') that sharing would need.
    """
    m = Fraction(m_over_n)
    r = Fraction(rate)
    if not 0 < m < 1:
        raise NoSolutionInRange(f"M/N must be strictly inside (0,1), got {m}")
    if r <= 0 or r >= big_k * (1 - m):
        raise NoSolutionInRange(
            f"rate {r} outside (0, K(1-M/N)) = (0, {big_k * (1 - m)})")
    if r == Fraction(big_k) * (1 - m) / (1 + big_k * m):
        # already on the single-point curve: degenerate sharing
        t_prime = math.ceil(big_k * m)
        return {"lambda": 1.0, "m_star_over_n": float(m),
                "m_prime_over_n": Fraction(t_prime, big_k),
                "f_s_lower": math.comb(big_k, t_prime)}

    mf, rf = float(m), float(r)

    def shared_rate(x, m_over_n):
        lam = (1 - x - m_over_n) / (1 - 2 * x)
        return lam * _mn_rate(big_k, x) + (1 - lam) * _mn_rate(big_k, 1 - x)

    lo, hi = 0.0, 0.5 - 1e-14
    if shared_rate(hi, mf) > rf:
        raise NoSolutionInRange(f"rate {r} below the sharing curve at K={big_k}")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if abs(shared_rate(mid, mf) - rf) <= 1e-12:
            lo = hi = mid
            break
        if shared_rate(mid, mf) > rf:
            lo = mid
        else:
            hi = mid
    x_star = (lo + hi) / 2.0
    lam = (1.0 - x_star - mf) / (1.0 - 2.0 * x_star)
    if not -1e-9 <= lam <= 1 + 1e-9:
        raise NoSolutionInRange(
            f"sharing weight {lam:.6f} outside [0,1] at M*/N={x_star:.6f}")
    # t' is the least integer t < K/2 with shared_rate(t/K) <= R, else
    # ceil(K/2); the shared rate decreases strictly, so bisect, in Fractions
    t_prime = bisect.bisect_left(
        range((big_k + 1) // 2), True,
        key=lambda t: shared_rate(Fraction(t, big_k), m) <= r)
    return {"lambda": min(max(lam, 0.0), 1.0), "m_star_over_n": x_star,
            "m_prime_over_n": Fraction(t_prime, big_k),
            "f_s_lower": math.comb(big_k, t_prime)}


# ---------------------------------------------------------------------------
# scaling exponents
# ---------------------------------------------------------------------------


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def scaling_exponent(q: int, eta: float, mode: str) -> float:
    """Limit of (1/K) log2 of the subpacketization gap at rate-ratio eta.

    mode "low" (small cache fraction 1/q): H2(1/q) - (eta/q) log2 q.
    mode "high" (cache fraction 1 - eta/q): H2(eta/q) - (eta/q) log2 q.
    """
    if q < 2:
        raise DomainError(f"q must be at least 2, got {q}")
    if not 0 < eta <= 1:
        raise DomainError(f"eta must be in (0, 1], got {eta}")
    if mode not in ("low", "high"):
        raise DomainError(f"mode must be 'low' or 'high', got {mode!r}")
    x = 1.0 / q if mode == "low" else eta / q
    return _h2(x) - (eta / q) * math.log2(q)


def spc_family_exponent(q: int, k: int) -> float:
    """Exact finite-K gap exponent (1/K) log2(F_s_single / F_s_ours) for the
    (k+1, k) parity-check family: K = (k+1) q, F_s_single = C(K, K/q),
    F_s_ours = q^k."""
    if q < 2 or k < 1:
        raise DomainError(f"need q >= 2 and k >= 1, got q={q}, k={k}")
    big_k = (k + 1) * q
    f_single = math.comb(big_k, k + 1)
    return (math.log2(f_single) - k * math.log2(q)) / big_k


def spc_family_gap(q: int, k: int) -> float:
    """Distance of the finite-K exponent from its closed-form limit."""
    return scaling_exponent(q, 1.0, "low") - spc_family_exponent(q, k)


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------

SchemePoint = Union[CachingScheme, dict]


def _point_params(point: SchemePoint, index: int) -> tuple[str, int, int, int, int]:
    if isinstance(point, CachingScheme):
        sid = f"n{point.n}q{point.q}a{point.alpha}"
        return sid, point.n, point.q, point.alpha, point.num_points
    sid = str(point.get("scheme_id", f"scheme{index}"))
    return sid, point["n"], point["q"], point["alpha"], point["num_points"]


def compare(schemes: Sequence[SchemePoint], include_mn: bool = False,
            include_memory_sharing: bool = False) -> list[ComparisonRow]:
    """Rows for every scheme at both corner points (base and transposed),
    plus, when requested, the single-point baseline at each distinct
    (K, M/N) and the memory-sharing subpacketization bound at each scheme
    row.  Sorted by M/N then rate."""
    rows: list[ComparisonRow] = []
    for idx, point in enumerate(schemes):
        sid, n, q, alpha, num_points = _point_params(point, idx)
        for transposed in (False, True):
            met = code_point_metrics(n, q, alpha, num_points, transposed)
            rid = f"{sid}:transposed" if transposed else sid
            rows.append(ComparisonRow(rid, met["K"], met["M_over_N"],
                                      met["R"], met["F_s"], met["gain"]))
    scheme_rows = list(rows)
    if include_mn:
        seen = set()
        for row in scheme_rows:
            key = (row.big_k, row.m_over_n)
            if key in seen:
                continue
            seen.add(key)
            try:
                rows.append(mn_metrics(row.big_k, row.m_over_n))
            except NonIntegralCachePoint:
                pass
    if include_memory_sharing:
        for row in scheme_rows:
            try:
                bound = memory_sharing_bound(row.big_k, row.m_over_n, row.r)
            except NoSolutionInRange:
                continue
            rows.append(ComparisonRow(
                f"mn-sharing({row.scheme_id})", row.big_k, row.m_over_n,
                row.r, bound["f_s_lower"], row.gain))
    rows.sort(key=lambda r: (r.m_over_n, r.r))
    return rows


_CSV_HEADER = "scheme_id,K,M_over_N,R,F_s,gain"


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.scheme_id},{r.big_k},{r.m_over_n},{r.r},{r.f_s},{r.gain}")
    return "\n".join(lines) + "\n"


def comparison_json(rows: Sequence[ComparisonRow]) -> str:
    payload = {
        "format": "codedcache-comparison",
        "version": 1,
        "rows": [{"scheme_id": r.scheme_id, "K": r.big_k,
                  "M_over_N": str(r.m_over_n), "R": str(r.r),
                  "F_s": str(r.f_s), "gain": str(r.gain)} for r in rows],
    }
    return json.dumps(payload, indent=2) + "\n"
