"""Acceptance gate: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Each test is self-contained and rebuilds everything it checks from scratch,
so a failure here points at the criterion, not at test ordering.
"""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

from codedcache.analysis import (
    construct_candidate_set,
    k_max_for_budget,
    memory_sharing_bound,
    mn_metrics,
    scaling_exponent,
    spc_family_gap,
)
from codedcache.caching import (
    code_point_metrics,
    equation_subfile_matrix,
    expected_delta,
    generate_delivery,
    placement,
    recovery_set_graph,
    render_equation,
    scheme_from_eq_subfile,
    scheme_from_plan,
    simulate,
    verify_lemma4,
)
from codedcache.codes import (
    GeneratorMatrix,
    build_claim6,
    build_cyclic,
    build_mds,
    build_spc,
    check_ccp,
    check_ccp_cyclic_shortcut,
    search_cyclic_generators,
)
from codedcache.design import codeword_matrix, resolvable_design
from codedcache.gf import Matrix, ScalarDomain
from test_caching import cache_cols, cache_fraction


@contextlib.contextmanager
def criterion(number, label):
    """Print exactly one PASS/FAIL verdict line for the wrapped checks."""
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {label}")
        raise
    print(f"criterion {number}: PASS  {label}")


def example_code_4_2():
    dom = ScalarDomain.field(3)
    return GeneratorMatrix(Matrix.from_rows(dom, [[1, 0, 1, 1], [0, 1, 1, 2]]))


# ---------------------------------------------------------------------------
# criterion 1: (4,2) GF(3) codeword matrix and parallel classes, < 1 s
# ---------------------------------------------------------------------------


def test_criterion_1_design_regression():
    start = time.perf_counter()
    with criterion(1, "(4,2) GF(3) codeword matrix and all four parallel classes"):
        t = codeword_matrix(example_code_4_2())
        assert t.rows == (
            (0, 0, 0, 1, 1, 1, 2, 2, 2),
            (0, 1, 2, 0, 1, 2, 0, 1, 2),
            (0, 1, 2, 1, 2, 0, 2, 0, 1),
            (0, 2, 1, 1, 0, 2, 2, 1, 0),
        )
        d = resolvable_design(t)
        assert d.classes == (
            ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
            ((0, 3, 6), (1, 4, 7), (2, 5, 8)),
            ((0, 5, 7), (1, 3, 8), (2, 4, 6)),
            ((0, 4, 8), (2, 3, 7), (1, 5, 6)),
        )
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 2: 12-user scheme end to end
# ---------------------------------------------------------------------------


def test_criterion_2_example_scheme_end_to_end():
    with criterion(2, "12-user scheme: 72 equations, displayed list, exact decode"):
        s = placement(resolvable_design(codeword_matrix(example_code_4_2())), 3)
        assert s.num_users == 12
        assert s.f_s == 27
        assert s.m_over_n == Fraction(1, 3)

        graph = recovery_set_graph(4, 3)
        plan = generate_delivery(s, graph)
        assert plan.delta == 72

        eqs = [e for e in plan.equations
               if e.recovery_set == 1 and any(u == 0 for u, _ in e.terms)]
        assert [render_equation(s, e) for e in eqs] == [
            "W^1_{d012,3} ⊕ W^1_{d036,2} ⊕ W^0_{d237,0}",
            "W^1_{d012,6} ⊕ W^1_{d036,1} ⊕ W^0_{d156,0}",
            "W^1_{d012,4} ⊕ W^1_{d147,0} ⊕ W^0_{d048,1}",
            "W^1_{d012,7} ⊕ W^1_{d147,2} ⊕ W^0_{d237,1}",
            "W^1_{d012,8} ⊕ W^1_{d258,0} ⊕ W^0_{d048,2}",
            "W^1_{d012,5} ⊕ W^1_{d258,1} ⊕ W^0_{d156,2}",
        ]

        report = simulate(scheme_from_plan(s, plan), list(range(12)), 12, 8, 42)
        assert report.all_ok
        assert all(u.complete for u in report.users)
        assert report.rate == Fraction(8, 3)


# ---------------------------------------------------------------------------
# criterion 3: K=64 corner points against the single-cache-point baseline
# ---------------------------------------------------------------------------


def test_criterion_3_k64_corner_points():
    with criterion(3, "K=64 corner points and the C(64,16) baseline"):
        expect = {15: (4 ** 15, 3), 7: (16384, 6), 3: (64, 12)}
        for k, (f_s, rate) in expect.items():
            met = code_point_metrics(16, 4, k + 1, 4 ** k)
            assert met["M_over_N"] == Fraction(1, 4)
            assert met["F_s"] == f_s
            assert met["R"] == rate
            assert met["gain"] == k + 1
        baseline = mn_metrics(64, Fraction(1, 4))
        assert baseline.f_s == math.comb(64, 16)
        assert baseline.r == Fraction(48, 17)


# ---------------------------------------------------------------------------
# criterion 4: the (9,5) code and its transposed scheme, < 10 s
# ---------------------------------------------------------------------------


def test_criterion_4_transpose_point():
    start = time.perf_counter()
    with criterion(4, "(9,5) GF(2) base and transposed schemes both decode"):
        g = build_claim6(3, 2, ScalarDomain.field(2))
        assert (g.n, g.k) == (9, 5)
        assert check_ccp(g, 6).satisfied

        base = code_point_metrics(9, 2, 6, 32)
        assert (base["M_over_N"], base["F_s"], base["R"]) == \
            (Fraction(1, 2), 64, Fraction(3, 2))
        flipped = code_point_metrics(9, 2, 6, 32, transposed=True)
        assert (flipped["M_over_N"], flipped["F_s"], flipped["R"]) == \
            (Fraction(2, 3), 96, Fraction(2, 3))

        s = placement(resolvable_design(codeword_matrix(g)), 6)
        graph = recovery_set_graph(9, 6)
        demands = [u % 6 for u in range(18)]
        plan = generate_delivery(s, graph)
        assert simulate(scheme_from_plan(s, plan), demands, 6, 4, 7).all_ok

        ms = scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())
        report = simulate(ms, demands, 6, 4, 7)
        assert report.all_ok
        assert report.f_s == 96
        assert report.rate == Fraction(2, 3)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 5: candidate table for (12, 5) and the budget fit, < 60 s
# ---------------------------------------------------------------------------


def test_criterion_5_candidate_table_12_5():
    start = time.perf_counter()
    with criterion(5, "(12,5) candidate table finds 1..9 and 11, k_max=8"):
        entries = construct_candidate_set(12, 5, 10 ** 6)
        found = {e.k for e in entries if e.found}
        assert found >= set(range(1, 10)) | {11}
        assert 10 not in found
        fit = k_max_for_budget(12, 5, 1_500_000, entries=entries)
        assert fit["k_max"] == 8
        assert fit["F_s"] == 1_171_875
        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 6: memory-sharing bound at both K=18 operating points
# ---------------------------------------------------------------------------


def test_criterion_6_memory_sharing_bound():
    with criterion(6, "memory sharing needs M*/N near 0.227/0.25 and C(18,5)"):
        low = memory_sharing_bound(18, Fraction(1, 2), Fraction(3, 2))
        assert abs(low["m_star_over_n"] - 0.227) <= 0.005
        assert low["f_s_lower"] == math.comb(18, 5) == 8568

        high = memory_sharing_bound(18, Fraction(2, 3), Fraction(2, 3))
        assert abs(high["m_star_over_n"] - 0.25) <= 0.005
        assert high["f_s_lower"] == 8568


# ---------------------------------------------------------------------------
# criterion 7: exhaustive property suite over all small certified schemes,
# < 120 s
# ---------------------------------------------------------------------------


def certified_small_schemes():
    """Every certified code this library constructs with q <= 3, n <= 6,
    k <= 3, deduplicated by codeword matrix."""
    candidates = []
    for q in (2, 3):
        dom = ScalarDomain.field(q)
        for k in (1, 2, 3):
            candidates.append(build_spc(k, dom))
        for n in range(2, 7):
            if q >= n:
                for k in range(1, min(n, 4)):
                    candidates.append(build_mds(n, k, dom))
            for k in range(1, min(n, 4)):
                for gen in search_cyclic_generators(n, k, dom, 4000):
                    candidates.append(build_cyclic(n, gen, dom))
        for t in (1, 2):
            # banded family at z=2: n = 3t <= 6, k = 2t - 1 <= 3
            candidates.append(build_claim6(t, 2, dom))

    seen = set()
    out = []
    for g in candidates:
        key = (g.domain.q, codeword_matrix(g).rows)
        if key in seen:
            continue
        seen.add(key)
        if check_ccp(g, g.k + 1).satisfied:
            out.append(g)
    return out


def check_intersections(scheme, graph):
    """Any j blocks from j distinct classes of one recovery set meet in
    exactly q^(k-j) points, for every j up to k."""
    d = scheme.design
    q, k = scheme.q, scheme.design.source.k
    for classes in graph.sets:
        for j in range(1, k + 1):
            for chosen in itertools.combinations(classes, j):
                for labels in itertools.product(range(q), repeat=j):
                    pts = set(d.block(chosen[0], labels[0]))
                    for i, l in zip(chosen[1:], labels[1:]):
                        pts &= set(d.block(i, l))
                    assert len(pts) == q ** (k - j)


def demand_vectors(num_users):
    """All vectors for libraries of one or two files, exhaustively when the
    2-file space is small, a fixed probe set otherwise."""
    yield 1, [0] * num_users
    if 2 ** num_users <= 4096:
        for v in itertools.product((0, 1), repeat=num_users):
            yield 2, list(v)
        return
    yield 2, [1] * num_users
    yield 2, [u % 2 for u in range(num_users)]
    for seed in range(5):
        rng = random.Random(seed)
        yield 2, [rng.randrange(2) for _ in range(num_users)]


def test_criterion_7_property_suite():
    start = time.perf_counter()
    with criterion(7, "intersection/coverage/delta/validity over all small schemes"):
        schemes = certified_small_schemes()
        assert len(schemes) >= 10
        for g in schemes:
            scheme = placement(resolvable_design(codeword_matrix(g)), g.k + 1)
            graph = recovery_set_graph(scheme.n, scheme.alpha)
            check_intersections(scheme, graph)

            plan = generate_delivery(scheme, graph)
            assert plan.delta == expected_delta(scheme)

            # closed forms, base and transposed, against what is built
            n, q, alpha = scheme.n, scheme.q, scheme.alpha
            base = code_point_metrics(n, q, alpha, scheme.num_points)
            assert scheme.f_s == base["F_s"]
            assert plan.delta == base["F_s"] * base["R"]

            served = {u: set() for u in range(scheme.num_users)}
            for eq in plan.equations:
                for u, col in eq.terms:
                    assert col not in served[u]
                    served[u].add(col)
            full = set(range(scheme.f_s))
            for u in range(scheme.num_users):
                assert served[u] == full - cache_cols(scheme, u)

            matrix = equation_subfile_matrix(scheme, plan)
            transposed = matrix.transpose()
            assert verify_lemma4(matrix).ok
            assert verify_lemma4(transposed).ok

            flipped = code_point_metrics(n, q, alpha, scheme.num_points,
                                         transposed=True)
            ms = scheme_from_eq_subfile(transposed)
            assert ms.delivery.ok
            assert (ms.f_s, ms.rate) == (flipped["F_s"], flipped["R"])
            assert all(cache_fraction(ms, u) == flipped["M_over_N"]
                       for u in range(ms.num_users))

            base_ms = scheme_from_plan(scheme, plan)
            assert base_ms.delivery.ok
            for num_files, demands in demand_vectors(scheme.num_users):
                report = simulate(base_ms, demands, num_files, 1, 11)
                assert report.all_ok
                assert report.rate == base["R"]
        assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# criterion 8: cyclic shortcut agrees with the exhaustive check everywhere
# ---------------------------------------------------------------------------


def test_criterion_8_shortcut_agreement():
    with criterion(8, "cyclic shortcut matches the exhaustive verdict 100%"):
        agreements = 0
        for q in (2, 3, 5):
            dom = ScalarDomain.field(q)
            for n in range(4, 13):
                for k in range(1, n):
                    for gen in search_cyclic_generators(n, k, dom, 2000):
                        g = build_cyclic(n, gen, dom)
                        fast = check_ccp_cyclic_shortcut(g)
                        slow = check_ccp(g, g.k + 1)
                        assert fast.satisfied == slow.satisfied
                        agreements += 1
        assert agreements >= 40


# ---------------------------------------------------------------------------
# criterion 9: parity-check family exponent converges to 1/2
# ---------------------------------------------------------------------------


def test_criterion_9_spc_family_convergence():
    with criterion(9, "SPC exponent gap shrinks monotonically below 0.05"):
        assert scaling_exponent(2, 1.0, "low") == 0.5
        gaps = [spc_family_gap(2, big_k // 2 - 1) for big_k in (20, 50, 100, 200)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05
