import itertools
import random
from fractions import Fraction

import pytest

from codedcache.caching import (
    DeliveryPlan,
    EqSubfileMatrix,
    Equation,
    byte_stream,
    code_point_metrics,
    equation_subfile_matrix,
    expected_delta,
    generate_delivery,
    placement,
    recovery_set_graph,
    render_equation,
    scheme_from_eq_subfile,
    scheme_metrics,
    simulate,
    simulate_matrix,
    verify_lemma4,
)
from codedcache.codes import (
    GeneratorMatrix,
    build_claim6,
    build_crt_cyclic,
    build_cyclic,
    build_spc,
)
from codedcache.design import codeword_matrix, resolvable_design
from codedcache.errors import (
    DecodeFailure,
    IncompleteDemands,
    InvalidAlpha,
    Lemma4Violated,
)
from codedcache.gf import Matrix, ScalarDomain

GF2 = ScalarDomain.field(2)
GF3 = ScalarDomain.field(3)


def example_design():
    g = GeneratorMatrix(Matrix.from_rows(GF3, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    return resolvable_design(codeword_matrix(g))


def spc_design():
    return resolvable_design(codeword_matrix(build_spc(2, GF2)))


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def test_placement_4_2_gf3_alpha3():
    s = placement(example_design(), 3)
    assert s.num_users == 12
    assert s.z == 3
    assert s.f_s == 27
    assert s.m_over_n == Fraction(1, 3)
    assert s.user_block(0) == (0, 1, 2)
    assert s.user_label(0) == (0, 0)
    assert s.user_label(11) == (3, 2)
    # cache of U_{012}: all superscripts of points 0,1,2
    want = frozenset(t * 3 + sp for t in (0, 1, 2) for sp in range(3))
    assert s.cache_cols(0) == want
    assert len(s.cache_cols(0)) == 9  # q^(k-1) * z


def test_placement_spc_alpha3():
    s = placement(spc_design(), 3)
    assert s.z == 1
    assert s.f_s == 4
    assert s.m_over_n == Fraction(1, 2)
    assert s.num_users == 6


def test_placement_recomputes_z_for_lower_alpha():
    g = build_cyclic(8, [2, 1, 0, 1, 1], GF3)
    d = resolvable_design(codeword_matrix(g))
    s4 = placement(d, 4)
    assert s4.z == 1 and s4.f_s == 81
    s5 = placement(d, 5)
    assert s5.z == 5 and s5.f_s == 81 * 5


def test_placement_alpha_bounds():
    with pytest.raises(InvalidAlpha):
        placement(example_design(), 4)  # k + 2
    with pytest.raises(InvalidAlpha):
        placement(example_design(), 0)
    src = build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3)
    d = resolvable_design(codeword_matrix(src))
    placement(d, src.k_min)
    with pytest.raises(InvalidAlpha):
        placement(d, src.k_min + 1)


# ---------------------------------------------------------------------------
# recovery set graph
# ---------------------------------------------------------------------------


def test_graph_n4_alpha3_figure():
    graph = recovery_set_graph(4, 3)
    assert graph.sets == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    # class 1 sits in sets 0, 1, 3 and gets labels 0, 1, 2 in that order
    assert graph.sets_of_class(1) == [0, 1, 3]
    assert graph.labels[(1, 0)] == 0
    assert graph.labels[(1, 1)] == 1
    assert graph.labels[(1, 3)] == 2


def test_graph_every_class_degree_z_labels_permutation():
    for n, alpha in ((4, 3), (9, 6), (8, 5), (3, 3), (12, 6)):
        graph = recovery_set_graph(n, alpha)
        z = alpha // __import__("math").gcd(n, alpha)
        assert len(graph.sets) == z * n // alpha
        for i in range(n):
            touched = graph.sets_of_class(i)
            assert len(touched) == z
            labels = [graph.labels[(i, a)] for a in touched]
            assert sorted(labels) == list(range(z))


def test_graph_z1_single_membership():
    graph = recovery_set_graph(4, 2)
    assert graph.sets == ((0, 1), (2, 3))
    assert all(lab == 0 for lab in graph.labels.values())


def test_graph_n9_alpha6():
    graph = recovery_set_graph(9, 6)
    assert len(graph.sets) == 3
    assert graph.sets == ((0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8))


# ---------------------------------------------------------------------------
# delivery generation
# ---------------------------------------------------------------------------


def example_plan():
    s = placement(example_design(), 3)
    graph = recovery_set_graph(4, 3)
    return s, generate_delivery(s, graph)


def test_delta_72_for_example_scheme():
    s, plan = example_plan()
    assert plan.delta == 72
    assert expected_delta(s) == 72  # q^k (q-1) zn/(k+1) = 9*2*12/3


def test_six_rendered_equations_match_display():
    s, plan = example_plan()
    eqs = [e for e in plan.equations
           if e.recovery_set == 1 and any(u == 0 for u, _, _ in e.terms)]
    assert [render_equation(s, e) for e in eqs] == [
        "W^1_{d012,3} ⊕ W^1_{d036,2} ⊕ W^0_{d237,0}",
        "W^1_{d012,6} ⊕ W^1_{d036,1} ⊕ W^0_{d156,0}",
        "W^1_{d012,4} ⊕ W^1_{d147,0} ⊕ W^0_{d048,1}",
        "W^1_{d012,7} ⊕ W^1_{d147,2} ⊕ W^0_{d237,1}",
        "W^1_{d012,8} ⊕ W^1_{d258,0} ⊕ W^0_{d048,2}",
        "W^1_{d012,5} ⊕ W^1_{d258,1} ⊕ W^0_{d156,2}",
    ]


def test_first_spc_equation_structure():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    assert plan.delta == 4
    # all-but-one structure: U_{01} gets point 2, U_{02} point 1, U_{12} point 0
    assert plan.equations[0].terms == ((0, 2, 0), (2, 1, 0), (5, 0, 0))


def test_equations_use_distinct_classes_of_one_set():
    s, plan = example_plan()
    graph = recovery_set_graph(4, 3)
    for eq in plan.equations:
        classes = [u // 3 for u, _, _ in eq.terms]
        assert len(set(classes)) == len(classes) == 3
        assert tuple(sorted(classes)) == graph.sets[eq.recovery_set]


def test_decodability_every_cross_point_is_cached():
    s, plan = example_plan()
    for eq in plan.equations:
        for u, _, _ in eq.terms:
            blk = set(s.user_block(u))
            for v, pt, _ in eq.terms:
                if v != u:
                    assert pt in blk


def test_coverage_exact_no_gaps_no_duplicates():
    s, plan = example_plan()
    got: dict[int, list] = {u: [] for u in range(12)}
    for eq in plan.equations:
        for u, pt, sup in eq.terms:
            got[u].append((pt, sup))
    for u in range(12):
        missing = {(t, sp) for t in range(9) if t not in s.user_block(u)
                   for sp in range(3)}
        assert len(got[u]) == len(set(got[u]))
        assert set(got[u]) == missing


def test_per_user_participation_per_recovery_set():
    s, plan = example_plan()
    graph = recovery_set_graph(4, 3)
    for u in range(12):
        cls = u // 3
        for a in graph.sets_of_class(cls):
            count = sum(1 for eq in plan.equations
                        if eq.recovery_set == a and any(v == u for v, _, _ in eq.terms))
            assert count == 9 - 3  # q^k - q^(k-1)


def test_low_alpha_regime_delta_and_lemma4():
    d = example_design()
    s = placement(d, 2)
    assert s.z == 1 and s.f_s == 9
    graph = recovery_set_graph(4, 2)
    plan = generate_delivery(s, graph)
    assert plan.delta == expected_delta(s) == 36
    m = equation_subfile_matrix(s, plan)
    assert verify_lemma4(m).ok
    sim = simulate(s, plan, list(range(12)), num_files=12, subfile_bytes=8,
                   seed=1)
    assert sim.all_ok
    assert sim.rate == Fraction(36, 9) == 4


def test_incomplete_demands_rejected():
    s, plan = example_plan()
    with pytest.raises(IncompleteDemands):
        simulate(s, plan, [0] * 11, num_files=12)
    with pytest.raises(IncompleteDemands):
        simulate(s, plan, [0] * 11 + [-1], num_files=12)


# ---------------------------------------------------------------------------
# byte stream
# ---------------------------------------------------------------------------


def test_byte_stream_matches_reference_lcg():
    mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    for seed in (0, 1, 42):
        state = seed
        want = bytearray()
        for _ in range(3):
            state = (state * mult + inc) & mask
            want += state.to_bytes(8, "little")
        assert byte_stream(seed, 24) == bytes(want)
        assert byte_stream(seed, 5) == bytes(want[:5])


def test_byte_stream_deterministic_and_seed_sensitive():
    assert byte_stream(7, 64) == byte_stream(7, 64)
    assert byte_stream(7, 64) != byte_stream(8, 64)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_example_scheme_rate_8_3():
    s, plan = example_plan()
    sim = simulate(s, plan, list(range(12)), num_files=12, subfile_bytes=8,
                   seed=42)
    assert sim.all_ok
    assert sim.rate == Fraction(8, 3)
    assert sim.load_bytes == 72 * 8
    for out in sim.users:
        assert out.complete and out.exact
        assert out.recovered_count == 27 - 9


def test_simulate_spc_rate_1():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    sim = simulate(s, plan, [0, 1, 2, 3, 4, 5], num_files=6, subfile_bytes=16,
                   seed=0)
    assert sim.all_ok
    assert sim.rate == 1


def test_simulate_all_same_demand():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    sim = simulate(s, plan, [2] * 6, num_files=3, subfile_bytes=4, seed=9)
    assert sim.all_ok
    assert sim.rate == 1


def test_simulate_brute_force_all_demand_vectors():
    """Every demand vector with K=6, N=3 reconstructs bit-exactly."""
    s = placement(spc_design(), 3)
    plan = generate_delivery(s, recovery_set_graph(3, 3))
    for demands in itertools.product(range(3), repeat=6):
        sim = simulate(s, plan, demands, num_files=3, subfile_bytes=2, seed=5)
        assert sim.all_ok, demands


def test_simulate_detects_broken_equation():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    # point 2 is not in user 0's block {0,1}, so user 0 cannot cancel it
    bad = Equation(plan.equations[0].recovery_set,
                   ((0, 2, 0), (2, 1, 0), (5, 2, 0)))
    broken = DeliveryPlan((bad,) + plan.equations[1:])
    with pytest.raises(DecodeFailure):
        simulate(s, broken, list(range(6)), num_files=6, subfile_bytes=2,
                 seed=0)


def test_simulate_crt_source_end_to_end():
    src = build_crt_cyclic([([1, 1], GF2), ([1, 1], GF3)], 4)
    d = resolvable_design(codeword_matrix(src))
    s = placement(d, src.k_min)
    graph = recovery_set_graph(d.n, src.k_min)
    plan = generate_delivery(s, graph)
    assert plan.delta == expected_delta(s)
    assert verify_lemma4(equation_subfile_matrix(s, plan)).ok
    sim = simulate(s, plan, list(range(24)), num_files=24, subfile_bytes=4,
                   seed=3)
    assert sim.all_ok


# ---------------------------------------------------------------------------
# equation-subfile matrix and its validity conditions
# ---------------------------------------------------------------------------


def sparse(num_users, dense_rows):
    """EqSubfileMatrix from the paper's dense form: 1-based users, 0 empty."""
    return EqSubfileMatrix(num_users, len(dense_rows[0]), tuple(
        tuple((v - 1, j) for j, v in enumerate(row) if v) for row in dense_rows))


def dense(m):
    rows = [[0] * m.cols for _ in range(m.rows)]
    for i, row in enumerate(m.row_terms):
        for user, j in row:
            rows[i][j] = user + 1
    return tuple(map(tuple, rows))


def reference_lemma4(entries):
    """Lemma 4 checked cell by cell and pair by pair on a dense matrix."""
    violations = []
    rows, cols = len(entries), len(entries[0])
    for j in range(cols):
        seen = {}
        for i in range(rows):
            v = entries[i][j]
            if v:
                if v in seen:
                    violations.append(
                        f"user {v} appears twice in column {j} (rows {seen[v]}, {i})")
                seen[v] = i
    for i, row in enumerate(entries):
        nz = [v for v in row if v]
        if len(nz) != len(set(nz)):
            violations.append(f"row {i} repeats a user")
    occ = {}
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if v:
                occ.setdefault(v, []).append((i, j))
    for v, spots in occ.items():
        for (i1, j1), (i2, j2) in itertools.combinations(spots, 2):
            if j1 == j2 or i1 == i2:
                continue
            if entries[i1][j2] or entries[i2][j1]:
                violations.append(
                    f"user {v} at ({i1},{j1}) and ({i2},{j2}) lacks zero corners")
    return not violations, tuple(violations)


def test_eq_subfile_matrix_spc_exact():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    m = equation_subfile_matrix(s, plan)
    assert (m.rows, m.cols, m.num_users) == (4, 4, 6)
    assert m == sparse(6, ((6, 3, 1, 0), (4, 5, 0, 1), (2, 0, 5, 3), (0, 2, 4, 6)))
    assert verify_lemma4(m).ok


def test_eq_subfile_matrix_rejects_shared_column():
    s = placement(spc_design(), 3)
    # users 0 and 1 would both recover subfile (point 0, superscript 0)
    clash = Equation(0, ((0, 0, 0), (1, 0, 0)))
    with pytest.raises(Lemma4Violated):
        equation_subfile_matrix(s, DeliveryPlan((clash,)))


def test_lemma4_flags_each_condition():
    col_dup = sparse(2, ((1, 0), (1, 2)))
    rep = verify_lemma4(col_dup)
    assert not rep.ok
    assert any("column" in v for v in rep.violations)

    row_dup = sparse(2, ((1, 1),))
    rep = verify_lemma4(row_dup)
    assert not rep.ok
    assert any("row" in v for v in rep.violations)

    corner = sparse(3, ((1, 2), (3, 1)))
    rep = verify_lemma4(corner)
    assert not rep.ok


def test_lemma4_matches_dense_reference_on_random_matrices():
    rng = random.Random(20170601)
    for _ in range(3000):
        rows, cols, users = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        fill = rng.random()
        entries = tuple(tuple(rng.randint(1, users) if rng.random() < fill else 0
                              for _ in range(cols)) for _ in range(rows))
        m = sparse(users, entries)
        assert dense(m) == entries
        assert m.transpose().transpose() == m
        assert dense(m.transpose()) == tuple(zip(*entries))
        for mat in (m, m.transpose()):
            rep = verify_lemma4(mat)
            assert (rep.ok, rep.violations) == reference_lemma4(dense(mat)), entries


def test_lemma4_transpose_symmetry():
    s, plan = example_plan()
    m = equation_subfile_matrix(s, plan)
    assert verify_lemma4(m).ok
    assert verify_lemma4(m.transpose()).ok
    assert m.transpose().transpose() == m


def test_scheme_from_displayed_4x6_matrix():
    """The worked 4-user, 6-subfile matrix: caches, rate, simulation."""
    m = sparse(4, (
        (3, 2, 0, 1, 0, 0),
        (4, 0, 2, 0, 1, 0),
        (0, 4, 3, 0, 0, 1),
        (0, 0, 0, 4, 3, 2),
    ))
    assert verify_lemma4(m).ok
    ms = scheme_from_eq_subfile(m)
    assert ms.num_users == 4
    assert ms.equations == m.row_terms
    assert ms.rate == Fraction(2, 3)
    assert all(ms.cache_fraction(u) == Fraction(1, 2) for u in range(4))
    # users caching each subfile form exactly the six 2-subsets, i.e. the
    # pair-design structure of the 6-user scheme transposed
    col_sets = sorted(tuple(u + 1 for u in range(4) if j in ms.caches[u])
                      for j in range(6))
    assert col_sets == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    sim = simulate_matrix(ms, [0, 1, 2, 3], num_files=4, subfile_bytes=8, seed=11)
    assert sim.all_ok
    assert sim.rate == Fraction(2, 3)


def test_scheme_from_eq_subfile_rejects_bad_matrix():
    with pytest.raises(Lemma4Violated):
        scheme_from_eq_subfile(sparse(2, ((1, 1),)))


# ---------------------------------------------------------------------------
# transposition
# ---------------------------------------------------------------------------


def test_transpose_of_spc_scheme():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    mt = equation_subfile_matrix(s, plan).transpose()
    ms = scheme_from_eq_subfile(mt)
    assert ms.rate == Fraction(1, 1)
    assert all(ms.cache_fraction(u) == Fraction(1, 2) for u in range(6))
    sim = simulate_matrix(ms, [0, 1, 0, 1, 2, 2], num_files=3, subfile_bytes=4, seed=7)
    assert sim.all_ok
    met = scheme_metrics(ms)
    assert met["M_over_N"] == Fraction(1, 2)
    assert met["gain"] == 3


def test_transpose_9_5_code_hits_both_corner_points():
    """The (9,5) binary code: M/N=1/2 at F_s=64 and M/N=2/3 at F_s=96."""
    g = build_claim6(3, 2, GF2)
    d = resolvable_design(codeword_matrix(g))
    s = placement(d, 6)
    assert s.f_s == 64
    graph = recovery_set_graph(9, 6)
    plan = generate_delivery(s, graph)
    assert plan.delta == 96
    sim = simulate(s, plan, list(range(18)), num_files=18, subfile_bytes=2,
                   seed=1)
    assert sim.all_ok
    assert sim.rate == Fraction(3, 2)

    m = equation_subfile_matrix(s, plan)
    ms = scheme_from_eq_subfile(m.transpose())
    assert ms.f_s == 96
    assert ms.rate == Fraction(2, 3)
    assert all(ms.cache_fraction(u) == Fraction(2, 3) for u in range(18))
    simt = simulate_matrix(ms, list(range(18)), num_files=18, subfile_bytes=2, seed=2)
    assert simt.all_ok


def test_transpose_involution_metrics():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    m = equation_subfile_matrix(s, plan)
    twice = scheme_from_eq_subfile(m.transpose().transpose())
    once = scheme_from_eq_subfile(m)
    assert scheme_metrics(twice) == scheme_metrics(once)


# ---------------------------------------------------------------------------
# closed-form metrics
# ---------------------------------------------------------------------------


def test_code_point_metrics_base_and_transposed():
    base = code_point_metrics(4, 3, 3, 9)
    assert base["K"] == 12
    assert base["M_over_N"] == Fraction(1, 3)
    assert base["F_s"] == 27
    assert base["R"] == Fraction(8, 3)
    assert base["gain"] == 3

    t = code_point_metrics(3, 2, 3, 4, transposed=True)
    assert t["K"] == 6
    assert t["M_over_N"] == Fraction(1, 2)
    assert t["F_s"] == 4
    assert t["R"] == 1
    assert t["gain"] == 3


def test_code_point_metrics_subpacketization_family():
    """K=64 at M/N=1/4 via three codes: the F_s versus R tradeoff."""
    spc = code_point_metrics(16, 4, 16, 4 ** 15)
    assert spc["K"] == 64
    assert spc["F_s"] == 4 ** 15  # about 1.07e9
    assert spc["R"] == 3

    mid = code_point_metrics(16, 4, 8, 4 ** 7)
    assert mid["F_s"] == 4 ** 7 == 16384
    assert mid["R"] == 6

    low = code_point_metrics(16, 4, 4, 4 ** 3)
    assert low["F_s"] == 64
    assert low["R"] == 12
    assert low["gain"] == 4


def test_scheme_metrics_on_caching_scheme():
    s = placement(example_design(), 3)
    met = scheme_metrics(s)
    assert met["K"] == 12
    assert met["M_over_N"] == Fraction(1, 3)
    assert met["F_s"] == 27
    assert met["R"] == Fraction(8, 3)
    assert met["gain"] == 3
