import gc
import hashlib
import itertools
import random
import signal
import tracemalloc
from fractions import Fraction

import pytest

from codedcache import caching
from codedcache.caching import (
    CachingScheme,
    DeliveryPlan,
    EqSubfileMatrix,
    Equation,
    MatrixScheme,
    byte_stream,
    code_point_metrics,
    equation_subfile_matrix,
    expected_delta,
    generate_delivery,
    placement,
    recovery_set_graph,
    render_equation,
    scheme_from_eq_subfile,
    scheme_from_plan,
    scheme_metrics,
    simulate,
    verify_lemma4,
)
from codedcache.codes import (
    CrtCodewordSource,
    GeneratorMatrix,
    build_claim5,
    build_claim6,
    build_claim9,
    build_crt_cyclic,
    build_cyclic,
    build_mds,
    build_spc,
    check_ccp,
    extend_ccp,
    kron_identity,
)
from codedcache.design import ResolvableDesign, codeword_matrix, resolvable_design
from codedcache.errors import (
    DecodeFailure,
    IncompleteDemands,
    InvalidAlpha,
    Lemma4Violated,
    ShapeMismatch,
    TooLarge,
)
from codedcache.gf import Matrix, ScalarDomain

GF2 = ScalarDomain.field(2)
GF3 = ScalarDomain.field(3)
GF4 = ScalarDomain.field(4)
GF5 = ScalarDomain.field(5)
GF7 = ScalarDomain.field(7)
GF8 = ScalarDomain.field(8)
GF9 = ScalarDomain.field(9)


def example_design():
    g = GeneratorMatrix(Matrix.from_rows(GF3, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    return resolvable_design(codeword_matrix(g))


def spc_design():
    return resolvable_design(codeword_matrix(build_spc(2, GF2)))


# (source, alpha); mds(9,2)/GF(9) has 81 users, so its masks pass 64 bits
PLANNED = {
    "spc(3)/GF(3)": (lambda: build_spc(3, GF3), 4),
    "spc(4)/GF(4)": (lambda: build_spc(4, GF4), 5),
    "mds(6,3)/GF(7)": (lambda: build_mds(6, 3, GF7), 2),
    "mds(9,2)/GF(9)": (lambda: build_mds(9, 2, GF9), 3),
}


def planned(name):
    build, alpha = PLANNED[name]
    s = placement(resolvable_design(codeword_matrix(build())), alpha)
    return s, generate_delivery(s, recovery_set_graph(s.n, alpha))


def cached(ms):
    """Each user's cached columns as a set, read off the miss masks."""
    return tuple(frozenset(c for c, mask in enumerate(ms.miss) if not mask >> u & 1)
                 for u in range(ms.num_users))


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
    assert graph.labels[(1, 0)] == 0
    assert graph.labels[(1, 1)] == 1
    assert graph.labels[(1, 3)] == 2


def test_graph_every_class_degree_z_labels_permutation():
    for n, alpha in ((4, 3), (9, 6), (8, 5), (3, 3), (12, 6)):
        graph = recovery_set_graph(n, alpha)
        z = alpha // __import__("math").gcd(n, alpha)
        assert len(graph.sets) == z * n // alpha
        for i in range(n):
            touched = [a for a, classes in enumerate(graph.sets) if i in classes]
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
           if e.recovery_set == 1 and any(u == 0 for u, _ in e.terms)]
    assert [render_equation(s, e) for e in eqs] == [
        "W^1_{d012,3} ⊕ W^1_{d036,2} ⊕ W^0_{d237,0}",
        "W^1_{d012,6} ⊕ W^1_{d036,1} ⊕ W^0_{d156,0}",
        "W^1_{d012,4} ⊕ W^1_{d147,0} ⊕ W^0_{d048,1}",
        "W^1_{d012,7} ⊕ W^1_{d147,2} ⊕ W^0_{d237,1}",
        "W^1_{d012,8} ⊕ W^1_{d258,0} ⊕ W^0_{d048,2}",
        "W^1_{d012,5} ⊕ W^1_{d258,1} ⊕ W^0_{d156,2}",
    ]


def test_rendered_equations_use_comma_labels_past_10_points():
    """spc(3)/GF(3) at alpha 3 has 27 points and z = 3: block labels are
    comma-separated, a semicolon sets the point apart from the block, and
    each column splits into point and superscript."""
    s = placement(resolvable_design(codeword_matrix(build_spc(3, GF3))), 3)
    assert (s.num_points, s.z) == (27, 3)
    plan = generate_delivery(s, recovery_set_graph(s.n, 3))
    assert [render_equation(s, plan.equations[i]) for i in (100, 215)] == [
        "W^1_{d18,19,20,21,22,23,24,25,26;4} ⊕ W^1_{d3,4,5,12,13,14,21,22,23;18}"
        " ⊕ W^0_{d2,4,6,10,12,17,18,23,25;21}",
        "W^2_{d6,7,8,15,16,17,24,25,26;23} ⊕ W^2_{d2,5,8,11,14,17,20,23,26;25}"
        " ⊕ W^2_{d2,4,6,10,12,17,18,23,25;26}",
    ]
    eqs = [e for e in plan.equations
           if e.recovery_set == 2 and any(u == 0 for u, _ in e.terms)]
    assert [render_equation(s, e) for e in eqs[:3]] == [
        "W^2_{d0,1,2,3,4,5,6,7,8;15} ⊕ W^1_{d0,3,6,9,12,15,18,21,24;5}"
        " ⊕ W^1_{d0,5,7,11,13,15,19,21,26;3}",
        "W^2_{d0,1,2,3,4,5,6,7,8;21} ⊕ W^1_{d0,3,6,9,12,15,18,21,24;7}"
        " ⊕ W^1_{d0,5,7,11,13,15,19,21,26;6}",
        "W^2_{d0,1,2,3,4,5,6,7,8;9} ⊕ W^1_{d0,3,6,9,12,15,18,21,24;1}"
        " ⊕ W^1_{d1,3,8,9,14,16,20,22,24;0}",
    ]


def test_first_spc_equation_structure():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    assert plan.delta == 4
    # all-but-one structure: U_{01} gets point 2, U_{02} point 1, U_{12} point 0
    assert plan.equations[0].terms == ((0, 2), (2, 1), (5, 0))


def test_equations_use_distinct_classes_of_one_set():
    s, plan = example_plan()
    graph = recovery_set_graph(4, 3)
    for eq in plan.equations:
        classes = [u // 3 for u, _ in eq.terms]
        assert len(set(classes)) == len(classes) == 3
        assert tuple(sorted(classes)) == graph.sets[eq.recovery_set]


def test_decodability_every_cross_point_is_cached():
    s, plan = example_plan()
    for eq in plan.equations:
        for u, _ in eq.terms:
            blk = set(s.user_block(u))
            for v, col in eq.terms:
                pt, _ = divmod(col, s.z)
                if v != u:
                    assert pt in blk


def test_coverage_exact_no_gaps_no_duplicates():
    s, plan = example_plan()
    got: dict[int, list] = {u: [] for u in range(12)}
    for eq in plan.equations:
        for u, col in eq.terms:
            got[u].append(divmod(col, s.z))
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
        for a in [a for a, classes in enumerate(graph.sets) if cls in classes]:
            count = sum(1 for eq in plan.equations
                        if eq.recovery_set == a and any(v == u for v, _ in eq.terms))
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
    sim = simulate(scheme_from_plan(s, plan), list(range(12)), num_files=12,
                   subfile_bytes=8, seed=1)
    assert sim.all_ok
    assert sim.rate == Fraction(36, 9) == 4


def reference_delivery(scheme, graph):
    """The mask-intersection delivery, kept as the reference: for each block
    tuple, the leave-one-out intersections of the chosen blocks' point masks
    (prefix and suffix products) minus their common intersection, paired
    rank by rank.  The products start from the all-points mask, so with one
    class (alpha = 1) a user is served every point outside its block."""
    d, q = scheme.design, scheme.q
    everything = (1 << d.num_points) - 1
    masks = [[sum(1 << p for p in block) for block in cls] for cls in d.classes]

    def bits(mask):
        return [p for p in range(mask.bit_length()) if mask >> p & 1]

    equations = []
    for a, classes in enumerate(graph.sets):
        supers = [graph.labels[(i, a)] for i in classes]
        for lvec in itertools.product(range(q), repeat=len(classes)):
            chosen = [masks[i][l] for i, l in zip(classes, lvec)]
            m = len(chosen)
            prefix = [everything] * (m + 1)
            suffix = [everything] * (m + 1)
            for idx in range(m):
                prefix[idx + 1] = prefix[idx] & chosen[idx]
            for idx in range(m - 1, -1, -1):
                suffix[idx] = suffix[idx + 1] & chosen[idx]
            total = prefix[m]
            served = [bits(prefix[idx] & suffix[idx + 1] & ~total)
                      for idx in range(m)]
            count = len(served[0])
            if any(len(sv) != count for sv in served):
                raise DecodeFailure("unequal served-point counts within a tuple")
            for rank in range(count):
                terms = tuple((cls * q + l,
                               served[idx][rank] * scheme.z + supers[idx])
                              for idx, (cls, l) in enumerate(zip(classes, lvec)))
                equations.append(Equation(a, terms))
    return DeliveryPlan(tuple(equations))


@pytest.fixture
def deadline():
    """Fail the test, instead of stalling the suite, if it runs over 60 s
    (alpha = 1 once sent delivery into an endless loop)."""
    def expire(signum, frame):
        raise TimeoutError("test ran over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def every_alpha(source):
    top = source.k_min if isinstance(source, CrtCodewordSource) else source.k + 1
    return range(1, top + 1)


# extend, claim5 and mds(8,3) repeat windows or have z > 1 at alpha = k+1
DELIVERY_SOURCES = {
    "spc(3)/GF(3)": lambda: build_spc(3, GF3),
    "spc(4)/GF(3)": lambda: build_spc(4, GF3),
    "spc(3)/GF(4)": lambda: build_spc(3, ScalarDomain.field(4)),
    "mds(6,3)/GF(7)": lambda: build_mds(6, 3, GF7),
    "mds(8,3)/GF(8)": lambda: build_mds(8, 3, GF8),
    "extend(spc(2)/GF(3), 2)": lambda: extend_ccp(build_spc(2, GF3), 2),
    "claim5(1,2,3)/GF(4)": lambda: build_claim5(1, 2, 3, GF4),
    "claim6(3,2)/GF(2)": lambda: build_claim6(3, 2, GF2),
    "claim9(2)/Z6": lambda: build_claim9(2, 6),
    "crt GF(2) x+1, GF(3) x+1, n=4": lambda: build_crt_cyclic(
        [([1, 1], GF2), ([1, 1], GF3)], 4),
    "crt GF(2) x+1, GF(3) x^2+x+1, n=3": lambda: build_crt_cyclic(
        [([1, 1], GF2), ([1, 1, 1], GF3)], 3),
}


@pytest.mark.parametrize("name", sorted(DELIVERY_SOURCES))
def test_delivery_matches_mask_reference_at_every_alpha(name, deadline):
    """Same equations in the same order as the mask algorithm, for generator,
    ring and residue sources at every alpha they support.  The design
    shares the codeword rows, and the blocks the reference reads are those
    rows bucketed by label, points ascending."""
    source = DELIVERY_SOURCES[name]()
    cm = codeword_matrix(source)
    d = resolvable_design(cm)
    assert d.rows is cm.rows
    assert d.classes == tuple(
        tuple(tuple(p for p, v in enumerate(row) if v == l) for l in range(cm.q))
        for row in cm.rows)
    for alpha in every_alpha(source):
        s = placement(d, alpha)
        graph = recovery_set_graph(s.n, alpha)
        plan = generate_delivery(s, graph)
        assert plan == reference_delivery(s, graph), (name, alpha)
        assert plan.delta == expected_delta(s), (name, alpha)


def codes_without_the_ccp():
    """Three fixed generator matrices, kron(spc(1)/GF(3), 2), and 60 seeded
    random ones over GF(2) to GF(5) with n <= 6 and at most 256 points (some
    rank deficient, so q^k points with repeated codewords)."""
    codes = [GeneratorMatrix(Matrix.from_rows(dom, rows)) for rows, dom in (
        ([[1, 0, 1], [0, 1, 0]], GF2),
        ([[1, 0, 1, 1], [0, 1, 0, 0]], GF3),
        ([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 0, 1]], GF2))]
    codes.append(kron_identity(build_spc(1, GF3), 2))
    rng = random.Random(20170601)
    while len(codes) < 64:
        dom = rng.choice((GF2, GF3, GF4, GF5))
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        rows = [[rng.randrange(dom.q) for _ in range(n)] for _ in range(k)]
        if dom.q ** k <= 256 and all(any(col) for col in zip(*rows)):
            codes.append(GeneratorMatrix(Matrix.from_rows(dom, rows)))
    return codes


def test_delivery_matches_mask_reference_without_the_ccp(deadline):
    """Codes whose windows are not all full rank: the same plan as the mask
    algorithm, or, where the served-point counts of a tuple differ, the same
    DecodeFailure.  Among them are codes with q^(alpha-1) points at
    alpha = k+1 that lack the CCP, where delivery cannot take single points."""
    outcomes, declined = [], 0
    for g in codes_without_the_ccp():
        d = resolvable_design(codeword_matrix(g))
        declined += not check_ccp(g, g.k + 1).satisfied
        for alpha in every_alpha(g):
            s = placement(d, alpha)
            graph = recovery_set_graph(s.n, alpha)
            got = want = None
            try:
                got = generate_delivery(s, graph)
            except DecodeFailure as exc:
                got = str(exc)
            try:
                want = reference_delivery(s, graph)
            except DecodeFailure as exc:
                want = str(exc)
            assert got == want, (g.mat.to_rows(), alpha)
            outcomes.append(isinstance(got, str))
    assert any(outcomes) and not all(outcomes) and declined > 10


# sha256 of the tobytes() of users, cols, starts and sets ("I" arrays, 4-byte
# little-endian) of the plans that the benchmark's simulate and transpose
# workloads build, pinned from the bucket-per-point delivery
BENCHMARK_PLANS = {
    (7, 3, 8): ("0657a18e3df48181b41a64a54ed8207246f82a58d8a531e1cf771b5a4bc456b2",
                "9635964b91c3838e73f3cba162dfa934227acc0f4520bc2f5f20ddac58494741",
                "e41ac21b5076ff82e6a90e5ce7b6a806393db33141e53379a07a9621927662fa",
                "b7a44326728482682592e9b7c7ce8a929e134b36c5c05501c3521d12c246cc2d"),
    (7, 3, 4): ("53d664edbf28a1bac1dc00c56d02ef3e73d1da3e64b68b022a0eb082898dfe66",
                "49456cdbac5d313c29b3af94ce6b31d806f46e82e72f68134cfc4017d64c2002",
                "b786e55b8167bbeacb0cf41b7bf7ea7d7dc8a95a05f37286e1b4f6635c140823",
                "39ef879da91bc0b7d8b76587fd6e1788bb760921cea1d9df6b69189bdd05001a"),
    (4, 4, 5): ("cc8f08d512d2b4dc89c204c5a76a833afc1774034db5a20f7c7e63e6254ce166",
                "cc71e067675dd21e093f3f93750ef4ab7cb468ae43fff8299cbbb925816bdec2",
                "3c5b5582b6d40b67616f6dde41decfde0d3ffaf12e2a81c105b382bf79c66bc3",
                "e80232b4d18d0bb7e794be263ba937626f383f9917d4b8a737ba893a8f752293"),
}


@pytest.mark.parametrize("k, q, alpha", sorted(BENCHMARK_PLANS))
def test_benchmark_plans_keep_their_bytes(k, q, alpha):
    """Equation order, term order and recovery sets of spc(7)/GF(3) at
    alpha 8 and 4 and spc(4)/GF(4) at alpha 5, byte for byte."""
    source = build_spc(k, ScalarDomain.field(q))
    s = placement(resolvable_design(codeword_matrix(source)), alpha)
    plan = generate_delivery(s, recovery_set_graph(s.n, alpha))
    arrays = (plan.store.users, plan.store.cols, plan.store.starts, plan.sets)
    assert all(a.itemsize == 4 for a in arrays)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in arrays) == BENCHMARK_PLANS[k, q, alpha]


# sha256 of the tobytes() of users, cols and starts of the transposed
# store, and of the miss masks (each in (num_users + 7) // 8 little-endian
# bytes), of the schemes that scheme_from_eq_subfile reads off the
# transposed matrices of spc(4)/GF(4) at alpha 5, spc(7)/GF(3) at alpha 4 and
# spc(4)/GF(3) at alpha 3 (z = 3), pinned while equation_subfile_matrix
# still sorted each row by column
BENCHMARK_TRANSPOSES = {
    (4, 4, 5): ("50c2cb30a3a5c21b73d04994a2df4924783b21e4c2eca88684b2b5d12cd61603",
                "1b16b22290e748d81e19261aed39ccfef41c3d7a62f4efe63dafe35f22f02b2b",
                "ad201d874d793e992e4ed6ee0f48397433f13d39ed6981542dd0c35b49d60a76",
                "b3b463ef55d77f7a059b06122b11865a83037390983f07f46b323ea006f9e060"),
    (7, 3, 4): ("3e96473dff0c149ad426e4a06013693bff5c2294c74fc15f2d431497504628e6",
                "fb62843a43e70e089cd1571cd75baae3bd07f0c7dd0ef22169632027b480379e",
                "ec032b71e84947eed9d3f09c11aa2f0b0d2977946bd33634339343788c0073d8",
                "c40529c9388ad7bda748759b6fddf82e9b10389f3f40b50775274ad136ae381c"),
    (4, 3, 3): ("4c4fc6e4f17c2d15a30479e8addffe1186616fb87496fd19a68d08750e9456b9",
                "d8a028a4d2236ce891ff9ef2f256455bd0ac061b6b92e3aa7fbf01fa82bb4ac8",
                "635fb63181a7b7ffc7f661342e8164b2de3c3fc8aea64021a7be41fd06ff43c9",
                "81f7d4add60fa97c448d1ccccf162b7b0c46eaf9084ed7cd82ed86d7199dba8e"),
}


@pytest.mark.parametrize("k, q, alpha", sorted(BENCHMARK_TRANSPOSES))
def test_benchmark_transposes_keep_their_bytes(k, q, alpha):
    """The transposed store and masks, byte for byte, whatever the order
    of the terms within the matrix's rows."""
    source = build_spc(k, ScalarDomain.field(q))
    s = placement(resolvable_design(codeword_matrix(source)), alpha)
    plan = generate_delivery(s, recovery_set_graph(s.n, alpha))
    ms = scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())
    size = (ms.num_users + 7) // 8
    miss = b"".join(mask.to_bytes(size, "little") for mask in ms.miss)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (ms.store.users, ms.store.cols, ms.store.starts))
    assert digests + (hashlib.sha256(miss).hexdigest(),) == BENCHMARK_TRANSPOSES[k, q, alpha]


def test_alpha_1_serves_each_user_its_missing_points_uncoded(deadline):
    s = placement(example_design(), 1)
    plan = generate_delivery(s, recovery_set_graph(4, 1))
    assert plan.delta == expected_delta(s) == 9 * 2 * 4
    for eq in plan.equations:
        (user, col), = eq.terms
        point, sup = divmod(col, s.z)
        assert point not in s.user_block(user) and sup == 0


def test_incomplete_demands_rejected():
    ms = scheme_from_plan(*example_plan())
    with pytest.raises(IncompleteDemands):
        simulate(ms, [0] * 11, num_files=12)
    with pytest.raises(IncompleteDemands):
        simulate(ms, [0] * 11 + [-1], num_files=12)


# ---------------------------------------------------------------------------
# byte stream
# ---------------------------------------------------------------------------


def reference_stream(seed, count):
    """The first count bytes of the generator run one word at a time."""
    mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    state = seed
    want = bytearray()
    for _ in range(-(-count // 8)):
        state = (state * mult + inc) & mask
        want += state.to_bytes(8, "little")
    return bytes(want[:count])


def test_byte_stream_matches_reference_lcg():
    """The stream equals the generator run word by word: counts on both
    sides of a word and of a 2048-byte block, and a seed past 2^64."""
    counts = (0, 1, 5, 7, 8, 9, 24, 2047, 2048, 2049, 4097)
    for seed in (0, 1, 7, 42, 2 ** 64 + 3):
        want = reference_stream(seed, 2048 + 4097)
        for count in counts:
            assert byte_stream(seed, count) == want[:count], (seed, count)


def test_byte_stream_of_no_bytes_is_empty():
    for seed in (0, 7):
        for count in (0, -1, -8, -4097):
            assert byte_stream(seed, count) == b""


def test_byte_stream_deterministic_and_seed_sensitive():
    assert byte_stream(7, 64) == byte_stream(7, 64)
    assert byte_stream(7, 64) != byte_stream(8, 64)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_example_scheme_rate_8_3():
    s, plan = example_plan()
    sim = simulate(scheme_from_plan(s, plan), list(range(12)), num_files=12,
                   subfile_bytes=8, seed=42)
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
    sim = simulate(scheme_from_plan(s, plan), [0, 1, 2, 3, 4, 5], num_files=6,
                   subfile_bytes=16, seed=0)
    assert sim.all_ok
    assert sim.rate == 1


def test_simulate_all_same_demand():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    sim = simulate(scheme_from_plan(s, plan), [2] * 6, num_files=3,
                   subfile_bytes=4, seed=9)
    assert sim.all_ok
    assert sim.rate == 1


def test_simulate_brute_force_all_demand_vectors():
    """Every demand vector with K=6, N=3 reconstructs bit-exactly: the
    reference decodes each one term by term and agrees with the report."""
    s = placement(spc_design(), 3)
    ms = scheme_from_plan(s, generate_delivery(s, recovery_set_graph(3, 3)))
    for demands in itertools.product(range(3), repeat=6):
        sim = simulate(ms, demands, num_files=3, subfile_bytes=2, seed=5)
        assert sim.all_ok, demands
        assert simulated(ms, demands, 3, 2, 5) == reference_simulate(ms, demands, 3, 2, 5)


def test_simulate_reads_no_design_state(monkeypatch):
    """Once the simulation form is built, simulate never goes back to the
    placement: caches and columns are computed once per plan.  From
    placement on, base and transposed, only the design's label rows are
    read: its blocks are never built."""
    d = example_design()

    def forbidden(*args):
        raise AssertionError("simulate read the placement")

    monkeypatch.setattr(CachingScheme, "cache_cols", forbidden)
    monkeypatch.setattr(ResolvableDesign, "classes", property(forbidden))
    monkeypatch.setattr(ResolvableDesign, "block", forbidden)
    s = placement(d, 3)
    plan = generate_delivery(s, recovery_set_graph(4, 3))
    ms = scheme_from_plan(s, plan)
    transposed = scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())
    demand_vectors = [list(range(12)), [0] * 12, [u % 3 for u in range(12)],
                      [11 - u for u in range(12)]]
    for seed, demands in enumerate(demand_vectors):
        report = simulate(ms, demands, num_files=12, subfile_bytes=4, seed=seed)
        assert report.all_ok, demands
    assert simulate(transposed, [0] * 12, num_files=1, subfile_bytes=4).all_ok


def test_scheme_from_plan_keeps_plan_order_and_placement_caches():
    s, plan = example_plan()
    ms = scheme_from_plan(s, plan)
    assert (ms.num_users, ms.f_s, ms.delta) == (12, 27, 72)
    assert cached(ms) == tuple(s.cache_cols(u) for u in range(12))
    assert ms.equations == tuple(eq.terms for eq in plan.equations)
    # the plan's term tuples are shared, not rebuilt
    assert all(terms is eq.terms
               for terms, eq in zip(ms.equations, plan.equations))


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_matrix_masks_reproduce_the_placement(name):
    """A user lacks exactly the base matrix columns it appears in, so the
    base matrix's column masks are the placement's miss masks; the
    transposed scheme's mask of column j is base equation j's users."""
    s, plan = planned(name)
    m = equation_subfile_matrix(s, plan)
    assert scheme_from_eq_subfile(m).miss == scheme_from_plan(s, plan).miss
    ms = scheme_from_eq_subfile(m.transpose())
    assert len(ms.miss) == ms.f_s == plan.delta
    assert ms.miss == tuple(sum(1 << user for user, _ in eq.terms)
                            for eq in plan.equations)


@pytest.mark.parametrize("user, col", [(0, -1), (0, 2), (2, 0)])
def test_matrix_scheme_refuses_terms_out_of_range(user, col):
    miss = (0b01, 0b10)  # user 0 lacks column 0, user 1 column 1
    equations = (((0, 0), (1, 1)), ((1, 0), (user, col)))
    with pytest.raises(ShapeMismatch, match=(
            f"^equation 1 has user {user} at column {col}, outside 2 users "
            "and 2 columns$")):
        MatrixScheme(2, 2, miss, equations)


def test_matrix_scheme_refuses_caches_out_of_range():
    """A negative mask, or one with a bit at or above num_users, names a
    user outside the scheme; so does a mask count other than f_s."""
    for miss in ((0b01, -1), (0b01, 0b100), (0b01, 0b111)):
        with pytest.raises(ShapeMismatch,
                           match="^mask of column 1 names a user outside 0..1$"):
            MatrixScheme(2, 2, miss, (((0, 0), (1, 1)),))
    for miss in ((0b01,), (0b01, 0b10, 0b11)):
        with pytest.raises(ShapeMismatch,
                           match=f"^{len(miss)} masks for 2 columns$"):
            MatrixScheme(2, 2, miss, (((0, 0), (1, 1)),))


def test_simulate_rejects_nonpositive_subfile_bytes():
    ms = scheme_from_plan(*example_plan())
    for size in (0, -1):
        with pytest.raises(ShapeMismatch):
            simulate(ms, list(range(12)), num_files=12, subfile_bytes=size)


def test_simulate_detects_broken_equation():
    s = placement(spc_design(), 3)
    graph = recovery_set_graph(3, 3)
    plan = generate_delivery(s, graph)
    # point 2 is not in user 0's block {0,1}, so user 0 cannot cancel it
    bad = Equation(plan.equations[0].recovery_set, ((0, 2), (2, 1), (5, 2)))
    broken = DeliveryPlan((bad,) + plan.equations[1:])
    with pytest.raises(DecodeFailure):
        simulate(scheme_from_plan(s, broken), list(range(6)), num_files=6,
                 subfile_bytes=2, seed=0)


def test_simulate_crt_source_end_to_end():
    src = build_crt_cyclic([([1, 1], GF2), ([1, 1], GF3)], 4)
    d = resolvable_design(codeword_matrix(src))
    s = placement(d, src.k_min)
    graph = recovery_set_graph(d.n, src.k_min)
    plan = generate_delivery(s, graph)
    assert plan.delta == expected_delta(s)
    assert verify_lemma4(equation_subfile_matrix(s, plan)).ok
    sim = simulate(scheme_from_plan(s, plan), list(range(24)), num_files=24,
                   subfile_bytes=4, seed=3)
    assert sim.all_ok


def reference_simulate(ms, demands, num_files, subfile_bytes, seed):
    """The term-by-term simulation over the whole payload stream, kept as the
    reference: per equation and user, every term of another user is checked
    against the cache and XOR-ed out of the payload.  A scheme whose users
    all cancel, but which repeats a user in an equation, is refused after
    that scan, naming the first such equation and the first of its users
    that appears twice.  Returns the users' (user, demanded, recovered,
    complete, exact) rows, or the DecodeFailure message."""
    caches, f_s, sub = cached(ms), ms.f_s, subfile_bytes
    stream = byte_stream(seed, num_files * f_s * sub)

    def chunk(file_idx, col):
        off = (file_idx * f_s + col) * sub
        return int.from_bytes(stream[off:off + sub], "little")

    recovered = [set() for _ in caches]
    exact = [True] * len(caches)
    try:
        for terms in ms.equations:
            chunks = [chunk(demands[user], col) for user, col in terms]
            payload = 0
            for c in chunks:
                payload ^= c
            for (user, col), own in zip(terms, chunks):
                value = payload
                for (other, other_col), c in zip(terms, chunks):
                    if other == user:
                        continue
                    if other_col not in caches[user]:
                        raise DecodeFailure(
                            f"user {user} cannot cancel column {other_col}")
                    value ^= c
                if value != own:
                    exact[user] = False
                recovered[user].add(col)
    except DecodeFailure as exc:
        return str(exc)
    for i, terms in enumerate(ms.equations):
        users = [user for user, _ in terms]
        repeated = [user for user in users if users.count(user) > 1]
        if repeated:
            return f"equation {i} repeats user {repeated[0]}"
    every = frozenset(range(f_s))
    return tuple((u, demands[u], len(recovered[u]),
                  recovered[u] == every - caches[u], exact[u])
                 for u in range(len(caches)))


def simulated(ms, demands, num_files, subfile_bytes, seed):
    """simulate's outcome in reference_simulate's form."""
    try:
        report = simulate(ms, demands, num_files, subfile_bytes, seed)
    except DecodeFailure as exc:
        return str(exc)
    return tuple((o.user, o.demanded, o.recovered_count, o.complete, o.exact)
                 for o in report.users)


def edited(ms, index, terms=None, miss=None):
    """ms with equation `index` replaced by `terms` and/or new miss masks."""
    equations = list(ms.equations)
    if terms is not None:
        equations[index] = tuple(terms)
    return MatrixScheme(ms.num_users, ms.f_s, miss or ms.miss, tuple(equations))


def assert_same_failure(ms, message):
    for demands, files, sub, seed in ((list(range(12)), 12, 8, 1),
                                      ([0] * 12, 1, 3, 0)):
        want = reference_simulate(ms, demands, files, sub, seed)
        assert want == message
        assert simulated(ms, demands, files, sub, seed) == want
        with pytest.raises(DecodeFailure, match=f"^{message}$"):
            simulate(ms, demands, files, sub, seed)


def test_decode_failure_in_a_late_equation_names_the_reference_pair():
    ms = scheme_from_plan(*example_plan())
    (u0, c0), (u1, _), (u2, c2) = ms.equations[-1]
    x = min(set(range(27)) - cached(ms)[u0] - {c0})
    assert_same_failure(edited(ms, -1, [(u0, c0), (u1, x), (u2, c2)]),
                        f"user {u0} cannot cancel column {x}")


def test_decode_failure_with_a_user_repeated_in_one_equation():
    """The repeated user skips its own other term; the next user, which does
    not cache that column, is the one named."""
    ms = scheme_from_plan(*example_plan())
    (u0, c0), _, (u2, c2) = ms.equations[40]
    caches = cached(ms)
    x = min(set(range(27)) - caches[u0] - caches[u2])
    assert_same_failure(edited(ms, 40, [(u0, c0), (u0, x), (u2, c2)]),
                        f"user {u2} cannot cancel column {x}")


def test_decode_failure_with_a_column_missing_from_two_caches():
    ms = scheme_from_plan(*example_plan())
    (u0, c0), (u1, c1), (u2, c2) = ms.equations[17]
    miss = list(ms.miss)
    miss[c2] |= 1 << u0 | 1 << u1  # c2 leaves the caches of u0 and u1
    broken = edited(ms, 17, miss=tuple(miss))
    caches = cached(broken)
    first = next((user, col) for terms in ms.equations
                 for user, _ in terms for other, col in terms
                 if other != user and col not in caches[user])
    assert_same_failure(broken, "user {} cannot cancel column {}".format(*first))


def test_repeated_users_and_twice_served_subfiles_keep_reference_reports():
    """A user repeated in an equation whose columns every other user caches
    is refused before any payload: it could only recover its terms XOR-ed
    together.  A subfile served twice leaves complete and exact as they
    were."""
    s, plan = example_plan()
    ms = scheme_from_plan(s, plan)
    (u0, c0), (u1, c1), (u2, c2) = ms.equations[5]
    repeated = edited(ms, 5, [(u0, c0), (u0, c1), (u2, c2)])
    twice = MatrixScheme(12, 27, ms.miss, ms.equations + ms.equations[:3])
    for scheme in (repeated, twice):
        for demands, files, sub, seed in ((list(range(12)), 12, 8, 1),
                                          ([u % 3 for u in range(12)], 3, 5, 4)):
            want = reference_simulate(scheme, demands, files, sub, seed)
            assert simulated(scheme, demands, files, sub, seed) == want
    assert_same_failure(repeated, f"equation 5 repeats user {u0}")
    assert all(row[3] and row[4]
               for row in reference_simulate(twice, list(range(12)), 12, 8, 1))


def test_delivery_certifies_base_and_transposed_schemes():
    """Each user is served every column it lacks, once, and cancels every
    other term of its equations."""
    s, plan = example_plan()
    for ms in (scheme_from_plan(s, plan),
               scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())):
        d = ms.delivery
        assert d.ok and (d.once, d.clean, d.incomplete) == (True, True, 0)
        assert d.recovered == tuple(sum(mask >> u & 1 for mask in ms.miss)
                                    for u in range(ms.num_users))


def test_delivery_certifies_spc9_gf3_at_alpha_10():
    s = placement(resolvable_design(codeword_matrix(build_spc(9, GF3))), 10)
    plan = generate_delivery(s, recovery_set_graph(s.n, 10))
    assert plan.delta == 39366
    assert scheme_from_plan(s, plan).delivery.ok
    transposed = equation_subfile_matrix(s, plan).transpose()
    assert scheme_from_eq_subfile(transposed).delivery.ok


def test_delivery_flags_a_column_served_twice():
    """Serving a user a column twice breaks `once` alone; the report still
    calls every user complete and exact."""
    ms = scheme_from_plan(*example_plan())
    twice = MatrixScheme(12, 27, ms.miss, ms.equations + ms.equations[:1])
    d = twice.delivery
    assert (d.once, d.clean, d.incomplete, d.ok) == (False, True, 0, False)
    assert d.recovered == ms.delivery.recovered
    report = simulate(twice, list(range(12)), num_files=12, subfile_bytes=8, seed=1)
    assert all(u.complete and u.exact for u in report.users)


def test_delivery_flags_a_user_repeated_in_an_equation():
    ms = scheme_from_plan(*example_plan())
    (u0, c0), (_, c1), (u2, c2) = ms.equations[5]
    d = edited(ms, 5, [(u0, c0), (u0, c1), (u2, c2)]).delivery
    assert not d.clean and not d.ok


def test_delivery_flags_a_column_another_member_lacks():
    ms = scheme_from_plan(*example_plan())
    (u0, c0), (u1, _), (u2, c2) = ms.equations[-1]
    x = min(set(range(27)) - cached(ms)[u0] - {c0})
    broken = edited(ms, -1, [(u0, c0), (u1, x), (u2, c2)])
    assert not broken.delivery.clean and not broken.delivery.ok
    assert_same_failure(broken, f"user {u0} cannot cancel column {x}")


def test_delivery_flags_a_lacking_column_never_served():
    """Dropping an equation leaves each of its users one column short."""
    ms = scheme_from_plan(*example_plan())
    dropped = MatrixScheme(12, 27, ms.miss, ms.equations[1:]).delivery
    users = [user for user, _ in ms.equations[0]]
    assert dropped.incomplete == sum(1 << user for user in users)
    assert dropped.once and dropped.clean and not dropped.ok
    assert [ms.delivery.recovered[u] - dropped.recovered[u]
            for u in range(12)] == [int(u in users) for u in range(12)]


def test_undecodable_scheme_fails_before_any_payload():
    """Bad demands, subfile size and payload size are still refused first,
    then DecodeFailure."""
    ms = scheme_from_plan(*example_plan())
    (u0, c0), (u1, _), (u2, c2) = ms.equations[-1]
    x = min(set(range(27)) - cached(ms)[u0] - {c0})
    broken = edited(ms, -1, [(u0, c0), (u1, x), (u2, c2)])
    with pytest.raises(IncompleteDemands, match="^need 12 demands, got 11$"):
        simulate(broken, [0] * 11, num_files=1)
    with pytest.raises(IncompleteDemands, match="^demands exceed file count 1$"):
        simulate(broken, [1] * 12, num_files=1)
    with pytest.raises(ShapeMismatch, match="^subfile_bytes must be >= 1, got 0$"):
        simulate(broken, [0] * 12, num_files=1, subfile_bytes=0)
    with pytest.raises(TooLarge):
        simulate(broken, [0] * 12, num_files=12, subfile_bytes=caching.PAYLOAD_CAP)
    with pytest.raises(DecodeFailure, match=f"^user {u0} cannot cancel column {x}$"):
        simulate(broken, list(range(12)), num_files=12)


def test_simulate_matches_reference_on_random_edits():
    """Random edits of base and transposed schemes: reports and failure
    messages equal the reference's."""
    rng = random.Random(20170601)
    s, plan = example_plan()
    bases = [scheme_from_plan(s, plan),
             scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())]
    outcomes = set()
    for ms in bases:
        k = ms.num_users
        for _ in range(40):
            equations = [list(terms) for terms in ms.equations]
            i = rng.randrange(len(equations))
            j = rng.randrange(len(equations[i]))
            user, col = equations[i][j]
            kind = rng.randrange(4)
            if kind == 0:
                equations[i][j] = (rng.randrange(k), col)
            elif kind == 1:
                equations[i][j] = (user, rng.randrange(ms.f_s))
            elif kind == 2:
                equations.append(equations[i])
            else:
                del equations[i]
            variant = MatrixScheme(k, ms.f_s, ms.miss,
                                   tuple(map(tuple, equations)))
            files = rng.randrange(1, 5)
            demands = [rng.randrange(files) for _ in range(k)]
            sub, seed = rng.choice((1, 3, 8, 17)), rng.randrange(100)
            want = reference_simulate(variant, demands, files, sub, seed)
            assert simulated(variant, demands, files, sub, seed) == want
            outcomes.add(want if isinstance(want, str) else
                         (all(r[3] for r in want), all(r[4] for r in want)))
    # every report is exact: a variant that repeats a user is refused
    assert {(True, True), (False, True)} <= outcomes
    texts = [o.split()[2] for o in outcomes if isinstance(o, str)]
    assert {"cannot", "repeats"} <= set(texts)


@pytest.mark.parametrize("transposed", [False, True])
def test_simulate_matches_reference_past_64_users(transposed):
    """mds(9,2)/GF(9) has 81 users, so its user masks pass 64 bits.  The
    scheme and three edits of one equation get the reference's report or
    DecodeFailure text: two users swapped, a user repeated with a column
    another user lacks, and a user repeated with a column every other user
    caches, which is refused because it would decode only to its terms
    XOR-ed together."""
    s, plan = planned("mds(9,2)/GF(9)")
    ms = (scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())
          if transposed else scheme_from_plan(s, plan))
    assert ms.num_users == 81
    terms = list(ms.equations[7])
    (u0, c0), (u1, c1) = terms[:2]
    others = [user for user, _ in terms[1:]]
    caches = cached(ms)
    lacking = sorted(set(range(ms.f_s)) - caches[u1] - {c1})
    shared = [c for c in sorted(set(range(ms.f_s)) - caches[u0])
              if all(c in caches[user] for user in others)]
    demands = [u % 5 for u in range(81)]

    def outcome(variant):
        want = reference_simulate(variant, demands, 5, 8, 3)
        assert simulated(variant, demands, 5, 8, 3) == want
        return want

    assert all(row[3] and row[4] for row in outcome(ms))
    swapped = [(u1, c0), (u0, c1)] + terms[2:]
    for broken in (swapped, terms + [(u0, lacking[-1])]):
        assert "cannot cancel column" in outcome(edited(ms, 7, broken))
    assert (outcome(edited(ms, 7, terms + [(u0, shared[-1])]))
            == f"equation 7 repeats user {u0}")


# one source per family that no other simulation test covers, at its alpha
SIMULATED_FAMILIES = {
    "claim5(2,2,3)/GF(5)": (lambda: build_claim5(2, 2, 3, GF5), 4),
    "kron(spc(2)/GF(2), 2) at alpha k": (
        lambda: kron_identity(build_spc(2, GF2), 2), 4),
    "extend(spc(3)/GF(3), 1)": (lambda: extend_ccp(build_spc(3, GF3), 1), 4),
    "crt GF(2) x+1, GF(3) x+1, n=4": (lambda: build_crt_cyclic(
        [([1, 1], GF2), ([1, 1], GF3)], 4), 3),
}


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("name", sorted(SIMULATED_FAMILIES))
def test_simulate_matches_reference_on_every_family(name, transposed):
    """Base and transposed schemes of the claim5, kron, extend and residue
    families decode in the reference, term by term against the byte stream,
    as simulate reports, on distinct and on shared demands."""
    build, alpha = SIMULATED_FAMILIES[name]
    s = placement(resolvable_design(codeword_matrix(build())), alpha)
    plan = generate_delivery(s, recovery_set_graph(s.n, alpha))
    ms = (scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())
          if transposed else scheme_from_plan(s, plan))
    users = ms.num_users
    for demands, files in ((list(range(users)), users),
                           ([(users - u) % 3 for u in range(users)], 3)):
        want = reference_simulate(ms, demands, files, 5, 11)
        assert simulated(ms, demands, files, 5, 11) == want
        assert all(row[3] and row[4] for row in want)


def test_simulate_at_the_payload_cap_materializes_nothing():
    """Twelve distinct demands on files of 27 subfiles of 207,126 bytes,
    64 MiB in all and just under PAYLOAD_CAP, are reported without building
    any file byte."""
    ms = scheme_from_plan(*example_plan())
    sub = caching.PAYLOAD_CAP // (12 * 27)
    assert caching.PAYLOAD_CAP - 12 * 27 < 12 * 27 * sub < caching.PAYLOAD_CAP
    tracemalloc.start()
    try:
        report = simulate(ms, list(range(12)), num_files=12, subfile_bytes=sub,
                          seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_ok and report.load_bytes == 72 * sub
    assert peak < 1 << 20


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
    # the matrix is its cells; its rows keep the plan's store and term order
    assert dense(m) == ((6, 3, 1, 0), (4, 5, 0, 1), (2, 0, 5, 3), (0, 2, 4, 6))
    assert m.store is plan.store
    assert verify_lemma4(m).ok


def test_eq_subfile_matrix_rejects_shared_column():
    """Two users in one cell survive transposition, and Lemma 4 names each
    such cell last, by equation, then column: column 1 of equation 1 before
    column 2, met first in plan order, then column 0 of equation 2."""
    s = placement(spc_design(), 3)
    plan = DeliveryPlan((Equation(0, ((0, 0), (1, 1))),
                         Equation(1, ((2, 2), (3, 2), (4, 1), (5, 1))),
                         Equation(2, ((0, 0), (1, 0)))))
    m = equation_subfile_matrix(s, plan)
    twice = m.transpose().transpose()
    assert [sorted(row) for row in twice.row_terms] == [
        sorted(row) for row in m.row_terms]
    assert verify_lemma4(m).violations[-3:] == tuple(
        f"two users recover subfile column {j} in one equation" for j in (1, 2, 0))


@pytest.mark.parametrize("user, col", [(0, -1), (0, 2), (2, 0)])
def test_eq_subfile_matrix_refuses_terms_out_of_range(user, col):
    """A column of -1 would read the last column's mask, and a column or
    user past the end would index past the masks."""
    with pytest.raises(ShapeMismatch, match=(
            f"^equation 1 has user {user} at column {col}, outside 2 users "
            "and 2 columns$")):
        EqSubfileMatrix(2, 2, (((0, 0),), ((1, 1), (user, col))))


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


def test_lemma4_refuses_two_users_in_one_cell():
    """No dense matrix holds two users in one cell, so only the shared-cell
    entry names it: neither user cancels the other's term."""
    m = EqSubfileMatrix(2, 1, (((0, 0), (1, 0)),))
    assert verify_lemma4(m) == caching.Lemma4Report(
        False, ("two users recover subfile column 0 in one equation",))
    with pytest.raises(Lemma4Violated, match=(
            "^two users recover subfile column 0 in one equation$")):
        scheme_from_eq_subfile(m)


def test_lemma4_names_a_violation_on_random_sparse_matrices():
    """2000 seeded sparse matrices of 1-4 rows, columns and users, each row
    0-4 terms that may repeat a user or a column, so two users may share a
    cell: every failing report names a violation, scheme_from_eq_subfile
    refuses exactly the failing ones with the first three, and transposing
    twice gives each row its terms in column order."""
    rng = random.Random(20170601)
    for _ in range(2000):
        users, cols = rng.randint(1, 4), rng.randint(1, 4)
        terms = tuple(tuple((rng.randrange(users), rng.randrange(cols))
                            for _ in range(rng.randint(0, 4)))
                      for _ in range(rng.randint(1, 4)))
        m = EqSubfileMatrix(users, cols, terms)
        assert m.transpose().transpose().row_terms == tuple(
            tuple(sorted(row, key=lambda term: term[1])) for row in terms)
        rep = verify_lemma4(m)
        assert rep.ok != bool(rep.violations), terms
        if rep.ok:
            scheme_from_eq_subfile(m)
            continue
        with pytest.raises(Lemma4Violated) as refusal:
            scheme_from_eq_subfile(m)
        assert str(refusal.value) == "; ".join(rep.violations[:3])


def random_matrices():
    """3000 seeded small dense matrices of random fill, each with its
    sparse form: (entries, matrix)."""
    rng = random.Random(20170601)
    for _ in range(3000):
        rows, cols, users = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        fill = rng.random()
        entries = tuple(tuple(rng.randint(1, users) if rng.random() < fill else 0
                              for _ in range(cols)) for _ in range(rows))
        yield entries, sparse(users, entries)


def test_lemma4_matches_dense_reference_on_random_matrices():
    for entries, m in random_matrices():
        assert dense(m) == entries
        assert m.transpose().transpose() == m
        assert dense(m.transpose()) == tuple(zip(*entries))
        for mat in (m, m.transpose()):
            rep = verify_lemma4(mat)
            assert (rep.ok, rep.violations) == reference_lemma4(dense(mat)), entries


def test_lemma4_matches_dense_reference_on_shuffled_rows():
    """The random matrices with each row's terms shuffled, as a plan's
    matrix holds them out of column order: the same cells, so the same
    violations in the same order."""
    rng = random.Random(20170601)
    for entries, m in random_matrices():
        rows = [list(row) for row in m.row_terms]
        for row in rows:
            rng.shuffle(row)
        rep = verify_lemma4(EqSubfileMatrix(m.num_users, m.cols, tuple(map(tuple, rows))))
        assert (rep.ok, rep.violations) == reference_lemma4(entries), entries


def single_edit(m, rng):
    """m with one nonzero's user changed (half the time to another user of
    its row), the nonzero moved to an empty cell of its row, or the nonzero
    copied to an empty cell of its column in another row."""
    rows = [list(row) for row in m.row_terms]
    i = rng.choice([r for r, row in enumerate(rows) if row])
    t = rng.randrange(len(rows[i]))
    user, j = rows[i][t]
    kind = rng.randrange(3)
    if kind == 0:
        mates = [u for u, _ in rows[i] if u != user]
        others = [u for u in range(m.num_users) if u != user]
        rows[i][t] = (rng.choice(mates if mates and rng.random() < 0.5 else others), j)
        return EqSubfileMatrix(m.num_users, m.cols, tuple(map(tuple, rows)))
    if kind == 1:
        del rows[i][t]
        j = rng.choice(sorted(set(range(m.cols)) - {c for _, c in m.row_terms[i]}))
    else:
        i = rng.choice([r for r, row in enumerate(rows) if all(c != j for _, c in row)])
    rows[i] = sorted(rows[i] + [(user, j)], key=lambda term: term[1])
    return EqSubfileMatrix(m.num_users, m.cols, tuple(map(tuple, rows)))


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_lemma4_mask_verdict_matches_reference_on_edited_plans(name):
    """Base and transposed matrices of real plans pass; each of 60 seeded
    single edits of either gets the dense reference's verdict and
    violations, in order."""
    m = equation_subfile_matrix(*planned(name))
    rng = random.Random(20170601)
    kinds = set()
    for mat in (m, m.transpose()):
        assert verify_lemma4(mat) == caching.Lemma4Report(True, ())
        for _ in range(60):
            variant = single_edit(mat, rng)
            rep = verify_lemma4(variant)
            assert (rep.ok, rep.violations) == reference_lemma4(dense(variant))
            # "user v appears twice ...", "row i repeats ...", "user v at ..."
            kinds.update(v.split()[2] for v in rep.violations)
    assert kinds == {"appears", "repeats", "at"}


def compare_with_checked(m):
    """What transpose() and scheme_from_eq_subfile return equals the same
    fields built by hand through the checked constructors.  True when m's
    transpose passes Lemma 4, so that its scheme was compared too."""
    mt = m.transpose()
    assert mt == EqSubfileMatrix(m.num_users, m.rows, mt.row_terms)
    if not verify_lemma4(mt).ok:
        return False
    masks = [0] * mt.cols
    for row in mt.row_terms:
        for user, j in row:
            masks[j] |= 1 << user
    assert scheme_from_eq_subfile(mt) == MatrixScheme(
        mt.num_users, mt.cols, tuple(masks), mt.row_terms)
    return True


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_unchecked_results_equal_checked_ones_on_plans(name):
    m = equation_subfile_matrix(*planned(name))
    assert compare_with_checked(m) and compare_with_checked(m.transpose())


def test_unchecked_results_equal_checked_ones_on_random_matrices():
    schemes = sum(compare_with_checked(mat)
                  for _, m in random_matrices() for mat in (m, m.transpose()))
    assert schemes > 1000  # enough pass Lemma 4 to compare schemes too


def test_lemma4_transpose_symmetry():
    s, plan = example_plan()
    m = equation_subfile_matrix(s, plan)
    mt = m.transpose()
    assert verify_lemma4(m).ok
    assert verify_lemma4(mt).ok
    # m keeps plan order within its rows; a transposed matrix's rows ascend
    assert dense(mt.transpose()) == dense(m)
    assert mt.transpose().transpose() == mt


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
    caches = cached(ms)
    col_sets = sorted(tuple(u + 1 for u in range(4) if j in caches[u])
                      for j in range(6))
    assert col_sets == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    sim = simulate(ms, [0, 1, 2, 3], num_files=4, subfile_bytes=8, seed=11)
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
    sim = simulate(ms, [0, 1, 0, 1, 2, 2], num_files=3, subfile_bytes=4, seed=7)
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
    sim = simulate(scheme_from_plan(s, plan), list(range(18)), num_files=18,
                   subfile_bytes=2, seed=1)
    assert sim.all_ok
    assert sim.rate == Fraction(3, 2)

    m = equation_subfile_matrix(s, plan)
    ms = scheme_from_eq_subfile(m.transpose())
    assert ms.f_s == 96
    assert ms.rate == Fraction(2, 3)
    assert all(ms.cache_fraction(u) == Fraction(2, 3) for u in range(18))
    simt = simulate(ms, list(range(18)), num_files=18, subfile_bytes=2, seed=2)
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
# the term store and the delivery certificate
# ---------------------------------------------------------------------------


def reference_certificate(ms):
    """The certificate as one pass over the term tuples, kept as the
    reference: per-column served masks, the distinct columns each user
    recovers, and per equation its user mask and the cancel test."""
    served, recovered, clean = [0] * ms.f_s, [0] * ms.num_users, True
    for terms in ms.equations:
        user_mask = 0
        for user, col in terms:
            bit = 1 << user
            if not served[col] & bit:
                served[col] |= bit
                recovered[user] += 1
            user_mask |= bit
        clean = clean and user_mask.bit_count() == len(terms) and all(
            ms.miss[col] & user_mask == 1 << user for user, col in terms)
    incomplete = 0
    for mask, lacking in zip(served, ms.miss):
        incomplete |= mask ^ lacking
    once = sum(recovered) == sum(map(len, ms.equations))
    return caching.Delivery(tuple(recovered), incomplete, once, clean)


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_certificate_matches_reference_on_plans_and_edits(name):
    """Base and transposed schemes of real plans, and the schemes read off
    60 seeded single edits of either matrix.  A scheme read off a matrix
    serves each user exactly the columns it lacks; the edits break `once`
    and `clean`."""
    s, plan = planned(name)
    m = equation_subfile_matrix(s, plan)
    rng = random.Random(20170601)
    verdicts = set()
    base, transposed = scheme_from_plan(s, plan), scheme_from_eq_subfile(m.transpose())
    for ms in (base, transposed):
        assert ms.delivery == reference_certificate(ms) and ms.delivery.ok
    # Lemma 4 is symmetric under transposition: every column served once
    assert transposed.delivery == caching.Delivery(base.delivery.recovered, 0, True, True)
    for mat in (m, m.transpose()):
        for _ in range(60):
            ms = caching._read_off(single_edit(mat, rng))
            assert ms.delivery == reference_certificate(ms)
            verdicts.add((ms.delivery.once, ms.delivery.clean))
    assert {(False, False), (True, False)} <= verdicts


def test_certificate_matches_reference_on_random_matrices():
    """Each matrix and its transpose read off, and again with one user's
    bit of one column's miss mask flipped, so that some user is served a
    column it caches or lacks a column it is never served."""
    rng = random.Random(20170601)
    verdicts = set()
    for _, m in random_matrices():
        for mat in (m, m.transpose()):
            ms = caching._read_off(mat)
            miss = list(ms.miss)
            miss[rng.randrange(ms.f_s)] ^= 1 << rng.randrange(ms.num_users)
            for scheme in (ms, MatrixScheme(ms.num_users, ms.f_s, tuple(miss), ms.store)):
                assert scheme.delivery == reference_certificate(scheme)
                d = scheme.delivery
                verdicts.add((d.once, d.clean, not d.incomplete))
    assert len(verdicts) == 8  # every combination of the three conditions


def test_certificate_matches_reference_on_hand_built_schemes():
    """The twice-served, repeated-user and two-caches schemes, a dropped
    equation, a user served a column it caches, and no equations."""
    ms = scheme_from_plan(*example_plan())
    (u0, c0), (u1, c1), (u2, c2) = ms.equations[5]
    miss = list(ms.miss)
    miss[c2] |= 1 << u0 | 1 << u1
    cached_col = min(cached(ms)[u0])
    schemes = [MatrixScheme(12, 27, ms.miss, ms.equations + ms.equations[:3]),
               edited(ms, 5, [(u0, c0), (u0, c1), (u2, c2)]),
               edited(ms, 5, miss=tuple(miss)),
               MatrixScheme(12, 27, ms.miss, ms.equations[1:]),
               edited(ms, 5, [(u0, cached_col), (u1, c1), (u2, c2)]),
               MatrixScheme(12, 27, ms.miss, ())]
    for scheme in schemes:
        assert scheme.delivery == reference_certificate(scheme)
    assert [scheme.delivery.ok for scheme in schemes] == [False] * 6


def spc_plan(k, q, alpha):
    s = placement(resolvable_design(codeword_matrix(
        build_spc(k, ScalarDomain.field(q)))), alpha)
    return s, generate_delivery(s, recovery_set_graph(s.n, alpha))


@pytest.mark.parametrize("k, q, alpha, transposed", [
    (7, 3, 8, False), (7, 3, 4, False), (4, 4, 5, True)])
def test_certificate_matches_reference_on_the_benchmark_shapes(k, q, alpha, transposed):
    """The schemes that the benchmark's simulate and transpose workloads
    certify: spc(7)/GF(3) at alpha 8 and 4, and spc(4)/GF(4) transposed."""
    s, plan = spc_plan(k, q, alpha)
    if transposed:
        ms = scheme_from_eq_subfile(equation_subfile_matrix(s, plan).transpose())
    else:
        ms = scheme_from_plan(s, plan)
    assert ms.delivery == reference_certificate(ms) and ms.delivery.ok


def test_certificate_transients_stay_small():
    """Certifying spc(7)/GF(3) at alpha 4 (34,992 terms) peaks near 1.3 MiB
    under tracemalloc, in the slotted integers of the clean test.  A list
    copy of the store's users and columns would peak near 1.56 MiB, in the
    served-mask pass."""
    s, plan = spc_plan(7, 3, 4)
    scheme_from_plan(s, plan)
    gc.collect()
    tracemalloc.start()
    try:
        scheme_from_plan(s, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.store.users) == 34992
    assert peak < 1.5 * 2 ** 20, peak / 1024


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_store_round_trips_through_term_tuples(name):
    """Packing the tuple views again gives an equal object, and each view
    is built from the one store that the plan and its scheme share."""
    s, plan = planned(name)
    assert DeliveryPlan(plan.equations) == plan
    assert DeliveryPlan(plan.equations[::-1]).equations == plan.equations[::-1]
    m = equation_subfile_matrix(s, plan)
    for mat in (m, m.transpose()):
        assert EqSubfileMatrix(mat.num_users, mat.cols, mat.row_terms) == mat
    for ms in (scheme_from_plan(s, plan), scheme_from_eq_subfile(m.transpose())):
        again = MatrixScheme(ms.num_users, ms.f_s, ms.miss, ms.equations)
        assert again == ms and again.delivery == ms.delivery
    assert scheme_from_plan(s, plan).store is plan.store


def test_store_refuses_terms_out_of_range_with_the_tuple_text():
    """Out-of-range terms, in tuples or in a plan's store, name the first
    equation that holds one; a plan with a term or recovery set that no
    array("I") can hold is refused with ShapeMismatch, never OverflowError."""
    s, plan = example_plan()
    text = "^equation 3 has user {} at column {}, outside 12 users and 27 columns$"
    for user, col in ((12, 0), (0, 27), (-1, 0), (0, -1), (2 ** 40, 0)):
        equations = list(plan.equations)
        equations[3] = Equation(0, equations[3].terms[:2] + ((user, col),))
        terms = [eq.terms for eq in equations]
        with pytest.raises(ShapeMismatch, match=text.format(user, col)):
            MatrixScheme(12, 27, scheme_from_plan(s, plan).miss, terms)
        with pytest.raises(ShapeMismatch, match=text.format(user, col)):
            EqSubfileMatrix(12, 27, terms)
        if max(user, col) < 2 ** 32 and min(user, col) >= 0:
            with pytest.raises(ShapeMismatch, match=text.format(user, col)):
                scheme_from_plan(s, DeliveryPlan(equations))
        else:
            with pytest.raises(ShapeMismatch, match=r"^a user, column or recovery "
                               r"set is outside 0\.\.2\^32-1$"):
                DeliveryPlan(equations)
    with pytest.raises(ShapeMismatch, match="^a user, column or recovery set"):
        DeliveryPlan((Equation(-1, ((0, 0),)),))


def test_plan_from_a_store_refuses_missing_recovery_sets():
    _, plan = example_plan()
    with pytest.raises(ShapeMismatch, match="^no recovery sets for 72 equations$"):
        DeliveryPlan(plan.store)
    assert DeliveryPlan(plan.store, plan.sets) == plan


def test_plan_from_a_store_refuses_recovery_sets_of_the_wrong_length():
    """One set short or one too many is refused, not truncated by zip."""
    _, plan = example_plan()
    for sets in (plan.sets[:-1], plan.sets + plan.sets[:1]):
        with pytest.raises(ShapeMismatch,
                           match=f"^{len(sets)} recovery sets for 72 equations$"):
            DeliveryPlan(plan.store, sets)


def test_delivery_retains_a_few_bytes_per_term():
    """spc(7)/GF(3) at alpha 8 has 34,992 terms.  Flat arrays keep about 9
    bytes per term; one (user, column) tuple alone would take 56."""
    s = placement(resolvable_design(codeword_matrix(build_spc(7, GF3))), 8)
    graph = recovery_set_graph(s.n, 8)
    generate_delivery(s, graph)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = generate_delivery(s, graph)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert plan.delta * 8 == 34992
    assert retained < 16 * 34992, retained / 34992


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
