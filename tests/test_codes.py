import itertools
import math
import random

import pytest

from codedcache import codes as codes_module
from codedcache.analysis import construct_candidate_set
from codedcache.codes import (
    CcpCertificate,
    CrtCodewordSource,
    GeneratorMatrix,
    Provenance,
    build_claim5,
    build_claim6,
    build_claim9,
    build_crt_cyclic,
    build_cyclic,
    build_mds,
    build_spc,
    ccp_windows,
    check_ccp,
    check_ccp_cyclic_shortcut,
    cyclic_search_space,
    extend_ccp,
    kron_identity,
    least_z,
    search_cyclic_generators,
    WindowCheck,
)
from codedcache.design import codeword_matrix
from codedcache.errors import (
    BaseNotCcp,
    ComponentInvalid,
    DomainError,
    FieldTooSmall,
    InvalidAlpha,
    ModuliNotCoprimePrimes,
    NotADivisor,
    NotCyclic,
    NotMonic,
    RingConditionViolated,
    RingNotSupported,
    ShapeMismatch,
    ZeroColumn,
    ZeroConstantTerm,
)
from codedcache.gf import Matrix, ScalarDomain, mat_det_is_unit, mat_rank, natural_domain

GF2 = ScalarDomain.field(2)
GF3 = ScalarDomain.field(3)
GF5 = ScalarDomain.field(5)


def gmat(dom, rows, provenance=None):
    return GeneratorMatrix(Matrix.from_rows(dom, rows), provenance)


def example_code_4_2():
    """The running (4,2) code over GF(3) whose T matrix seeds the design tests."""
    return gmat(GF3, [[1, 0, 1, 1], [0, 1, 1, 2]])


# ---------------------------------------------------------------------------
# generator matrix validation
# ---------------------------------------------------------------------------


def test_generator_shape_bounds():
    with pytest.raises(ShapeMismatch):
        gmat(GF2, [[1, 1], [1, 0]])  # k = n
    with pytest.raises(ShapeMismatch):
        gmat(GF2, [[1], [1]])


def test_field_generator_rejects_zero_column():
    with pytest.raises(ZeroColumn):
        gmat(GF3, [[1, 0, 1], [2, 0, 1]])


def test_ring_generator_needs_unit_column_content():
    z6 = ScalarDomain.ring(6)
    # column (2, 4) has gcd 2 with 6
    with pytest.raises(RingConditionViolated):
        gmat(z6, [[1, 2, 1], [0, 4, 1]])
    # column (2, 3) has content 1, fine
    gmat(z6, [[1, 2, 1], [0, 3, 1]])


def test_provenance_params_cannot_shadow_kind():
    with pytest.raises(DomainError):
        Provenance("cyclic", {"kind": "field"})


def test_provenance_round_trip_nested():
    p = Provenance("extended", {"s": 2, "base": Provenance("spc", {"k": 3})})
    again = Provenance.from_dict(p.to_dict())
    assert again == p


# ---------------------------------------------------------------------------
# window enumeration and z
# ---------------------------------------------------------------------------


def test_least_z_values():
    assert least_z(4, 3) == 3
    assert least_z(3, 3) == 1
    assert least_z(9, 6) == 2
    assert least_z(8, 5) == 5
    assert least_z(12, 6) == 1


def test_windows_traversal_order_n4_alpha3():
    assert ccp_windows(4, 3) == [(0, 1, 2), (3, 0, 1), (2, 3, 0), (1, 2, 3)]


def test_windows_partition_when_alpha_divides_n():
    assert ccp_windows(12, 6) == [tuple(range(6)), tuple(range(6, 12))]


# ---------------------------------------------------------------------------
# check_ccp
# ---------------------------------------------------------------------------


def test_example_code_satisfies_2_3_ccp():
    cert = check_ccp(example_code_4_2(), 3)
    assert cert.satisfied
    assert cert.z == 3
    assert cert.method == "exhaustive"
    assert [w.columns for w in cert.windows] == [
        (0, 1, 2), (3, 0, 1), (2, 3, 0), (1, 2, 3)]
    assert all(w.ok for w in cert.windows)


def test_eight_four_cyclic_gf3_satisfies_4_5_ccp():
    g = build_cyclic(8, [2, 1, 0, 1, 1], GF3)
    assert check_ccp(g, 5).satisfied


def test_repeated_column_fails_ccp():
    g = gmat(GF3, [[1, 1, 0, 1], [0, 0, 1, 1]])
    cert = check_ccp(g, 3)
    assert not cert.satisfied
    assert any(not w.ok for w in cert.windows)


def test_alpha_below_k_plus_one_checks_column_independence():
    g = example_code_4_2()
    assert check_ccp(g, 2).satisfied
    assert check_ccp(g, 1).satisfied


def per_drop_certificate(g):
    """Reference: the alpha = k+1 certificate from one rank per k x k
    submatrix left by dropping a column of a window."""
    alpha = g.k + 1
    windows = []
    for a, cols in enumerate(ccp_windows(g.n, alpha)):
        checks = tuple((f"drop column {cols[d]}",
                        mat_rank(g.mat.take_cols(cols[:d] + cols[d + 1:])) == g.k)
                       for d in range(alpha))
        windows.append(WindowCheck(a, cols, checks, all(ok for _, ok in checks)))
    return CcpCertificate(alpha, least_z(g.n, alpha), all(w.ok for w in windows),
                          "exhaustive", tuple(windows))


def nonzero_columns(rows):
    """Replace each all-zero column by ones; repeated columns stay repeated."""
    for b in range(len(rows[0])):
        if not any(row[b] for row in rows):
            for row in rows:
                row[b] = 1
    return rows


def test_ccp_window_checks_match_per_drop_rank():
    rng = random.Random(1234)
    gens = []
    for q in (2, 3, 4, 5, 9, 16):
        dom = ScalarDomain.field(q)
        for _ in range(40):
            k = rng.randrange(1, 5)
            n = rng.randrange(k + 1, k + 5)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            shape = rng.randrange(3)
            if shape == 1 and k > 1:  # rank-deficient: last row repeats the first
                rows[-1] = list(rows[0])
            elif shape == 2:  # a repeated column
                for row in rows:
                    row[1] = row[0]
            gens.append(gmat(dom, nonzero_columns(rows)))
    # wider: windows wrap with z > 1, pivots away from the front and the back
    rng = random.Random(4321)
    for q in (2, 5, 8, 9, 27, 32):
        dom = ScalarDomain.field(q)
        for _ in range(25):
            k = rng.randrange(2, 8)
            n = rng.randrange(k + 1, 2 * k + 4)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            shape = rng.randrange(4)
            if shape == 1:  # rank k - 1, or k - 2 from k = 4 on
                rows[-1] = list(rows[0])
                if k >= 4:
                    rows[-2] = [dom.add(x, y) for x, y in zip(rows[0], rows[1])]
            elif shape == 2:  # the first k columns are dependent
                for row in rows:
                    row[k - 1] = dom.mul(q - 1, row[0])
            elif shape == 3:  # the last k columns are dependent
                for row in rows:
                    row[n - k] = row[n - 1]
            gens.append(gmat(dom, nonzero_columns(rows)))
    windows = failing = 0
    for g in gens:
        cert = check_ccp(g, g.k + 1)
        assert cert == per_drop_certificate(g)
        failing += sum(not w.ok for w in cert.windows)
        windows += len(cert.windows)
    assert any(least_z(g.n, g.k + 1) > 1 and g.k == 7 for g in gens)
    assert 50 <= failing <= windows - 50


def test_invalid_alpha_rejected():
    g = example_code_4_2()
    with pytest.raises(InvalidAlpha):
        check_ccp(g, 0)
    with pytest.raises(InvalidAlpha):
        check_ccp(g, 4)  # k + 2


def test_ring_ccp_uses_unit_determinants():
    z6 = ScalarDomain.ring(6)
    g = build_spc(3, z6)
    assert check_ccp(g, 4).satisfied
    assert check_ccp(g, 3).satisfied
    # scale one column by a zero divisor: the window containing it must fail
    rows = [list(r) for r in g.mat.to_rows()]
    rows[0][0] = 3  # column 0 becomes (3,0,0), content gcd(6,3)=3
    with pytest.raises(RingConditionViolated):
        gmat(z6, rows)


# ---------------------------------------------------------------------------
# cyclic shortcut
# ---------------------------------------------------------------------------


def test_shortcut_on_eight_four_gf3():
    g = build_cyclic(8, [2, 1, 0, 1, 1], GF3)
    cert = check_ccp_cyclic_shortcut(g)
    assert cert.satisfied
    assert cert.method == "cyclic-shortcut"


def test_shortcut_on_twelve_six_gf5():
    g = build_cyclic(12, [3, 4, 1, 3, 3, 1, 1], GF5)
    assert check_ccp_cyclic_shortcut(g).satisfied
    assert check_ccp(g, 7).satisfied


def test_shortcut_requires_cyclic_provenance():
    with pytest.raises(NotCyclic):
        check_ccp_cyclic_shortcut(build_spc(2, GF2))


def test_shortcut_agrees_with_full_check_everywhere():
    """Oracle agreement across every generator the search finds (n <= 12)."""
    agreements = 0
    for q in (2, 3, 5):
        dom = ScalarDomain.field(q)
        for n in range(4, 13):
            for k in range(2, n):
                if cyclic_search_space(n, k, dom) > 2500:
                    continue
                for gen in search_cyclic_generators(n, k, dom):
                    g = build_cyclic(n, gen, dom)
                    fast = check_ccp_cyclic_shortcut(g).satisfied
                    slow = check_ccp(g, k + 1).satisfied
                    assert fast == slow, (q, n, k, gen)
                    agreements += 1
    assert agreements >= 50


def reference_shortcut(g):
    """The shortcut certificate with every condition matrix C_j built and
    reduced on its own, kept apart from the two Toeplitz eliminations."""
    gen, n, k, dom = g.provenance.params["gen_poly"], g.n, g.k, g.domain

    def coeff(i):
        return gen[i] if 0 <= i < len(gen) else 0

    start = n - k // 2 - 1
    cols = tuple((start + j) % n for j in range(k + 1))
    checks = [("boundary j=0 (triangular unit block)", True)]
    for j in range(1, k):
        if j <= k // 2:
            dim = j
            rows = [[coeff(n - k - 1 - r + c) for c in range(dim)] for r in range(dim)]
        else:
            dim = k - j
            rows = [[coeff(1 - r + c) for c in range(dim)] for r in range(dim)]
        ok = mat_det_is_unit(Matrix.from_rows(dom, rows))[1]
        checks.append((f"condition matrix for j={j} ({dim}x{dim})", ok))
    checks.append(("boundary j=k (triangular unit block)", True))
    satisfied = all(ok for _, ok in checks)
    window = WindowCheck(0, cols, tuple(checks), satisfied)
    return CcpCertificate(k + 1, least_z(n, k + 1), satisfied, "cyclic-shortcut", (window,))


def test_shortcut_certificate_equals_per_minor_reference():
    """Every divisor-derived cyclic code over seven fields, n <= 15: the first
    30 generators of each (n, k) give the reference's certificate exactly."""
    checked = failed = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        dom = ScalarDomain.field(q)
        for n in range(2, 16):
            for k in range(1, n):
                space = cyclic_search_space(n, k, dom)
                for gen in search_cyclic_generators(n, k, dom, space)[:30]:
                    g = build_cyclic(n, gen, dom)
                    cert = check_ccp_cyclic_shortcut(g)
                    assert cert == reference_shortcut(g), (q, n, gen)
                    checked += 1
                    failed += not cert.satisfied
    assert checked >= 3000
    assert 0 < failed < checked


def ring_cyclic_codes(q, max_n, max_space=3000):
    """Every cyclic code over Z mod q with 3 <= n <= max_n, from trying each
    monic candidate with a nonzero constant term; degrees whose candidate
    count exceeds max_space are skipped."""
    dom = ScalarDomain.ring(q)
    for n in range(3, max_n + 1):
        for deg in range(1, n):
            if (q - 1) * q ** (deg - 1) > max_space:
                continue
            for low in itertools.product(range(1, q), *[range(q)] * (deg - 1)):
                if reference_divides_xn_minus_1(list(low) + [1], n, dom):
                    yield build_cyclic(n, list(low) + [1], dom)


def test_shortcut_certificate_equals_reference_over_rings():
    checked = failed = 0
    for q in (4, 6, 8, 10):
        for g in ring_cyclic_codes(q, 8):
            cert = check_ccp_cyclic_shortcut(g)
            assert cert == reference_shortcut(g), (q, g.n, g.provenance.params)
            checked += 1
            failed += not cert.satisfied
    assert checked >= 250
    assert 0 < failed < checked


@pytest.mark.parametrize("q, n, gen, oks", [
    # Z mod 6: X - 1 and X + 1 pass; X^2 + X + 1 has a zero 2x2 minor
    (6, 6, [5, 1], [True] * 4),
    (6, 6, [1, 1], [True] * 4),
    (6, 6, [1, 1, 1], [True, False, True]),
    # rings: T_a = [[0, 1], [-1, 0]] breaks down at once, yet its 2x2 minor
    # is a unit; T_b = [[3, 1], [1, 3]] has the non-unit pivot 3 and det 2
    (6, 6, [5, 0, 1], [False, True, False]),
    (4, 6, [3, 0, 1], [False, True, False]),
    (6, 8, [1, 3, 1, 1], [True, False, False, False]),
    # fields: T_a (j = 1 .. k/2) breaks down at its first pivot, in the
    # middle and at its last pivot; T_b (j = k-1 down to k/2 + 1) at its
    # first pivot, in the middle and at its last pivot
    (2, 8, [1, 0, 1], [False, True, False, True, False]),
    (2, 9, [1, 1, 1], [True, False, True, True, False, True]),
    (3, 8, [2, 1, 1], [True, True, False, True, True]),
    (2, 10, [1, 0, 1], [False, True, False, True, False, True, False]),
    (3, 12, [1, 2, 2, 1], [True, True, True, False, False, True, True, True]),
])
def test_shortcut_breakdowns_decide_later_minors(q, n, gen, oks):
    g = build_cyclic(n, gen, natural_domain(q))
    cert = check_ccp_cyclic_shortcut(g)
    assert cert == reference_shortcut(g)
    assert [ok for _, ok in cert.windows[0].checks[1:-1]] == oks


# ---------------------------------------------------------------------------
# construction: MDS
# ---------------------------------------------------------------------------


def test_mds_3_2_gf3_is_vandermonde():
    g = build_mds(3, 2, GF3)
    assert g.mat.to_rows() == [[1, 1, 1], [0, 1, 2]]
    for pair in itertools.combinations(range(3), 2):
        det, unit = mat_det_is_unit(g.mat.take_cols(pair))
        assert unit


def test_mds_4_2_gf5_certifies_alpha3():
    g = build_mds(4, 2, GF5)
    assert check_ccp(g, 3).satisfied


def test_mds_needs_enough_points():
    with pytest.raises(FieldTooSmall):
        build_mds(3, 2, GF2)
    with pytest.raises(RingNotSupported):
        build_mds(3, 2, ScalarDomain.ring(6))


# ---------------------------------------------------------------------------
# construction: cyclic
# ---------------------------------------------------------------------------


def test_cyclic_banded_structure_8_4_gf3():
    g = build_cyclic(8, [2, 1, 0, 1, 1], GF3)
    assert g.mat.to_rows() == [
        [2, 1, 0, 1, 1, 0, 0, 0],
        [0, 2, 1, 0, 1, 1, 0, 0],
        [0, 0, 2, 1, 0, 1, 1, 0],
        [0, 0, 0, 2, 1, 0, 1, 1],
    ]
    assert g.provenance.kind == "cyclic"
    assert g.provenance.params["gen_poly"] == [2, 1, 0, 1, 1]


def test_cyclic_x_plus_1_n3_gf2():
    g = build_cyclic(3, [1, 1], GF2)
    assert g.mat.to_rows() == [[1, 1, 0], [0, 1, 1]]


def test_cyclic_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        build_cyclic(5, [1, 0, 1], GF2)  # x^2 + 1 does not divide x^5 - 1


def test_cyclic_rejects_bad_polynomials():
    with pytest.raises(NotMonic):
        build_cyclic(8, [1, 2], GF3)  # 2x + 1
    with pytest.raises(ZeroConstantTerm):
        build_cyclic(8, [0, 1], GF3)  # x


# ---------------------------------------------------------------------------
# construction: cyclic search
# ---------------------------------------------------------------------------


def test_search_finds_the_8_4_generator():
    gens = search_cyclic_generators(8, 4, GF3)
    assert [2, 1, 0, 1, 1] in gens


def test_search_3_2_gf2_single_hit():
    assert search_cyclic_generators(3, 2, GF2) == [[1, 1]]


def test_search_7_4_gf2_finds_both_weight4_factors():
    gens = search_cyclic_generators(7, 4, GF2)
    assert [1, 1, 0, 1] in gens  # x^3 + x + 1
    assert [1, 0, 1, 1] in gens  # x^3 + x^2 + 1


def test_search_is_lexicographic_and_bounded():
    gens = search_cyclic_generators(8, 4, GF3)
    assert gens == sorted(gens)
    assert search_cyclic_generators(8, 4, GF3, limit=0) == []
    assert cyclic_search_space(8, 4, GF3) == 2 * 3 ** 3


def reference_divides_xn_minus_1(cand, n, dom):
    """Long division of X^n - 1 by a monic candidate, kept apart from the
    library's polynomial helpers."""
    rem = [dom.neg(1)] + [0] * (n - 1) + [1]
    d = len(cand) - 1
    for top in range(n, d - 1, -1):
        c = rem[top]
        if c:
            for j in range(d + 1):
                rem[top - d + j] = dom.sub(rem[top - d + j], dom.mul(c, cand[j]))
    return not any(rem[:d])


def reference_divisors_by_rank(n, k, dom):
    """(rank, candidate) of every divisor found by trying the candidates in
    itertools.product order: monic, degree n-k, nonzero constant term."""
    deg = n - k
    space = itertools.product(range(1, dom.q), *([range(dom.q)] * (deg - 1)))
    return [(rank, list(c) + [1]) for rank, c in enumerate(space)
            if reference_divides_xn_minus_1(list(c) + [1], n, dom)]


def test_search_matches_brute_force_enumeration():
    """Factoring X^n - 1 finds exactly the divisors, in candidate order, cut
    at the candidate rank ``limit``; lengths with p | n need the repeated
    factors of X^n - 1 = (X^n' - 1)^(p^e)."""
    checked = repeated = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        dom = ScalarDomain.field(q)
        for n in (5, 6, 7, 8, 9, 10, 12, 16):
            for k in range(1, n):
                space = cyclic_search_space(n, k, dom)
                if space > 2000:
                    continue
                ref = reference_divisors_by_rank(n, k, dom)
                limits = {0, 1, space // 3, space}
                for rank, _ in ref[:: max(1, len(ref) // 3)]:
                    limits.update((rank, rank + 1))
                for limit in sorted(limits):
                    got = search_cyclic_generators(n, k, dom, limit)
                    assert got == [c for r, c in ref if r < limit], (q, n, k, limit)
                    checked += 1
                if n % dom.p == 0 and any(len(c) > 2 for _, c in ref):
                    repeated += 1
    assert checked >= 500
    assert repeated >= 30


def test_search_finds_all_256_divisors_of_x12_minus_1_over_gf5():
    """X^12 - 1 has 8 irreducible factors over GF(5), the cyclotomic cosets
    of 5 mod 12, so 2^8 monic divisors; degrees 1..11 hold all but the
    trivial divisors 1 and X^12 - 1."""
    total = 0
    for k in range(1, 12):
        gens = search_cyclic_generators(12, k, GF5,
                                        cyclic_search_space(12, k, GF5))
        assert gens == sorted(gens)
        assert all(len(g) == 13 - k and reference_divides_xn_minus_1(g, 12, GF5)
                   for g in gens)
        total += len(set(map(tuple, gens)))
    assert total == 256 - 2


def test_each_length_is_factored_once(monkeypatch):
    """The search at n = 12 over GF(5) tries 11 (length, k) pairs on six
    distinct lengths; X^n - 1 is factored once per length."""
    lengths = []
    berlekamp = codes_module._berlekamp

    def counting(f, dom):
        lengths.append(len(f) - 1)
        return berlekamp(f, dom)

    monkeypatch.setattr(codes_module, "_berlekamp", counting)
    codes_module._xn_minus_1_factors.cache_clear()
    construct_candidate_set(12, 5, 100000)
    assert sorted(lengths) == [2, 3, 4, 6, 7, 12]
    codes_module._xn_minus_1_factors.cache_clear()


def test_search_results_do_not_share_the_cached_factors():
    first = search_cyclic_generators(12, 6, GF5)
    expect = [list(gen) for gen in first]
    for gen in first:
        gen[0] = 0
        gen.append(4)
    first.clear()
    assert search_cyclic_generators(12, 6, GF5) == expect


def test_search_refuses_negative_limit_and_rings():
    with pytest.raises(DomainError):
        search_cyclic_generators(8, 4, GF3, limit=-1)
    with pytest.raises(RingNotSupported):
        search_cyclic_generators(6, 3, ScalarDomain.ring(6))


# ---------------------------------------------------------------------------
# construction: SPC
# ---------------------------------------------------------------------------


def test_spc_k2_gf2():
    g = build_spc(2, GF2)
    assert g.mat.to_rows() == [[1, 0, 1], [0, 1, 1]]
    assert check_ccp(g, 3).satisfied
    assert check_ccp(g, 2).satisfied


def test_spc_k1():
    assert build_spc(1, GF2).mat.to_rows() == [[1, 1]]


def test_spc_window_determinants_are_units_over_z6():
    z6 = ScalarDomain.ring(6)
    g = build_spc(3, z6)
    for cols in ccp_windows(4, 4):
        for drop in range(4):
            sub = g.mat.take_cols([c for i, c in enumerate(cols) if i != drop])
            det, unit = mat_det_is_unit(sub)
            assert unit
            assert det in (1, 5)  # +-1 mod 6
    assert check_ccp(g, 4).satisfied


def test_spc_certifies_over_fields_and_rings():
    for dom in (GF2, GF3, GF5, ScalarDomain.ring(4), ScalarDomain.ring(6)):
        for k in (1, 2, 3, 4):
            g = build_spc(k, dom)
            assert check_ccp(g, k + 1).satisfied
            assert check_ccp(g, k).satisfied


# ---------------------------------------------------------------------------
# construction: Kronecker lift
# ---------------------------------------------------------------------------


def test_kron_spc_by_identity_2():
    base = build_spc(2, GF2)  # satisfies the (2,2)-CCP
    g = kron_identity(base, 2)
    assert (g.k, g.n) == (4, 6)
    assert check_ccp(g, 4).satisfied


def test_kron_t1_keeps_matrix():
    base = build_spc(2, GF3)
    g = kron_identity(base, 1)
    assert g.mat.to_rows() == base.mat.to_rows()


def test_kron_rejects_non_ccp_base():
    # columns 2 and 3 equal, so two consecutive columns are dependent
    bad = gmat(GF2, [[1, 0, 1, 1], [0, 1, 1, 1]])
    with pytest.raises(BaseNotCcp):
        kron_identity(bad, 2)


def test_kron_determinant_power_identity():
    rng = random.Random(5)
    for _ in range(12):
        size = rng.randrange(1, 4)
        rows = [[rng.randrange(5) for _ in range(size)] for _ in range(size)]
        a = Matrix.from_rows(GF5, rows)
        det_a, _ = mat_det_is_unit(a)
        for t in (1, 2, 3):
            lifted_rows = [[0] * (size * t) for _ in range(size * t)]
            for i in range(size):
                for j in range(size):
                    for r in range(t):
                        lifted_rows[i * t + r][j * t + r] = rows[i][j]
            det_l, _ = mat_det_is_unit(Matrix.from_rows(GF5, lifted_rows))
            assert det_l == GF5.pow(det_a, t)


# ---------------------------------------------------------------------------
# construction: block matrices (Vandermonde family and the ring variant)
# ---------------------------------------------------------------------------


def test_claim5_6_3_over_gf5():
    g = build_claim5(2, 2, 3, GF5)
    assert (g.k, g.n) == (3, 6)
    assert check_ccp(g, 4).satisfied


def test_claim5_t1_degenerates_to_vandermonde_rows():
    g = build_claim5(1, 3, 4, GF5)
    assert (g.k, g.n) == (2, 4)
    assert g.mat.to_rows() == [[1, 1, 1, 1], [1, 2, 3, 4]]
    assert check_ccp(g, 3).satisfied


def test_claim5_needs_more_points_than_columns():
    with pytest.raises(FieldTooSmall):
        build_claim5(2, 2, 3, GF3)


def test_claim6_9_5_gf2_exact_matrix():
    g = build_claim6(3, 2, GF2)
    assert g.mat.to_rows() == [
        [1, 0, 0, 0, 0, 1, 1, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 1, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1, 1, 1, 0],
        [0, 0, 0, 0, 1, 1, 0, 1, 1],
    ]
    assert check_ccp(g, 6).satisfied


def test_claim6_z5_over_gf5():
    g = build_claim6(2, 5, GF5)
    assert (g.k, g.n) == (9, 12)
    assert check_ccp(g, 10).satisfied


def test_claim6_field_size_guard():
    with pytest.raises(FieldTooSmall):
        build_claim6(2, 5, GF3)


def test_claim9_over_various_moduli():
    for t, q, shape in ((2, 6, (3, 6)), (3, 10, (5, 9)), (2, 4, (3, 6))):
        g = build_claim9(t, q)
        assert (g.k, g.n) == shape
        assert check_ccp(g, g.k + 1).satisfied


def test_claim9_needs_t_at_least_two():
    with pytest.raises(ShapeMismatch):
        build_claim9(1, 6)


# ---------------------------------------------------------------------------
# construction: extension
# ---------------------------------------------------------------------------


def test_extend_6_5_spc_to_12_5():
    base = build_spc(5, GF5)
    g = extend_ccp(base, 1)
    assert (g.k, g.n) == (5, 12)
    assert check_ccp(g, 6).satisfied
    assert g.provenance.kind == "extended"


def test_extend_s0_returns_base():
    base = build_spc(3, GF2)
    assert extend_ccp(base, 0) is base


def test_extend_4_3_spc_twice_to_12_3():
    base = build_spc(3, GF5)
    g = extend_ccp(base, 2)
    assert (g.k, g.n) == (3, 12)
    assert check_ccp(g, 4).satisfied


def test_extend_preserves_z():
    cases = [(build_spc(5, GF5), 1), (build_spc(3, GF5), 2),
             (build_cyclic(8, [2, 1, 0, 1, 1], GF3), 1)]
    for base, s in cases:
        a = base.k + 1
        g = extend_ccp(base, s)
        assert least_z(g.n, a) == least_z(base.n, a)


def test_extend_rejects_non_ccp_base():
    bad = gmat(GF2, [[1, 0, 1, 1], [0, 1, 1, 1]])
    with pytest.raises(BaseNotCcp):
        extend_ccp(bad, 1)


def test_extend_alpha_variant_prepends_alpha_columns():
    g = example_code_4_2()  # (2,3)-CCP
    ext = extend_ccp(g, 1, alpha=3)
    assert ext.n == 7
    assert ext.mat.to_rows()[0][:3] == list(g.mat.row(0)[:3])
    assert check_ccp(ext, 3).satisfied


# ---------------------------------------------------------------------------
# construction: CRT combination
# ---------------------------------------------------------------------------


def crt_q6_example():
    return build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3)


def test_crt_q6_codeword_count_and_kmin():
    src = crt_q6_example()
    assert isinstance(src, CrtCodewordSource)
    assert src.q == 6
    assert src.num_codewords == 12
    assert src.k_min == 1
    words = list(zip(*codeword_matrix(src).rows))
    assert len(words) == 12
    assert len(set(words)) == 12
    assert words[0] == (0, 0, 0)


def test_crt_codewords_reduce_to_component_codewords():
    src = crt_q6_example()
    comp_words = []
    for g in src.components:
        dom = g.domain
        words = set()
        for msg in itertools.product(range(dom.q), repeat=g.k):
            word = tuple(
                dom.add(dom.mul(msg[0], g.mat.get(0, j)),
                        dom.mul(msg[1], g.mat.get(1, j)) if g.k > 1 else 0)
                for j in range(g.n))
            words.add(word)
        comp_words.append(words)
    for word in zip(*codeword_matrix(src).rows):
        for g, words in zip(src.components, comp_words):
            assert tuple(c % g.domain.q for c in word) in words


def test_crt_rejects_duplicate_or_composite_moduli():
    with pytest.raises(ModuliNotCoprimePrimes):
        build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF2)], 3)
    with pytest.raises(ModuliNotCoprimePrimes):
        build_crt_cyclic([([1, 1], ScalarDomain.field(4))], 3)


def test_crt_rejects_invalid_component():
    with pytest.raises(ComponentInvalid):
        build_crt_cyclic([([1, 0, 1], GF2)], 5)  # x^2+1 does not divide x^5-1
    with pytest.raises(ComponentInvalid):
        build_crt_cyclic([], 3)


# ---------------------------------------------------------------------------
# blanket certification of every builder at its advertised alpha
# ---------------------------------------------------------------------------


def test_every_builder_output_certifies_bounded_params():
    """All constructions with q <= 7, n <= 12 pass at their advertised alpha."""
    checked = 0
    fields = [ScalarDomain.field(q) for q in (2, 3, 4, 5, 7)]
    rings = [ScalarDomain.ring(q) for q in (4, 6)]

    for dom in fields:
        for n in range(2, min(dom.q, 12) + 1):
            for k in range(1, n):
                assert check_ccp(build_mds(n, k, dom), k + 1).satisfied
                checked += 1

    for dom in fields + rings:
        for k in range(1, 12):
            g = build_spc(k, dom)
            assert check_ccp(g, k + 1).satisfied
            checked += 1

    for dom in fields:
        for t in range(1, 7):
            for z in range(2, 12):
                if z * t - 1 < 1 or (z + 1) * t > 12 or dom.q < z:
                    continue
                g = build_claim6(t, z, dom)
                assert check_ccp(g, z * t).satisfied
                checked += 1

    for dom in fields:
        for t in range(1, 7):
            for z in range(2, 7):
                for acols in range(z + 1, 12):
                    if (t * acols > 12 or math.gcd(z, acols) != 1
                            or dom.q <= acols or t * z - 1 < 1):
                        continue
                    g = build_claim5(t, z, acols, dom)
                    assert check_ccp(g, t * z).satisfied
                    checked += 1

    for q in (4, 6):
        for t in (2, 3, 4):
            g = build_claim9(t, q)
            assert check_ccp(g, 2 * t).satisfied
            checked += 1

    for dom in (GF2, GF3, ScalarDomain.ring(6)):
        for base_k in (1, 2, 3):
            base = build_spc(base_k, dom)
            for t in range(2, 12 // (base_k + 1) + 1):
                g = kron_identity(base, t)
                assert check_ccp(g, g.k).satisfied
                checked += 1

    for dom in (GF3, GF5, ScalarDomain.ring(6)):
        for base_k in (1, 2, 3):
            base = build_spc(base_k, dom)
            for s in (1, 2):
                if base.n + s * (base_k + 1) > 12:
                    continue
                g = extend_ccp(base, s)
                assert check_ccp(g, base_k + 1).satisfied
                checked += 1

    assert checked > 80
