import json
import math
from fractions import Fraction

import pytest

from codedcache.analysis import (
    compare,
    comparison_csv,
    comparison_json,
    construct_candidate_set,
    k_max_for_budget,
    memory_sharing_bound,
    mn_metrics,
    replay_route,
    scaling_exponent,
    spc_family_exponent,
    spc_family_gap,
)
from codedcache.caching import placement, recovery_set_graph
from codedcache.codes import check_ccp
from codedcache.design import codeword_matrix, resolvable_design
from codedcache.errors import (
    DomainError,
    NoFeasibleK,
    NonIntegralCachePoint,
    NoSolutionInRange,
)


@pytest.fixture(scope="module")
def table_entries():
    """The n=12, q=5 search used across several tests; computed once."""
    return construct_candidate_set(12, 5)


# ---------------------------------------------------------------------------
# candidate search
# ---------------------------------------------------------------------------


def test_candidate_set_12_5_found_ks(table_entries):
    found = {e.k for e in table_entries if e.found}
    assert found == {1, 2, 3, 4, 5, 6, 7, 8, 9, 11}


def test_candidate_routes_pin_known_rows(table_entries):
    by_k = {e.k: e for e in table_entries}
    assert by_k[1].route[0] == {"op": "cyclic", "n": 2, "gen_poly": [1, 1]}
    assert by_k[1].route[1] == {"op": "extend", "s": 5}
    assert by_k[2].route[0] == {"op": "cyclic", "n": 3, "gen_poly": [4, 1]}
    assert by_k[2].route[1] == {"op": "extend", "s": 3}
    assert by_k[3].route[0] == {"op": "cyclic", "n": 4, "gen_poly": [1, 1]}
    assert by_k[3].route[1] == {"op": "extend", "s": 2}
    assert by_k[5].route == ({"op": "cyclic", "n": 6, "gen_poly": [1, 1]},
                             {"op": "extend", "s": 1})
    assert by_k[11].route == ({"op": "cyclic", "n": 12, "gen_poly": [1, 1]},)


def test_candidate_k10_not_found_with_reason(table_entries):
    e = {x.k: x for x in table_entries}[10]
    assert not e.found
    assert e.z == 11
    assert e.route == ()
    assert any("q >= 11" in note for note in e.notes)


@pytest.mark.parametrize("n, q, cyclic_limit", [(12, 5, 10 ** 6), (10, 7, 10000)])
def test_every_found_route_replays_to_certified_code(n, q, cyclic_limit):
    """(10, 7) also takes the mds and claim5 steps: mds(n=4,k=2)+extend(s=2)
    at k = 2 and block-vandermonde(t=2,z=3,a=5) at k = 5."""
    entries = construct_candidate_set(n, q, cyclic_limit)
    for e in entries:
        if not e.found:
            continue
        g = replay_route(e.route, q)
        assert (g.n, g.k) == (n, e.k)
        assert check_ccp(g, e.k + 1).satisfied, f"k={e.k}"
    if (n, q) == (10, 7):
        by_k = {e.k: e for e in entries}
        assert by_k[2].route == ({"op": "mds", "n": 4, "k": 2}, {"op": "extend", "s": 2})
        assert by_k[5].route == ({"op": "claim5", "t": 2, "z": 3, "alpha_cols": 5},)


def test_candidate_entries_cover_all_k(table_entries):
    assert [e.k for e in table_entries] == list(range(1, 12))


def test_search_limit_skips_wide_scans():
    entries = construct_candidate_set(12, 5, cyclic_search_limit=10)
    by_k = {e.k: e for e in entries}
    assert any("exceed limit" in note for note in by_k[4].notes)


def test_ring_candidate_set_6_6():
    entries = construct_candidate_set(6, 6)
    found = {e.k for e in entries if e.found}
    assert found == {1, 2, 3, 5}
    for e in entries:
        if e.found:
            assert e.z <= 2
            g = replay_route(e.route, 6)
            assert check_ccp(g, e.k + 1).satisfied
        elif e.z > 2:
            assert any("non-field modulus" in note for note in e.notes)


def test_small_binary_candidate_set():
    entries = {e.k: e for e in construct_candidate_set(3, 2)}
    assert entries[2].found
    assert entries[2].z == 1


def test_replay_route_rejects_garbage():
    with pytest.raises(DomainError):
        replay_route([{"op": "bogus"}], 5)
    with pytest.raises(DomainError):
        replay_route([], 5)
    with pytest.raises(DomainError):
        replay_route([{"op": "extend", "s": 1}], 5)


# ---------------------------------------------------------------------------
# subpacketization budget
# ---------------------------------------------------------------------------


def test_k_max_for_budget_table_values(table_entries):
    r = k_max_for_budget(12, 5, 1_500_000, entries=table_entries)
    assert r == {"k_max": 8, "F_s": 1_171_875, "g_max": 9}


def test_k_max_small_budget(table_entries):
    r = k_max_for_budget(12, 5, 5, entries=table_entries)
    assert r["k_max"] == 1
    assert r["F_s"] == 5


def test_k_max_infeasible(table_entries):
    with pytest.raises(NoFeasibleK):
        k_max_for_budget(12, 5, 5, entries=[e for e in table_entries if e.k > 3])
    with pytest.raises(NoFeasibleK):
        k_max_for_budget(12, 5, 2, entries=table_entries)


# ---------------------------------------------------------------------------
# single-cache-point baseline
# ---------------------------------------------------------------------------


def test_mn_metrics_k64():
    row = mn_metrics(64, Fraction(1, 4))
    assert row.big_k == 64
    assert row.f_s == math.comb(64, 16)
    assert row.r == Fraction(48, 17)
    assert row.gain == 17


def test_mn_metrics_small_and_edges():
    row = mn_metrics(6, Fraction(1, 2))
    assert row.f_s == 20
    assert row.r == Fraction(3, 4)
    assert mn_metrics(5, 1).r == 0
    assert mn_metrics(5, 0).r == 5


def test_mn_metrics_requires_integral_point():
    with pytest.raises(NonIntegralCachePoint):
        mn_metrics(7, Fraction(1, 2))


# ---------------------------------------------------------------------------
# memory-sharing bound
# ---------------------------------------------------------------------------


def test_memory_sharing_18_users_first_corner():
    b = memory_sharing_bound(18, Fraction(1, 2), Fraction(3, 2))
    assert abs(b["m_star_over_n"] - 0.227) < 0.005
    assert b["m_prime_over_n"] == Fraction(5, 18)
    assert b["f_s_lower"] == 8568


def test_memory_sharing_18_users_second_corner():
    b = memory_sharing_bound(18, Fraction(2, 3), Fraction(2, 3))
    assert abs(b["m_star_over_n"] - 0.25) < 0.005
    assert b["m_prime_over_n"] == Fraction(5, 18)
    assert b["f_s_lower"] == 8568


def test_memory_sharing_rate_on_curve_degenerates():
    b = memory_sharing_bound(18, Fraction(1, 2), Fraction(9, 10))
    assert b["lambda"] == 1.0
    assert b["m_prime_over_n"] == Fraction(1, 2)
    assert b["f_s_lower"] == math.comb(18, 9)


def test_memory_sharing_rejects_out_of_range():
    with pytest.raises(NoSolutionInRange):
        memory_sharing_bound(18, Fraction(1, 2), Fraction(17, 1))
    with pytest.raises(NoSolutionInRange):
        memory_sharing_bound(18, Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(NoSolutionInRange):
        memory_sharing_bound(18, Fraction(1, 2), 0)


def test_memory_sharing_60_users_order_of_magnitude():
    b = memory_sharing_bound(60, Fraction(1, 5), Fraction(16, 3))
    assert b["m_prime_over_n"] == Fraction(8, 60)
    assert b["f_s_lower"] == math.comb(60, 8)
    assert 1e9 < b["f_s_lower"] < 1e10


def test_memory_sharing_residuals_below_tolerance():
    cases = [
        (18, 0.5, 1.5),
        (18, 2 / 3, 2 / 3),
        (60, 0.2, 16 / 3),
    ]
    for big_k, m, rate in cases:
        b = memory_sharing_bound(big_k, Fraction(m).limit_denominator(10 ** 9),
                                 Fraction(rate).limit_denominator(10 ** 9))
        lam, x = b["lambda"], b["m_star_over_n"]

        def h(y):
            return big_k * (1 - y) / (1 + big_k * y)

        assert abs(lam * h(x) + (1 - lam) * h(1 - x) - rate) < 1e-9
        assert abs(lam * x + (1 - lam) * (1 - x) - m) < 1e-9


def test_memory_sharing_exact_t_prime_near_integer():
    """K*x* within 1e-9 of an integer: t' is decided exactly, not by a float
    tolerance."""
    big_k, m = 18, Fraction(1, 2)

    def shared(x):
        lam = (1 - x - m) / (1 - 2 * x)

        def h(y):
            return big_k * (1 - y) / (1 + big_k * y)

        return lam * h(x) + (1 - lam) * h(1 - x)

    # x* = 5/18 exactly: t' = 5
    b = memory_sharing_bound(big_k, m, shared(Fraction(5, big_k)))
    assert b["m_prime_over_n"] == Fraction(5, 18)
    assert b["f_s_lower"] == math.comb(18, 5)
    # K*x* = 5 + 1e-10: the rate at t = 5 is above R, so t' = 6
    x_star = Fraction(5 * 10 ** 10 + 1, big_k * 10 ** 10)
    b = memory_sharing_bound(big_k, m, shared(x_star))
    assert abs(big_k * b["m_star_over_n"] - 5) < 1e-9
    assert b["m_prime_over_n"] == Fraction(6, 18)
    assert b["f_s_lower"] == math.comb(18, 6)


# ---------------------------------------------------------------------------
# scaling exponents
# ---------------------------------------------------------------------------


def test_scaling_exponent_binary_values():
    assert abs(scaling_exponent(2, 1.0, "low") - 0.5) < 1e-12
    assert abs(scaling_exponent(2, 1.0, "high") - 0.5) < 1e-12
    # eta -> 0 at q=2: the low-mode exponent tends to H2(1/2) = 1
    assert abs(scaling_exponent(2, 1e-9, "low") - 1.0) < 1e-6


def test_scaling_exponent_matches_formula():
    for q in (2, 3, 4, 5):
        for eta in (0.25, 0.5, 1.0):
            def h2(x):
                return -x * math.log2(x) - (1 - x) * math.log2(1 - x)
            want_low = h2(1 / q) - (eta / q) * math.log2(q)
            want_high = h2(eta / q) - (eta / q) * math.log2(q)
            assert abs(scaling_exponent(q, eta, "low") - want_low) < 1e-12
            assert abs(scaling_exponent(q, eta, "high") - want_high) < 1e-12


def test_scaling_exponent_validation():
    with pytest.raises(DomainError):
        scaling_exponent(1, 0.5, "low")
    with pytest.raises(DomainError):
        scaling_exponent(2, 0.0, "low")
    with pytest.raises(DomainError):
        scaling_exponent(2, 0.5, "sideways")


def test_spc_family_gap_shrinks_with_k():
    gaps = [spc_family_gap(2, big_k // 2 - 1) for big_k in (20, 50, 100, 200)]
    assert all(gaps[i] > gaps[i + 1] for i in range(3))
    assert gaps[-1] < 0.05
    assert abs(gaps[0] - 0.0753) < 1e-3
    assert abs(gaps[1] - 0.0431) < 1e-3
    assert abs(gaps[2] - 0.0265) < 1e-3
    assert abs(gaps[3] - 0.0157) < 1e-3


def test_spc_family_exponent_exact_form():
    q, k = 2, 9
    big_k = (k + 1) * q
    want = (math.log2(math.comb(big_k, k + 1)) - k) / big_k
    assert abs(spc_family_exponent(q, k) - want) < 1e-12


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------


def k64_points():
    return [
        {"scheme_id": "spc15", "n": 16, "q": 4, "alpha": 16, "num_points": 4 ** 15},
        {"scheme_id": "ext7", "n": 16, "q": 4, "alpha": 8, "num_points": 4 ** 7},
        {"scheme_id": "ext3", "n": 16, "q": 4, "alpha": 4, "num_points": 4 ** 3},
    ]


def test_compare_k64_family_with_mn_baseline():
    rows = compare(k64_points(), include_mn=True)
    by_id = {r.scheme_id: r for r in rows}
    assert by_id["spc15"].f_s == 1_073_741_824
    assert by_id["spc15"].r == 3
    assert by_id["spc15"].gain == 16
    assert by_id["ext7"].f_s == 16384 and by_id["ext7"].r == 6
    assert by_id["ext3"].f_s == 64 and by_id["ext3"].r == 12
    mn_row = by_id["mn(K=64,M/N=1/4)"]
    assert mn_row.f_s == math.comb(64, 16)
    assert mn_row.r == Fraction(48, 17)
    # transposed twins are present and the table is sorted by cache fraction
    assert any(r.scheme_id == "spc15:transposed" for r in rows)
    ms = [(r.m_over_n, r.r) for r in rows]
    assert ms == sorted(ms)


def test_compare_accepts_scheme_objects():
    from codedcache.codes import build_spc
    from codedcache.gf import ScalarDomain
    d = resolvable_design(codeword_matrix(build_spc(2, ScalarDomain.field(2))))
    s = placement(d, 3)
    rows = compare([s])
    assert rows[0].big_k == 6
    assert {r.m_over_n for r in rows} == {Fraction(1, 2)}


def test_compare_memory_sharing_rows():
    rows = compare([{"scheme_id": "tab8", "n": 12, "q": 5, "alpha": 9,
                     "num_points": 5 ** 8}], include_memory_sharing=True)
    srow = next(r for r in rows if r.scheme_id == "mn-sharing(tab8)")
    assert srow.f_s == math.comb(60, 8)
    assert srow.r == Fraction(16, 3)


def test_comparison_csv_format():
    rows = compare(k64_points(), include_mn=True)
    text = comparison_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "scheme_id,K,M_over_N,R,F_s,gain"
    assert "ext3,64,1/4,12,64,4" in lines
    assert len(lines) == 1 + len(rows)


def test_comparison_json_format():
    rows = compare(k64_points())
    payload = json.loads(comparison_json(rows))
    assert payload["format"] == "codedcache-comparison"
    assert payload["version"] == 1
    assert len(payload["rows"]) == len(rows)
    first = payload["rows"][0]
    assert set(first) == {"scheme_id", "K", "M_over_N", "R", "F_s", "gain"}
