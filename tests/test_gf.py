import itertools
import random

import pytest

from codedcache.errors import (
    DimensionMismatch,
    DomainError,
    DomainMismatch,
    NonSquare,
    NotAUnit,
    RingNotSupported,
)
from codedcache.gf import (
    _MAX_ORDER,
    _prime_power,
    Matrix,
    ScalarDomain,
    mat_det_is_unit,
    mat_rank,
    mat_solve,
    natural_domain,
    row_reduce,
)

PRIME_POWERS_LE_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
    29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64,
]

# The default modulus of every extension field, as once tabulated: the
# lexicographically smallest monic irreducible polynomial of degree m over
# GF(p), constant term first.
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (1, 3, 1),
    (17, 2): (1, 1, 1),
    (19, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
    (29, 2): (1, 1, 1),
    (31, 2): (1, 0, 1),
}


def extension_fields():
    """(p, m) of every supported field order p^m with m >= 2, in order."""
    return sorted(pm for pm in map(_prime_power, range(2, _MAX_ORDER + 1))
                  if pm and pm[1] > 1)


# ---------------------------------------------------------------------------
# scalar domains
# ---------------------------------------------------------------------------


def test_field_rejects_composite_order():
    with pytest.raises(DomainError):
        ScalarDomain.field(6)
    with pytest.raises(DomainError):
        ScalarDomain.field(12)


def test_order_bounds():
    with pytest.raises(DomainError):
        ScalarDomain.field(1)
    with pytest.raises(DomainError):
        ScalarDomain.ring(1)
    with pytest.raises(DomainError):
        ScalarDomain.field(2048)


def test_prime_power_matches_a_table_of_prime_powers():
    primes = [p for p in range(2, 2100) if all(p % d for d in range(2, p))]
    powers = {p ** m: (p, m) for p in primes for m in range(1, 12) if p ** m < 2100}
    for q in range(-2, 2100):
        assert _prime_power(q) == powers.get(q), q


def test_default_moduli_match_the_pinned_table():
    assert extension_fields() == sorted(PINNED_MODULI)
    for (p, m), modulus in PINNED_MODULI.items():
        assert ScalarDomain.field(p ** m).modulus == modulus


def test_natural_domain_picks_field_for_prime_powers():
    assert natural_domain(2).is_field
    assert natural_domain(9).is_field
    assert natural_domain(64).is_field
    assert not natural_domain(6).is_field
    assert not natural_domain(10).is_field
    assert not natural_domain(12).is_field


def test_gf3_inverse_of_two_is_two():
    gf3 = ScalarDomain.field(3)
    assert gf3.inv(2) == 2


def test_z6_unit_detection():
    z6 = ScalarDomain.ring(6)
    assert not z6.is_unit(2)
    assert z6.is_unit(5)
    assert not z6.is_unit(0)
    with pytest.raises(NotAUnit):
        z6.inv(2)
    assert z6.mul(5, z6.inv(5)) == 1


def test_gf4_polynomial_reduction():
    # elements are polynomial-basis integers: 2 = x, 3 = x + 1.
    # with modulus x^2 + x + 1, x * x = x + 1.
    gf4 = ScalarDomain.field(4)
    assert gf4.mul(2, 2) == 3


def test_extension_field_char_addition():
    gf8 = ScalarDomain.field(8)
    for a in gf8.elements():
        assert gf8.add(a, a) == 0
    gf9 = ScalarDomain.field(9)
    for a in gf9.elements():
        assert gf9.add(gf9.add(a, a), a) == 0


def test_field_axioms_random_triples_all_supported_orders():
    """Associativity, distributivity, inverse round-trip for every q <= 64."""
    rng = random.Random(20240817)
    for q in PRIME_POWERS_LE_64:
        dom = ScalarDomain.field(q)
        for _ in range(30):
            a = rng.randrange(q)
            b = rng.randrange(q)
            c = rng.randrange(q)
            assert dom.mul(dom.mul(a, b), c) == dom.mul(a, dom.mul(b, c))
            assert dom.add(dom.add(a, b), c) == dom.add(a, dom.add(b, c))
            lhs = dom.mul(a, dom.add(b, c))
            rhs = dom.add(dom.mul(a, b), dom.mul(a, c))
            assert lhs == rhs
            assert dom.sub(dom.add(a, b), b) == a
            assert dom.add(a, dom.neg(a)) == 0
        for x in range(1, q):
            assert dom.mul(x, dom.inv(x)) == 1


def test_no_zero_divisors_in_small_fields():
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        dom = ScalarDomain.field(q)
        for a in range(1, q):
            for b in range(1, q):
                assert dom.mul(a, b) != 0


def test_ring_arithmetic_is_mod_q():
    for q in (4, 6, 10, 12):
        dom = ScalarDomain.ring(q)
        for a in range(q):
            for b in range(q):
                assert dom.add(a, b) == (a + b) % q
                assert dom.mul(a, b) == (a * b) % q
                assert dom.sub(a, b) == (a - b) % q


def test_pow_matches_repeated_multiplication():
    gf9 = ScalarDomain.field(9)
    for a in range(1, 9):
        acc = 1
        for e in range(6):
            assert gf9.pow(a, e) == acc
            acc = gf9.mul(acc, a)


def test_validate_rejects_out_of_range():
    gf5 = ScalarDomain.field(5)
    with pytest.raises(DomainError):
        gf5.validate(5)
    with pytest.raises(DomainError):
        gf5.validate(-1)


def test_custom_modulus_must_be_irreducible():
    # x^2 + 1 factors over GF(3) as it has no root... it does: 0^2+1=1, 1^2+1=2,
    # 2^2+1=2, so x^2+1 is irreducible over GF(3) and accepted.
    ScalarDomain.field(9, modulus=[1, 0, 1])
    # x^2 + 2x + 1 = (x+1)^2 is reducible and rejected.
    with pytest.raises(DomainError):
        ScalarDomain.field(9, modulus=[1, 2, 1])


# Digit-wise reference arithmetic: an element of GF(p^m) is the packed int
# sum(c_i * p**i), and addition works coefficient by coefficient mod p.


def _unpack(a, p, m):
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _pack(coeffs, p):
    out = 0
    mult = 1
    for c in coeffs:
        out += c * mult
        mult *= p
    return out


def reference_add(dom, a, b):
    p, m = dom.p, dom.m
    return _pack([(x + y) % p for x, y in zip(_unpack(a, p, m), _unpack(b, p, m))], p)


def reference_sub(dom, a, b):
    p, m = dom.p, dom.m
    return _pack([(x - y) % p for x, y in zip(_unpack(a, p, m), _unpack(b, p, m))], p)


def reference_neg(dom, a):
    p, m = dom.p, dom.m
    return _pack([(-x) % p for x in _unpack(a, p, m)], p)


def assert_matches_reference(dom, pairs):
    for a in dom.elements():
        assert dom.neg(a) == reference_neg(dom, a), (dom, a)
    for a, b in pairs:
        assert dom.add(a, b) == reference_add(dom, a, b), (dom, a, b)
        assert dom.sub(a, b) == reference_sub(dom, a, b), (dom, a, b)
        if dom.p == 2:
            assert dom.add(a, b) == a ^ b, (dom, a, b)


def test_extension_add_sub_neg_match_reference_on_all_pairs_up_to_64():
    for (p, m) in extension_fields():
        q = p ** m
        if q <= 64:
            dom = ScalarDomain.field(q)
            assert_matches_reference(dom, itertools.product(range(q), repeat=2))


def test_extension_add_sub_neg_match_reference_on_random_pairs_above_64():
    rng = random.Random(20261017)
    for (p, m) in extension_fields():
        q = p ** m
        if q > 64:
            dom = ScalarDomain.field(q)
            assert_matches_reference(
                dom, [(rng.randrange(q), rng.randrange(q)) for _ in range(20_000)])


def test_extension_arithmetic_with_custom_modulus_matches_reference():
    # x^2 + x + 2 over GF(3) and x^4 + x + 1 over GF(2): not the defaults
    for q, modulus in ((9, [2, 1, 1]), (16, [1, 1, 0, 0, 1])):
        dom = ScalarDomain.field(q, modulus=modulus)
        assert dom.modulus != ScalarDomain.field(q).modulus
        assert_matches_reference(dom, itertools.product(range(q), repeat=2))


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_identity_gf2():
    gf2 = ScalarDomain.field(2)
    assert mat_rank(Matrix.identity(gf2, 3)) == 3


def test_rank_first_three_columns_of_example_code():
    gf3 = ScalarDomain.field(3)
    m = Matrix.from_rows(gf3, [[1, 0, 1], [0, 1, 1]])
    assert mat_rank(m) == 2


def test_rank_zero_matrix():
    gf5 = ScalarDomain.field(5)
    m = Matrix.from_rows(gf5, [[0, 0], [0, 0]])
    assert mat_rank(m) == 0


def test_rank_rejects_rings():
    z6 = ScalarDomain.ring(6)
    m = Matrix.from_rows(z6, [[1, 2], [3, 4]])
    with pytest.raises(RingNotSupported):
        mat_rank(m)


def test_rank_equals_rank_of_transpose_random():
    rng = random.Random(7)
    for q in (2, 3, 4, 5):
        dom = ScalarDomain.field(q)
        for _ in range(25):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 9)
            m = Matrix.from_rows(
                dom, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            assert mat_rank(m) == mat_rank(m.transpose())


def test_rank_counts_independent_rows():
    gf2 = ScalarDomain.field(2)
    m = Matrix.from_rows(gf2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    # row 2 = row 0 + row 1
    assert mat_rank(m) == 2


# ---------------------------------------------------------------------------
# determinant / unit test
# ---------------------------------------------------------------------------


def brute_force_det(dom, rows):
    """Permutation-expansion determinant, the independent oracle."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term = dom.mul(term, rows[i][perm[i]])
        total = dom.add(total, term if sign > 0 else dom.neg(term))
    return total


def test_det_hand_examples_z6():
    z6 = ScalarDomain.ring(6)
    det, unit = mat_det_is_unit(Matrix.from_rows(z6, [[2, 0], [0, 3]]))
    assert (det, unit) == (0, False)
    det, unit = mat_det_is_unit(Matrix.from_rows(z6, [[1, 1], [1, 2]]))
    assert (det, unit) == (1, True)


def test_det_oracle_2x2_z6_exhaustive():
    z6 = ScalarDomain.ring(6)
    for entries in itertools.product(range(6), repeat=4):
        rows = [list(entries[:2]), list(entries[2:])]
        det, unit = mat_det_is_unit(Matrix.from_rows(z6, rows))
        assert det == brute_force_det(z6, rows)
        assert unit == z6.is_unit(det)


def test_det_oracle_3x3_z6_small_entry_set():
    z6 = ScalarDomain.ring(6)
    for entries in itertools.product((0, 1, 5), repeat=9):
        rows = [list(entries[0:3]), list(entries[3:6]), list(entries[6:9])]
        det, _ = mat_det_is_unit(Matrix.from_rows(z6, rows))
        assert det == brute_force_det(z6, rows)


def test_det_oracle_4x4_z6_binary_entries():
    z6 = ScalarDomain.ring(6)
    for entries in itertools.product((0, 1), repeat=16):
        rows = [list(entries[i * 4:(i + 1) * 4]) for i in range(4)]
        det, _ = mat_det_is_unit(Matrix.from_rows(z6, rows))
        assert det == brute_force_det(z6, rows)


def test_det_oracle_random_5x5_and_6x6():
    """Larger ring matrices through Bareiss elimination; cross-check them too."""
    rng = random.Random(99)
    for q in (6, 10):
        dom = ScalarDomain.ring(q)
        for n in (5, 6):
            for _ in range(10):
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                det, unit = mat_det_is_unit(Matrix.from_rows(dom, rows))
                assert det == brute_force_det(dom, rows)
                assert unit == dom.is_unit(det)


def test_det_oracle_field_matrices():
    rng = random.Random(4242)
    for q in (2, 3, 4, 5, 9):
        dom = ScalarDomain.field(q)
        for n in (1, 2, 3, 4, 5):
            for _ in range(8):
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                det, unit = mat_det_is_unit(Matrix.from_rows(dom, rows))
                assert det == brute_force_det(dom, rows)
                assert unit == (det != 0)


def test_det_multiplicative_on_fields():
    rng = random.Random(11)
    gf5 = ScalarDomain.field(5)
    for _ in range(20):
        a = Matrix.from_rows(gf5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        b = Matrix.from_rows(gf5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        da, _ = mat_det_is_unit(a)
        db, _ = mat_det_is_unit(b)
        dab, _ = mat_det_is_unit(a.mul(b))
        assert dab == gf5.mul(da, db)


def test_det_of_empty_matrix_is_one():
    for dom in (ScalarDomain.ring(6), ScalarDomain.field(5)):
        assert mat_det_is_unit(Matrix.from_rows(dom, [])) == (1, True)


def test_row_reduce_scale_rank_and_echelon_form():
    rng = random.Random(2718)
    full_rank = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        dom = ScalarDomain.field(q)
        for _ in range(40):
            n = rng.randrange(1, 6)
            cols = n if rng.random() < 0.6 else rng.randrange(1, 7)
            rows = [[rng.randrange(q) for _ in range(cols)] for _ in range(n)]
            m = Matrix.from_rows(dom, rows)
            red, pivots, scale = row_reduce(m)
            assert len(pivots) == mat_rank(m.transpose())
            assert pivots == sorted(set(pivots))
            for i, row in enumerate(red):
                if i >= len(pivots):
                    assert not any(row)
                    continue
                assert not any(row[:pivots[i]]) and row[pivots[i]] == 1
                assert all(red[r][pivots[i]] == 0 for r in range(n) if r != i)
            if cols == n and len(pivots) == n:
                assert scale == brute_force_det(dom, rows)
                full_rank += 1
    assert full_rank >= 50
    with pytest.raises(RingNotSupported):
        row_reduce(Matrix.identity(ScalarDomain.ring(6), 2))


def test_det_rejects_non_square():
    gf2 = ScalarDomain.field(2)
    with pytest.raises(NonSquare):
        mat_det_is_unit(Matrix.from_rows(gf2, [[1, 0, 1], [0, 1, 1]]))


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------


def test_solve_identity_system():
    gf7 = ScalarDomain.field(7)
    b = Matrix.from_rows(gf7, [[3], [5], [1]])
    x = mat_solve(Matrix.identity(gf7, 3), b)
    assert x.to_rows() == b.to_rows()


def test_solve_substitutes_back():
    rng = random.Random(31337)
    for q in (2, 3, 5, 8):
        dom = ScalarDomain.field(q)
        for _ in range(20):
            n = rng.randrange(1, 6)
            a = Matrix.from_rows(dom, [[rng.randrange(q) for _ in range(n)]
                                       for _ in range(n)])
            xs = Matrix.from_rows(dom, [[rng.randrange(q)] for _ in range(n)])
            b = a.mul(xs)
            x = mat_solve(a, b)
            assert x is not None
            assert a.mul(x).to_rows() == b.to_rows()


def test_solve_inconsistent_overdetermined_gf2():
    gf2 = ScalarDomain.field(2)
    a = Matrix.from_rows(gf2, [[1, 0], [1, 0], [0, 1]])
    b = Matrix.from_rows(gf2, [[0], [1], [1]])
    assert mat_solve(a, b) is None


def test_solve_unique_solution_vs_codeword_enumeration():
    """Inverting k label equations picks out exactly one codeword index."""
    gf3 = ScalarDomain.field(3)
    g = Matrix.from_rows(gf3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    cols = g.take_cols([0, 1])
    target = Matrix.from_rows(gf3, [[2], [1]])
    x = mat_solve(cols.transpose(), target)
    assert x is not None
    matches = []
    for u0 in range(3):
        for u1 in range(3):
            word = [gf3.add(gf3.mul(u0, g.get(0, j)), gf3.mul(u1, g.get(1, j)))
                    for j in range(4)]
            if word[0] == 2 and word[1] == 1:
                matches.append((u0, u1))
    assert matches == [(x.get(0, 0), x.get(1, 0))]


def test_solve_dimension_and_domain_checks():
    gf2 = ScalarDomain.field(2)
    gf3 = ScalarDomain.field(3)
    a = Matrix.identity(gf2, 2)
    with pytest.raises(DimensionMismatch):
        mat_solve(a, Matrix.from_rows(gf2, [[1], [0], [1]]))
    with pytest.raises(DomainMismatch):
        mat_solve(a, Matrix.from_rows(gf3, [[1], [0]]))
    z6 = ScalarDomain.ring(6)
    with pytest.raises(RingNotSupported):
        mat_solve(Matrix.identity(z6, 2), Matrix.from_rows(z6, [[1], [0]]))


# ---------------------------------------------------------------------------
# matrix plumbing
# ---------------------------------------------------------------------------


def test_matrix_shape_validation():
    gf2 = ScalarDomain.field(2)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(gf2, [[1, 0], [1]])
    with pytest.raises(DomainError):
        Matrix.from_rows(gf2, [[0, 2]])


def test_matrix_mul_shapes_and_values():
    gf3 = ScalarDomain.field(3)
    a = Matrix.from_rows(gf3, [[1, 2], [0, 1]])
    b = Matrix.from_rows(gf3, [[1, 0, 2], [2, 1, 0]])
    prod = a.mul(b)
    assert prod.to_rows() == [[2, 2, 2], [2, 1, 0]]
    with pytest.raises(DimensionMismatch):
        b.mul(a.mul(b))


def test_take_cols_and_rows():
    gf2 = ScalarDomain.field(2)
    m = Matrix.from_rows(gf2, [[1, 0, 1], [0, 1, 1]])
    assert m.take_cols([2, 0]).to_rows() == [[1, 1], [1, 0]]
    assert m.take_rows([1]).to_rows() == [[0, 1, 1]]
    assert m.transpose().to_rows() == [[1, 0], [0, 1], [1, 1]]
