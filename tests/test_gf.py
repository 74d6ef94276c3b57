import itertools
import math
import random

import pytest

from codedcache.codes import GeneratorMatrix, _prime_fields
from codedcache.design import _generator_rows
from codedcache.errors import DimensionMismatch, DomainError, NotAUnit, RingNotSupported
from codedcache.gf import (
    _MAX_ORDER,
    _prime_power,
    Matrix,
    ScalarDomain,
    mat_rank,
    natural_domain,
    reduce_rows,
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
    for a in (0, 2, 3, 4):
        with pytest.raises(NotAUnit):
            z6.inv(a)
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


def test_from_rows_reports_the_first_bad_entry_in_row_order():
    gf5 = ScalarDomain.field(5)
    assert Matrix.from_rows(gf5, [[4, 0], [True, 2.7]]).entries == (4, 0, 1, 2)
    assert Matrix.from_rows(gf5, []).entries == ()
    with pytest.raises(DomainError, match=r"^7 is not a canonical element of GF\(5\)$"):
        Matrix.from_rows(gf5, [[1, 7], [-1, 0]])
    with pytest.raises(DomainError, match=r"^-1 is not a canonical element of GF\(5\)$"):
        Matrix.from_rows(gf5, [[1, -1], [9, 0]])
    with pytest.raises(DimensionMismatch, match=r"^ragged rows$"):
        Matrix.from_rows(gf5, [[1, 2], [3], [9, 9]])
    with pytest.raises(DimensionMismatch, match=r"^ragged rows$"):
        Matrix.from_rows(gf5, [[1, 2], [3], ["x", 0]])
    with pytest.raises(ValueError):
        Matrix.from_rows(gf5, [[1, 2], ["x", 9]])


def test_custom_modulus_must_be_irreducible():
    # x^2 + 1 factors over GF(3) as it has no root... it does: 0^2+1=1, 1^2+1=2,
    # 2^2+1=2, so x^2+1 is irreducible over GF(3) and accepted.
    ScalarDomain.field(9, modulus=[1, 0, 1])
    # x^2 + 2x + 1 = (x+1)^2 is reducible and rejected.
    with pytest.raises(DomainError):
        ScalarDomain.field(9, modulus=[1, 2, 1])


def test_custom_modulus_refusals_name_the_fault():
    """A modulus of the wrong degree, one that is not monic, and one that
    factors are each refused with their own text."""
    for q, modulus, text in (
            (9, [1, 1], "modulus must have degree 2, got degree 1"),
            (9, [1, 0, 2], "modulus polynomial must be monic"),
            (4, [1, 0, 1], r"modulus \[1, 0, 1\] is reducible over GF\(2\)")):
        with pytest.raises(DomainError, match=f"^{text}$"):
            ScalarDomain.field(q, modulus)


def test_zero_has_no_inverse_in_any_domain():
    for dom, name in ((ScalarDomain.field(3), r"GF\(3\)"), (ScalarDomain.field(9), r"GF\(3\^2\)"),
                      (ScalarDomain.ring(6), "Z mod 6")):
        for zero in (0, dom.q):
            with pytest.raises(NotAUnit, match=f"^0 is not invertible in {name}$"):
                dom.inv(zero)


# Digit-wise reference arithmetic: an element of GF(p^m) is the packed int
# sum(c_i * p**i), addition works coefficient by coefficient mod p, and
# multiplication is the schoolbook product of the digit polynomials.


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


def reference_mul(dom, a, b):
    """Schoolbook product of the digit polynomials, reduced mod the modulus
    from the top coefficient down."""
    p, m, mod = dom.p, dom.m, dom.modulus
    prod = [0] * (2 * m - 1)
    db = _unpack(b, p, m)
    for i, x in enumerate(_unpack(a, p, m)):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(m + 1):
                prod[i - m + j] -= c * mod[j]
    return _pack([c % p for c in prod[:m]], p)


def assert_matches_reference(dom, pairs):
    for a in dom.elements():
        assert dom.neg(a) == reference_neg(dom, a), (dom, a)
        if a:
            assert reference_mul(dom, a, dom.inv(a)) == 1, (dom, a)
    for a, b in pairs:
        assert dom.add(a, b) == reference_add(dom, a, b), (dom, a, b)
        assert dom.sub(a, b) == reference_sub(dom, a, b), (dom, a, b)
        assert dom.mul(a, b) == reference_mul(dom, a, b), (dom, a, b)
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


def identity(dom, n):
    return Matrix.from_rows(dom, [[int(i == j) for j in range(n)] for i in range(n)])


def transpose(m):
    return Matrix(m.domain, m.cols, m.rows, tuple(x for j in range(m.cols) for x in m.column(j)))


def test_rank_identity_gf2():
    gf2 = ScalarDomain.field(2)
    assert mat_rank(identity(gf2, 3)) == 3


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
    with pytest.raises(RingNotSupported, match="^rank is defined here over fields only; "
                       "take a ring matrix mod each prime of its modulus$"):
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
            assert mat_rank(m) == mat_rank(transpose(m))


def test_rank_counts_independent_rows():
    gf2 = ScalarDomain.field(2)
    m = Matrix.from_rows(gf2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    # row 2 = row 0 + row 1
    assert mat_rank(m) == 2


# ---------------------------------------------------------------------------
# determinants: the oracles, and units mod each prime
# ---------------------------------------------------------------------------


def is_unit(dom, a):
    """Whether a is invertible in dom: nonzero over a field, prime to q
    over Z mod q."""
    return a != 0 if dom.is_field else math.gcd(a, dom.q) == 1


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


def field_det(m):
    """Determinant of a square field matrix by the reference elimination:
    the signed product of its pivots at full rank, else 0."""
    _, pivots, scale = _reference_row_reduce(m)
    return scale if len(pivots) == m.rows else 0


def full_rank_mod_every_prime(dom, rows):
    """check_ccp's test of a square ring block: full rank over GF(p), for
    every prime p | q, which by the CRT holds iff its determinant is a unit."""
    return all(len(reduce_rows(f, [[x % f.q for x in r] for r in rows], len(rows))[1])
               == len(rows) for f in _prime_fields(dom))


def test_det_hand_examples_z6():
    z6 = ScalarDomain.ring(6)
    assert [f.q for f in _prime_fields(z6)] == [2, 3]
    assert brute_force_det(z6, [[2, 0], [0, 3]]) == 0
    assert not full_rank_mod_every_prime(z6, [[2, 0], [0, 3]])
    assert brute_force_det(z6, [[1, 1], [1, 2]]) == 1
    assert full_rank_mod_every_prime(z6, [[1, 1], [1, 2]])


def test_det_oracle_2x2_z6_exhaustive():
    z6 = ScalarDomain.ring(6)
    for entries in itertools.product(range(6), repeat=4):
        rows = [list(entries[:2]), list(entries[2:])]
        assert full_rank_mod_every_prime(z6, rows) == is_unit(z6, brute_force_det(z6, rows))


def test_det_oracle_3x3_z6_small_entry_set():
    z6 = ScalarDomain.ring(6)
    for entries in itertools.product((0, 1, 5), repeat=9):
        rows = [list(entries[0:3]), list(entries[3:6]), list(entries[6:9])]
        assert full_rank_mod_every_prime(z6, rows) == is_unit(z6, brute_force_det(z6, rows))


def test_det_oracle_4x4_z6_binary_entries():
    z6 = ScalarDomain.ring(6)
    for entries in itertools.product((0, 1), repeat=16):
        rows = [list(entries[i * 4:(i + 1) * 4]) for i in range(4)]
        assert full_rank_mod_every_prime(z6, rows) == is_unit(z6, brute_force_det(z6, rows))


def test_det_oracle_random_5x5_and_6x6():
    """Larger ring matrices, over moduli with two primes and a prime power."""
    rng = random.Random(99)
    for q in (6, 10, 8, 12):
        dom = ScalarDomain.ring(q)
        for n in (5, 6):
            for _ in range(10):
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                assert full_rank_mod_every_prime(dom, rows) == is_unit(
                    dom, brute_force_det(dom, rows))


def test_det_oracle_field_matrices():
    rng = random.Random(4242)
    for q in (2, 3, 4, 5, 9):
        dom = ScalarDomain.field(q)
        assert _prime_fields(dom) == [dom]
        for n in (1, 2, 3, 4, 5):
            for _ in range(8):
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                assert field_det(Matrix.from_rows(dom, rows)) == brute_force_det(dom, rows)


def test_det_of_empty_matrix_is_one():
    assert field_det(Matrix.from_rows(ScalarDomain.field(5), [])) == 1
    z6 = ScalarDomain.ring(6)
    assert brute_force_det(z6, []) == 1 and full_rank_mod_every_prime(z6, [])


def test_row_reduce_rank_and_echelon_form():
    rng = random.Random(2718)
    full_rank = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        dom = ScalarDomain.field(q)
        for _ in range(40):
            n = rng.randrange(1, 6)
            cols = n if rng.random() < 0.6 else rng.randrange(1, 7)
            rows = [[rng.randrange(q) for _ in range(cols)] for _ in range(n)]
            m = Matrix.from_rows(dom, rows)
            red, pivots = row_reduce(m)
            assert len(pivots) == mat_rank(transpose(m))
            assert pivots == sorted(set(pivots))
            for i, row in enumerate(red):
                if i >= len(pivots):
                    assert not any(row)
                    continue
                assert not any(row[:pivots[i]]) and row[pivots[i]] == 1
                assert all(red[r][pivots[i]] == 0 for r in range(n) if r != i)
            if cols == n and len(pivots) == n:
                assert red == identity(dom, n).to_rows()
                full_rank += 1
    assert full_rank >= 50
    with pytest.raises(RingNotSupported):
        row_reduce(identity(ScalarDomain.ring(6), 2))


# ---------------------------------------------------------------------------
# matrix plumbing
# ---------------------------------------------------------------------------


def test_matrix_shape_validation():
    gf2 = ScalarDomain.field(2)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(gf2, [[1, 0], [1]])
    with pytest.raises(DomainError):
        Matrix.from_rows(gf2, [[0, 2]])


# ---------------------------------------------------------------------------
# row kernels
# ---------------------------------------------------------------------------

# Every kernel branch: prime fields, GF(2^m) and odd-p extension fields up to
# 64 and past 128, and residue rings with and without zero divisors.
KERNEL_DOMAINS = ([ScalarDomain.field(q) for q in PRIME_POWERS_LE_64 + [243, 256, 729, 1024]]
                  + [ScalarDomain.ring(q) for q in (4, 6, 9)])


def _sparse_row(rng, q, length):
    """A row in which about a third of the entries are 0."""
    return [rng.randrange(q) if rng.random() < 0.65 else 0 for _ in range(length)]


def test_row_kernels_match_the_scalar_ops():
    rng = random.Random(18)
    for dom in KERNEL_DOMAINS:
        q = dom.q
        add, mul = dom.add, dom.mul
        for _ in range(12):
            length = rng.randrange(0, 14)
            xs, ys = _sparse_row(rng, q, length), _sparse_row(rng, q, length)
            for c in (0, 1, q - 1, rng.randrange(q)):
                want = [add(x, mul(c, y)) for x, y in zip(xs, ys)]
                assert dom.add_scaled(xs, c, ys) == want, (dom, xs, c, ys)
                assert dom.add_scaled(itertools.repeat(0), c, ys) == [mul(c, y) for y in ys]
            ms = _sparse_row(rng, q, rng.randrange(0, 6))
            assert dom.add_outer(xs, ms) == [add(v, m) for v in xs for m in ms], (dom, xs, ms)
        # every element against a zero, a one and a random partner
        els = list(dom.elements())
        for c in (0, 1, rng.randrange(1, q)):
            for other in (0, 1, rng.randrange(q)):
                assert dom.add_scaled(els, c, [other] * q) == [add(x, mul(c, other)) for x in els]
                assert dom.add_scaled([other] * q, c, els) == [add(other, mul(c, y)) for y in els]
        assert dom.add_outer(els, [0, 1]) == [add(v, m) for v in els for m in (0, 1)]
        # the tables stay O(q): doubled exp plus a zero third, log, zech
        tables = (dom._exp, dom._log, dom._zech)
        assert sum(len(t) for t in tables if t is not None) <= 5 * q


# The matrix code as it stood on the scalar ops, kept as references.


def _reference_row_reduce(m):
    dom = m.domain
    sub, mul = dom.sub, dom.mul
    work = m.to_rows()
    nrows = m.rows
    pivots = []
    scale = 1
    for col in range(m.cols):
        r = len(pivots)
        if r == nrows:
            break
        for pivot in range(r, nrows):
            if work[pivot][col]:
                break
        else:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            scale = dom.neg(scale)
        p = work[r][col]
        scale = mul(scale, p)
        inv = dom.inv(p)
        tail = [mul(inv, x) for x in work[r][col:]]
        work[r][col:] = tail
        for i in range(nrows):
            f = work[i][col]
            if f and i != r:
                row = work[i]
                row[col:] = [sub(x, mul(f, y)) for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return work, pivots, scale


def _reference_generator_rows(source):
    dom = source.domain
    add, mul, q = dom.add, dom.mul, dom.q
    rows = []
    for j in range(source.n):
        row = [0]
        for g in source.mat.column(j):
            multiples = [mul(u, g) for u in range(q)]
            row = [add(v, m) for v in row for m in multiples]
        rows.append(tuple(row))
    return tuple(rows)


def _reference_take_cols(m, idx):
    rows = [m.row(i) for i in range(m.rows)]
    return tuple(row[j] for row in rows for j in idx)


def test_row_reduce_matches_the_scalar_reference():
    rng = random.Random(1818)
    for dom in KERNEL_DOMAINS:
        if not dom.is_field:
            continue
        for _ in range(6):
            nrows, cols = rng.randrange(1, 7), rng.randrange(1, 9)
            rows = [_sparse_row(rng, dom.q, cols) for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.3:
                # a repeated multiple drops the rank
                rows[-1] = [dom.mul(rng.randrange(dom.q), x) for x in rows[0]]
            m = Matrix.from_rows(dom, rows)
            assert row_reduce(m) == _reference_row_reduce(m)[:2], (dom, rows)


def test_generator_rows_match_the_scalar_reference():
    rng = random.Random(181818)
    for dom in KERNEL_DOMAINS:
        q = dom.q
        k = max(1, int(math.log(4096, q)))
        for _ in range(2):
            n = k + rng.randrange(1, 3)
            rows = [_sparse_row(rng, q, n) for _ in range(k)]
            for b in range(n):
                # a unit in every column: no zero column, unit content
                rows[rng.randrange(k)][b] = rng.choice([u for u in range(1, q) if is_unit(dom, u)])
            g = GeneratorMatrix(Matrix.from_rows(dom, rows))
            assert _generator_rows(g) == _reference_generator_rows(g), (dom, rows)


def test_take_cols_and_rows():
    m = Matrix.from_rows(ScalarDomain.field(2), [[1, 0, 1], [0, 1, 1]])
    assert m.take_cols([2, 0]).to_rows() == [[1, 1], [1, 0]]
    assert m.row(1) == (0, 1, 1)
    assert [m.column(j) for j in range(m.cols)] == [(1, 0), (0, 1), (1, 1)]


def test_take_cols_matches_the_row_by_row_reference():
    rng = random.Random(18181818)
    gf7 = ScalarDomain.field(7)
    for nrows, cols in ((0, 3), (1, 1), (3, 5), (6, 4)):
        m = Matrix.from_rows(gf7, [_sparse_row(rng, 7, cols) for _ in range(nrows)])
        if not nrows:
            m = Matrix(gf7, 0, cols, ())
        for idx in ([], [0], list(range(cols)), [cols - 1, 0, cols - 1],
                    rng.sample(range(cols), cols)):
            got = m.take_cols(idx)
            assert (got.rows, got.cols) == (nrows, len(idx))
            assert got.entries == _reference_take_cols(m, idx), (m, idx)
