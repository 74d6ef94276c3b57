"""Generator matrices with the consecutive column property (CCP).

A (k, alpha)-CCP generator matrix G over GF(q) or Z mod q is a k x n matrix
whose cyclically-consecutive column windows
``S_a = {a*alpha, ..., a*alpha + alpha - 1} mod n`` (for a = 0 .. z*n/alpha - 1,
z the least positive integer with alpha | n*z) all contain alpha "independent"
columns: for alpha = k+1 every k x k submatrix of a window must be invertible,
for alpha <= k the window must have alpha independent columns.  Such matrices
induce resolvable designs and, from those, coded caching schemes (see design
and caching modules).

Everything here is exact integer arithmetic on top of the gf module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import (
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
from .gf import Matrix, ScalarDomain, mat_det_is_unit, mat_rank, reduce_rows, row_reduce

# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """How a generator matrix was built; enough to rebuild it."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "kind" in self.params:
            raise DomainError("provenance params may not shadow the kind key")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for key, value in self.params.items():
            if isinstance(value, Provenance):
                out[key] = value.to_dict()
            else:
                out[key] = value
        return out

    @staticmethod
    def from_dict(data: dict) -> "Provenance":
        params = {}
        for key, value in data.items():
            if key == "kind":
                continue
            if isinstance(value, dict) and "kind" in value:
                params[key] = Provenance.from_dict(value)
            else:
                params[key] = value
        return Provenance(data["kind"], params)


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------


class GeneratorMatrix:
    """A validated k x n generator matrix over a field or residue ring.

    Field matrices may not contain an all-zero column.  Ring matrices must
    satisfy the unit-content condition gcd(q, g_0b, ..., g_(k-1)b) = 1 for
    every column b, which is exactly what makes the induced block sizes equal.
    """

    __slots__ = ("mat", "k", "n", "domain", "provenance")

    def __init__(self, mat: Matrix, provenance: Optional[Provenance] = None):
        k, n = mat.rows, mat.cols
        if not 1 <= k < n:
            raise ShapeMismatch(f"need 1 <= k < n, got k={k}, n={n}")
        dom = mat.domain
        for b in range(n):
            col = mat.column(b)
            if dom.is_field:
                if not any(col):
                    raise ZeroColumn(f"column {b} is all zero")
            else:
                if math.gcd(dom.q, *col) != 1:
                    raise RingConditionViolated(
                        f"column {b} has content gcd {math.gcd(dom.q, *col)} with {dom!r}")
        self.mat = mat
        self.k = k
        self.n = n
        self.domain = dom
        self.provenance = provenance or Provenance("user")

    @property
    def num_codewords(self) -> int:
        return self.domain.q ** self.k

    def __repr__(self) -> str:
        return f"GeneratorMatrix(k={self.k}, n={self.n}, {self.domain!r}, {self.provenance.kind})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GeneratorMatrix)
                and self.mat == other.mat)


# ---------------------------------------------------------------------------
# CCP certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowCheck:
    """Verdict for one column window."""

    index: int
    columns: tuple[int, ...]
    checks: tuple[tuple[str, bool], ...]
    ok: bool


@dataclass(frozen=True)
class CcpCertificate:
    alpha: int
    z: int
    satisfied: bool
    method: str  # "exhaustive" or "cyclic-shortcut"
    windows: tuple[WindowCheck, ...]


def least_z(n: int, alpha: int) -> int:
    """Least positive z with alpha | n*z."""
    return alpha // math.gcd(n, alpha)


def ccp_windows(n: int, alpha: int) -> list[tuple[int, ...]]:
    """Column windows S_a in traversal order, a = 0 .. z*n/alpha - 1."""
    z = least_z(n, alpha)
    return [tuple((a * alpha + j) % n for j in range(alpha))
            for a in range(z * n // alpha)]


_Form = tuple[list[list[int]], dict[int, int]]


def _reduced_forms(g: GeneratorMatrix) -> tuple[_Form, _Form]:
    """The RREF of a field matrix g, reduced in column order and in reversed
    column order, each as (rows, pivot column -> row) in g's column order.
    Row operations keep every window's rank and kernel, and the two forms
    put the pivot columns at the front and at the back of g."""
    n = g.n
    rows, pivots, _ = row_reduce(g.mat)
    back, back_pivots, _ = row_reduce(g.mat.take_cols(range(n - 1, -1, -1)))
    return ((rows, {c: i for i, c in enumerate(pivots)}),
            ([r[::-1] for r in back], {n - 1 - c: i for i, c in enumerate(back_pivots)}))


def _drop_keeps(dom: ScalarDomain, forms: tuple[_Form, _Form],
                cols: tuple[int, ...]) -> list[bool]:
    """Whether dropping each column of a k+1 column field window leaves rank k.

    That holds iff the window has rank k and its kernel vector x has x_d != 0.
    In the form with more pivot columns in the window, its t pivot columns
    are unit vectors, so the window has rank k iff the block B of its other
    columns on the k - t rows not pivoted in the window has rank k - t.  The
    RREF of B gives x on the other columns (1 at B's free column, -B[i][free]
    at the pivot column of row i) and x at a pivot column of row r is minus
    the dot product of row r with them.
    """
    rows, where = max(forms, key=lambda form: sum(c in form[1] for c in cols))
    other = [j for j, c in enumerate(cols) if c not in where]
    used = {where[c] for c in cols if c in where}
    ocols = [cols[j] for j in other]
    block, pivots, _ = reduce_rows(
        dom, [[row[c] for c in ocols] for i, row in enumerate(rows) if i not in used],
        len(ocols))
    keeps = [False] * len(cols)
    if len(pivots) < len(block):
        return keeps
    (free,) = set(range(len(ocols))).difference(pivots)
    x = [0] * len(ocols)
    x[free] = 1
    for i, p in enumerate(pivots):
        x[p] = dom.neg(block[i][free])
    for j, v in zip(other, x):
        keeps[j] = v != 0
    add, mul = dom.add, dom.mul
    for j, c in enumerate(cols):
        if c in where:
            row, acc = rows[where[c]], 0
            for oc, v in zip(ocols, x):
                if v:
                    acc = add(acc, mul(row[oc], v))
            keeps[j] = acc != 0
    return keeps


def _check_window_full(g: GeneratorMatrix, alpha: int, cols: tuple[int, ...],
                       forms: Optional[tuple[_Form, _Form]]
                       ) -> tuple[tuple[tuple[str, bool], ...], bool]:
    """Verdicts for one window: per dropped column at alpha = k+1, else one.

    A field window at alpha = k+1 is decided from the reduced forms of g;
    ring windows take one determinant per dropped column.
    """
    dom = g.domain
    checks: list[tuple[str, bool]] = []
    if alpha == g.k + 1:
        if forms is not None:
            keeps = _drop_keeps(dom, forms, cols)
        else:
            win = g.mat.take_cols(cols)
            keeps = [mat_det_is_unit(win.take_cols([c for c in range(alpha) if c != d]))[1]
                     for d in range(alpha)]
        checks = [(f"drop column {cols[d]}", ok) for d, ok in enumerate(keeps)]
        return tuple(checks), all(keeps)
    win = g.mat.take_cols(cols)
    if dom.is_field:
        ok = mat_rank(win) == alpha
        checks.append((f"column rank == {alpha}", ok))
        return tuple(checks), ok
    # ring, alpha <= k: look for an alpha x alpha row minor with unit det
    for rows in itertools.combinations(range(g.k), alpha):
        if mat_det_is_unit(win.take_rows(rows))[1]:
            checks.append((f"rows {rows} give a unit minor", True))
            return tuple(checks), True
    checks.append((f"no unit {alpha}x{alpha} row minor", False))
    return tuple(checks), False


def check_ccp(g: GeneratorMatrix, alpha: int) -> CcpCertificate:
    """Certify the (k, alpha)-CCP of g by checking every column window.

    alpha = k+1 tests all k x k submatrices of each window.  Over a field, g
    is row-reduced twice, in column order and in reversed column order, and
    each window takes the form with more of its pivot columns inside it (ties
    to the first): those columns are unit vectors, so only the block of the
    window's other columns on the rows not pivoted there is eliminated, and
    the window's kernel vector decides every dropped column.  Over a ring
    each dropped column takes one determinant.  alpha <= k tests for alpha
    independent columns (fields: rank; rings: exhaustive search for a unit
    alpha x alpha row minor).
    """
    if not 1 <= alpha <= g.k + 1:
        raise InvalidAlpha(f"alpha must be in 1..{g.k + 1}, got {alpha}")
    z = least_z(g.n, alpha)
    forms = _reduced_forms(g) if alpha == g.k + 1 and g.domain.is_field else None
    results = tuple(WindowCheck(a, cols, *_check_window_full(g, alpha, cols, forms))
                    for a, cols in enumerate(ccp_windows(g.n, alpha)))
    return CcpCertificate(alpha, z, all(w.ok for w in results), "exhaustive", results)


def _unit_leading_minors(rows: list[list[int]], dom: ScalarDomain) -> Iterator[bool]:
    """Whether each leading principal minor of a square matrix is a unit,
    smallest first, by one elimination without row swaps: while pivots
    0 .. i-1 are units, minor i is a unit iff pivot i is.  From the first
    non-unit pivot on, each minor takes its own determinant."""
    work = [list(r) for r in rows]
    for i, top in enumerate(work):
        if not dom.is_unit(top[i]):
            yield False
            for d in range(i + 2, len(rows) + 1):
                yield mat_det_is_unit(Matrix.from_rows(dom, [r[:d] for r in rows[:d]]))[1]
            return
        yield True
        inv = dom.inv(top[i])
        for row in work[i + 1:]:
            f = dom.mul(row[i], inv)
            if f:
                row[i + 1:] = [dom.sub(x, dom.mul(f, y))
                               for x, y in zip(row[i + 1:], top[i + 1:])]


def _cyclic_shortcut_oks(gen: Sequence[int], n: int, k: int,
                         dom: ScalarDomain) -> Iterator[bool]:
    """Whether the condition matrix C_j is invertible, for j = 1 .. floor(k/2)
    and then for j = k-1 down to floor(k/2)+1, so that all() stops at the
    first non-unit pivot of either elimination."""
    def toeplitz(size: int, shift: int) -> list[list[int]]:
        return [[gen[shift - r + c] if 0 <= shift - r + c < len(gen) else 0
                 for c in range(size)] for r in range(size)]

    half = k // 2
    yield from _unit_leading_minors(toeplitz(half, n - k - 1), dom)
    yield from _unit_leading_minors(toeplitz(k - half - 1, 1), dom)


def check_ccp_cyclic_shortcut(g: GeneratorMatrix) -> CcpCertificate:
    """(k, k+1)-CCP verdict for a cyclic code from one window's condition
    matrices built out of the generator polynomial coefficients.

    For the window starting at position n - floor(k/2) - 1, dropping the j-th
    window column leaves a full-rank submatrix iff a small square condition
    matrix C_j built from shifted generator coefficients is invertible; j = 0
    and j = k are always invertible.  Because cyclic shifts map codewords to
    codewords, this single window decides every window, so the verdict equals
    the exhaustive check.

    The C_j are leading principal blocks of two Toeplitz matrices, each
    eliminated once: C_j for j <= floor(k/2) is the j x j block of
    T_a[r][c] = g[n-k-1-r+c], and C_j for larger j the (k-j) x (k-j) block
    of T_b[r][c] = g[1-r+c], of size k - floor(k/2) - 1, read in reverse.
    """
    if g.provenance.kind != "cyclic":
        raise NotCyclic("shortcut applies to cyclic-code generator matrices only")
    n, k = g.n, g.k
    start = n - k // 2 - 1
    cols = tuple((start + j) % n for j in range(k + 1))
    checks: list[tuple[str, bool]] = [("boundary j=0 (triangular unit block)", True)]
    oks = list(_cyclic_shortcut_oks(g.provenance.params["gen_poly"], n, k, g.domain))
    oks[k // 2:] = reversed(oks[k // 2:])
    for j, ok in enumerate(oks, 1):
        dim = j if j <= k // 2 else k - j
        checks.append((f"condition matrix for j={j} ({dim}x{dim})", ok))
    checks.append(("boundary j=k (triangular unit block)", True))
    satisfied = all(ok for _, ok in checks)
    window = WindowCheck(0, cols, tuple(checks), satisfied)
    return CcpCertificate(k + 1, least_z(n, k + 1), satisfied, "cyclic-shortcut", (window,))


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, constant term first)
# ---------------------------------------------------------------------------


def _poly_divmod(num: Sequence[int], den: Sequence[int],
                 dom: ScalarDomain) -> tuple[list[int], list[int]]:
    """Divide by a monic polynomial; exact over rings because den is monic."""
    num = [x % dom.q for x in num]
    d = len(den) - 1
    if len(num) < len(den):
        return [], num
    quot = [0] * (len(num) - d)
    for i in range(len(num) - 1 - d, -1, -1):
        c = num[i + d]
        quot[i] = c
        if c:
            for j in range(d + 1):
                num[i + j] = dom.sub(num[i + j], dom.mul(c, den[j]))
    return quot, num[:d]


def _divides_xn_minus_1(gen: Sequence[int], n: int, dom: ScalarDomain) -> bool:
    xn1 = [dom.neg(1)] + [0] * (n - 1) + [1]
    _, rem = _poly_divmod(xn1, gen, dom)
    return not any(rem)


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], dom: ScalarDomain) -> list[int]:
    add, mul = dom.add, dom.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def _poly_gcd(a: list[int], b: list[int], dom: ScalarDomain) -> list[int]:
    """Monic gcd over a field of a nonzero a and any b (both trimmed)."""
    while b:
        inv = dom.inv(b[-1])
        b = [dom.mul(inv, x) for x in b]
        a, b = b, _poly_trim(_poly_divmod(a, b, dom)[1])
    inv = dom.inv(a[-1])
    return [dom.mul(inv, x) for x in a]


def _berlekamp(f: list[int], dom: ScalarDomain) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over a field.

    Row i of the Q-matrix is X^(iq) mod f.  Each kernel vector v of Q - I is
    a polynomial with v^q = v mod f, so f is the product of gcd(f, v - s)
    over the field elements s; the kernel has one dimension per irreducible
    factor, and splitting by every kernel vector in turn separates them all.
    """
    d = len(f) - 1
    x_q = _poly_divmod([0] * dom.q + [1], f, dom)[1]
    q_rows = [[1] + [0] * (d - 1)]
    for _ in range(d - 1):
        q_rows.append(_poly_divmod(_poly_mul(q_rows[-1], x_q, dom), f, dom)[1])
    # v (Q - I) = 0, reduced as (Q - I)^T v = 0
    rows, pivots, _ = row_reduce(Matrix.from_rows(
        dom, [[dom.sub(q_rows[i][j], int(i == j)) for i in range(d)]
              for j in range(d)]))
    factors = [f]
    for free in sorted(set(range(d)).difference(pivots)):
        if len(factors) == d - len(pivots):
            break
        v = [0] * d
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = dom.neg(rows[i][free])
        split = []
        for h in factors:
            vh = _poly_divmod(v, h, dom)[1]
            left = len(h) - 1
            for s in dom.elements():
                if left == 0:
                    break
                g = _poly_gcd(h, _poly_trim([dom.sub(vh[0], s)] + vh[1:]), dom)
                if len(g) > 1:
                    split.append(g)
                    left -= len(g) - 1
        factors = split
    return factors


@functools.cache
def _xn_minus_1_factors(n: int, dom: ScalarDomain) -> tuple[tuple[int, ...], ...]:
    """Monic irreducible factors of a squarefree X^n - 1 over a field,
    factored once per (n, field)."""
    return tuple(map(tuple, _berlekamp([dom.neg(1)] + [0] * (n - 1) + [1], dom)))


def _xn_minus_1_divisors(n: int, deg: int, dom: ScalarDomain) -> Iterator[list[int]]:
    """Monic degree-deg divisors of X^n - 1 over a field, in no set order.

    With n = p^e * n' and p not dividing n', X^n - 1 = (X^n' - 1)^(p^e) and
    X^n' - 1 is squarefree, so the divisors are the products of its
    irreducible factors, each to a power of at most p^e.
    """
    n_prime, mult = n, 1
    while n_prime % dom.p == 0:
        n_prime //= dom.p
        mult *= dom.p
    factors = _xn_minus_1_factors(n_prime, dom)
    reach = [0] * (len(factors) + 1)  # the most degree factors j.. can add
    for j in range(len(factors) - 1, -1, -1):
        reach[j] = reach[j + 1] + mult * (len(factors[j]) - 1)

    def extend(j: int, poly: list[int], left: int) -> Iterator[list[int]]:
        if left == 0:
            yield poly
            return
        if left > reach[j]:
            return
        yield from extend(j + 1, poly, left)
        for _ in range(min(mult, left // (len(factors[j]) - 1))):
            poly = _poly_mul(poly, factors[j], dom)
            left -= len(factors[j]) - 1
            yield from extend(j + 1, poly, left)

    return extend(0, [1], deg)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def build_mds(n: int, k: int, domain: ScalarDomain) -> GeneratorMatrix:
    """Vandermonde generator of an (n, k) MDS code on points 0, 1, ..., n-1.

    Any k columns are independent, so every CCP window passes for any alpha.
    Requires q >= n so the n evaluation points are distinct.
    """
    if not domain.is_field:
        raise RingNotSupported("MDS construction requires a field")
    if domain.q < n:
        raise FieldTooSmall(f"need q >= n, got q={domain.q} < n={n}")
    rows = [[domain.pow(x, i) for x in range(n)] for i in range(k)]
    mat = Matrix.from_rows(domain, rows)
    return GeneratorMatrix(mat, Provenance("mds", {"n": n, "k": k, "q": domain.q}))


def build_cyclic(n: int, gen_poly: Sequence[int], domain: ScalarDomain) -> GeneratorMatrix:
    """Banded generator matrix of the (n, n-deg) cyclic code generated by a
    monic divisor of X^n - 1 with nonzero constant term (constant term first).
    """
    gen = [int(c) % domain.q for c in gen_poly]
    while len(gen) > 1 and gen[-1] == 0:
        gen.pop()
    deg = len(gen) - 1
    if deg < 1 or gen[-1] != 1:
        raise NotMonic(f"generator polynomial must be monic of degree >= 1, got {gen}")
    if gen[0] == 0:
        raise ZeroConstantTerm("generator polynomial must have a nonzero constant term")
    if deg >= n:
        raise ShapeMismatch(f"degree {deg} must be below n={n}")
    if not _divides_xn_minus_1(gen, n, domain):
        raise NotADivisor(f"{gen} does not divide X^{n} - 1 over {domain!r}")
    k = n - deg
    rows = [[0] * i + gen + [0] * (n - deg - 1 - i) for i in range(k)]
    mat = Matrix.from_rows(domain, rows)
    return GeneratorMatrix(mat, Provenance("cyclic", {"n": n, "q": domain.q,
                                                      "gen_poly": gen}))


def build_spc(k: int, domain: ScalarDomain) -> GeneratorMatrix:
    """Single parity check code [I_k | 1]; works over fields and rings."""
    if k < 1:
        raise ShapeMismatch(f"k must be >= 1, got {k}")
    rows = [[1 if i == j else 0 for j in range(k)] + [1] for i in range(k)]
    mat = Matrix.from_rows(domain, rows)
    return GeneratorMatrix(mat, Provenance("spc", {"k": k, "q": domain.q}))


def kron_identity(base: GeneratorMatrix, t: int) -> GeneratorMatrix:
    """Kronecker product base (x) I_t.

    The identity factor lives in base's own domain.  A z x alphaCols base
    satisfying the (z, z)-CCP yields a (t*z, t*z)-CCP matrix of size
    t*z x t*alphaCols, because every window determinant of the product is a
    window determinant of the base raised to the t-th power.
    """
    if t < 1:
        raise ShapeMismatch(f"t must be >= 1, got {t}")
    if not check_ccp(base, base.k).satisfied:
        raise BaseNotCcp(f"base fails the ({base.k}, {base.k})-CCP")
    z, acols = base.k, base.n
    rows = []
    for i in range(z):
        for r in range(t):
            row = [0] * (acols * t)
            for j in range(acols):
                row[j * t + r] = base.mat.get(i, j)
            rows.append(row)
    mat = Matrix.from_rows(base.domain, rows)
    return GeneratorMatrix(mat, Provenance("kron_identity",
                                           {"t": t, "base": base.provenance}))


def _banded_block_code(t: int, z: int, domain: ScalarDomain) -> Matrix:
    """Rows of the banded block layout shared by claims 6 and 9: identity,
    ones and scaled-identity blocks with b_i = i for i in 1..z-1, then a final
    identity + ones + C(1, -1) strip."""
    n = (z + 1) * t
    ones_col = (z - 1) * t + (t - 1)
    rows: list[list[int]] = []
    for i in range(z - 1):
        for r in range(t):
            row = [0] * n
            row[i * t + r] = 1
            row[ones_col] = 1
            row[ones_col + 1 + r] = i + 1
            rows.append(row)
    for r in range(t - 1):
        row = [0] * n
        row[(z - 1) * t + r] = 1
        row[ones_col] = 1
        row[ones_col + 1 + r] = 1
        row[ones_col + 1 + r + 1] = domain.neg(1)
        rows.append(row)
    return Matrix.from_rows(domain, rows)


def build_claim5(t: int, z: int, alpha_cols: int,
                 domain: ScalarDomain) -> GeneratorMatrix:
    """(t*alphaCols, t*z - 1) code from a z x alphaCols Vandermonde table on
    the first alphaCols nonzero field elements; satisfies the (k, k+1)-CCP
    for k+1 = t*z.  Requires q > alphaCols and gcd(z, alphaCols) = 1.
    """
    if not domain.is_field:
        raise RingNotSupported("this construction requires a field")
    if t < 1 or z < 2 or alpha_cols < 2:
        raise ShapeMismatch(f"need t >= 1, z >= 2, alphaCols >= 2; got {t}, {z}, {alpha_cols}")
    if math.gcd(z, alpha_cols) != 1:
        raise ShapeMismatch(f"z={z} and alphaCols={alpha_cols} must be coprime")
    if domain.q <= alpha_cols:
        raise FieldTooSmall(f"need q > alphaCols, got q={domain.q}")
    # rows: the scaled-identity stack [b_ij I_t] of the table's first z-1
    # rows, topped off by circulant blocks C(b, b) from its last row
    table = [[domain.pow(x, i) for x in range(1, alpha_cols + 1)] for i in range(z)]
    n = t * alpha_cols
    rows: list[list[int]] = []
    for i in range(z - 1):
        for r in range(t):
            row = [0] * n
            for j in range(alpha_cols):
                row[j * t + r] = table[i][j]
            rows.append(row)
    for r in range(t - 1):
        row = [0] * n
        for j in range(alpha_cols):
            row[j * t + r] = row[j * t + r + 1] = table[z - 1][j]
        rows.append(row)
    mat = Matrix.from_rows(domain, rows)
    return GeneratorMatrix(mat, Provenance("claim5", {"t": t, "z": z,
                                                      "alpha_cols": alpha_cols,
                                                      "q": domain.q}))


def build_claim6(t: int, z: int, domain: ScalarDomain) -> GeneratorMatrix:
    """((z+1)*t, z*t - 1) code satisfying the (k, k+1)-CCP for k+1 = z*t,
    covering the n*z = (z+1)*(k+1) parameter family.  Uses b_i = the first
    z-1 distinct nonzero elements and the circulant pair (1, -1); needs q >= z.
    """
    if not domain.is_field:
        raise RingNotSupported("use the residue-ring variant for rings")
    if t < 1 or z < 2:
        raise ShapeMismatch(f"need t >= 1 and z >= 2; got t={t}, z={z}")
    if domain.q < z:
        raise FieldTooSmall(f"need q >= z, got q={domain.q} < z={z}")
    mat = _banded_block_code(t, z, domain)
    return GeneratorMatrix(mat, Provenance("claim6", {"t": t, "z": z, "q": domain.q}))


def build_claim9(t: int, ring_modulus: int) -> GeneratorMatrix:
    """(3t, 2t - 1) matrix over Z mod q satisfying the (k, k+1)-CCP for
    k+1 = 2t; the z = 2 layout with b = 1 and circulant pair (1, -1) keeps
    every window determinant equal to +-1, hence a unit for every modulus.
    """
    if t < 2:
        raise ShapeMismatch(f"t must be >= 2, got {t}")
    domain = ScalarDomain.ring(ring_modulus)
    mat = _banded_block_code(t, 2, domain)
    return GeneratorMatrix(mat, Provenance("claim9", {"t": t, "q": ring_modulus}))


def extend_ccp(g: GeneratorMatrix, s: int, alpha: Optional[int] = None) -> GeneratorMatrix:
    """Prepend s copies of the first alpha columns (alpha defaults to k+1).

    A (k, alpha)-CCP matrix stays (k, alpha)-CCP under this extension and the
    induced z is unchanged, because the new windows repeat old ones.
    """
    if s < 0:
        raise ShapeMismatch(f"s must be >= 0, got {s}")
    alpha = g.k + 1 if alpha is None else alpha
    if not check_ccp(g, alpha).satisfied:
        raise BaseNotCcp(f"base fails the ({g.k}, {alpha})-CCP")
    if s == 0:
        return g
    head = [list(g.mat.row(i)[:alpha]) for i in range(g.k)]
    rows = [head[i] * s + list(g.mat.row(i)) for i in range(g.k)]
    mat = Matrix.from_rows(g.domain, rows)
    return GeneratorMatrix(mat, Provenance("extended", {"s": s, "alpha": alpha,
                                                        "base": g.provenance}))


# ---------------------------------------------------------------------------
# cyclic generator search
# ---------------------------------------------------------------------------


def cyclic_search_space(n: int, k: int, domain: ScalarDomain) -> int:
    """Number of monic degree-(n-k) candidates with nonzero constant term."""
    deg = n - k
    return (domain.q - 1) * domain.q ** (deg - 1)


def search_cyclic_generators(n: int, k: int, domain: ScalarDomain,
                             limit: int = 10 ** 6) -> list[list[int]]:
    """Generator polynomials of (n, k) cyclic codes over a field, in
    lexicographic coefficient order (constant term first).

    The result is every monic degree-(n-k) divisor of X^n - 1 whose
    candidate rank is below ``limit``.  The candidates are the monic
    degree-(n-k) polynomials with nonzero constant term, ranked in that
    order from 0 to cyclic_search_space - 1, so a limit below the space may
    drop divisors and ``limit=0`` gives [].  The divisors come from
    factoring X^n - 1 by Berlekamp's algorithm, not from the candidates, so
    the cost grows with the number of divisors, whatever the limit.
    """
    if limit < 0:
        raise DomainError(f"cyclic search limit must be >= 0, got {limit}")
    if not domain.is_field:
        raise RingNotSupported("cyclic generator search requires a field")
    deg = n - k
    if deg < 1 or k < 0:
        return []
    q = domain.q

    def rank(gen: list[int]) -> int:
        r = gen[0] - 1
        for c in gen[1:deg]:
            r = r * q + c
        return r

    return sorted(gen for gen in _xn_minus_1_divisors(n, deg, domain)
                  if rank(gen) < limit)


# ---------------------------------------------------------------------------
# residue (CRT) codeword sources
# ---------------------------------------------------------------------------


class CrtCodewordSource:
    """Length-n codewords over Z mod (q_1 * ... * q_d) assembled coordinate-
    wise from component cyclic codes over the prime fields GF(q_i).

    There are q_1^k_1 * ... * q_d^k_d codewords.  The delivery gain parameter
    is k_min = min k_i: the combined code supports the (k, k_min)-CCP
    machinery because each component does.  basis[i] is the idempotent e_i
    (1 mod q_i, 0 mod every other q_j) that joins component words w_i into
    the residue word sum_i e_i * w_i mod q; design.codeword_matrix lists them.
    """

    __slots__ = ("n", "q", "components", "k_min", "num_codewords", "provenance",
                 "basis")

    def __init__(self, components: Sequence[GeneratorMatrix], n: int):
        qs = [c.domain.q for c in components]
        self.n = n
        self.q = math.prod(qs)
        self.components = tuple(components)
        self.k_min = min(c.k for c in components)
        self.num_codewords = math.prod(c.num_codewords for c in components)
        self.provenance = Provenance(
            "crt_cyclic",
            {"n": n, "q": self.q,
             "components": [{"q": c.domain.q,
                             "gen_poly": list(c.provenance.params["gen_poly"])}
                            for c in components]})
        basis = []
        for qi in qs:
            mi = self.q // qi
            basis.append((mi * pow(mi, -1, qi)) % self.q)
        self.basis = tuple(basis)


def build_crt_cyclic(components: Sequence[tuple[Sequence[int], ScalarDomain]],
                     n: int) -> CrtCodewordSource:
    """Combine (n, k_i) cyclic codes over distinct prime fields GF(q_i) into a
    codeword source over Z mod prod(q_i)."""
    if not components:
        raise ComponentInvalid("at least one component is required")
    qs = []
    for _, dom in components:
        if not (dom.is_field and dom.m == 1):
            raise ModuliNotCoprimePrimes(f"{dom!r} is not a prime field")
        qs.append(dom.q)
    if len(set(qs)) != len(qs):
        raise ModuliNotCoprimePrimes(f"moduli must be distinct, got {qs}")
    built = []
    for gen_poly, dom in components:
        try:
            built.append(build_cyclic(n, gen_poly, dom))
        except Exception as exc:
            raise ComponentInvalid(f"component over {dom!r}: {exc}") from exc
    return CrtCodewordSource(built, n)
