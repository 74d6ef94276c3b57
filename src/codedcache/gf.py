"""Exact scalar arithmetic over GF(p^m) and Z mod q, plus small exact matrices.

Elements are plain Python ints in canonical form.  For a prime field or a
residue ring the canonical form is the residue in [0, q).  For an extension
field GF(p^m) an element is the packed integer sum(c_i * p**i) where
(c_0, ..., c_{m-1}) are the coefficients of the polynomial representative in
the basis {1, x, ..., x^{m-1}}; the packed values again range over [0, q).

Scalar operations are table-driven; no call unpacks an element into digits.
Prime fields and residue rings reduce the plain integer result mod q.  In
GF(2^m) addition and subtraction are XOR of the packed ints and negation is
the identity.  Every extension field multiplies and inverts through log/exp
tables of a primitive element g, and for odd p it adds through a Zech table
zech[i] = log(1 + g^i), so a + b = g^(log a + zech[log b - log a]).  The
tables hold O(q) entries and are built once, when the domain is constructed.
Two row kernels, ``add_scaled`` and ``add_outer``, run a whole row through
the same tables in one call; row reduction and codeword enumeration use them.

All operations are exact integer computations; no floats appear anywhere in
this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    DomainError,
    DomainMismatch,
    NonSquare,
    NotAUnit,
    RingNotSupported,
)

_MAX_ORDER = 1024


def _prime_power(q: int) -> Optional[tuple[int, int]]:
    """Return (p, m) with q == p**m and p prime, or None."""
    p = next(_prime_factors(q), None)
    if p is None:
        return None
    m = 1
    while p ** m < q:
        m += 1
    return (p, m) if p ** m == q else None


def _prime_factors(n: int) -> Iterator[int]:
    """The distinct prime factors of n in ascending order, each found by
    trial division only when it is asked for."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


@functools.cache
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible polynomial of degree
    m over GF(p), constant term first; every degree has one."""
    return next(low + (1,) for low in itertools.product(range(p), repeat=m)
                if _poly_irreducible(low + (1,), p))


class ScalarDomain:
    """Arithmetic context: either a finite field GF(p^m) or the ring Z mod q.

    Construct through the ``field`` / ``ring`` factories.  The object carries
    every scalar operation the rest of the package needs; elements themselves
    stay plain ints.

    How the operations are computed depends on the kind of domain:

    - prime field or ring: integer arithmetic mod q;
    - GF(2^m): ``add``/``sub`` are ``a ^ b`` and ``neg`` is the identity;
    - GF(p^m), odd p: ``add``/``sub``/``neg`` through the log/exp tables and
      the Zech table, with ``-a = g^(log a + (q-1)/2)``;
    - every extension field: ``mul``/``inv`` through the log/exp tables.

    The tables are built once, in the constructor.

    Attributes
    ----------
    kind : str
        "field" or "ring".
    q : int
        Number of elements (p**m for fields, the modulus for rings).
    p, m : int
        Characteristic and extension degree; for rings p == q and m == 1.
    modulus : tuple[int, ...] | None
        Coefficients (constant first) of the irreducible modulus polynomial
        for extension fields, None otherwise.
    """

    __slots__ = ("kind", "q", "p", "m", "modulus", "_exp", "_log", "_zech")

    def __init__(self, kind: str, q: int, p: int, m: int,
                 modulus: Optional[tuple[int, ...]]):
        self.kind = kind
        self.q = q
        self.p = p
        self.m = m
        self.modulus = modulus
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        self._zech: Optional[list[int]] = None
        if kind == "field" and m > 1:
            self._build_tables()

    # ---------------------------------------------------------- construction

    @staticmethod
    def field(q: int, modulus: Optional[Sequence[int]] = None) -> "ScalarDomain":
        """Finite field with q elements, 2 <= q <= 1024.

        ``modulus`` optionally overrides the built-in irreducible polynomial
        (constant term first, must be monic of degree m and irreducible).
        """
        if not 2 <= q <= _MAX_ORDER:
            raise DomainError(f"field order {q} outside supported range 2..{_MAX_ORDER}")
        pm = _prime_power(q)
        if pm is None:
            raise DomainError(f"field order {q} is not a prime power")
        p, m = pm
        if m == 1:
            if modulus is not None:
                raise DomainError("prime fields take no modulus polynomial")
            return ScalarDomain("field", q, p, 1, None)
        if modulus is None:
            mod = _default_modulus(p, m)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1:
                raise DomainError(f"modulus must have degree {m}, got degree {len(mod) - 1}")
            if mod[-1] != 1:
                raise DomainError("modulus polynomial must be monic")
            if not _poly_irreducible(mod, p):
                raise DomainError(f"modulus {list(mod)} is reducible over GF({p})")
        return ScalarDomain("field", q, p, m, mod)

    @staticmethod
    def ring(q: int) -> "ScalarDomain":
        """Residue ring Z mod q, 2 <= q <= 1024."""
        if not 2 <= q <= _MAX_ORDER:
            raise DomainError(f"ring modulus {q} outside supported range 2..{_MAX_ORDER}")
        return ScalarDomain("ring", q, q, 1, None)

    @property
    def is_field(self) -> bool:
        return self.kind == "field"

    # ------------------------------------------------------------ comparison

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ScalarDomain)
                and self.kind == other.kind
                and self.q == other.q
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.kind, self.q, self.modulus))

    def __repr__(self) -> str:
        if self.kind == "ring":
            return f"Z mod {self.q}"
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.p}^{self.m})"

    # ------------------------------------------------------------ table prep

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        gen = None
        factors = list(_prime_factors(q - 1))
        for cand in range(1, q):
            if all(self._pow_raw(cand, (q - 1) // r) != 1 for r in factors):
                gen = cand
                break
        if gen is None:  # pragma: no cover - impossible for a true field
            raise DomainError(f"no primitive element found for GF({q})")
        n = q - 1
        exp = [1] * n
        log = [0] * q
        acc = 1
        for i in range(1, n):
            acc = self._mul_raw(acc, gen)
            exp[i] = acc
            log[acc] = i
        log[1] = 0
        # exp is doubled, so a sum of two logs needs no reduction, and ends
        # in a third of zeros; log[0] = 2n points into that third, so a log
        # sum with one zero operand reads 0.
        log[0] = 2 * n
        if p != 2:
            # zech[i] = log(1 + g^i); adding 1 only changes the constant digit.
            # At i = n/2, g^i = -1 and the sum is 0: sentinel 2n, which sends
            # log a + zech into the zero third.
            zech = [2 * n] * n
            for i, e in enumerate(exp):
                one_plus = e - e % p + (e + 1) % p
                if one_plus:
                    zech[i] = log[one_plus]
            self._zech = zech
        self._exp, self._log = exp + exp + [0] * n, log

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product mod (modulus, p) on packed ints; no tables."""
        p, m = self.p, self.m
        da = _unpack(a, p, m)
        db = _unpack(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        mod = self.modulus
        assert mod is not None
        for i in range(len(prod) - 1, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m + 1):
                    prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
        return _pack(prod[:m], p)

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return out

    # ------------------------------------------------------------ scalar ops

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.q
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        # g^la + g^lb = g^(la + zech[lb - la])
        log = self._log
        la = log[a]
        return self._exp[la + self._zech[(log[b] - la) % (self.q - 1)]]

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.q
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.q
        if self.p == 2 or a == 0:
            return a
        n = self.q - 1
        return self._exp[(self._log[a] + n // 2) % n]

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.q
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    # ----------------------------------------------------------- row kernels

    def add_scaled(self, xs: Iterable[int], c: int, ys: Iterable[int]) -> list[int]:
        """``[add(x, mul(c, y)) for x, y in zip(xs, ys)]`` in one call."""
        if self.m == 1:
            q = self.q
            return [(x + c * y) % q for x, y in zip(xs, ys)]
        if c == 0:
            return [x for x, _ in zip(xs, ys)]
        exp, log = self._exp, self._log
        lc = log[c]
        if self.p == 2:
            # lc + log[0] lands in exp's zero third
            return [x ^ exp[lc + log[y]] for x, y in zip(xs, ys)]
        n, zech = self.q - 1, self._zech
        out = []
        for x, y in zip(xs, ys):
            if y:
                lt = lc + log[y]
                if x:
                    lx = log[x]
                    x = exp[lx + zech[(lt - lx) % n]]
                else:
                    x = exp[lt]
            out.append(x)
        return out

    def add_outer(self, vs: Iterable[int], ms: Sequence[int]) -> list[int]:
        """``[add(v, m) for v in vs for m in ms]`` in one call."""
        if self.m == 1:
            q = self.q
            return [(v + m) % q for v in vs for m in ms]
        if self.p == 2:
            return [v ^ m for v in vs for m in ms]
        n, exp, log, zech = self.q - 1, self._exp, self._log, self._zech
        out: list[int] = []
        for v in vs:
            if v:
                lv = log[v]
                out += [exp[lv + zech[(log[m] - lv) % n]] if m else v for m in ms]
            else:
                out += ms
        return out

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises NotAUnit when none exists."""
        a %= self.q
        if a == 0:
            raise NotAUnit(f"0 is not invertible in {self!r}")
        if self.kind == "ring":
            try:
                return pow(a, -1, self.q)
            except ValueError:
                raise NotAUnit(f"{a} is not a unit in {self!r}") from None
        if self.m == 1:
            return pow(a, self.q - 2, self.q)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def is_unit(self, a: int) -> bool:
        a %= self.q
        if self.kind == "field":
            return a != 0
        return math.gcd(a, self.q) == 1

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise DomainError(f"{a!r} is not a canonical element of {self!r}")
        return a


def _unpack(a: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _pack(coeffs: Iterable[int], p: int) -> int:
    out = 0
    mult = 1
    for c in coeffs:
        out += c * mult
        mult *= p
    return out


def _poly_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive divisor check: no monic factor of degree 1..deg//2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            rem = list(coeffs)
            for i in range(len(rem) - 1 - d, -1, -1):
                c = rem[i + d] % p
                if c:
                    for j in range(d + 1):
                        rem[i + j] = (rem[i + j] - c * den[j]) % p
            if all(x % p == 0 for x in rem[:d]):
                return False
    return True


def natural_domain(q: int) -> ScalarDomain:
    """Field when q is a prime power, integers mod q otherwise."""
    if _prime_power(q):
        return ScalarDomain.field(q)
    return ScalarDomain.ring(q)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with canonical int entries over a ScalarDomain."""

    domain: ScalarDomain
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    @staticmethod
    def from_rows(domain: ScalarDomain, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            for x in row:
                flat.append(domain.validate(int(x)))
        return Matrix(domain, r, c, tuple(flat))

    @staticmethod
    def identity(domain: ScalarDomain, n: int) -> "Matrix":
        return Matrix(domain, n, n,
                      tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.domain, self.cols, self.rows,
                      tuple(x for j in range(self.cols) for x in self.column(j)))

    def take_cols(self, idx: Sequence[int]) -> "Matrix":
        entries, cols = self.entries, self.cols
        return Matrix(self.domain, self.rows, len(idx),
                      tuple(itertools.chain.from_iterable(
                          zip(*[entries[j::cols] for j in idx]))))

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        return Matrix(self.domain, len(idx), self.cols,
                      tuple(x for i in idx for x in self.row(i)))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain!r} vs {other.domain!r}")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        dom = self.domain
        add, mul = dom.add, dom.mul
        cols = [other.column(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for cj in cols:
                acc = 0
                for a, b in zip(ri, cj):
                    if a:
                        acc = add(acc, mul(a, b))
                out.append(acc)
        return Matrix(dom, self.rows, other.cols, tuple(out))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


def row_reduce(m: Matrix) -> tuple[list[list[int]], list[int], int]:
    """Gauss-Jordan elimination to reduced row echelon form; fields only.

    Returns ``(rows, pivots, scale)``: the RREF as lists of rows, the pivot
    column of each nonzero row in order, and the product of the pivots met
    times the sign of the row swaps.  ``len(pivots)`` is the rank, and when m
    is square and of full rank ``scale`` is its determinant.  Pivoting takes
    the first nonzero entry at or below the current row.
    """
    return reduce_rows(m.domain, m.to_rows(), m.cols)


def reduce_rows(dom: ScalarDomain, work: list[list[int]],
                ncols: int) -> tuple[list[list[int]], list[int], int]:
    """``row_reduce`` on rows of ``ncols`` canonical entries, reduced in
    place: the rows are taken as they are, with no Matrix and no check of
    their entries."""
    if not dom.is_field:
        raise RingNotSupported("row reduction is defined here over fields only")
    add_scaled = dom.add_scaled
    nrows = len(work)
    pivots: list[int] = []
    scale = 1
    for col in range(ncols):
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
        scale = dom.mul(scale, p)
        # left of col the pivot row is zero, so only its tail takes part;
        # row i becomes row i + f * (-tail)
        tail = add_scaled(itertools.repeat(0), dom.inv(p), work[r][col:])
        work[r][col:] = tail
        neg_tail = add_scaled(itertools.repeat(0), dom.neg(1), tail)
        for i in range(nrows):
            f = work[i][col]
            if f and i != r:
                row = work[i]
                row[col:] = add_scaled(row[col:], f, neg_tail)
        pivots.append(col)
    return work, pivots, scale


def mat_rank(m: Matrix) -> int:
    """Rank over a field: the number of pivots ``row_reduce`` finds."""
    if not m.domain.is_field:
        raise RingNotSupported("rank is defined here over fields only; "
                               "use mat_det_is_unit for square ring matrices")
    return len(row_reduce(m)[1])


def _det_bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (exact divisions)."""
    n = len(rows)
    if n == 0:
        return 1
    work = [list(r) for r in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if work[col][col] == 0:
            swap = None
            for r in range(col + 1, n):
                if work[r][col] != 0:
                    swap = r
                    break
            if swap is None:
                return 0
            work[col], work[swap] = work[swap], work[col]
            sign = -sign
        for r in range(col + 1, n):
            for j in range(col + 1, n):
                work[r][j] = (work[r][j] * work[col][col]
                              - work[r][col] * work[col][j]) // prev
            work[r][col] = 0
        prev = work[col][col]
    return sign * work[n - 1][n - 1]


def mat_det_is_unit(m: Matrix) -> tuple[int, bool]:
    """Determinant of a square matrix and whether it is a unit.

    Fields read it off ``row_reduce``: the signed product of the pivots when
    every column has one, else 0.  Rings use integer Bareiss elimination on
    the canonical representatives with a final reduction mod q (all
    divisions exact).  The 0x0 determinant is 1.
    """
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows}x{m.cols} matrix has no determinant")
    dom = m.domain
    if dom.is_field:
        _, pivots, scale = row_reduce(m)
        det = scale if len(pivots) == m.rows else 0
    else:
        det = _det_bareiss_int(m.to_rows()) % dom.q
    return det, dom.is_unit(det)


def mat_solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One solution x of a x = b over a field, or None when inconsistent.

    Row-reduces ``[a | b]``; a pivot in b's columns is a row 0 = nonzero.
    Free variables are set to zero, so the result is deterministic.
    """
    if not a.domain.is_field:
        raise RingNotSupported("linear solving is supported over fields only")
    if a.domain != b.domain:
        raise DomainMismatch(f"{a.domain!r} vs {b.domain!r}")
    if a.rows != b.rows:
        raise DimensionMismatch(f"lhs has {a.rows} rows, rhs has {b.rows}")
    dom = a.domain
    cols = a.cols
    joined = Matrix(dom, a.rows, cols + b.cols,
                    tuple(x for i in range(a.rows) for x in a.row(i) + b.row(i)))
    rows, pivots, _ = row_reduce(joined)
    if pivots and pivots[-1] >= cols:
        return None
    out = [[0] * b.cols for _ in range(cols)]
    for i, col in enumerate(pivots):
        out[col] = rows[i][cols:]
    return Matrix.from_rows(dom, out)
