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

Polynomials over any domain are coefficient lists, constant term first.  One
toolkit (``_poly_divmod``, ``_poly_mul``, ``_poly_gcd``, ``_poly_trim``)
serves them all: over the prime subfield it builds the extension-field tables
and tests moduli for irreducibility, and ``codes`` factors X^n - 1 with it.

All operations are exact integer computations; no floats appear anywhere in
this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Optional, Sequence

from ._frozen import frozen
from .errors import DimensionMismatch, DomainError, NotAUnit, RingNotSupported

_MAX_ORDER = 1024


def _prime_power(q: int) -> Optional[tuple[int, int]]:
    """Return (p, m) with q == p**m and p prime, or None."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    m = 1
    while p ** m < q:
        m += 1
    return (p, m) if p ** m == q else None


@functools.cache
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible polynomial of degree
    m over GF(p), constant term first; every degree has one.  X divides the
    candidates with a zero constant term."""
    return next(low + (1,) for low in itertools.product(range(p), repeat=m)
                if low[0] and _poly_irreducible(low + (1,), p))


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
        q, p, m = self.q, self.p, self.m
        fp = ScalarDomain("field", p, p, 1, None)
        mod = self.modulus
        assert mod is not None
        n = q - 1
        # walk the powers of 2, 3, ... until they return to 1; the first walk
        # that meets all n units is that of the least primitive element.  A
        # candidate met on an earlier walk is a power of a non-primitive
        # element, so it is not primitive either and is skipped.
        seen = set()
        for cand in range(2, q):
            if cand in seen:
                continue
            c = _poly_trim(_unpack(cand, p, m))
            exp = [1]
            acc = [1]
            for _ in range(n):
                acc = _poly_divmod(_poly_mul(c, acc, fp), mod, fp)[1]
                e = _pack(acc, p)
                if e == 1:
                    break
                exp.append(e)
            if len(exp) == n:
                break
            seen.update(exp)
        else:  # pragma: no cover - impossible for a true field
            raise DomainError(f"no primitive element found for GF({q})")
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
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
        if self.m == 1:
            try:
                return pow(a, -1, self.q)
            except ValueError:
                raise NotAUnit(f"{a} is not a unit in {self!r}") from None
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

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


def natural_domain(q: int) -> ScalarDomain:
    """Field when q is a prime power, integers mod q otherwise."""
    if _prime_power(q):
        return ScalarDomain.field(q)
    return ScalarDomain.ring(q)


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


# ---------------------------------------------------------------------------
# polynomials: coefficient lists over a ScalarDomain, constant term first
# ---------------------------------------------------------------------------


def _poly_divmod(num: Sequence[int], den: Sequence[int],
                 dom: ScalarDomain) -> tuple[list[int], list[int]]:
    """Divide by a monic polynomial; exact over rings because den is monic."""
    num = [x % dom.q for x in num]
    d = len(den) - 1
    if len(num) < len(den):
        return [], num
    sub, mul = dom.sub, dom.mul
    # den is monic, so step i would clear num[i + d], which no later step
    # reads; only den's nonzero lower terms are subtracted
    low = [(j, y) for j, y in enumerate(den[:d]) if y]
    quot = [0] * (len(num) - d)
    for i in range(len(num) - 1 - d, -1, -1):
        c = num[i + d]
        quot[i] = c
        if c:
            for j, y in low:
                num[i + j] = sub(num[i + j], mul(c, y))
    return quot, num[:d]


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


def _poly_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive divisor check: no monic factor of degree 1..deg//2."""
    fp = ScalarDomain("field", p, p, 1, None)
    return all(any(_poly_divmod(coeffs, tail + (1,), fp)[1])
               for d in range(1, (len(coeffs) - 1) // 2 + 1)
               for tail in itertools.product(range(p), repeat=d))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@frozen
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

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def take_cols(self, idx: Sequence[int]) -> "Matrix":
        entries, cols = self.entries, self.cols
        return Matrix(self.domain, self.rows, len(idx),
                      tuple(itertools.chain.from_iterable(
                          zip(*[entries[j::cols] for j in idx]))))


def row_reduce(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination to reduced row echelon form; fields only.

    Returns ``(rows, pivots)``: the RREF as lists of rows and the pivot
    column of each nonzero row in order; ``len(pivots)`` is the rank.
    Pivoting takes the first nonzero entry at or below the current row.
    """
    return reduce_rows(m.domain, m.to_rows(), m.cols)


def reduce_rows(dom: ScalarDomain, work: list[list[int]],
                ncols: int) -> tuple[list[list[int]], list[int]]:
    """``row_reduce`` on rows of ``ncols`` canonical entries, reduced in
    place: the rows are taken as they are, with no Matrix and no check of
    their entries."""
    if not dom.is_field:
        raise RingNotSupported("row reduction is defined here over fields only")
    add_scaled = dom.add_scaled
    nrows = len(work)
    pivots: list[int] = []
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
        p = work[r][col]
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
    return work, pivots


def mat_rank(m: Matrix) -> int:
    """Rank over a field: the number of pivots ``row_reduce`` finds."""
    if not m.domain.is_field:
        raise RingNotSupported("rank is defined here over fields only; "
                               "take a ring matrix mod each prime of its modulus")
    return len(row_reduce(m)[1])
