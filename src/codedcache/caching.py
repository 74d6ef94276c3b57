"""Coded caching schemes on top of resolvable designs.

Users are the blocks of the design, indexed class-major: user u = i*q + l is
block B_{i,l}.  Every file splits into F_s = numPoints * z subfiles indexed
by a point t and a superscript s in [0, z); subfile (t, s) maps to flat column
t*z + s.  User B caches every subfile whose point lies in B, so M/N = 1/q.

Delivery works per recovery set: the cyclically-consecutive groups of alpha
parallel classes.  For each choice of one block per class in the group, the
leave-one-out intersections decide which missing subfiles the equation serves,
and the edge labels of the recovery-set graph pick the superscript.  One
enumeration covers both delivery regimes: when alpha = k+1 the leave-one-out
intersections are single points and tuples with a common point contribute
nothing; when alpha <= k each tuple serves several subfiles per user, paired
off rank by rank in ascending point order.

Delivery does not depend on the demands: the design and the recovery sets fix
every equation, and a demand vector only decides which file fills each term
W^s_{d_B,t}.  generate_delivery builds the equations once per (scheme, alpha).
A MatrixScheme holds what simulation needs: each user's cached columns and
each equation's (user, column) pairs.  scheme_from_plan builds it once from
the placement and the plan; scheme_from_eq_subfile reads it off an
equation-subfile matrix, such as the transposed one.  simulate applies one
demand vector to a MatrixScheme, however it was built.

Equations, users and subfiles are ordered deterministically throughout:
recovery sets ascending, block tuples in lexicographic order, ranks ascending.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .codes import CrtCodewordSource, GeneratorMatrix, ccp_windows, least_z
from .design import ResolvableDesign
from .errors import (
    DecodeFailure,
    IncompleteDemands,
    InvalidAlpha,
    Lemma4Violated,
    ShapeMismatch,
)

# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CachingScheme:
    """Placement derived from a resolvable design at gain parameter alpha."""

    design: ResolvableDesign
    alpha: int
    z: int
    n: int
    q: int
    num_points: int
    k: Optional[int]  # generator-source dimension; None for residue sources

    @property
    def num_users(self) -> int:
        return self.n * self.q

    @property
    def f_s(self) -> int:
        return self.num_points * self.z

    @property
    def m_over_n(self) -> Fraction:
        return Fraction(1, self.q)

    def user_block(self, u: int) -> tuple[int, ...]:
        return self.design.classes[u // self.q][u % self.q]

    def user_label(self, u: int) -> tuple[int, int]:
        return (u // self.q, u % self.q)

    def subfile_col(self, point: int, superscript: int) -> int:
        return point * self.z + superscript

    def cache_cols(self, u: int) -> frozenset[int]:
        return frozenset(t * self.z + s
                         for t in self.user_block(u) for s in range(self.z))


def placement(d: ResolvableDesign, alpha: int) -> CachingScheme:
    """Cache block points at every superscript; subpacketization numPoints*z
    with z the least positive integer such that alpha divides n*z."""
    src = d.source
    if isinstance(src, CrtCodewordSource):
        k = None
        if not 1 <= alpha <= src.k_min:
            raise InvalidAlpha(
                f"residue sources support alpha in 1..{src.k_min}, got {alpha}")
    else:
        k = src.k
        if not 1 <= alpha <= k + 1:
            raise InvalidAlpha(f"alpha must be in 1..{k + 1}, got {alpha}")
    return CachingScheme(d, alpha, least_z(d.n, alpha), d.n, d.q, d.num_points, k)


# ---------------------------------------------------------------------------
# recovery sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoverySetGraph:
    """Bipartite structure between parallel classes and recovery sets.

    sets[a] lists the classes of S_a in ascending order.  Each class touches
    exactly z recovery sets; its edges get superscript labels 0..z-1 in
    ascending order of the recovery-set index a.
    """

    n: int
    alpha: int
    z: int
    sets: tuple[tuple[int, ...], ...]
    labels: dict  # (class, set index) -> superscript

    def sets_of_class(self, i: int) -> list[int]:
        return [a for a in range(len(self.sets)) if i in self.sets[a]]


def recovery_set_graph(n: int, alpha: int) -> RecoverySetGraph:
    """Recovery sets S_a = {a*alpha, ..., a*alpha + alpha - 1} mod n for
    a = 0 .. z*n/alpha - 1 (the CCP windows, sorted), with deterministic edge
    labels."""
    if not 1 <= alpha <= n:
        raise ShapeMismatch(f"alpha must be in 1..{n}, got {alpha}")
    z = least_z(n, alpha)
    sets = [tuple(sorted(w)) for w in ccp_windows(n, alpha)]
    labels: dict = {}
    counts = [0] * n
    for a, s in enumerate(sets):
        for i in s:
            labels[(i, a)] = counts[i]
            counts[i] += 1
    if any(c != z for c in counts):
        raise ShapeMismatch("recovery sets do not touch every class z times")
    return RecoverySetGraph(n, alpha, z, tuple(sets), labels)


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equation:
    recovery_set: int
    # one term per participating user: (user, point, superscript)
    terms: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class DeliveryPlan:
    equations: tuple[Equation, ...]

    @property
    def delta(self) -> int:
        return len(self.equations)


def expected_delta(scheme: CachingScheme) -> int:
    """Closed-form equation count numPoints * (q-1) * z * n / alpha."""
    return (scheme.num_points * (scheme.q - 1) * scheme.z * scheme.n
            // scheme.alpha)


def generate_delivery(scheme: CachingScheme,
                      graph: RecoverySetGraph) -> DeliveryPlan:
    """Enumerate all equations of the one-shot delivery scheme.

    Within a recovery set, every choice of one block per class is visited in
    lexicographic order; the leave-one-out intersections minus the common
    intersection give each participant's served points, paired rank by rank.
    """
    if (graph.n, graph.alpha) != (scheme.n, scheme.alpha):
        raise ShapeMismatch("graph does not match scheme parameters")
    d = scheme.design
    q = scheme.q
    masks = [[_mask(d.classes[i][l]) for l in range(q)] for i in range(d.n)]
    equations: list[Equation] = []
    for a, classes in enumerate(graph.sets):
        supers = [graph.labels[(i, a)] for i in classes]
        for lvec in itertools.product(range(q), repeat=len(classes)):
            chosen = [masks[i][l] for i, l in zip(classes, lvec)]
            # leave-one-out intersections via prefix/suffix products
            m = len(chosen)
            prefix = [0] * (m + 1)
            suffix = [0] * (m + 1)
            prefix[0] = suffix[m] = ~0
            for idx in range(m):
                prefix[idx + 1] = prefix[idx] & chosen[idx]
            for idx in range(m - 1, -1, -1):
                suffix[idx] = suffix[idx + 1] & chosen[idx]
            total = prefix[m]
            served = [_bits((prefix[idx] & suffix[idx + 1]) & ~total)
                      for idx in range(m)]
            count = len(served[0])
            if any(len(sv) != count for sv in served):  # pragma: no cover
                raise DecodeFailure("unequal served-point counts within a tuple")
            for rank in range(count):
                terms = tuple((cls * q + l, served[idx][rank], supers[idx])
                              for idx, (cls, l) in enumerate(zip(classes, lvec)))
                equations.append(Equation(a, terms))
    return DeliveryPlan(tuple(equations))


def _mask(points: Sequence[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def render_equation(scheme: CachingScheme, eq: Equation) -> str:
    """Human-readable form: terms W^s_{dB,t} joined by XOR symbols, where B
    names the user's block (digits concatenated for designs with at most 10
    points, comma-separated otherwise)."""
    parts = []
    for user, point, sup in eq.terms:
        block = scheme.user_block(user)
        if scheme.num_points <= 10:
            label = "".join(str(x) for x in block)
        else:
            label = ",".join(str(x) for x in block)
        parts.append(f"W^{sup}_{{d{label},{point}}}")
    return " ⊕ ".join(parts)


# ---------------------------------------------------------------------------
# byte-exact simulation
# ---------------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def byte_stream(seed: int, count: int) -> bytes:
    """Deterministic test payload: a 64-bit linear congruential generator
    (state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64)
    emitting 8 little-endian bytes per step."""
    state = seed & _LCG_MASK
    out = bytearray()
    while len(out) < count:
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        out += state.to_bytes(8, "little")
    return bytes(out[:count])


@dataclass(frozen=True)
class UserOutcome:
    user: int
    demanded: int
    recovered_count: int
    complete: bool  # recovered exactly the missing subfiles
    exact: bool     # every recovered byte string matched the source file


@dataclass(frozen=True)
class SimulationReport:
    num_users: int
    num_files: int
    subfile_bytes: int
    f_s: int
    delta: int
    rate: Fraction
    load_bytes: int
    seed: int
    users: tuple[UserOutcome, ...]

    @property
    def all_ok(self) -> bool:
        return all(u.complete and u.exact for u in self.users)


def simulate(ms: MatrixScheme, demands: Sequence[int], num_files: int,
             subfile_bytes: int = 16, seed: int = 0) -> SimulationReport:
    """Run the broadcast for one demand vector byte-exactly and check every
    user decodes every missing subfile of its demanded file: the payload of
    each equation is the XOR of the demanded subfiles of its terms.  This is
    the one place that validates a demand vector and the subfile size.

    Decodability is proved by the cache-membership test: a user that meets a
    column outside its cache raises DecodeFailure.  Once that test passes,
    XOR-ing the other users' source chunks back out of the payload always
    returns the user's own chunk, so `exact` only confirms the XOR algebra
    against the source stream; it is not an independent decoder."""
    caches, f_s = ms.caches, ms.f_s
    num_users = len(caches)
    if len(demands) != num_users:
        raise IncompleteDemands(f"need {num_users} demands, got {len(demands)}")
    for u, dv in enumerate(demands):
        if not isinstance(dv, int) or dv < 0:
            raise IncompleteDemands(f"user {u} has invalid demand {dv!r}")
    if any(dv >= num_files for dv in demands):
        raise IncompleteDemands(f"demands exceed file count {num_files}")
    if subfile_bytes < 1:
        raise ShapeMismatch(f"subfile_bytes must be >= 1, got {subfile_bytes}")
    stream = byte_stream(seed, num_files * f_s * subfile_bytes)
    sub = subfile_bytes

    def chunk(file_idx: int, col: int) -> int:
        off = (file_idx * f_s + col) * sub
        return int.from_bytes(stream[off:off + sub], "little")

    recovered: list[set[int]] = [set() for _ in range(num_users)]
    exact = [True] * num_users
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
    all_cols = frozenset(range(f_s))
    outcomes = []
    for u in range(num_users):
        missing = all_cols - caches[u]
        outcomes.append(UserOutcome(u, demands[u], len(recovered[u]),
                                    recovered[u] == missing, exact[u]))
    return SimulationReport(num_users, num_files, sub, f_s, ms.delta, ms.rate,
                            ms.delta * sub, seed, tuple(outcomes))


# ---------------------------------------------------------------------------
# equation-subfile matrices and transposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqSubfileMatrix:
    """Delta x F_s equation-subfile matrix stored by its nonzeros.

    row_terms[i] lists the (user, column) pairs of equation i, 0-based and in
    ascending column order; every other cell is empty.  In the paper's
    notation entry (i, j) is the 1-based user index user + 1, or 0."""

    num_users: int
    cols: int
    row_terms: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def rows(self) -> int:
        return len(self.row_terms)

    def transpose(self) -> "EqSubfileMatrix":
        """Swap indices: (user, j) in row i becomes (user, i) in row j."""
        flipped: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.row_terms):
            for user, j in row:
                flipped[j].append((user, i))
        return EqSubfileMatrix(self.num_users, self.rows,
                               tuple(map(tuple, flipped)))


def equation_subfile_matrix(scheme: CachingScheme,
                            plan: DeliveryPlan) -> EqSubfileMatrix:
    """One row per equation of the plan, its terms sorted by column."""
    rows = []
    for eq in plan.equations:
        row = sorted((scheme.subfile_col(point, sup), user)
                     for user, point, sup in eq.terms)
        for (col, _), (nxt, _) in zip(row, row[1:]):
            if col == nxt:
                raise Lemma4Violated(
                    f"two users recover subfile column {col} in one equation")
        rows.append(tuple((user, col) for col, user in row))
    return EqSubfileMatrix(scheme.num_users, scheme.f_s, tuple(rows))


@dataclass(frozen=True)
class Lemma4Report:
    ok: bool
    violations: tuple[str, ...]


def verify_lemma4(m: EqSubfileMatrix) -> Lemma4Report:
    """The three validity conditions: no repeated user within a column,
    none within a row, and any two occurrences of one user sit on a zero
    'rectangle' (the swapped positions are empty).

    Only nonzeros are visited.  A user v at (i, j) and any other nonzero
    (i, j2) of row i break the rectangle with every occurrence of v in
    column j2 outside row i, so the corner check costs the sum of squared
    row lengths plus one entry per violation.  Violations are listed in the
    order a row-major scan of the dense matrix would find them."""
    where: dict[tuple[int, int], list[int]] = {}  # (user, column) -> rows
    first: dict[int, int] = {}  # user -> rank of its first occurrence
    for i, row in enumerate(m.row_terms):
        for user, j in row:
            where.setdefault((user, j), []).append(i)
            first.setdefault(user, len(first))
    columns = sorted(
        (j, i2, f"user {user + 1} appears twice in column {j} (rows {i1}, {i2})")
        for (user, j), rows in where.items() for i1, i2 in zip(rows, rows[1:]))
    violations = [text for _, _, text in columns]
    violations += [f"row {i} repeats a user" for i, row in enumerate(m.row_terms)
                   if len({user for user, _ in row}) != len(row)]
    corners = set()
    for i, row in enumerate(m.row_terms):
        for user, j in row:
            for _, j2 in row:
                if j2 == j:
                    continue
                for i2 in where.get((user, j2), ()):
                    if i2 != i:
                        a, b = sorted(((i, j), (i2, j2)))
                        corners.add((first[user], user, a, b))
    violations += [f"user {user + 1} at ({i1},{j1}) and ({i2},{j2}) lacks zero corners"
                   for _, user, (i1, j1), (i2, j2) in sorted(corners)]
    return Lemma4Report(not violations, tuple(violations))


@dataclass(frozen=True)
class MatrixScheme:
    """A caching scheme as simulate reads it: subfiles are the columns
    0..f_s-1, caches[u] holds the columns user u stores, and each equation
    lists (user, column) pairs.  Built from a placement and its delivery plan
    (scheme_from_plan), or read off an equation-subfile matrix, where user t
    caches column j iff t never appears in it and each row is one equation
    (scheme_from_eq_subfile)."""

    num_users: int
    f_s: int
    caches: tuple[frozenset[int], ...]
    equations: tuple[tuple[tuple[int, int], ...], ...]  # (user, column) pairs

    @property
    def delta(self) -> int:
        return len(self.equations)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.delta, self.f_s)

    def cache_fraction(self, u: int) -> Fraction:
        return Fraction(len(self.caches[u]), self.f_s)


def scheme_from_eq_subfile(m: EqSubfileMatrix) -> MatrixScheme:
    """Read a scheme off a valid matrix; its rows become the equations as
    they stand."""
    report = verify_lemma4(m)
    if not report.ok:
        raise Lemma4Violated("; ".join(report.violations[:3]))
    present: list[set[int]] = [set() for _ in range(m.num_users)]
    for row in m.row_terms:
        for user, j in row:
            present[user].add(j)
    all_cols = frozenset(range(m.cols))
    caches = tuple(all_cols - cols for cols in present)
    return MatrixScheme(m.num_users, m.cols, caches, m.row_terms)


def scheme_from_plan(scheme: CachingScheme, plan: DeliveryPlan) -> MatrixScheme:
    """The placed scheme in simulation form: each user's cache from the
    placement and each equation's terms as (user, column) pairs, in plan
    order.  Nothing is sorted or checked, so a plan that a user cannot
    decode fails in simulate with DecodeFailure."""
    caches = tuple(scheme.cache_cols(u) for u in range(scheme.num_users))
    equations = tuple(tuple((user, scheme.subfile_col(t, s))
                            for user, t, s in eq.terms)
                      for eq in plan.equations)
    return MatrixScheme(scheme.num_users, scheme.f_s, caches, equations)


# ---------------------------------------------------------------------------
# operating-point metrics
# ---------------------------------------------------------------------------


def code_point_metrics(n: int, q: int, alpha: int, num_points: int,
                       transposed: bool = False) -> dict:
    """Exact corner-point metrics without materializing anything.

    Base point: K = n*q users, M/N = 1/q, F_s = numPoints*z, R = n(q-1)/alpha,
    gain alpha.  Transposed point: M/N = 1 - alpha/(nq), F_s = delta of the
    base scheme, R = alpha/((q-1) n), gain (q-1) n.
    """
    z = least_z(n, alpha)
    big_k = n * q
    if transposed:
        m_over_n = 1 - Fraction(alpha, big_k)
        f_s = num_points * (q - 1) * z * n // alpha
        rate = Fraction(alpha, (q - 1) * n)
    else:
        m_over_n = Fraction(1, q)
        f_s = num_points * z
        rate = Fraction(n * (q - 1), alpha)
    gain = big_k * (1 - m_over_n) / rate
    return {"K": big_k, "M_over_N": m_over_n, "F_s": f_s, "R": rate,
            "gain": gain, "z": z}


def scheme_metrics(scheme: Union[CachingScheme, MatrixScheme],
                   transposed: bool = False) -> dict:
    """Corner metrics of a placed scheme, or the stored metrics of a
    matrix-derived scheme (whose cache fractions may vary per user)."""
    if isinstance(scheme, CachingScheme):
        return code_point_metrics(scheme.n, scheme.q, scheme.alpha,
                                  scheme.num_points, transposed)
    if transposed:
        raise ShapeMismatch("matrix schemes carry no further transposed point")
    fractions = {scheme.cache_fraction(u) for u in range(scheme.num_users)}
    m_over_n = fractions.pop() if len(fractions) == 1 else None
    gain = None
    if m_over_n is not None and scheme.rate:
        gain = scheme.num_users * (1 - m_over_n) / scheme.rate
    return {"K": scheme.num_users, "M_over_N": m_over_n, "F_s": scheme.f_s,
            "R": scheme.rate, "gain": gain, "z": None}
