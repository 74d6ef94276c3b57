"""Coded caching schemes on top of resolvable designs.

Users are the blocks of the design, indexed class-major: user u = i*q + l is
block B_{i,l}.  Every file splits into F_s = numPoints * z subfiles indexed
by a point t and a superscript s in [0, z); subfile (t, s) maps to flat column
t*z + s.  User B caches every subfile whose point lies in B, so M/N = 1/q.

Delivery works per recovery set: the cyclically-consecutive groups of alpha
parallel classes.  Each point gets an integer key from its labels on the
set's classes and is bucketed by every leave-one-out key (one class's label
dropped).  For each choice of one block per class in the group, a
participant is served the points of its leave-one-out bucket outside the
chosen blocks' common intersection, and the edge labels of the
recovery-set graph pick the superscript.  One enumeration covers both
delivery regimes: when alpha = k+1 the buckets are single points and tuples
with a common point contribute nothing; when alpha <= k each tuple serves
several subfiles per user, paired off rank by rank in ascending point order.

Delivery does not depend on the demands: the design and the recovery sets fix
every equation, and a demand vector only decides which file fills each term
W^s_{d_B,t}.  generate_delivery builds the equations once per (scheme, alpha).
Every equation term, in a plan, a matrix row or a MatrixScheme, is a (user,
column) pair.  A MatrixScheme holds what simulation needs: per column, a
bitmask of the users that lack it, and the equations' terms.
scheme_from_plan builds it from the placement and shares the plan's term
tuples; scheme_from_eq_subfile reads it off an equation-subfile matrix.
EqSubfileMatrix and MatrixScheme check once, at construction, that every
user and column is in range.  simulate applies one demand vector to a
MatrixScheme, however it was built, and generates the payload of the
demanded files only.

Equations, users and subfiles are ordered deterministically throughout:
recovery sets ascending, block tuples in lexicographic order, ranks ascending.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .codes import CrtCodewordSource, ccp_windows, least_z
from .design import ResolvableDesign, Source
from .errors import (
    DecodeFailure,
    IncompleteDemands,
    InvalidAlpha,
    Lemma4Violated,
    ShapeMismatch,
    TooLarge,
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

    def cache_cols(self, u: int) -> frozenset[int]:
        return frozenset(t * self.z + s
                         for t in self.user_block(u) for s in range(self.z))


def check_alpha(source: Source, alpha: int) -> None:
    """Refuse an alpha outside 1..k+1 (generator) or 1..k_min (residue)."""
    if isinstance(source, CrtCodewordSource):
        if not 1 <= alpha <= source.k_min:
            raise InvalidAlpha(
                f"residue sources support alpha in 1..{source.k_min}, got {alpha}")
    elif not 1 <= alpha <= source.k + 1:
        raise InvalidAlpha(f"alpha must be in 1..{source.k + 1}, got {alpha}")


def placement(d: ResolvableDesign, alpha: int) -> CachingScheme:
    """Cache block points at every superscript; subpacketization numPoints*z
    with z the least positive integer such that alpha divides n*z."""
    src = d.source
    check_alpha(src, alpha)
    k = None if isinstance(src, CrtCodewordSource) else src.k
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
    """One broadcast XOR, a (user, column) term per participating user."""
    recovery_set: int
    terms: tuple[tuple[int, int], ...]


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

    Within a recovery set with classes c_0 < ... < c_{m-1}, each point gets
    the integer key sum_j label_{c_j}(point) * q^(m-1-j), first class most
    significant, so key order is the lexicographic order of block tuples.
    Participant j's columns p*z + s_j (s_j its class's superscript) are
    bucketed by point p's key with digit j removed.  The tuple with key L
    serves participant j the columns of its bucket whose point's key is not
    L, in ascending order, paired rank by rank across participants.  Only
    design.classes is read, so generator, ring and residue sources take one
    path, and each tuple costs one bucket per participant: the work grows
    with the equation terms, not with the number of points.
    """
    if (graph.n, graph.alpha) != (scheme.n, scheme.alpha):
        raise ShapeMismatch("graph does not match scheme parameters")
    d = scheme.design
    q, z = scheme.q, scheme.z
    labels = []  # labels[i][point] = l for the block B_{i,l} holding the point
    for cls in d.classes:
        row = [0] * d.num_points
        for l, block in enumerate(cls):
            for p in block:
                row[p] = l
        labels.append(row)
    equations: list[Equation] = []
    for a, classes in enumerate(graph.sets):
        m = len(classes)
        supers = tuple(graph.labels[(i, a)] for i in classes)
        keys = [0] * d.num_points
        for i in classes:
            keys = [key * q + l for key, l in zip(keys, labels[i])]
        common = [0] * q ** m  # common[L]: points in every block of tuple L
        for key in keys:
            common[key] += 1
        # loo[j] yields the leave-one-out bucket of digit j for keys 0, 1, ...:
        # with low the place value of digit j, each run of low buckets
        # repeats q times
        loo = []
        sizes = set()
        for j in range(m):
            low = q ** (m - 1 - j)
            buckets = [[] for _ in range(q ** (m - 1))]
            for c, key in zip(range(supers[j], d.num_points * z, z), keys):
                buckets[key // (low * q) * low + key % low].append(c)
            # tuples of ints are smaller than lists and untracked by the gc
            buckets = list(map(tuple, buckets))
            sizes.update(map(len, buckets))
            runs = [buckets[h:h + low] for h in range(0, len(buckets), low)]
            loo.append(itertools.chain.from_iterable(
                map(operator.mul, runs, itertools.repeat(q))))
        # with equal buckets (every window of the code full rank) all
        # participants of a tuple are served the same number of points
        uniform = len(sizes) == 1
        tuples = itertools.product(*(range(i * q, i * q + q) for i in classes))
        for key, users, served in zip(itertools.count(), tuples, zip(*loo)):
            inside = common[key]
            if uniform and len(served[0]) == inside:
                continue  # the buckets hold only common points: nothing served
            if inside:
                served = [[c for c in cols if keys[c // z] != key]
                          for cols in served]
            if not uniform and len(set(map(len, served))) != 1:
                raise DecodeFailure("unequal served-point counts within a tuple")
            for cols in zip(*served):
                equations.append(Equation(a, tuple(zip(users, cols))))
    return DeliveryPlan(tuple(equations))


def render_equation(scheme: CachingScheme, eq: Equation) -> str:
    """Human-readable form: terms W^s_{dB,t} joined by XOR symbols, where B
    names the user's block.  For designs with at most 10 points B's digits
    are concatenated and a comma precedes t; otherwise B's points are
    comma-separated and a semicolon precedes t."""
    join, sep = ("".join, ",") if scheme.num_points <= 10 else (",".join, ";")
    parts = []
    for user, col in eq.terms:
        point, sup = divmod(col, scheme.z)
        label = join(map(str, scheme.user_block(user)))
        parts.append(f"W^{sup}_{{d{label}{sep}{point}}}")
    return " ⊕ ".join(parts)


# ---------------------------------------------------------------------------
# byte-exact simulation
# ---------------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

# Largest payload stream, in bytes, that simulate generates.
PAYLOAD_CAP = 1 << 26

# Words per block of the payload generator, every block (the first one too)
# one big-integer step per lane parity; even, since lanes pair off.
_LANES = 256

# Chunk bytes that simulate decodes in one batch.
_BATCH_BYTES = 1 << 16


def byte_stream(seed: int, count: int) -> bytes:
    """Deterministic test payload: a 64-bit linear congruential generator
    (state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64)
    emitting 8 little-endian bytes per step, made _LANES words at a time."""
    return bytes(_stream_slice(seed, 0, count))


def _stream_slice(seed: int, start: int, count: int) -> bytearray:
    """byte_stream(seed, start + count)[start:], generating only the words
    that hold those bytes; empty for count <= 0.  The state s jumps to the
    first of them in O(log start) steps.  A block of _LANES words sits in the
    128-bit slots of two big integers, even and odd lanes (a 64-bit product
    fits a slot): lane i of the first block is A_i*s + C_i, the step taken i
    times, and each next block advances every lane _LANES steps.  The odd
    lanes shifted onto the upper halves give the block's words in order."""
    if count <= 0:
        return bytearray()
    first, skip = divmod(start, 8)
    mult, inc = _lcg_power(first)
    state = (seed * mult + inc) & _LCG_MASK
    heads, mask, mult, inc = _lane_constants()
    even, odd = (((state * a & mask) + c) & mask for a, c in heads)
    out = bytearray((even | odd << 64).to_bytes(8 * _LANES, "little"))
    for _ in range((skip + count - 1) // (8 * _LANES)):
        even = ((even * mult & mask) + inc) & mask
        odd = ((odd * mult & mask) + inc) & mask
        out += (even | odd << 64).to_bytes(8 * _LANES, "little")
    del out[:skip]
    del out[count:]
    return out


@functools.cache
def _lane_constants() -> tuple:
    """(A, C) of the even and of the odd lanes, slot j packing the step taken
    2j+1 and 2j+2 times; the slot mask; the _LANES-step a and packed c."""
    a, c, steps = 1, 0, []
    for _ in range(_LANES):
        a, c = a * _LCG_MULT & _LCG_MASK, (c * _LCG_MULT + _LCG_INC) & _LCG_MASK
        steps.append((a, c))

    def pack(words) -> int:
        return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words),
                              "little")

    heads = tuple(tuple(map(pack, zip(*steps[lane::2]))) for lane in (0, 1))
    return heads, pack([_LCG_MASK] * (_LANES // 2)), a, pack([c] * (_LANES // 2))


def _lcg_power(steps: int) -> tuple[int, int]:
    """(a, c) such that x -> a*x + c mod 2^64 is the generator's step taken
    `steps` times, by repeated squaring of the step."""
    a, c = 1, 0
    mult, inc = _LCG_MULT, _LCG_INC
    while steps:
        if steps & 1:
            a, c = a * mult & _LCG_MASK, (c * mult + inc) & _LCG_MASK
        # x -> m*(m*x + i) + i = m^2*x + (m + 1)*i
        mult, inc = mult * mult & _LCG_MASK, (mult + 1) * inc & _LCG_MASK
        steps >>= 1
    return a, c


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
    the one place that validates a demand vector and the subfile size, and
    it refuses a payload stream over PAYLOAD_CAP bytes with TooLarge.

    File f is bytes f*F_s*subfile_bytes onwards of byte_stream(seed, ...);
    only the demanded files are generated.  Each term's chunk is read once,
    and every user gets the payload XOR-ed with the other terms' chunks
    through prefix and suffix XORs, so the XOR work is linear in the terms.
    Equations of one length are decoded in batches, position by position,
    with each position's chunks side by side in one integer.

    Decodability is proved by the cache-membership test against ms.miss: a
    user that meets a column outside its cache raises DecodeFailure.  Once
    that test passes, XOR-ing the other users' source chunks back out of the
    payload always returns the user's own chunk, so `exact` only confirms
    the XOR algebra against the source stream; it is not an independent
    decoder.  The test is one mask test per term: is its user the only one
    of the equation's distinct users that lacks its column?  If not, the
    equations are decoded again term by term, in order, skipping a user's
    own terms, and the first column a user cannot cancel is named.  A user
    is `complete` iff its bit agrees in every column's served and miss mask."""
    miss, f_s, num_users = ms.miss, ms.f_s, ms.num_users
    if len(demands) != num_users:
        raise IncompleteDemands(f"need {num_users} demands, got {len(demands)}")
    for u, dv in enumerate(demands):
        if not isinstance(dv, int) or dv < 0:
            raise IncompleteDemands(f"user {u} has invalid demand {dv!r}")
    if any(dv >= num_files for dv in demands):
        raise IncompleteDemands(f"demands exceed file count {num_files}")
    if subfile_bytes < 1:
        raise ShapeMismatch(f"subfile_bytes must be >= 1, got {subfile_bytes}")
    size = num_files * f_s * subfile_bytes
    if size > PAYLOAD_CAP:
        raise TooLarge(f"{size} payload bytes exceed the payload cap {PAYLOAD_CAP}")
    sub = subfile_bytes
    span = f_s * sub
    files = {f: _stream_slice(seed, f * span, span) for f in sorted(set(demands))}
    wanted = [files[f] for f in demands]

    served = [0] * f_s  # served[c]: the users that recover column c
    recovered = [0] * num_users
    decodable = True
    for terms in ms.equations:
        user_mask = 0
        for user, col in terms:
            bit = 1 << user
            if not served[col] & bit:
                served[col] |= bit
                recovered[user] += 1
            user_mask |= bit
        # a mask holds fewer bits than its terms iff it repeats a user
        decodable = decodable and user_mask.bit_count() == len(terms) and all(
            miss[col] & user_mask == 1 << user for user, col in terms)
    if decodable:
        exact = [True] * num_users
        for width, group in itertools.groupby(ms.equations, len):
            group = list(group)
            step = max(1, _BATCH_BYTES // (sub * max(width, 1)))
            for start in range(0, len(group), step):
                _decode_batch(group[start:start + step], wanted, sub, exact)
    else:
        exact = _decode_term_by_term(ms.equations, miss, wanted, sub)
    wrong = functools.reduce(operator.or_, map(operator.xor, served, miss), 0)
    outcomes = tuple(UserOutcome(u, demands[u], recovered[u], not wrong >> u & 1,
                                 exact[u]) for u in range(num_users))
    return SimulationReport(num_users, num_files, sub, f_s, ms.delta, ms.rate,
                            ms.delta * sub, seed, outcomes)


def _decode_batch(batch: list, wanted: list, sub: int, exact: list[bool]) -> None:
    """Decode equations of one length whose users are distinct.  The chunks
    at term position j of every equation form one integer, sub bytes per
    equation, so one XOR of such integers serves the whole batch: the user at
    position j gets the payload XOR-ed with the prefix XOR of positions
    before j and the suffix XOR of positions after it."""
    columns = list(zip(*batch))
    chunks = [int.from_bytes(b"".join([wanted[user][col * sub:col * sub + sub]
                                       for user, col in column]), "little")
              for column in columns]
    after = chunks + [0]
    for j in range(len(chunks) - 1, -1, -1):
        after[j] ^= after[j + 1]
    payload, before = after[0], 0
    for column, chunk, rest in zip(columns, chunks, after[1:]):
        value = payload ^ before ^ rest
        if value != chunk:
            got = value.to_bytes(len(column) * sub, "little")
            want = chunk.to_bytes(len(column) * sub, "little")
            for e, (user, _) in enumerate(column):
                if got[e * sub:e * sub + sub] != want[e * sub:e * sub + sub]:
                    exact[user] = False
        before ^= chunk


def _decode_term_by_term(equations, miss, wanted: list, sub: int) -> list[bool]:
    """Decode equation by equation, user by user, cancelling every term of
    another user in term order; the first column a user does not cache
    raises DecodeFailure.  Returns whether each user's values all matched."""
    exact = [True] * len(wanted)
    for terms in equations:
        chunks = [int.from_bytes(wanted[user][col * sub:col * sub + sub], "little")
                  for user, col in terms]
        payload = 0
        for c in chunks:
            payload ^= c
        for (user, _), own in zip(terms, chunks):
            value = payload
            for (other, other_col), c in zip(terms, chunks):
                if other == user:
                    continue
                if miss[other_col] >> user & 1:
                    raise DecodeFailure(
                        f"user {user} cannot cancel column {other_col}")
                value ^= c
            if value != own:
                exact[user] = False
    return exact


# ---------------------------------------------------------------------------
# equation-subfile matrices and transposition
# ---------------------------------------------------------------------------


def _check_terms(num_users: int, cols: int, equations) -> None:
    """Refuse a term whose user is outside 0..num_users-1 or whose column is
    outside 0..cols-1, naming the first equation that holds one."""
    for i, terms in enumerate(equations):
        for user, col in terms:
            if not (0 <= user < num_users and 0 <= col < cols):
                raise ShapeMismatch(
                    f"equation {i} has user {user} at column {col}, outside "
                    f"{num_users} users and {cols} columns")


def _trusted(cls, *values):
    """A frozen cls built from fields that are already range-checked,
    without running its __post_init__ check again."""
    obj = object.__new__(cls)
    vars(obj).update(zip(cls.__dataclass_fields__, values))
    return obj


@dataclass(frozen=True)
class EqSubfileMatrix:
    """Delta x F_s equation-subfile matrix stored by its nonzeros.

    row_terms[i] lists the (user, column) terms of equation i, 0-based and in
    ascending column order; every other cell is empty.  In the paper's
    notation entry (i, j) is the 1-based user index user + 1, or 0.  A user
    or column out of range raises ShapeMismatch at construction."""

    num_users: int
    cols: int
    row_terms: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        _check_terms(self.num_users, self.cols, self.row_terms)

    @property
    def rows(self) -> int:
        return len(self.row_terms)

    def transpose(self) -> "EqSubfileMatrix":
        """Swap indices: (user, j) in row i becomes (user, i) in row j.  The
        checked terms only trade places, so they are not checked again."""
        flipped: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.row_terms):
            for user, j in row:
                flipped[j].append((user, i))
        return _trusted(EqSubfileMatrix, self.num_users, self.rows,
                        tuple(map(tuple, flipped)))


def equation_subfile_matrix(scheme: CachingScheme,
                            plan: DeliveryPlan) -> EqSubfileMatrix:
    """One row per equation of the plan, its terms sorted by column."""
    by_col = operator.itemgetter(1)
    rows = []
    for eq in plan.equations:
        row = tuple(sorted(eq.terms, key=by_col))
        for (_, col), (_, nxt) in zip(row, row[1:]):
            if col == nxt:
                raise Lemma4Violated(
                    f"two users recover subfile column {col} in one equation")
        rows.append(row)
    return EqSubfileMatrix(scheme.num_users, scheme.f_s, tuple(rows))


@dataclass(frozen=True)
class Lemma4Report:
    ok: bool
    violations: tuple[str, ...]


def verify_lemma4(m: EqSubfileMatrix) -> Lemma4Report:
    """The three validity conditions: no repeated user within a column,
    none within a row, and any two occurrences of one user sit on a zero
    'rectangle' (the swapped positions are empty).

    The verdict is one mask test per nonzero: with no user repeated in a
    column or a row, the matrix is corner-free iff each nonzero's user is
    the only one its column and its row share.  Only when that test fails
    are the violations enumerated: a user v at (i, j) and any other nonzero
    (i, j2) of row i break the rectangle with every occurrence of v in
    column j2 outside row i.  They are listed in the order a row-major scan
    of the dense matrix would find them."""
    col_mask = [0] * m.cols
    row_masks = []
    for row in m.row_terms:
        row_mask = 0
        for user, j in row:
            col_mask[j] |= 1 << user
            row_mask |= 1 << user
        row_masks.append(row_mask)
    # a mask holds fewer bits than its nonzeros iff it repeats a user
    nonzeros = sum(map(len, m.row_terms))
    if (sum(map(int.bit_count, col_mask)) == nonzeros
            and sum(map(int.bit_count, row_masks)) == nonzeros
            and all(col_mask[j] & row_mask == 1 << user
                    for row, row_mask in zip(m.row_terms, row_masks)
                    for user, j in row)):
        return Lemma4Report(True, ())
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
    0..f_s-1, bit u of miss[c] is set iff user u lacks column c, and each
    equation is a tuple of (user, column) terms.  Built from a placement and
    its delivery plan, sharing the plan's term tuples (scheme_from_plan), or
    read off an equation-subfile matrix, where user t lacks column j iff t
    appears in it and each row is one equation (scheme_from_eq_subfile).
    One mask per column, and every user and column in range, are checked at
    construction (ShapeMismatch)."""

    num_users: int
    f_s: int
    miss: tuple[int, ...]
    equations: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if len(self.miss) != self.f_s:
            raise ShapeMismatch(f"{len(self.miss)} masks for {self.f_s} columns")
        everyone = 1 << self.num_users
        if self.miss and not 0 <= min(self.miss) <= max(self.miss) < everyone:
            c = next(c for c, mask in enumerate(self.miss)
                     if not 0 <= mask < everyone)
            raise ShapeMismatch(f"mask of column {c} names a user outside "
                                f"0..{self.num_users - 1}")
        _check_terms(self.num_users, self.f_s, self.equations)

    @property
    def delta(self) -> int:
        return len(self.equations)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.delta, self.f_s)

    def cache_fraction(self, u: int) -> Fraction:
        lacking = sum(map((1 << u).__and__, self.miss)) >> u
        return Fraction(self.f_s - lacking, self.f_s)


def scheme_from_eq_subfile(m: EqSubfileMatrix) -> MatrixScheme:
    """Read a scheme off a valid matrix; its rows become the equations as
    they stand.  Its terms, checked when it was built, and the masks ORed
    from them are not checked again."""
    report = verify_lemma4(m)
    if not report.ok:
        raise Lemma4Violated("; ".join(report.violations[:3]))
    miss = [0] * m.cols  # a user lacks exactly the columns it appears in
    for row in m.row_terms:
        for user, j in row:
            miss[j] |= 1 << user
    return _trusted(MatrixScheme, m.num_users, m.cols, tuple(miss), m.row_terms)


def scheme_from_plan(scheme: CachingScheme, plan: DeliveryPlan) -> MatrixScheme:
    """The placed scheme in simulation form: miss masks with each user's bit
    cleared at the points of its block, each point's mask repeated for its z
    columns (the cache_cols placement), and the plan's term tuples in plan
    order.  Nothing is sorted or checked beyond the range check, so a plan
    that a user cannot decode fails in simulate with DecodeFailure."""
    point_miss = [(1 << scheme.num_users) - 1] * scheme.num_points
    for u in range(scheme.num_users):
        for t in scheme.user_block(u):
            point_miss[t] ^= 1 << u
    miss = [0] * scheme.f_s
    for s in range(scheme.z):
        miss[s::scheme.z] = point_miss
    return MatrixScheme(scheme.num_users, scheme.f_s, tuple(miss),
                        tuple(eq.terms for eq in plan.equations))


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
