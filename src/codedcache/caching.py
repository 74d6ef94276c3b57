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

Delivery does not depend on the demands: generate_delivery builds the
equations once per (scheme, alpha), and a demand vector only decides which
file fills each term W^s_{d_B,t}.  Every term is a (user, column) pair.  A
plan, an equation-subfile matrix and a MatrixScheme (per column, a bitmask
of the users that lack it) hold their terms in a TermStore of flat arrays,
with no Python object per term; term tuples (plan.equations, m.row_terms,
ms.equations) are views built on demand, and each constructor also packs
them.  scheme_from_plan shares the plan's store; scheme_from_eq_subfile
reads a scheme off a matrix.  A MatrixScheme certifies its delivery once,
at construction, for every demand vector; Lemma 4 is that certificate on the
scheme read off a matrix.  simulate applies one demand vector to a
MatrixScheme and generates the payload of the demanded files only.

Equations, users and subfiles are ordered deterministically throughout:
recovery sets ascending, block tuples in lexicographic order, ranks ascending.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

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


class TermStore:
    """Equation terms without a Python object per term: equation i is
    (users[t], cols[t]) for t in starts[i]:starts[i+1], each an array("I"),
    starts one entry longer than there are equations.  `tuples` builds each
    equation's (user, column) tuples on first use and keeps them.  A plain
    class: a dataclass would cost every import about 1 ms."""

    def __init__(self, users: array, cols: array, starts: array) -> None:
        self.users, self.cols, self.starts = users, cols, starts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TermStore) and (self.users, self.cols, self.starts) == (
            other.users, other.cols, other.starts)

    def __repr__(self) -> str:
        return f"TermStore({self.users!r}, {self.cols!r}, {self.starts!r})"

    def __len__(self) -> int:
        return len(self.starts) - 1

    @functools.cached_property
    def tuples(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        pairs = list(zip(self.users, self.cols))
        return tuple(tuple(pairs[a:b]) for a, b in zip(self.starts, self.starts[1:]))


def _pack(rows) -> TermStore:
    rows = tuple(rows)
    terms = list(itertools.chain.from_iterable(rows))
    return TermStore(_array([user for user, _ in terms]), _array([col for _, col in terms]),
                     array("I", itertools.accumulate(map(len, rows), initial=0)))


def _array(values: list) -> array:
    try:
        return array("I", values)
    except OverflowError:
        raise ShapeMismatch("a user, column or recovery set is outside "
                            "0..2^32-1") from None


def _widths(starts: array) -> Iterator[int]:
    return map(operator.sub, starts[1:], starts)


def _runs(starts: array) -> Iterator[tuple[int, int, int]]:
    """(width, first term, end) of each run of equations of one width > 0."""
    end = 0
    for width, run in itertools.groupby(_widths(starts)):
        t, end = end, end + width * len(list(run))
        if width:
            yield width, t, end


@dataclass(frozen=True)
class DeliveryPlan:
    """The equations in plan order: their terms in a TermStore, and sets,
    an array("I") of each equation's recovery set.  DeliveryPlan(equations)
    packs Equation objects; `equations` builds them back on demand."""

    store: TermStore
    sets: Optional[array] = None

    def __post_init__(self) -> None:
        if not isinstance(self.store, TermStore):
            equations = tuple(self.store)
            object.__setattr__(self, "store", _pack(eq.terms for eq in equations))
            object.__setattr__(self, "sets", _array([eq.recovery_set for eq in equations]))

    @property
    def equations(self) -> tuple[Equation, ...]:
        return tuple(map(Equation, self.sets, self.store.tuples))

    @property
    def delta(self) -> int:
        return len(self.store)


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
    with the equation terms, not with the number of points.  Each tuple
    appends its terms to the plan's TermStore in one step.
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
    users_out, cols_out, sets = array("I"), array("I"), array("I")
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
            # rank r of every participant's columns makes one equation
            users_out.extend(users * len(served[0]))
            cols_out.extend(itertools.chain.from_iterable(zip(*served)))
        sets.extend(itertools.repeat(a, len(users_out) // scheme.alpha - len(sets)))
    starts = array("I", range(0, len(users_out) + 1, scheme.alpha))
    return DeliveryPlan(TermStore(users_out, cols_out, starts), sets)


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
    """Run the broadcast for one demand vector byte-exactly: each equation's
    payload is the XOR of the demanded subfiles of its terms.  This is the
    one place that validates a demand vector and the subfile size, and it
    refuses a payload stream over PAYLOAD_CAP bytes with TooLarge.  File f
    is bytes f*F_s*subfile_bytes onwards of byte_stream(seed, ...); only the
    demanded files are generated.  What each user recovers was decided when
    ms was built (ms.delivery).  Before any payload, DecodeFailure names the
    first column, in equation, user and term order, that a user cannot
    cancel, or else the first equation that repeats a user and the first
    such user.  Each user then gets its own chunk back by XOR-ing the other
    users' chunks out of the payload, so `exact` only confirms the XOR
    algebra against the source stream; it is not an independent decoder."""
    f_s, num_users, delivery = ms.f_s, ms.num_users, ms.delivery
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
    if not delivery.clean:
        failed = next(((user, col) for terms in ms.equations for user, _ in terms
                       for other, col in terms
                       if other != user and ms.miss[col] >> user & 1), None)
        if failed:
            raise DecodeFailure("user {} cannot cancel column {}".format(*failed))
        users = (list(map(operator.itemgetter(0), terms)) for terms in ms.equations)
        failed = next(((i, user) for i, row in enumerate(users) for user in row
                       if row.count(user) > 1), None)
        if failed:
            raise DecodeFailure("equation {} repeats user {}".format(*failed))
    sub = subfile_bytes
    span = f_s * sub
    files = {f: _stream_slice(seed, f * span, span) for f in sorted(set(demands))}
    wanted = [files[f] for f in demands]
    places = [slice(col * sub, col * sub + sub) for col in range(f_s)]
    exact = [True] * num_users
    for width, t, end in _runs(ms.store.starts):
        step = width * max(1, _BATCH_BYTES // (sub * width))
        for start in range(t, end, step):
            _decode_batch(ms.store.users[start:min(start + step, end)],
                          ms.store.cols[start:min(start + step, end)], width,
                          wanted, places, sub, exact)
    outcomes = tuple(UserOutcome(u, demands[u], delivery.recovered[u],
                                 not delivery.incomplete >> u & 1, exact[u])
                     for u in range(num_users))
    return SimulationReport(num_users, num_files, sub, f_s, ms.delta, ms.rate,
                            ms.delta * sub, seed, outcomes)


def _decode_batch(users: array, cols: array, width: int, wanted: list,
                  places: list, sub: int, exact: list[bool]) -> None:
    """Decode a batch of equations of `width` distinct users each: the user
    at position j gets the payload XOR-ed with the prefix XOR of positions
    before j and the suffix XOR of positions after it.  wanted[u] is user
    u's demanded file and places[c] column c's slice of a file."""
    chunks = [int.from_bytes(b"".join(map(
        operator.getitem, map(wanted.__getitem__, users[j::width]),
        map(places.__getitem__, cols[j::width]))), "little")
        for j in range(width)]
    after = list(itertools.accumulate(reversed(chunks), operator.xor))[::-1] + [0]
    payload, before, size = after[0], 0, len(users) // width * sub
    for j, (chunk, rest) in enumerate(zip(chunks, after[1:])):
        value = payload ^ before ^ rest
        if value != chunk:
            got, want = value.to_bytes(size, "little"), chunk.to_bytes(size, "little")
            for e, user in enumerate(users[j::width]):
                if got[e * sub:e * sub + sub] != want[e * sub:e * sub + sub]:
                    exact[user] = False
        before ^= chunk


# ---------------------------------------------------------------------------
# equation-subfile matrices and transposition
# ---------------------------------------------------------------------------


def _checked(num_users: int, cols: int, terms) -> TermStore:
    """terms, a store or term tuples, as a store with every user in
    0..num_users-1 and column in 0..cols-1, or ShapeMismatch naming the
    first equation that holds a term out of range."""
    if isinstance(terms, TermStore):
        if not terms.users or (max(terms.users) < num_users
                               and max(terms.cols) < cols):
            return terms
        terms = terms.tuples  # a term is out of range: the loop raises
    for i, row in enumerate(terms):
        for user, col in row:
            if not (0 <= user < num_users and 0 <= col < cols):
                raise ShapeMismatch(
                    f"equation {i} has user {user} at column {col}, outside "
                    f"{num_users} users and {cols} columns")
    return _pack(terms)


@dataclass(frozen=True)
class EqSubfileMatrix:
    """Delta x F_s equation-subfile matrix stored by its nonzeros.

    Row i holds the (user, column) terms of equation i of the store, 0-based
    and in ascending column order; every other cell is empty.  In the
    paper's notation entry (i, j) is the 1-based user index user + 1, or 0.
    EqSubfileMatrix(num_users, cols, row_terms) also takes the rows as term
    tuples and packs them once; `row_terms` builds them back on demand.  A
    user or column out of range raises ShapeMismatch at construction."""

    num_users: int
    cols: int
    store: TermStore

    def __post_init__(self) -> None:
        object.__setattr__(self, "store",
                           _checked(self.num_users, self.cols, self.store))

    @property
    def row_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self.store.tuples

    @property
    def rows(self) -> int:
        return len(self.store)

    def transpose(self) -> "EqSubfileMatrix":
        """Swap indices: (user, j) in row i becomes (user, i) in row j, by a
        counting sort of the terms on their column that keeps row order."""
        users = [array("I") for _ in range(self.cols)]
        rows = [array("I") for _ in range(self.cols)]
        row_of = itertools.chain.from_iterable(map(
            itertools.repeat, itertools.count(), _widths(self.store.starts)))
        for user, i, j in zip(self.store.users, row_of, self.store.cols):
            users[j].append(user)
            rows[j].append(i)
        return EqSubfileMatrix(self.num_users, self.rows, TermStore(
            array("I", b"".join(map(array.tobytes, users))),
            array("I", b"".join(map(array.tobytes, rows))),
            array("I", itertools.accumulate(map(len, users), initial=0))))


def equation_subfile_matrix(scheme: CachingScheme,
                            plan: DeliveryPlan) -> EqSubfileMatrix:
    """One row per equation of the plan, its terms sorted by column."""
    store, users, cols = plan.store, array("I"), array("I")
    rows = map(sorted, map(itertools.islice, itertools.repeat(
        zip(store.cols, store.users)), _widths(store.starts)))
    firsts = set(store.starts)  # a column may repeat across two rows
    while ranked := list(itertools.chain.from_iterable(itertools.islice(rows, 4096))):
        chunk = [col for col, _ in ranked]
        for t in itertools.compress(itertools.count(1), map(operator.eq, chunk, chunk[1:])):
            if len(cols) + t not in firsts:
                raise Lemma4Violated(
                    f"two users recover subfile column {chunk[t]} in one equation")
        cols.fromlist(chunk)
        users.fromlist([user for _, user in ranked])
    return EqSubfileMatrix(scheme.num_users, scheme.f_s,
                           TermStore(users, cols, store.starts))


@dataclass(frozen=True)
class Lemma4Report:
    ok: bool
    violations: tuple[str, ...]


def verify_lemma4(m: EqSubfileMatrix) -> Lemma4Report:
    """The three validity conditions: no repeated user within a column,
    none within a row, and any two occurrences of one user sit on a zero
    'rectangle' (the swapped positions are empty).  They hold iff the scheme
    read off m certifies its delivery: a user twice in a column is served
    that column twice, and a broken rectangle is a column that a user meets
    in its row but lacks.  Only when they fail are the violations listed: a
    user v at (i, j) and any other nonzero (i, j2) of row i break the
    rectangle with every occurrence of v in column j2 outside row i, in the
    order a row-major scan of the dense matrix would find them."""
    if _read_off(m).delivery.ok:
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
    return Lemma4Report(False, tuple(violations))


class Delivery(NamedTuple):
    """What a scheme's equations deliver, whatever the demands."""
    recovered: tuple[int, ...]  # per user, the distinct columns it is served
    incomplete: int  # bit u: user u is not served exactly the columns it lacks
    once: bool  # no user is served a column twice
    clean: bool  # every user of an equation cancels its other terms

    @property
    def ok(self) -> bool:  # the placement delivery array conditions
        return self.once and self.clean and not self.incomplete


@dataclass(frozen=True)
class MatrixScheme:
    """A caching scheme as simulate reads it: subfiles are the columns
    0..f_s-1, bit u of miss[c] is set iff user u lacks column c, and the
    equations' terms are a TermStore: the plan's (scheme_from_plan) or a
    matrix's (scheme_from_eq_subfile).  MatrixScheme(num_users, f_s, miss,
    equations) also packs term tuples once; `equations` builds them back.
    One mask per column, and every user and column in range, are checked at
    construction (ShapeMismatch); then the terms are certified once for any
    demands (`delivery`, outside ==, hash and repr)."""

    num_users: int
    f_s: int
    miss: tuple[int, ...]
    store: TermStore
    delivery: Delivery = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.miss) != self.f_s:
            raise ShapeMismatch(f"{len(self.miss)} masks for {self.f_s} columns")
        everyone = 1 << self.num_users
        if self.miss and not 0 <= min(self.miss) <= max(self.miss) < everyone:
            c = next(c for c, mask in enumerate(self.miss)
                     if not 0 <= mask < everyone)
            raise ShapeMismatch(f"mask of column {c} names a user outside "
                                f"0..{self.num_users - 1}")
        store = _checked(self.num_users, self.f_s, self.store)
        users, cols = store.users, store.cols
        served = [0] * self.f_s  # served[c]: the users that recover column c
        for user, col in zip(users, cols):
            served[col] |= 1 << user
        once = sum(map(int.bit_count, served)) == len(users)
        recovered = collections.Counter(users if once else (u for u, _ in set(zip(users, cols))))
        object.__setattr__(self, "store", store)
        object.__setattr__(self, "delivery", Delivery(
            tuple(map(recovered.__getitem__, range(self.num_users))),
            functools.reduce(operator.or_, map(operator.xor, served, self.miss), 0),
            once, _clean(self.num_users, self.miss, store)))

    @property
    def equations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self.store.tuples

    @property
    def delta(self) -> int:
        return len(self.store)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.delta, self.f_s)

    def cache_fraction(self, u: int) -> Fraction:
        lacking = sum(map((1 << u).__and__, self.miss)) >> u
        return Fraction(self.f_s - lacking, self.f_s)


def _clean(num_users: int, miss: Sequence[int], store: TermStore) -> bool:
    """Whether no equation repeats a user and each term's user is the only
    one of its equation's users that lacks the term's column.  Equations of
    one width are tested together, each in a slot of whole bytes for
    num_users bits: term position j's user bits make one integer, as do its
    columns' miss masks, and the positions' OR holds each equation's users."""
    size = (num_users + 7) // 8
    bits = [(1 << u).to_bytes(size, "little") for u in range(num_users)]
    lack = [mask.to_bytes(size, "little") for mask in miss]
    for width, t, end in _runs(store.starts):
        users = _slotted(bits, store.users, width, t, end)
        masks = functools.reduce(operator.or_, users)
        if masks.bit_count() != end - t:
            return False  # fewer users than terms: an equation repeats one
        lacks = _slotted(lack, store.cols, width, t, end)
        if [mask & masks for mask in lacks] != users:
            return False
    return True


def _slotted(table: list, values: array, width: int, t: int, end: int) -> list[int]:
    """For each term position j of the equations of one width at t:end, the
    table entries of their values at j side by side in one integer."""
    return [int.from_bytes(b"".join(map(table.__getitem__, values[j:end:width])),
                           "little") for j in range(t, t + width)]


def _read_off(m: EqSubfileMatrix) -> MatrixScheme:
    """The scheme m defines: user t lacks column j iff t appears in it, and
    each row is one equation as it stands."""
    miss = [0] * m.cols
    for user, j in zip(m.store.users, m.store.cols):
        miss[j] |= 1 << user
    return MatrixScheme(m.num_users, m.cols, tuple(miss), m.store)


def scheme_from_eq_subfile(m: EqSubfileMatrix) -> MatrixScheme:
    """The scheme read off a matrix that meets Lemma 4; any other matrix is
    refused with Lemma4Violated, naming its first three violations."""
    ms = _read_off(m)
    if not ms.delivery.ok:
        raise Lemma4Violated("; ".join(verify_lemma4(m).violations[:3]))
    return ms


def scheme_from_plan(scheme: CachingScheme, plan: DeliveryPlan) -> MatrixScheme:
    """The placed scheme in simulation form: miss masks with each user's bit
    cleared at the points of its block, each point's mask repeated for its z
    columns (the cache_cols placement), and the plan's store, terms in plan
    order.  Nothing is sorted or refused beyond the range check, so a plan
    that a user cannot decode fails in simulate with DecodeFailure."""
    point_miss = [(1 << scheme.num_users) - 1] * scheme.num_points
    for u in range(scheme.num_users):
        for t in scheme.user_block(u):
            point_miss[t] ^= 1 << u
    miss = [0] * scheme.f_s
    for s in range(scheme.z):
        miss[s::scheme.z] = point_miss
    return MatrixScheme(scheme.num_users, scheme.f_s, tuple(miss), plan.store)


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
