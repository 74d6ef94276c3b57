"""Coded caching schemes on top of resolvable designs.

Users are the blocks of the design, indexed class-major: user u = i*q + l is
block B_{i,l}.  Every file splits into F_s = numPoints * z subfiles indexed
by a point t and a superscript s in [0, z); subfile (t, s) maps to flat column
t*z + s.  User B caches every subfile whose point lies in B, so M/N = 1/q.

Delivery works per recovery set: the cyclically-consecutive groups of alpha
parallel classes.  Each point gets an integer key from its labels on the
set's classes.  For each choice of one block per class in the group (a
tuple), a participant is served the points whose key differs from the
tuple's in that participant's digit alone, and the edge labels of the
recovery-set graph pick the superscript.  Each participant's columns over
all tuples are built from whole lists, in one of two enumerations that the
keys select.  When every participant's leave-one-out keys (its digit
dropped) are distinct, as at alpha = k+1 with the CCP, each tuple serves
one point per participant, and tuples with a common point contribute
nothing.  Otherwise, as at alpha <= k, each tuple serves several subfiles
per user, merged from the points grouped by key and paired off rank by rank
in ascending point order.

Delivery does not depend on the demands: generate_delivery builds the
equations once per (scheme, alpha), and a demand vector only decides which
file fills each term W^s_{d_B,t}.  Every term is a (user, column) pair.  A
plan, an equation-subfile matrix and a MatrixScheme (per column, a bitmask
of the users that lack it) hold their terms in a TermStore of flat arrays,
with no Python object per term; term tuples (plan.equations, m.row_terms,
ms.equations) are views built on demand, and each constructor also packs
them.  scheme_from_plan and equation_subfile_matrix share the plan's store,
in plan order; scheme_from_eq_subfile reads a scheme off a matrix.  A
MatrixScheme certifies its delivery once, at construction, for every demand
vector; Lemma 4 is that certificate on the scheme read off a matrix.  The
certificate comes from each column's served mask, built in one pass over the
terms.  simulate checks one demand vector against a MatrixScheme and reads
each user's outcome off that certificate; it generates no file bytes, since
a user that caches every other term of its equations decodes its own
subfile by XOR whatever the files hold.

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
    packs Equation objects; `equations` builds them back on demand.  A store
    without one recovery set per equation raises ShapeMismatch."""

    store: TermStore
    sets: Optional[array] = None

    def __post_init__(self) -> None:
        if not isinstance(self.store, TermStore):
            equations = tuple(self.store)
            object.__setattr__(self, "store", _pack(eq.terms for eq in equations))
            object.__setattr__(self, "sets", _array([eq.recovery_set for eq in equations]))
        elif self.sets is None or len(self.sets) != len(self.store):
            count = "no" if self.sets is None else len(self.sets)
            raise ShapeMismatch(f"{count} recovery sets for {len(self.store)} equations")

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
    the integer key sum_j label_{c_j}(point) * q^(m-1-j), so key order is
    the lexicographic order of block tuples.  The tuple with key L serves
    participant j (superscript s_j) the columns p*z + s_j of the points
    whose key differs from L in digit j alone, ascending, paired rank by
    rank across participants.  Only the design's label rows are read, so
    every source takes one path, and no Python step runs per point or per
    tuple: keys and each participant's columns over all tuples are built
    from whole lists by map, slicing and itertools:

    - if the q^(m-1) leave-one-out keys (digit j dropped) are distinct for
      every participant (alpha = k+1 with the CCP), each participant's
      columns are ordered once by that key and repeated run by run in tuple
      order, and one mask drops the tuples that hold a common point;
    - otherwise the points are grouped by key, each tuple's counts are
      checked equal across participants (else DecodeFailure), and its
      columns are merged from q-1 groups, streamed tuple by tuple.
    """
    if (graph.n, graph.alpha) != (scheme.n, scheme.alpha):
        raise ShapeMismatch("graph does not match scheme parameters")
    q, z, num_points = scheme.q, scheme.z, scheme.num_points
    labels = scheme.design.rows  # labels[i][point] = l: the point lies in B_{i,l}
    # columns[s][p] = p*z + s: participants with one superscript share the ints
    columns = [list(range(s, num_points * z, z)) for s in range(z)]
    users_out, cols_out, sets = array("I"), array("I"), array("I")
    for a, classes in enumerate(graph.sets):
        keys = [0] * num_points
        for i in classes:
            keys = list(map(operator.add, map(operator.mul, keys, itertools.repeat(q)),
                            labels[i]))
        places = [q ** j for j in reversed(range(len(classes)))]  # of digit j
        supers = [graph.labels[(i, a)] for i in classes]
        tuples = itertools.product(*(range(i * q, i * q + q) for i in classes))
        orders = _single_points(keys, places, [labels[i] for i in classes],
                                supers, columns)
        if orders:
            keep = list(map(operator.not_, map(set(keys).__contains__,
                                               range(q * num_points))))
            users = itertools.compress(tuples, keep)
            terms = itertools.compress(zip(*(
                itertools.chain.from_iterable(map(operator.mul, _cut(order, low),
                                                  itertools.repeat(q)))
                for order, low in zip(orders, places))), keep)
        else:
            counts, served = _merged(keys, q, places, supers, columns)
            users = map(operator.mul, tuples, counts)
            terms = itertools.chain.from_iterable(map(zip, *served))
        users_out.extend(itertools.chain.from_iterable(users))
        cols_out.extend(itertools.chain.from_iterable(terms))
        sets.extend(itertools.repeat(a, len(users_out) // scheme.alpha - len(sets)))
    starts = array("I", range(0, len(users_out) + 1, scheme.alpha))
    return DeliveryPlan(TermStore(users_out, cols_out, starts), sets)


def _single_points(keys: list, places: list, digits: list, supers: list,
                   columns: list) -> Optional[list]:
    """Per participant j, its columns in the order of their points' keys
    with digit j (digits[j][p] at place value places[j]) set to 0; None
    unless, for every participant, the q^(m-1) points give distinct such
    keys, so each names exactly one point."""
    if len(keys) != places[0]:  # more points than q^(m-1) keys: two share one
        return None
    orders = []
    for low, digit, s in zip(places, digits, supers):
        zeroed = map(operator.sub, keys, map(operator.mul, digit, itertools.repeat(low)))
        where = dict(zip(zeroed, columns[s]))
        if len(where) != len(keys):
            return None
        orders.append(list(map(where.__getitem__, sorted(where))))
    return orders


def _merged(keys: list, q: int, places: list, supers: list,
            columns: list) -> tuple[list, list]:
    """The number of columns each tuple serves each participant, in key
    order, and per participant the lazy sequence of those columns, tuple by
    tuple.  DecodeFailure if a tuple would serve two participants unequal
    numbers of columns."""
    sizes = list(map(collections.Counter(keys).get, range(q * places[0]),
                     itertools.repeat(0)))
    counts = [list(map(sum, zip(*_others(sizes, q, low)))) for low in places]
    if counts.count(counts[0]) != len(counts):
        raise DecodeFailure("unequal served-point counts within a tuple")
    by_key = sorted(range(len(keys)), key=keys.__getitem__)  # points ascend per key
    bounds = list(map(slice, itertools.accumulate(sizes, initial=0),
                      itertools.accumulate(sizes)))
    groups = {}  # superscript -> its columns grouped by key
    for s in set(supers):
        ranked = list(map(columns[s].__getitem__, by_key))
        groups[s] = list(map(ranked.__getitem__, bounds))
    return counts[0], [map(sorted, map(itertools.chain, *_others(groups[s], q, low)))
                       for s, low in zip(supers, places)]


def _others(per_key: list, q: int, low: int) -> list:
    """For r = 1..q-1, per_key[L'] for each key L in ascending order, where
    L' is L with its digit of place value low advanced by r modulo q."""
    runs = _cut(per_key, low)  # run h*q + e: digits above this one h, this digit e
    return [itertools.chain.from_iterable(itertools.chain.from_iterable(
        zip(*(runs[(e + r) % q::q] for e in range(q))))) for r in range(1, q)]


def _cut(seq: list, low: int) -> list:
    """seq in consecutive runs of low entries, by the shorter loop: low
    strided slices zipped, or one slice per run."""
    if low * low <= len(seq):
        return list(zip(*(seq[i::low] for i in range(low))))
    return list(map(seq.__getitem__, map(slice, range(0, len(seq), low),
                                        range(low, len(seq) + low, low))))


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
# simulation
# ---------------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

# Largest payload stream, in bytes (files x F_s x subfile bytes), that
# simulate accepts.
PAYLOAD_CAP = 1 << 26


def byte_stream(seed: int, count: int) -> bytes:
    """Deterministic pseudo-random bytes: a 64-bit linear congruential
    generator (state <- state * 6364136223846793005 + 1442695040888963407
    mod 2^64, starting from seed) emitting 8 little-endian bytes per step;
    empty for count <= 0."""
    out, state = bytearray(), seed
    for _ in range(-(-count // 8)):
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        out += state.to_bytes(8, "little")
    return bytes(out[:count])


@dataclass(frozen=True)
class UserOutcome:
    user: int
    demanded: int
    recovered_count: int
    complete: bool  # recovered exactly the missing subfiles
    # every recovered subfile equals the source file's: XOR-ing out terms
    # the user caches leaves its own, so True in every report
    exact: bool


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
    """Report the broadcast for one demand vector: Delta payloads of
    subfile_bytes each, every one the XOR of the demanded subfiles of its
    equation's terms.  This is the one place that validates a demand vector
    and the subfile size, and it refuses a payload stream (files x F_s x
    subfile_bytes) over PAYLOAD_CAP bytes with TooLarge.  What each user
    recovers was decided when ms was built (ms.delivery).  DecodeFailure
    names the first column, in equation, user and term order, that a user
    cannot cancel, or else the first equation that repeats a user and the
    first such user.  Past those refusals every user caches the other terms
    of its equations, so XOR-ing them out of a payload leaves its own
    subfile whatever the files hold: no file byte is generated, and `exact`
    is True for every user.  The seed is recorded in the report."""
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
    outcomes = tuple(UserOutcome(u, demands[u], delivery.recovered[u],
                                 not delivery.incomplete >> u & 1, True)
                     for u in range(num_users))
    return SimulationReport(num_users, num_files, subfile_bytes, f_s, ms.delta,
                            ms.rate, ms.delta * subfile_bytes, seed, outcomes)


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


def _served(num_users: int, cols: int, store: TermStore) -> list[int]:
    """Per column, the mask of the users whose terms hold it.  A term out
    of range fails a lookup, and _checked on the term tuples then names it."""
    bits = [1 << u for u in range(num_users)]
    served = [0] * cols
    try:
        for user, col in zip(store.users, store.cols):
            served[col] |= bits[user]
    except IndexError:
        _checked(num_users, cols, store.tuples)
        raise
    return served


@dataclass(frozen=True)
class EqSubfileMatrix:
    """Delta x F_s equation-subfile matrix stored by its nonzeros.

    Row i holds the (user, column) terms of equation i of the store, 0-based
    and in the order given; every other cell is empty.  In the
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
        counting sort on column that keeps row order, so result rows ascend
        and transposing twice gives each row its terms in column order."""
        users = [array("I") for _ in range(self.cols)]
        rows = [array("I") for _ in range(self.cols)]
        row_of = itertools.chain.from_iterable(map(
            itertools.repeat, itertools.count(), _widths(self.store.starts)))
        for user, i, j in zip(self.store.users, row_of, self.store.cols):
            users[j].append(user)
            rows[j].append(i)
        store = TermStore(array("I", b"".join(map(array.tobytes, users))),
                          array("I", b"".join(map(array.tobytes, rows))),
                          array("I", itertools.accumulate(map(len, users), initial=0)))
        return EqSubfileMatrix(self.num_users, self.rows, store)


def equation_subfile_matrix(scheme: CachingScheme,
                            plan: DeliveryPlan) -> EqSubfileMatrix:
    """One row per equation of the plan: the matrix shares the plan's
    store, so each row holds its terms in plan order."""
    return EqSubfileMatrix(scheme.num_users, scheme.f_s, plan.store)


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
    order a row-major scan of the dense matrix would find them.  Last comes
    each cell that two distinct users share, by row, then column: no dense
    matrix holds one, and neither user can cancel the other's term."""
    if _read_off(m).delivery.ok:
        return Lemma4Report(True, ())
    terms = m.row_terms
    where: dict[tuple[int, int], list[int]] = {}  # (user, column) -> rows
    first: dict[int, tuple[int, int]] = {}  # user -> its first cell, row-major
    for i, row in enumerate(terms):
        for user, j in row:
            where.setdefault((user, j), []).append(i)
            first[user] = min(first.get(user, (i, j)), (i, j))
    columns = sorted(
        (j, i2, f"user {user + 1} appears twice in column {j} (rows {i1}, {i2})")
        for (user, j), rows in where.items() for i1, i2 in zip(rows, rows[1:]))
    violations = [text for _, _, text in columns]
    violations += [f"row {i} repeats a user" for i, row in enumerate(terms)
                   if len({user for user, _ in row}) != len(row)]
    corners = set()
    for i, row in enumerate(terms):
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
    violations += [f"two users recover subfile column {j} in one equation"
                   for row in terms for j in sorted({c for _, c in row})
                   if len({user for user, c in row if c == j}) > 1]
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
    demands (`delivery`, outside ==, hash and repr), from each column's
    served mask, the users whose terms hold it: `once` iff the masks'
    popcounts sum to the term count, user u recovers the columns whose
    masks have bit u set, and `incomplete` has the bits where served and
    miss masks differ."""

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
        store = self.store
        if not isinstance(store, TermStore):
            store = _checked(self.num_users, self.f_s, store)
        served = _served(self.num_users, self.f_s, store)
        object.__setattr__(self, "store", store)
        object.__setattr__(self, "delivery", Delivery(
            tuple(_bit_counts(self.num_users, served)),
            functools.reduce(operator.or_, map(operator.xor, served, self.miss), 0),
            sum(map(int.bit_count, served)) == len(store.users),
            _clean(self.num_users, self.miss, store)))

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


def _bit_counts(num_users: int, masks: Sequence[int]) -> list[int]:
    """For each user u, the number of masks with bit u set: the masks side
    by side in one integer of whole-byte slots, ANDed with bit u of every
    slot and popcounted."""
    size = (num_users + 7) // 8
    packed = int.from_bytes(b"".join(map(int.to_bytes, masks, itertools.repeat(size),
                                         itertools.repeat("little"))), "little")
    ones = int.from_bytes(b"\x01".ljust(size, b"\x00") * len(masks), "little")
    return [(packed & ones << u).bit_count() for u in range(num_users)]


def _read_off(m: EqSubfileMatrix) -> MatrixScheme:
    """The scheme m defines: user t lacks column j iff t appears in it, and
    each row is one equation as it stands: its miss masks are served masks."""
    return MatrixScheme(m.num_users, m.cols, tuple(_served(m.num_users, m.cols, m.store)),
                        m.store)


def scheme_from_eq_subfile(m: EqSubfileMatrix) -> MatrixScheme:
    """The scheme read off a matrix that meets Lemma 4, or Lemma4Violated
    naming the first three violations that verify_lemma4 lists."""
    ms = _read_off(m)
    if not ms.delivery.ok:
        raise Lemma4Violated("; ".join(verify_lemma4(m).violations[:3]))
    return ms


def scheme_from_plan(scheme: CachingScheme, plan: DeliveryPlan) -> MatrixScheme:
    """The placed scheme in simulation form: miss masks with user i*q + l's
    bit cleared at the points labelled l in row i, each point's mask repeated
    for its z columns (the cache_cols placement), and the plan's store, terms
    in plan order.  Nothing is sorted or refused beyond the range check, so a
    plan that a user cannot decode fails in simulate with DecodeFailure."""
    point_miss = [(1 << scheme.num_users) - 1] * scheme.num_points
    for i, row in enumerate(scheme.design.rows):
        bits = [1 << u for u in range(i * scheme.q, (i + 1) * scheme.q)]
        point_miss = list(map(operator.xor, point_miss, map(bits.__getitem__, row)))
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
    fractions = {Fraction(scheme.f_s - lacking, scheme.f_s)
                 for lacking in _bit_counts(scheme.num_users, scheme.miss)}
    m_over_n = fractions.pop() if len(fractions) == 1 else None
    gain = None
    if m_over_n is not None and scheme.rate:
        gain = scheme.num_users * (1 - m_over_n) / scheme.rate
    return {"K": scheme.num_users, "M_over_N": m_over_n, "F_s": scheme.f_s,
            "R": scheme.rate, "gain": gain, "z": None}
