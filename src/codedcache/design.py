"""Resolvable designs induced by linear codes.

The codeword matrix T of an (n, k) code over an alphabet of size q lists all
codewords column by column; column index L is the codeword of the message
whose base-q digits (most significant first) spell L, so column 0 is the
all-zero word.  A residue source builds each row of T from the same rows of
its component codes, first component most significant: column L combines the
component messages whose indices spell L in the mixed radix (q_i^k_i).
Reading T row by row partitions the column indices: block
B_{i,l} collects the columns whose i-th coordinate equals l.  Each row i
yields the parallel class P_i = {B_{i,0}, ..., B_{i,q-1}}, and together they
form a resolvable design over the point set X = {0, ..., numCodewords - 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .codes import CrtCodewordSource, GeneratorMatrix
from .errors import RingConditionViolated
from .gf import ScalarDomain

Source = Union[GeneratorMatrix, CrtCodewordSource]


@dataclass(frozen=True)
class CodewordMatrix:
    """All codewords of a source, one per column; rows are code coordinates."""

    n: int
    num_codewords: int
    q: int
    rows: tuple[tuple[int, ...], ...]
    source: Source


def codeword_matrix(source: Source) -> CodewordMatrix:
    """Materialize the n x numCodewords codeword matrix of a generator matrix
    or a residue codeword source.  Intended for moderate code sizes; the
    column count is q^k (generator) or prod q_i^k_i (residue source).
    Residue rows expand component rows: coordinate j of a residue word is
    sum_i e_i * w_i[j] mod q, e_i = source.basis[i]; message order unchanged.
    """
    if isinstance(source, CrtCodewordSource):
        q = source.q
        parts = [_generator_rows(g) for g in source.components]
        rows = []
        for j in range(source.n):
            row = [0]
            for e, part in zip(source.basis, parts):
                terms = [e * c for c in part[j]]
                row = [(v + t) % q for v in row for t in terms]
            rows.append(tuple(row))
        return CodewordMatrix(source.n, source.num_codewords, q, tuple(rows), source)
    return CodewordMatrix(source.n, source.num_codewords, source.domain.q,
                          _generator_rows(source), source)


def _generator_rows(source: GeneratorMatrix) -> tuple[tuple[int, ...], ...]:
    """Rows of the codeword matrix of a generator matrix, message order."""
    dom: ScalarDomain = source.domain
    add, mul, q = dom.add, dom.mul, dom.q
    rows = []
    # coordinate j of every codeword, one message symbol at a time, most
    # significant first: each entry v splits into v + u*G[a][j], u = 0..q-1
    for j in range(source.n):
        row = [0]
        for g in source.mat.column(j):
            multiples = [mul(u, g) for u in range(q)]
            row = [add(v, m) for v in row for m in multiples]
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class ResolvableDesign:
    """Point set {0..numPoints-1} with n parallel classes of q blocks each."""

    num_points: int
    n: int
    q: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]  # classes[i][l] = sorted points
    source: Source

    @property
    def block_size(self) -> int:
        return self.num_points // self.q

    def block(self, i: int, l: int) -> tuple[int, ...]:
        return self.classes[i][l]


def resolvable_design(t: CodewordMatrix) -> ResolvableDesign:
    """Blocks B_{i,l} = columns of T whose row-i entry is l.

    Equal block sizes are rechecked while bucketing; a failure means the
    source violates the unit-content condition over its ring.
    """
    expected = t.num_codewords // t.q
    classes = []
    for i, row in enumerate(t.rows):
        buckets: list[list[int]] = [[] for _ in range(t.q)]
        for j, label in enumerate(row):
            buckets[label].append(j)
        for l, bucket in enumerate(buckets):
            if len(bucket) != expected:
                raise RingConditionViolated(
                    f"row {i}: label {l} appears {len(bucket)} times, expected {expected}")
        classes.append(tuple(tuple(b) for b in buckets))
    return ResolvableDesign(t.num_codewords, t.n, t.q, tuple(classes), t.source)


@dataclass(frozen=True)
class DesignReport:
    ok: bool
    num_points: int
    n: int
    q: int
    block_size: int
    violations: tuple[str, ...]


def verify_resolvable(d: ResolvableDesign) -> DesignReport:
    """Check every parallel class partitions the point set into equal blocks."""
    violations = []
    points = set(range(d.num_points))
    for i, cls in enumerate(d.classes):
        sizes = {len(b) for b in cls}
        if sizes != {d.block_size}:
            violations.append(f"class {i}: unequal block sizes {sorted(sizes)}")
        seen: set[int] = set()
        for l, b in enumerate(cls):
            dup = seen.intersection(b)
            if dup:
                violations.append(f"class {i}: blocks overlap at points {sorted(dup)[:4]}")
            seen.update(b)
        if seen != points:
            violations.append(f"class {i}: union misses {len(points - seen)} points")
    return DesignReport(not violations, d.num_points, d.n, d.q, d.block_size,
                        tuple(violations))


def block_intersection(d: ResolvableDesign,
                       picks: Sequence[tuple[int, int]]) -> frozenset[int]:
    """Intersection of blocks B_{i,l} over the given (class, label) picks."""
    out = set(range(d.num_points))
    for i, l in picks:
        out.intersection_update(d.classes[i][l])
    return frozenset(out)


def incidence_matrix(d: ResolvableDesign) -> list[list[int]]:
    """0/1 point-by-block matrix; blocks class-major (class, then label)."""
    cols = d.n * d.q
    out = [[0] * cols for _ in range(d.num_points)]
    for i, cls in enumerate(d.classes):
        for l, block in enumerate(cls):
            c = i * d.q + l
            for x in block:
                out[x][c] = 1
    return out


def incidence_csv(d: ResolvableDesign) -> str:
    header = ",".join(f"B_{i}_{l}" for i in range(d.n) for l in range(d.q))
    lines = [header]
    for row in incidence_matrix(d):
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
