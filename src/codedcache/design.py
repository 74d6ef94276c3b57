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

import collections
import functools
import itertools
from typing import Union

from ._frozen import frozen
from .codes import CrtCodewordSource, GeneratorMatrix
from .errors import RingConditionViolated
from .gf import ScalarDomain

Source = Union[GeneratorMatrix, CrtCodewordSource]


@frozen
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
    elements = dom.elements()
    rows = []
    # coordinate j of every codeword, one message symbol at a time, most
    # significant first: each entry v splits into v + u*G[a][j], u = 0..q-1
    for j in range(source.n):
        row = [0]
        for g in source.mat.column(j):
            row = dom.add_outer(row, dom.add_scaled(itertools.repeat(0), g, elements))
        rows.append(tuple(row))
    return tuple(rows)


@frozen
class ResolvableDesign:
    """Point set {0..numPoints-1} with n parallel classes of q blocks each,
    stored as label rows: rows[i][p] = l iff point p lies in B_{i,l}."""

    num_points: int
    n: int
    q: int
    rows: tuple[tuple[int, ...], ...]
    source: Source

    @property
    def block_size(self) -> int:
        return self.num_points // self.q

    @functools.cached_property
    def classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """classes[i][l] = the points of B_{i,l}, ascending; built on first use."""
        classes = []
        for row in self.rows:
            buckets: list[list[int]] = [[] for _ in range(self.q)]
            for p, l in enumerate(row):
                buckets[l].append(p)
            classes.append(tuple(map(tuple, buckets)))
        return tuple(classes)

    def block(self, i: int, l: int) -> tuple[int, ...]:
        return self.classes[i][l]


def resolvable_design(t: CodewordMatrix) -> ResolvableDesign:
    """Blocks B_{i,l} = columns of T whose row-i entry is l; shares T's rows.

    Equal block sizes are rechecked from each row's label counts; a failure
    means the source violates the unit-content condition over its ring.
    """
    expected = t.num_codewords // t.q
    for i, row in enumerate(t.rows):
        counts = collections.Counter(row)
        for l in range(t.q):
            if counts[l] != expected:
                raise RingConditionViolated(
                    f"row {i}: label {l} appears {counts[l]} times, expected {expected}")
    return ResolvableDesign(t.num_codewords, t.n, t.q, t.rows, t.source)


@frozen
class DesignReport:
    """verify_resolvable's verdict, with one violation text per failed check."""
    ok: bool
    num_points: int
    n: int
    q: int
    block_size: int
    violations: tuple[str, ...]


def verify_resolvable(d: ResolvableDesign) -> DesignReport:
    """Check every parallel class partitions the point set into equal blocks.
    Label rows never overlap blocks; a short row or a label outside 0..q-1 misses points."""
    violations = []
    labels = range(d.q)
    for i, row in enumerate(d.rows):
        counts = collections.Counter(row)
        sizes = set(map(counts.__getitem__, labels))
        if sizes != {d.block_size}:
            violations.append(f"class {i}: unequal block sizes {sorted(sizes)}")
        missed = d.num_points - sum(map(labels.__contains__, row[:d.num_points]))
        if missed:
            violations.append(f"class {i}: union misses {missed} points")
    return DesignReport(not violations, d.num_points, d.n, d.q, d.block_size,
                        tuple(violations))
