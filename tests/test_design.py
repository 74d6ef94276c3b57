import dataclasses
import itertools
import math

import pytest

from codedcache.codes import (
    GeneratorMatrix,
    build_crt_cyclic,
    build_mds,
    build_spc,
    ccp_windows,
    check_ccp,
)
from codedcache.design import (
    block_intersection,
    codeword_matrix,
    incidence_csv,
    incidence_matrix,
    resolvable_design,
    verify_resolvable,
)
from codedcache.errors import RingConditionViolated
from codedcache.gf import Matrix, ScalarDomain
from codedcache.schemefile import codeword_digest

GF2 = ScalarDomain.field(2)
GF3 = ScalarDomain.field(3)


def example_code_4_2():
    return GeneratorMatrix(Matrix.from_rows(GF3, [[1, 0, 1, 1], [0, 1, 1, 2]]))


# ---------------------------------------------------------------------------
# codeword matrix
# ---------------------------------------------------------------------------


def test_codeword_matrix_4_2_gf3_exact():
    """Nine codewords of the running (4,2) GF(3) code, message order base-3."""
    cm = codeword_matrix(example_code_4_2())
    assert (cm.n, cm.num_codewords, cm.q) == (4, 9, 3)
    assert cm.rows == (
        (0, 0, 0, 1, 1, 1, 2, 2, 2),
        (0, 1, 2, 0, 1, 2, 0, 1, 2),
        (0, 1, 2, 1, 2, 0, 2, 0, 1),
        (0, 2, 1, 1, 0, 2, 2, 1, 0),
    )


def test_codeword_matrix_spc_3_2_gf2():
    cm = codeword_matrix(build_spc(2, GF2))
    # codewords 000, 011, 101, 110 in base-2 message order
    assert cm.rows == ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))


def test_codeword_matrix_repetition_code():
    g = GeneratorMatrix(Matrix.from_rows(GF2, [[1, 1]]))
    cm = codeword_matrix(g)
    assert cm.rows == ((0, 1), (0, 1))


def test_codeword_matrix_column_zero_is_zero_codeword():
    for g in (example_code_4_2(), build_spc(3, GF3), build_mds(4, 2, ScalarDomain.field(5))):
        cm = codeword_matrix(g)
        assert all(row[0] == 0 for row in cm.rows)


def test_codeword_matrix_crt_source():
    src = build_crt_cyclic([([1, 1], GF2), ([1, 1], GF3)], 4)
    cm = codeword_matrix(src)
    assert cm.q == 6
    assert cm.num_codewords == src.num_codewords == 2 ** 3 * 3 ** 3
    assert len(cm.rows) == 4
    assert all(len(r) == cm.num_codewords for r in cm.rows)


def crt_idempotents(qs):
    """e_i = 1 mod q_i and 0 mod every other modulus, found by search."""
    return [next(x for x in range(math.prod(qs)) if all(x % qj == int(qj == qi) for qj in qs))
            for qi in qs]


def reference_codewords(src):
    """Residue words one at a time, in componentwise message order with the
    first component most significant: every component word from its message
    digits (most significant first), then the words joined by the
    idempotents of the Chinese remainder map."""
    comp_words = []
    for g in src.components:
        dom = g.domain
        words = []
        for msg in itertools.product(range(dom.q), repeat=g.k):
            word = [0] * src.n
            for a, u in enumerate(msg):
                if u:
                    row = g.mat.row(a)
                    for j in range(src.n):
                        word[j] = dom.add(word[j], dom.mul(u, row[j]))
            words.append(tuple(word))
        comp_words.append(words)
    basis = crt_idempotents([g.domain.q for g in src.components])
    for combo in itertools.product(*comp_words):
        yield tuple(sum(e * w[j] for e, w in zip(basis, combo)) % src.q
                    for j in range(src.n))


CRT_SOURCES = {
    # name: (n, [(q_i, generator polynomial)]), with the codeword count
    "n3-2x3": (3, [(2, [1, 1]), (3, [1, 1, 1])]),            # 12
    "n4-2x3": (4, [(2, [1, 1]), (3, [1, 1])]),               # 216
    "n6-2x3": (6, [(2, [1, 1, 1]), (3, [2, 1])]),            # 3,888
    "n4-2x3x5": (4, [(2, [1, 1]), (3, [1, 1]), (5, [1, 1])]),  # 27,000
    "n4-5": (4, [(5, [4, 1])]),                              # 125
}


def build_named_crt(name):
    n, comps = CRT_SOURCES[name]
    return build_crt_cyclic([(g, ScalarDomain.field(q)) for q, g in comps], n)


@pytest.mark.parametrize("name, count", [
    ("n3-2x3", 12), ("n4-2x3", 216), ("n6-2x3", 3888), ("n4-2x3x5", 27000),
    ("n4-5", 125)])
def test_codeword_matrix_crt_matches_word_by_word_reference(name, count):
    src = build_named_crt(name)
    cm = codeword_matrix(src)
    assert cm.num_codewords == count
    assert cm.q == src.q
    columns = list(reference_codewords(src))
    assert len(columns) == count
    assert cm.rows == tuple(zip(*columns))


def test_crt_basis_is_the_crt_idempotents():
    for name in CRT_SOURCES:
        src = build_named_crt(name)
        assert list(src.basis) == crt_idempotents(
            [g.domain.q for g in src.components])


CRT_DIGESTS = {
    "n4-2x3": "sha256:65c2e5532f8e8089cb31546e51822895ebb07ad53a04754c9605c0a94133b9f5",
    "n3-2x3": "sha256:0a0813ff6c670990a697ead358d50d4c94998a4a6853d9719181fd62e82488f3",
    "n4-2x3x5": "sha256:4a45e563a59268bf8e0fadf3a46efc1a66d203ba26213cdd342d71e922f2519d",
}


@pytest.mark.parametrize("name", CRT_DIGESTS)
def test_crt_codeword_digests_are_pinned(name):
    assert codeword_digest(build_named_crt(name)) == CRT_DIGESTS[name]


# ---------------------------------------------------------------------------
# resolvable design
# ---------------------------------------------------------------------------


def test_design_4_2_gf3_parallel_classes():
    d = resolvable_design(codeword_matrix(example_code_4_2()))
    got = [[set(b) for b in cls] for cls in d.classes]
    assert got[0] == [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]
    assert got[1] == [{0, 3, 6}, {1, 4, 7}, {2, 5, 8}]
    assert got[2] == [{0, 5, 7}, {1, 3, 8}, {2, 4, 6}]
    assert got[3] == [{0, 4, 8}, {2, 3, 7}, {1, 5, 6}]
    assert d.block_size == 3


def test_design_spc_gives_the_pair_design():
    d = resolvable_design(codeword_matrix(build_spc(2, GF2)))
    got = [[set(b) for b in cls] for cls in d.classes]
    assert got == [
        [{0, 1}, {2, 3}],
        [{0, 2}, {1, 3}],
        [{0, 3}, {1, 2}],
    ]


def test_design_blocks_sorted_and_indexed_by_label():
    d = resolvable_design(codeword_matrix(example_code_4_2()))
    cm = codeword_matrix(example_code_4_2())
    for i in range(d.n):
        for l in range(d.q):
            blk = d.block(i, l)
            assert list(blk) == sorted(blk)
            assert all(cm.rows[i][j] == l for j in blk)


def test_design_crt_q6_block_sizes():
    src = build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3)
    d = resolvable_design(codeword_matrix(src))
    assert d.q == 6
    assert d.num_points == 12
    assert d.block_size == 2
    assert verify_resolvable(d).ok
    # label balance: every label appears num_points / q times per row
    cm = codeword_matrix(src)
    for row in cm.rows:
        for l in range(6):
            assert row.count(l) == 2


def test_verify_resolvable_clean_on_constructions():
    for g in (example_code_4_2(), build_spc(2, GF2), build_mds(4, 3, ScalarDomain.field(5))):
        d = resolvable_design(codeword_matrix(g))
        rep = verify_resolvable(d)
        assert rep.ok
        assert rep.violations == ()


def test_verify_resolvable_flags_moved_point():
    d = resolvable_design(codeword_matrix(build_spc(2, GF2)))
    classes = [list(map(list, cls)) for cls in d.classes]
    classes[0][0] = [0, 3]  # point 1 dropped, 3 duplicated into block (0,0)
    tampered = dataclasses.replace(
        d, classes=tuple(tuple(tuple(b) for b in cls) for cls in classes))
    rep = verify_resolvable(tampered)
    assert not rep.ok
    assert any("overlap" in v or "misses" in v for v in rep.violations)


def test_point_appears_once_per_class():
    d = resolvable_design(codeword_matrix(example_code_4_2()))
    for cls in d.classes:
        seen = sorted(p for b in cls for p in b)
        assert seen == list(range(9))


# ---------------------------------------------------------------------------
# block intersections (the single-point recovery structure)
# ---------------------------------------------------------------------------


def test_block_intersection_basics():
    d = resolvable_design(codeword_matrix(example_code_4_2()))
    assert block_intersection(d, [(0, 0), (1, 0)]) == {0}
    assert block_intersection(d, [(0, 0)]) == {0, 1, 2}
    assert block_intersection(d, []) == frozenset(range(9))


def test_k_blocks_from_distinct_classes_meet_in_one_point():
    """(k,k+1)-CCP: k blocks of k distinct classes in a window share 1 point."""
    cases = [
        (example_code_4_2(), 3),
        (build_spc(2, GF2), 3),
        (build_spc(3, GF3), 4),
        (build_mds(4, 3, ScalarDomain.field(5)), 4),
    ]
    for g, alpha in cases:
        assert check_ccp(g, alpha).satisfied
        d = resolvable_design(codeword_matrix(g))
        k = g.k
        for window in ccp_windows(g.n, alpha):
            for classes in itertools.combinations(window, k):
                for labels in itertools.product(range(d.q), repeat=k):
                    hit = block_intersection(d, list(zip(classes, labels)))
                    assert len(hit) == 1, (classes, labels)


def test_alpha_blocks_intersection_sizes_low_alpha():
    """(k,alpha)-CCP: a' blocks from distinct window classes meet in q^(k-a')."""
    g = example_code_4_2()
    alpha = 2
    assert check_ccp(g, alpha).satisfied
    d = resolvable_design(codeword_matrix(g))
    for window in ccp_windows(g.n, alpha):
        for take in (1, 2):
            for classes in itertools.combinations(window, take):
                for labels in itertools.product(range(3), repeat=take):
                    hit = block_intersection(d, list(zip(classes, labels)))
                    assert len(hit) == 3 ** (g.k - take)


# ---------------------------------------------------------------------------
# incidence matrix
# ---------------------------------------------------------------------------


def test_incidence_matches_displayed_pair_design():
    d = resolvable_design(codeword_matrix(build_spc(2, GF2)))
    ours = incidence_matrix(d)
    # column order here is class-major; the textbook display lists all
    # 2-subsets lexicographically, which is this fixed permutation of ours
    perm = [0, 2, 4, 5, 3, 1]
    displayed = [
        [1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ]
    permuted = [[row[j] for j in perm] for row in ours]
    assert permuted == displayed


def test_incidence_identity_for_singleton_blocks():
    # the (2,1) code over GF(3) has 3 points and singleton blocks, so each
    # class contributes a 3x3 identity slab
    d = resolvable_design(codeword_matrix(build_spc(1, GF3)))
    inc = incidence_matrix(d)
    assert d.block_size == 1
    for i in range(d.n):
        sub = [row[i * d.q:(i + 1) * d.q] for row in inc]
        assert sub == [[1 if r == c else 0 for c in range(3)] for r in range(3)]


def test_incidence_row_sums_equal_n():
    d = resolvable_design(codeword_matrix(example_code_4_2()))
    inc = incidence_matrix(d)
    assert all(sum(row) == d.n for row in inc)
    cols = len(inc[0])
    assert cols == d.n * d.q


def test_incidence_csv_shape():
    d = resolvable_design(codeword_matrix(build_spc(2, GF2)))
    text = incidence_csv(d)
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header == ["B_0_0", "B_0_1", "B_1_0", "B_1_1", "B_2_0", "B_2_1"]
    assert len(lines) == 1 + d.num_points
    body = [list(map(int, ln.split(","))) for ln in lines[1:]]
    assert body == incidence_matrix(d)
