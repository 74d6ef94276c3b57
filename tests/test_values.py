"""Value semantics of the package's frozen result classes: construction by
position or keyword, == within one class on the compared fields, hash of
those fields' tuple, immutability, and a Name(field=value, ...) repr."""

from array import array
from fractions import Fraction

import pytest

from codedcache.analysis import CandidateEntry, ComparisonRow
from codedcache.caching import (
    CachingScheme,
    DeliveryPlan,
    EqSubfileMatrix,
    Equation,
    Lemma4Report,
    MatrixScheme,
    RecoverySetGraph,
    SimulationReport,
    TermStore,
    UserOutcome,
)
from codedcache.codes import CcpCertificate, GeneratorMatrix, WindowCheck
from codedcache.design import CodewordMatrix, DesignReport, ResolvableDesign
from codedcache.gf import Matrix, ScalarDomain

GF2 = ScalarDomain.field(2)


def _store():
    return TermStore(array("I", [0, 1]), array("I", [1, 0]), array("I", [0, 2]))


# (class, field names, fresh arguments, hashable, pinned repr)
CASES = [
    (Matrix, ("domain", "rows", "cols", "entries"), lambda: (GF2, 1, 2, (0, 1)), True,
     "Matrix(domain=GF(2), rows=1, cols=2, entries=(0, 1))"),
    (WindowCheck, ("index", "columns", "checks", "ok"),
     lambda: (0, (0, 1), (("rank", True),), True), True,
     "WindowCheck(index=0, columns=(0, 1), checks=(('rank', True),), ok=True)"),
    (CcpCertificate, ("alpha", "z", "satisfied", "method", "windows"),
     lambda: (2, 1, True, "exhaustive", ()), True,
     "CcpCertificate(alpha=2, z=1, satisfied=True, method='exhaustive', windows=())"),
    (CodewordMatrix, ("n", "num_codewords", "q", "rows", "source"),
     lambda: (2, 2, 2, ((0, 1), (0, 1)), "src"), True,
     "CodewordMatrix(n=2, num_codewords=2, q=2, rows=((0, 1), (0, 1)), source='src')"),
    (ResolvableDesign, ("num_points", "n", "q", "rows", "source"),
     lambda: (2, 2, 2, ((0, 1), (0, 1)), "src"), True,
     "ResolvableDesign(num_points=2, n=2, q=2, rows=((0, 1), (0, 1)), source='src')"),
    (DesignReport, ("ok", "num_points", "n", "q", "block_size", "violations"),
     lambda: (True, 2, 2, 2, 1, ()), True,
     "DesignReport(ok=True, num_points=2, n=2, q=2, block_size=1, violations=())"),
    (CachingScheme, ("design", "alpha", "z", "n", "q", "num_points"),
     lambda: ("design", 2, 1, 2, 2, 2), True,
     "CachingScheme(design='design', alpha=2, z=1, n=2, q=2, num_points=2)"),
    (RecoverySetGraph, ("n", "alpha", "z", "sets", "labels"),
     lambda: (2, 2, 1, ((0, 1),), {(0, 0): 0, (1, 0): 0}), False,
     "RecoverySetGraph(n=2, alpha=2, z=1, sets=((0, 1),), labels={(0, 0): 0, (1, 0): 0})"),
    (Equation, ("recovery_set", "terms"), lambda: (0, ((0, 1), (1, 0))), True,
     "Equation(recovery_set=0, terms=((0, 1), (1, 0)))"),
    (DeliveryPlan, ("store", "sets"), lambda: (_store(), array("I", [0])), False,
     "DeliveryPlan(store=TermStore(array('I', [0, 1]), array('I', [1, 0]), "
     "array('I', [0, 2])), sets=array('I', [0]))"),
    (UserOutcome, ("user", "demanded", "recovered_count", "complete"),
     lambda: (0, 1, 1, True), True,
     "UserOutcome(user=0, demanded=1, recovered_count=1, complete=True)"),
    (SimulationReport, ("num_users", "num_files", "subfile_bytes", "f_s", "delta",
                        "rate", "load_bytes", "seed", "users"),
     lambda: (2, 2, 8, 2, 1, Fraction(1, 2), 8, 7, ()), True,
     "SimulationReport(num_users=2, num_files=2, subfile_bytes=8, f_s=2, delta=1, "
     "rate=Fraction(1, 2), load_bytes=8, seed=7, users=())"),
    (EqSubfileMatrix, ("num_users", "cols", "store"), lambda: (2, 2, _store()), False,
     "EqSubfileMatrix(num_users=2, cols=2, store=TermStore(array('I', [0, 1]), "
     "array('I', [1, 0]), array('I', [0, 2])))"),
    (Lemma4Report, ("ok", "violations"), lambda: (True, ()), True,
     "Lemma4Report(ok=True, violations=())"),
    (MatrixScheme, ("num_users", "f_s", "miss", "store"), lambda: (2, 2, (2, 1), _store()),
     False,
     "MatrixScheme(num_users=2, f_s=2, miss=(2, 1), store=TermStore(array('I', [0, 1]), "
     "array('I', [1, 0]), array('I', [0, 2])))"),
    (CandidateEntry, ("k", "n_prime", "z", "alpha_cols", "found", "route", "notes"),
     lambda: (1, 2, 1, 2, True, (), ("note",)), True,
     "CandidateEntry(k=1, n_prime=2, z=1, alpha_cols=2, found=True, route=(), "
     "notes=('note',))"),
    (ComparisonRow, ("scheme_id", "big_k", "m_over_n", "r", "f_s", "gain"),
     lambda: ("spc", 4, Fraction(1, 2), Fraction(1, 2), 2, Fraction(2)), True,
     "ComparisonRow(scheme_id='spc', big_k=4, m_over_n=Fraction(1, 2), r=Fraction(1, 2), "
     "f_s=2, gain=Fraction(2, 1))"),
]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[case[0].__name__ for case in CASES])
def test_value_semantics(index):
    cls, names, args, hashable, text = CASES[index]
    other_cls, _, other_args, _, _ = CASES[index - 1]
    a, b = cls(*args()), cls(**dict(zip(names, args())))
    assert a == b and not a != b
    assert a != other_cls(*other_args()) and a != args()
    values = tuple(getattr(a, name) for name in names)
    if hashable:
        assert hash(a) == hash(b) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in names) == values
    assert repr(a) == text
    with pytest.raises(TypeError):
        cls(*args(), bogus=1)
    with pytest.raises(TypeError):
        cls(*args(), None)


def test_matrix_scheme_delivery_is_outside_eq_hash_and_repr():
    a, b = MatrixScheme(2, 2, (2, 1), _store()), MatrixScheme(2, 2, (2, 1), _store())
    assert a.delivery.ok and "delivery" not in repr(a)
    for scheme, delivery in ((a, a.delivery), (b, None)):
        object.__setattr__(scheme, "store", ())  # hashable, so hash shows the fields
        object.__setattr__(scheme, "delivery", delivery)
    assert a == b and hash(a) == hash(b)


def test_provenance_params_default_is_a_fresh_dict():
    """A generator matrix built without a provenance gets its own
    {"kind": "user"}: editing one cannot reach another."""
    mat = Matrix.from_rows(GF2, [[1, 1]])
    a, b = GeneratorMatrix(mat), GeneratorMatrix(mat)
    assert a.provenance == b.provenance == {"kind": "user"}
    assert a.provenance is not b.provenance
    assert repr(a) == "GeneratorMatrix(k=1, n=2, GF(2), user)"


def test_resolvable_design_caches_classes():
    d = ResolvableDesign(4, 1, 2, ((0, 1, 1, 0),), "src")
    assert d.classes is d.classes == (((0, 3), (1, 2)),)
    assert d == ResolvableDesign(4, 1, 2, ((0, 1, 1, 0),), "src")
