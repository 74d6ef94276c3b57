import json
import re

import pytest

from codedcache import design, schemefile
from codedcache.codes import (
    CrtCodewordSource,
    GeneratorMatrix,
    build_crt_cyclic,
    build_cyclic,
    build_mds,
    build_spc,
    check_ccp,
    check_ccp_cyclic_shortcut,
    extend_ccp,
)
from codedcache.errors import SchemeFileError
from codedcache.gf import Matrix, ScalarDomain
from codedcache.schemefile import (
    FORMAT,
    VERSION,
    certificate_summary,
    codeword_digest,
    load_scheme,
    save_scheme,
    scheme_from_dict,
    scheme_to_dict,
)

GF2 = ScalarDomain.field(2)
GF3 = ScalarDomain.field(3)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_round_trip_cyclic_generator(tmp_path):
    g = build_cyclic(8, [2, 1, 0, 1, 1], GF3)
    path = tmp_path / "cyclic.json"
    save_scheme(path, g)
    again, doc = load_scheme(path)
    assert isinstance(again, GeneratorMatrix)
    assert again.mat.to_rows() == g.mat.to_rows()
    assert again.domain == g.domain
    assert again.provenance == g.provenance
    assert doc["format"] == FORMAT and doc["version"] == VERSION
    # the shortcut still applies after reload because provenance survives
    assert check_ccp_cyclic_shortcut(again).satisfied


def test_round_trip_extension_field_modulus(tmp_path):
    gf4 = ScalarDomain.field(4)
    g = build_mds(4, 2, gf4)
    path = tmp_path / "mds4.json"
    save_scheme(path, g)
    again, doc = load_scheme(path)
    assert again.domain.q == 4
    assert doc["domain"]["modulus"] == list(gf4.modulus)
    assert again.mat.to_rows() == g.mat.to_rows()
    assert check_ccp(again, 3).satisfied


def test_round_trip_ring_spc(tmp_path):
    g = build_spc(3, ScalarDomain.ring(6))
    path = tmp_path / "spc6.json"
    save_scheme(path, g)
    again, doc = load_scheme(path)
    assert doc["domain"]["kind"] == "ring"
    assert not again.domain.is_field
    assert again.mat.to_rows() == g.mat.to_rows()


def test_round_trip_extended_provenance(tmp_path):
    g = extend_ccp(build_spc(3, ScalarDomain.field(5)), 2)
    path = tmp_path / "ext.json"
    save_scheme(path, g)
    again, _ = load_scheme(path)
    assert again.provenance.kind == "extended"
    assert again.provenance.params["s"] == 2
    assert again.provenance.params["base"].kind == "spc"


def test_round_trip_crt_source(tmp_path):
    src = build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3)
    path = tmp_path / "crt.json"
    save_scheme(path, src)
    again, doc = load_scheme(path)
    assert isinstance(again, CrtCodewordSource)
    assert again.q == 6 and again.k_min == 1
    assert (list(zip(*design.codeword_matrix(again).rows))
            == list(zip(*design.codeword_matrix(src).rows)))
    assert doc["source"]["type"] == "crt"
    assert doc["source"]["components"] == [
        {"q": 2, "gen_poly": [1, 1]},
        {"q": 3, "gen_poly": [1, 1, 1]},
    ]


def test_save_is_byte_stable(tmp_path):
    g = build_spc(2, GF2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scheme(p1, g)
    save_scheme(p2, g)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_certificate_and_digests_ride_along(tmp_path):
    g = build_cyclic(8, [2, 1, 0, 1, 1], GF3)
    cert = check_ccp(g, 5)
    dig = {"codewords": codeword_digest(g)}
    path = tmp_path / "full.json"
    save_scheme(path, g, certificate=cert, digests=dig)
    _, doc = load_scheme(path)
    assert doc["certificate"] == {
        "alpha": 5, "z": 5, "satisfied": True,
        "method": "exhaustive", "windows_checked": 8,
    }
    assert doc["digests"]["codewords"].startswith("sha256:")


def test_certificate_summary_shortcut_method():
    g = build_cyclic(8, [2, 1, 0, 1, 1], GF3)
    summ = certificate_summary(check_ccp_cyclic_shortcut(g))
    assert summ["method"] == "cyclic-shortcut"
    assert summ["satisfied"] is True


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_load_missing_file(tmp_path):
    with pytest.raises(SchemeFileError):
        load_scheme(tmp_path / "nope.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemeFileError):
        load_scheme(path)


def test_from_dict_rejects_wrong_format_and_version():
    g = build_spc(2, GF2)
    doc = scheme_to_dict(g)
    wrong = dict(doc, format="something-else")
    with pytest.raises(SchemeFileError):
        scheme_from_dict(wrong)
    wrong = dict(doc, version=99)
    with pytest.raises(SchemeFileError):
        scheme_from_dict(wrong)
    with pytest.raises(SchemeFileError):
        scheme_from_dict("not a dict")


def test_from_dict_rejects_malformed_source():
    g = build_spc(2, GF2)
    doc = scheme_to_dict(g)
    with pytest.raises(SchemeFileError):
        scheme_from_dict(dict(doc, source={"rows": [[1, 0, 1]]}))
    with pytest.raises(SchemeFileError):
        scheme_from_dict(dict(doc, source={"type": "martian"}))
    bad_rows = dict(doc, source={"type": "generator", "rows": [[1, 0], [1]]})
    with pytest.raises(SchemeFileError):
        scheme_from_dict(bad_rows)


def test_from_dict_rejects_bad_domain():
    g = build_spc(2, GF2)
    doc = scheme_to_dict(g)
    with pytest.raises(SchemeFileError):
        scheme_from_dict(dict(doc, domain={"kind": "quaternion", "q": 4}))
    with pytest.raises(SchemeFileError):
        scheme_from_dict(dict(doc, domain={}))


def test_from_dict_rejects_invalid_generator_content():
    # zero column violates the generator invariant and surfaces as a file error
    doc = {
        "format": FORMAT, "version": VERSION,
        "domain": {"kind": "field", "q": 2, "p": 2, "m": 1},
        "source": {"type": "generator", "rows": [[1, 0, 0], [0, 0, 1]]},
        "provenance": {"kind": "user"},
    }
    with pytest.raises(SchemeFileError):
        scheme_from_dict(doc)


def _edited(doc, section, key, value, index=None):
    """doc with section[key] (or section["components"][index][key]) set."""
    part = json.loads(json.dumps(doc[section]))
    (part if index is None else part["components"][index])[key] = value
    return dict(doc, **{section: part})


def test_from_dict_refuses_numbers_that_are_not_json_integers():
    """Every number the loader reads from the domain or the source must be
    a JSON integer: a float, a string or a boolean (true is not 1) would be
    truncated or parsed by int() and load as a code the file does not hold."""
    gen = scheme_to_dict(build_cyclic(8, [2, 1, 0, 1, 1], GF3))
    gf9 = scheme_to_dict(build_spc(2, ScalarDomain.field(9)))
    crt = scheme_to_dict(build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3))
    for base in (gen, gf9, crt):
        scheme_from_dict(base)
    rows = gen["source"]["rows"]
    cases = [
        (_edited(gen, "source", "rows", [[2.0] + rows[0][1:]] + rows[1:]),
         "rows holds 2.0"),
        (_edited(gen, "source", "rows", rows[:-1] + [rows[-1][:-1] + [True]]),
         "rows holds true"),
        (_edited(gen, "domain", "q", 3.0), "domain q holds 3.0"),
        (_edited(gen, "domain", "q", "3"), 'domain q holds "3"'),
        (_edited(gf9, "domain", "modulus", [2, 2, 1.0]), "domain modulus holds 1.0"),
        (_edited(gf9, "domain", "modulus", "221"), 'domain modulus holds "221"'),
        (_edited(crt, "source", "n", 3.0), "source n holds 3.0"),
        (_edited(crt, "source", "q", False, 1), "component 1 q holds false"),
        (_edited(crt, "source", "gen_poly", [1, 1.5], 0), "component 0 gen_poly holds 1.5"),
    ]
    for doc, text in cases:
        with pytest.raises(SchemeFileError, match=f"^{text}, not a JSON integer$"):
            scheme_from_dict(doc)


def test_from_dict_refuses_domain_metadata_that_contradicts_the_source():
    """A present p or m must be the one q defines (a ring is written with
    p = q, m = 1), and a residue file's domain must be Z mod the product of
    its component moduli: such files once loaded as the rows or components
    alone define them.  The files construct writes load unchanged."""
    gen = scheme_to_dict(build_cyclic(8, [2, 1, 0, 1, 1], GF3))
    gf9 = scheme_to_dict(build_spc(2, ScalarDomain.field(9)))
    z6 = scheme_to_dict(build_spc(2, ScalarDomain.ring(6)))
    crt = scheme_to_dict(build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3))
    # the moduli multiply past the largest ScalarDomain order
    wide = scheme_to_dict(build_crt_cyclic([([30, 1], ScalarDomain.field(31)),
                                            ([36, 1], ScalarDomain.field(37))], 3))
    for base in (gen, gf9, z6, crt, wide, dict(crt, domain={"q": 6}),
                 {key: value for key, value in crt.items() if key != "domain"}):
        scheme_from_dict(base)
    cases = [
        (_edited(gen, "domain", "p", 7), "domain p = 7 contradicts GF(3), whose p is 3"),
        (_edited(gen, "domain", "m", 4), "domain m = 4 contradicts GF(3), whose m is 1"),
        (_edited(gf9, "domain", "m", 1), "domain m = 1 contradicts GF(3^2), whose m is 2"),
        (_edited(z6, "domain", "p", 2), "domain p = 2 contradicts Z mod 6, whose p is 6"),
        (dict(crt, domain={"kind": "field", "q": 99, "p": 1, "m": 7}),
         "domain q = 99 contradicts Z mod 6 of the components, whose q is 6"),
        (_edited(crt, "domain", "kind", "field"),
         'domain kind = "field" contradicts Z mod 6 of the components, whose kind is "ring"'),
        (_edited(crt, "domain", "m", 2),
         "domain m = 2 contradicts Z mod 6 of the components, whose m is 1"),
        (_edited(wide, "domain", "p", 31),
         "domain p = 31 contradicts Z mod 1147 of the components, whose p is 1147"),
        (_edited(gf9, "domain", "p", 3.0), "domain p holds 3.0, not a JSON integer"),
        (_edited(crt, "domain", "m", True), "domain m holds true, not a JSON integer"),
        (dict(crt, domain=[6]), "bad domain descriptor: [6]"),
    ]
    for doc, text in cases:
        with pytest.raises(SchemeFileError, match=f"^{re.escape(text)}$"):
            scheme_from_dict(doc)


def test_from_dict_refuses_a_provenance_that_is_not_an_object():
    doc = scheme_to_dict(build_spc(3, GF3))
    for value, kind in ((5, "int"), ([1], "list"), ("spc", "str"), (None, "NoneType")):
        with pytest.raises(SchemeFileError, match=f"^provenance must be an object, got {kind}$"):
            scheme_from_dict(dict(doc, provenance=value))


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def test_digest_deterministic_and_distinguishing():
    a = build_spc(2, GF2)
    b = build_spc(2, GF2)
    c = build_spc(3, GF2)
    assert codeword_digest(a) == codeword_digest(b)
    assert codeword_digest(a) != codeword_digest(c)
    assert codeword_digest(a).startswith("sha256:")


def test_digest_covers_crt_sources():
    src = build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3)
    assert codeword_digest(src).startswith("sha256:")


def test_digest_enumeration_cap(monkeypatch):
    g = build_spc(4, GF3)  # 81 codewords
    monkeypatch.setattr(schemefile, "SIZE_CAP", 80)
    with pytest.raises(SchemeFileError):
        codeword_digest(g)
    monkeypatch.setattr(schemefile, "SIZE_CAP", 81)
    codeword_digest(g)


def test_digest_cap_refuses_before_enumerating(monkeypatch):
    def enumerate_all(source):
        raise AssertionError("codeword_matrix called despite the cap")

    monkeypatch.setattr(design, "codeword_matrix", enumerate_all)
    monkeypatch.setattr(schemefile, "SIZE_CAP", 80)
    with pytest.raises(SchemeFileError, match="^81 codewords exceed digest cap 80$"):
        codeword_digest(build_spc(4, GF3))
    crt = build_crt_cyclic([([1, 1], GF2), ([1, 1, 1], GF3)], 3)  # 4 * 3
    monkeypatch.setattr(schemefile, "SIZE_CAP", 11)
    with pytest.raises(SchemeFileError, match="^12 codewords exceed digest cap 11$"):
        codeword_digest(crt)
