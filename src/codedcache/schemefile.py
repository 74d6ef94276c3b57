"""Versioned JSON scheme files.

A scheme file records everything needed to rebuild a code source: the scalar
domain (including the modulus polynomial of an extension field), the
generator matrix or the residue-source components, and the provenance of how
it was constructed.  A CCP certificate summary and content digests may ride
along.  Saving and loading is round-trip stable: load(save(x)) equals x
structurally and rebuilds an identical source.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Union

from .codes import (
    CcpCertificate,
    CrtCodewordSource,
    GeneratorMatrix,
    Provenance,
    build_crt_cyclic,
)
from .errors import CodedCacheError, SchemeFileError
from .gf import Matrix, ScalarDomain

FORMAT = "codedcache-scheme"
VERSION = 1

# Largest codeword or equation count a command builds in memory.
SIZE_CAP = 1 << 20

# Largest equation-term count (Delta * alpha) simulate builds in memory.  A
# term costs about 40 bytes of peak RSS, 50 transposed, at alpha = k+1: CLI
# simulate peaks at 37 MiB (44 transposed) for spc(9)/GF(3), 393,660 terms,
# and at 88 MiB (109) for spc(8)/GF(4), 1,769,472 terms (CPython 3.11,
# 64-bit), so a run at the cap stays near 125 MiB, under 1 GiB.
TERM_CAP = 1 << 21

SchemeSource = Union[GeneratorMatrix, CrtCodewordSource]


def _domain_descriptor(dom: ScalarDomain) -> dict:
    out = {"kind": dom.kind, "q": dom.q, "p": dom.p, "m": dom.m}
    if dom.modulus is not None:
        out["modulus"] = list(dom.modulus)
    return out


def _residue_descriptor(q: int) -> dict:
    """A residue source's domain, Z mod q; q may exceed a ScalarDomain's."""
    return {"kind": "ring", "q": q, "p": q, "m": 1}


def _refuse_non_integers(name: str, value, depth: int) -> None:
    """Refuse the JSON floats, strings and booleans in value, depth lists
    deep, that int() would truncate or parse: 2.5, "2" and true are not
    integers.  A value of any other wrong type is left to its reader."""
    if depth and isinstance(value, list):
        for x in value:
            _refuse_non_integers(name, x, depth - 1)
    elif isinstance(value, (bool, float, str)):
        raise SchemeFileError(f"{name} holds {json.dumps(value)}, not a JSON integer")


def _domain_from_descriptor(desc: dict) -> ScalarDomain:
    try:
        kind, q = desc["kind"], desc["q"]
    except (KeyError, TypeError) as exc:
        raise SchemeFileError(f"bad domain descriptor: {desc!r}") from exc
    _refuse_non_integers("domain q", q, 0)
    if kind == "field":
        modulus = desc.get("modulus")
        _refuse_non_integers("domain modulus", modulus, 1)
        dom = ScalarDomain.field(q, modulus)
    elif kind == "ring":
        dom = ScalarDomain.ring(q)
    else:
        raise SchemeFileError(f"unknown domain kind {kind!r}")
    _refuse_contradictions(desc, _domain_descriptor(dom), repr(dom))
    return dom


def _refuse_contradictions(desc: dict, want: dict, name: str) -> None:
    """Refuse a q, kind, p or m in desc that disagrees with want, the
    descriptor of the domain the source defines (name says which); a ring
    is written with p = q and m = 1."""
    for key in ("q", "kind", "p", "m"):
        if key not in desc:
            continue
        if key != "kind":
            _refuse_non_integers(f"domain {key}", desc[key], 0)
        if desc[key] != want[key]:
            raise SchemeFileError(f"domain {key} = {json.dumps(desc[key])} contradicts "
                                  f"{name}, whose {key} is {json.dumps(want[key])}")


def certificate_summary(cert: CcpCertificate) -> dict:
    return {"alpha": cert.alpha, "z": cert.z, "satisfied": cert.satisfied,
            "method": cert.method, "windows_checked": len(cert.windows)}


def scheme_to_dict(source: SchemeSource,
                   certificate: Optional[CcpCertificate] = None,
                   digests: Optional[dict] = None) -> dict:
    out: dict = {"format": FORMAT, "version": VERSION}
    if isinstance(source, CrtCodewordSource):
        params = source.provenance.params
        out["domain"] = _residue_descriptor(source.q)
        out["source"] = {"type": "crt", "n": params["n"],
                         "components": params["components"]}
    elif isinstance(source, GeneratorMatrix):
        out["domain"] = _domain_descriptor(source.domain)
        out["source"] = {"type": "generator",
                         "rows": [list(r) for r in source.mat.to_rows()]}
    else:
        raise SchemeFileError(f"cannot serialize {type(source).__name__}")
    out["provenance"] = source.provenance.to_dict()
    if certificate is not None:
        out["certificate"] = certificate_summary(certificate)
    if digests:
        out["digests"] = dict(digests)
    return out


def scheme_from_dict(data: dict) -> SchemeSource:
    if not isinstance(data, dict):
        raise SchemeFileError(f"scheme document must be an object, got "
                              f"{type(data).__name__}")
    if data.get("format") != FORMAT:
        raise SchemeFileError(f"not a scheme file: format={data.get('format')!r}")
    if data.get("version") != VERSION:
        raise SchemeFileError(f"unsupported version {data.get('version')!r}")
    src = data.get("source")
    if not isinstance(src, dict) or "type" not in src:
        raise SchemeFileError("missing or malformed source section")
    try:
        if src["type"] == "crt":
            comps = []
            for i, c in enumerate(src["components"]):
                _refuse_non_integers(f"component {i} gen_poly", c["gen_poly"], 1)
                _refuse_non_integers(f"component {i} q", c["q"], 0)
                comps.append((c["gen_poly"], ScalarDomain.field(c["q"])))
            _refuse_non_integers("source n", src["n"], 0)
            source = build_crt_cyclic(comps, src["n"])
            desc = data.get("domain", {})
            if not isinstance(desc, dict):
                raise SchemeFileError(f"bad domain descriptor: {desc!r}")
            _refuse_contradictions(desc, _residue_descriptor(source.q),
                                   f"Z mod {source.q} of the components")
            return source
        if src["type"] == "generator":
            dom = _domain_from_descriptor(data.get("domain", {}))
            _refuse_non_integers("rows", src["rows"], 2)
            mat = Matrix.from_rows(dom, src["rows"])
            prov = data.get("provenance", {"kind": "user"})
            if not isinstance(prov, dict):
                raise SchemeFileError(f"provenance must be an object, got "
                                      f"{type(prov).__name__}")
            return GeneratorMatrix(mat, Provenance.from_dict(prov))
    except SchemeFileError:
        raise
    except (CodedCacheError, KeyError, TypeError, ValueError) as exc:
        raise SchemeFileError(f"invalid scheme content: {exc}") from exc
    raise SchemeFileError(f"unknown source type {src['type']!r}")


def save_scheme(path: Union[str, os.PathLike], source: SchemeSource,
                certificate: Optional[CcpCertificate] = None,
                digests: Optional[dict] = None) -> dict:
    """Write the scheme file and return the document written."""
    doc = scheme_to_dict(source, certificate, digests)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_scheme(path: Union[str, os.PathLike]) -> tuple[SchemeSource, dict]:
    """Read a scheme file; returns the rebuilt source and the raw document
    (which carries any certificate summary and digests)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemeFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemeFileError(f"{path} is not valid JSON: {exc}") from exc
    return scheme_from_dict(data), data


def codeword_digest(source: SchemeSource) -> str:
    """sha256 over the canonical codeword matrix, for change detection.
    Refuses enumerations larger than SIZE_CAP, read at call time."""
    import hashlib  # here: only --digest pays for its import
    from .design import codeword_matrix  # deferred: design imports codes

    # count first: the cap must refuse before anything is enumerated
    count = source.num_codewords
    if count > SIZE_CAP:
        raise SchemeFileError(f"{count} codewords exceed digest cap {SIZE_CAP}")
    cm = codeword_matrix(source)
    # entries lie in [0, q): look their decimal forms up, not format each
    digits = [str(v) for v in range(cm.q)]
    h = hashlib.sha256()
    for row in cm.rows:
        h.update(",".join(map(digits.__getitem__, row)).encode())
        h.update(b"\n")
    return "sha256:" + h.hexdigest()
