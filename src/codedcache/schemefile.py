"""Versioned JSON scheme files.

A scheme file records everything needed to rebuild a code source: the scalar
domain (including the modulus polynomial of an extension field), the
generator matrix or the residue-source components, and the provenance of how
it was constructed.  A CCP certificate summary and content digests may ride
along.  Saving and loading is round-trip stable: load(save(x)) equals x
structurally and rebuilds an identical source.
"""

from __future__ import annotations

import hashlib
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


def _domain_from_descriptor(desc: dict) -> ScalarDomain:
    try:
        kind, q = desc["kind"], desc["q"]
    except (KeyError, TypeError) as exc:
        raise SchemeFileError(f"bad domain descriptor: {desc!r}") from exc
    if kind == "field":
        return ScalarDomain.field(q, desc.get("modulus"))
    if kind == "ring":
        return ScalarDomain.ring(q)
    raise SchemeFileError(f"unknown domain kind {kind!r}")


def certificate_summary(cert: CcpCertificate) -> dict:
    return {"alpha": cert.alpha, "z": cert.z, "satisfied": cert.satisfied,
            "method": cert.method, "windows_checked": len(cert.windows)}


def scheme_to_dict(source: SchemeSource,
                   certificate: Optional[CcpCertificate] = None,
                   digests: Optional[dict] = None) -> dict:
    out: dict = {"format": FORMAT, "version": VERSION}
    if isinstance(source, CrtCodewordSource):
        params = source.provenance.params
        out["domain"] = {"kind": "ring", "q": source.q, "p": source.q, "m": 1}
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
            comps = [(c["gen_poly"], ScalarDomain.field(c["q"]))
                     for c in src["components"]]
            return build_crt_cyclic(comps, src["n"])
        if src["type"] == "generator":
            dom = _domain_from_descriptor(data.get("domain", {}))
            mat = Matrix.from_rows(dom, src["rows"])
            prov = Provenance.from_dict(data.get("provenance", {"kind": "user"}))
            return GeneratorMatrix(mat, prov)
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
