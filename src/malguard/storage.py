"""Deterministic persistence and seeding utilities.

Array containers are zip files holding ``meta.json``, whose ``format`` key
names the container type, plus one ``.npy`` entry per array; only
:func:`save_container` writes them and only :func:`load_container` reads
them. Entries are written in sorted order, uncompressed, with fixed
timestamps, so identical contents always produce identical bytes. That
property is what lets a rebuild from the same config reproduce a container
file exactly. The JSON documents a verb reads back go through
:func:`load_json`. Content digests and the scheme that fans a root seed out
to named stages and named items live here too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import zipfile

import numpy as np

# Zip cannot represent timestamps before 1980; this is the canonical floor.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


class FormatError(ValueError):
    """Malformed file contents; *line_no* is None for a container, which has no lines."""

    def __init__(self, path, line_no: int | None, message: str):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no


def save_container(path, fmt: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write *meta*, stamped ``"format": fmt``, and *arrays* as a byte-stable container."""
    payload = json.dumps(meta | {"format": fmt}, sort_keys=True, separators=(",", ":"))
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        _write_entry(zf, "meta.json", payload.encode("utf-8"))
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(
                buf, np.ascontiguousarray(arrays[name]), version=(1, 0)
            )
            _write_entry(zf, name + ".npy", buf.getvalue())


def _write_entry(zf: zipfile.ZipFile, name: str, data: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.external_attr = 0o644 << 16
    zf.writestr(info, data)


def load_container(path, fmt: str, decode):
    """``decode(meta, arrays)`` of the *fmt* container at *path*; once the file is
    open, whatever reading or decoding raises becomes one :class:`FormatError`."""
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                meta = json.loads(zf.read("meta.json").decode("utf-8"))
                arrays = {name[:-4]: np.lib.format.read_array(io.BytesIO(zf.read(name)))
                          for name in zf.namelist() if name.endswith(".npy")}
            if meta.get("format") != fmt:
                raise ValueError(f"expected format {fmt!r}, found {meta.get('format')!r}")
            return decode(meta, arrays)
        except Exception as exc:
            message = f"malformed container: {type(exc).__name__}: {exc}"
            raise FormatError(path, None, message) from exc


def load_json(path, decode):
    """``decode(document)`` of the JSON file at *path*; whatever reading, parsing
    or decoding raises becomes one :class:`FormatError` naming the file."""
    try:
        with open(path, "rb") as fh:
            return decode(json.loads(fh.read().decode("utf-8")))
    except (ValueError, TypeError, KeyError) as exc:
        raise FormatError(path, None, f"malformed document: {type(exc).__name__}: {exc}") from exc


def from_fields(cls, doc):
    """``cls(**doc)`` for a JSON object holding exactly the fields of dataclass *cls*,
    where a field annotated ``int`` holds an int, one annotated ``float`` a number
    and one annotated ``float | None`` a number or null."""
    fields = dataclasses.fields(cls)
    if not isinstance(doc, dict) or doc.keys() != {f.name for f in fields}:
        raise ValueError(f"expected an object with the keys {sorted(f.name for f in fields)}")
    for f in fields:
        kind = getattr(f.type, "__name__", str(f.type))  # a str for postponed or union types
        allowed = {"int": (int,), "float": (int, float),
                   "float | None": (int, float, type(None))}.get(kind)
        if allowed and type(doc[f.name]) not in allowed:
            raise ValueError(f"{f.name} must be of type {kind}, got {doc[f.name]!r}")
    return cls(**doc)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def stable_seed(text: str) -> int:
    """64-bit integer derived from a name; stable across runs and platforms."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stage_seed(root_seed: int, stage: str) -> int:
    """Derive the seed for a named stage from the experiment root seed."""
    return stable_seed(f"{root_seed}:{stage}")


def id_rng(seed: int, name: str) -> np.random.Generator:
    """The random stream of the item called *name* (a sample or a source id) under
    *seed*; it does not depend on which other items are drawn, or in what order."""
    return np.random.default_rng(np.random.SeedSequence([seed, stable_seed(name)]))
