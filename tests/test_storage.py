"""Deterministic containers and seed fan-out."""
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from malguard import storage


def test_container_round_trip(tmp_path):
    p = tmp_path / "c.zip"
    arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.zeros(2)}
    storage.save_container(p, "x-v1", {"note": "hi"}, arrays)
    meta, back = storage.load_container(p, "x-v1", lambda meta, arrays: (meta, arrays))
    assert meta == {"format": "x-v1", "note": "hi"}
    assert set(back) == {"w", "b"}
    np.testing.assert_array_equal(back["w"], arrays["w"])


def test_container_bytes_stable(tmp_path):
    # same payload twice must produce identical bytes, entry order included
    a, b = tmp_path / "a.zip", tmp_path / "b.zip"
    arrays = {"z": np.ones(3), "a": np.full(2, 7.0)}
    storage.save_container(a, "x-v1", {}, arrays)
    storage.save_container(b, "x-v1", {}, dict(reversed(list(arrays.items()))))
    assert a.read_bytes() == b.read_bytes()


def test_expect_format_mismatch(tmp_path):
    p = tmp_path / "c.zip"
    storage.save_container(p, "x-v1", {}, {})
    assert storage.load_container(p, "x-v1", lambda meta, arrays: meta) == {"format": "x-v1"}
    with pytest.raises(storage.FormatError) as err:
        storage.load_container(p, "y-v1", lambda meta, arrays: meta)
    assert str(err.value) == (f"{p}: malformed container: ValueError: expected format 'y-v1',"
                              " found 'x-v1'")
    assert err.value.line_no is None


def test_load_container_turns_every_failure_into_one_format_error(tmp_path):
    p = tmp_path / "c.zip"
    storage.save_container(p, "x-v1", {"n": 1}, {"w": np.ones(2)})
    for decode in (lambda meta, arrays: arrays["missing"],
                   lambda meta, arrays: meta["missing"],
                   lambda meta, arrays: int(meta["format"])):
        with pytest.raises(storage.FormatError) as err:
            storage.load_container(p, "x-v1", decode)
        assert str(err.value).startswith(f"{p}: malformed container: ")
    good = p.read_bytes()
    for damaged in (good[:len(good) // 2], good.replace(b"meta.json", b"meta.jsoN")):
        p.write_bytes(damaged)
        with pytest.raises(storage.FormatError):
            storage.load_container(p, "x-v1", lambda meta, arrays: meta)
    with pytest.raises(OSError):
        storage.load_container(tmp_path / "absent.zip", "x-v1", lambda meta, arrays: meta)


@dataclass(frozen=True)
class _Doc:
    count: int
    rate: float
    names: list
    score: float | None


def test_load_json_checks_fields_and_names_the_file(tmp_path):
    p = tmp_path / "doc.json"
    for score in (None, 0.5):
        p.write_text(json.dumps({"count": 2, "rate": 1, "names": ["a"], "score": score}))
        want = _Doc(2, 1, ["a"], score)
        assert storage.load_json(p, lambda doc: storage.from_fields(_Doc, doc)) == want
    for bad in (b"[1]", b"{}", b'{"count": 2.0, "rate": 1, "names": [], "score": null}',
                b'{"count": true, "rate": 1, "names": [], "score": null}',
                b'{"count": 2, "rate": "1", "names": [], "score": null}',
                b'{"count": 2, "rate": 1, "names": [], "score": "1"}',
                b'{"count": 2, "rate": 1, "names": [], "score": null, "extra": 0}',
                b"{", b"\xff"):
        p.write_bytes(bad)
        with pytest.raises(storage.FormatError, match=f"^{p}: malformed document: "):
            storage.load_json(p, lambda doc: storage.from_fields(_Doc, doc))


def test_stable_seed_is_stable():
    assert storage.stable_seed("abc") == storage.stable_seed("abc")
    assert storage.stable_seed("abc") != storage.stable_seed("abd")
    assert 0 <= storage.stable_seed("anything") < 2**64


def test_stage_seed_decorrelates_stages():
    seeds = {storage.stage_seed(0, stage) for stage in ("a", "b", "c", "d")}
    assert len(seeds) == 4
    assert storage.stage_seed(1, "a") != storage.stage_seed(0, "a")
    assert storage.stage_seed(3, "x") == storage.stage_seed(3, "x")


def test_file_sha256_matches_content(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"payload")
    assert storage.file_sha256(p) == storage.sha256_hex(b"payload")


def test_only_storage_knows_the_container_layout():
    sources = Path(storage.__file__).parent.glob("*.py")
    knowing = sorted(p.name for p in sources if any(
        phrase in p.read_text(encoding="utf-8") for phrase in ("zipfile", '"meta.json"')))
    assert knowing == ["storage.py"]
