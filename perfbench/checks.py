"""Output checks computed apart from the program, from its artifact files.

Nothing here imports malguard. Containers are read with ``zipfile`` and
numpy, text files with ``json``, digests with ``hashlib``. Reference scores
come from a plain numpy forward pass of the two encoders and from ``w.x + b``
for the linear detector. They agree with the program's scores to rounding
only, so a value within ``TOL`` of a decision boundary is counted and
reported, not judged.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-9
HEADER = "#addfmt v1"


class Checks:
    """Failed checks by description, plus counts worth reporting."""

    def __init__(self):
        self.failures: list[str] = []
        self.notes: dict[str, int] = {}

    def expect(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def note(self, name: str, value: int) -> None:
        self.notes[name] = self.notes.get(name, 0) + int(value)


# ---------------------------------------------------------------- readers

def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
        arrays = {name[:-4]: np.load(io.BytesIO(zf.read(name)))
                  for name in zf.namelist() if name.endswith(".npy")}
    return meta, arrays


def read_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"{path}: missing header {HEADER!r}")
    return [json.loads(line) for line in lines[1:]]


def dense_blocks(feature_lists, dim: int, rows: int = 1024):
    """0/1 matrices of at most *rows* rows, in order."""
    for lo in range(0, len(feature_lists), rows):
        block = feature_lists[lo:lo + rows]
        x = np.zeros((len(block), dim))
        for i, feats in enumerate(block):
            x[i, feats] = 1.0
        yield x


class Reference:
    """The detector and the partition of one run directory."""

    def __init__(self, run: Path):
        meta, arrays = read_container(run / "detector.zip")
        if meta["kind"] != "linear":
            raise ValueError("the reference detector covers linear models only")
        self.w, self.b = arrays["weights"], float(meta["bias"])
        with open(run / "partition.json", encoding="utf-8") as fh:
            fh.readline()
            part = json.loads(fh.readline())
        self.dim = int(part["dim"])
        self.ps = np.asarray(part["ps"], dtype=np.int64)
        self.ips = np.asarray(part["ips"], dtype=np.int64)

    def detector(self, feature_lists) -> np.ndarray:
        out = [x @ self.w + self.b for x in dense_blocks(feature_lists, self.dim)]
        return np.concatenate(out) if out else np.empty(0)

    def scores(self, nets, feature_lists) -> np.ndarray:
        """Incompatibility scores under *nets* = (eps layers, eips layers)."""
        out = []
        for x in dense_blocks(feature_lists, self.dim):
            u = _forward(nets[0], x[:, self.ps])
            v = _forward(nets[1], x[:, self.ips])
            out.append(np.sqrt(((u - v) ** 2).sum(axis=1)))
        return np.concatenate(out) if out else np.empty(0)


def _forward(layers, a):
    for i, (w, b) in enumerate(layers):
        a = a @ w + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0)
    return a


def nets(arrays, prefix: str = ""):
    def layers(name):
        n = sum(1 for k in arrays if k.startswith(f"{prefix}{name}_w"))
        return [(arrays[f"{prefix}{name}_w{i}"], arrays[f"{prefix}{name}_b{i}"])
                for i in range(n)]
    return layers("eps"), layers("eips")


def series_nets(run: Path, epoch: int):
    return nets(read_container(run / "encoders.zip")[1], f"e{epoch:04d}_")


def true_negatives(ref: Reference, calib, checks: Checks):
    """Feature lists of the benign calibration rows the detector calls benign."""
    det = ref.detector([r["features"] for r in calib])
    checks.note("detector_near_zero", np.sum(np.abs(det) <= TOL))
    return [r["features"] for r, s in zip(calib, det) if s <= 0 and r["label"] == "benign"]


def nearest_rank(scores: np.ndarray, k: float) -> float:
    """The (100 - k)th nearest-rank percentile, rank taken in exact arithmetic."""
    ordered = np.sort(scores)
    rank = max(1, math.ceil((100 - Fraction(k)) * len(ordered) / 100))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------- checks

def check_manifest(run: Path, checks: Checks) -> None:
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    for stage, entry in manifest["stages"].items():
        for name, digest in {**entry["inputs"], **entry["outputs"]}.items():
            actual = hashlib.sha256((run / name).read_bytes()).hexdigest()
            checks.expect(actual == digest, f"manifest digest of {name} ({stage})")


def check_build(run: Path, checks: Checks) -> None:
    ref = Reference(run)
    ips = set(ref.ips.tolist())
    train = {r["id"]: r for r in read_records(run / "train.jsonl")}
    pseudo = read_records(run / "pseudo.jsonl")
    checks.expect(pseudo, "gen-pseudo produced no samples")
    det = ref.detector([r["features"] for r in pseudo])
    checks.note("pseudo_near_zero", np.sum(np.abs(det) <= TOL))
    checks.expect(np.all(det <= TOL), "a pseudo vector is detector-malicious")
    for rec in pseudo:
        source = set(train[rec["source_id"]]["features"])
        checks.expect(set(rec["features"]) & ips == source & ips,
                      f"pseudo {rec['id']} differs from its source on IPS")

    cal = json.loads((run / "calibration.json").read_text(encoding="utf-8"))
    fnirs = [row["fnir"] for row in cal["table"]]
    checks.expect(cal["best_epoch"] == fnirs.index(max(fnirs)),
                  "best_epoch is not the first argmax of FNIR")

    meta, arrays = read_container(run / "defense.zip")
    k, t = Fraction(cal["control_rate"]), meta["threshold"]
    checks.expect(t == cal["threshold"], "bundle threshold differs from calibration.json")
    checks.expect(np.array_equal(arrays["ps"], ref.ps), "bundle PS differs from partition")
    bundle_nets = nets(arrays)
    for ours, theirs in zip(sum(bundle_nets, []), sum(series_nets(run, cal["best_epoch"]), [])):
        checks.expect(all(np.array_equal(a, b) for a, b in zip(ours, theirs)),
                      "bundle encoders differ from the best epoch's checkpoint")
    tn = true_negatives(ref, read_records(run / "calib.jsonl"), checks)
    scores = ref.scores(bundle_nets, tn)
    checks.expect(abs(nearest_rank(scores, k) - t) <= TOL,
                  "threshold is not the nearest-rank percentile of the TN scores")
    above = int(np.sum(scores > t + TOL))
    ties = int(np.sum(np.abs(scores - t) <= TOL))
    n = len(scores)
    checks.expect(100 * above <= k * n, "realized TNIR exceeds K%")
    if ties == 1:
        checks.expect(100 * (above + 1) > k * n, "realized TNIR is not above K% - 1/n_TN")
    checks.note("tn_ties_at_threshold", ties - 1)


def check_evaluate(run: Path, checks: Checks) -> None:
    ref = Reference(run)
    ev = json.loads((run / "evaluation.json").read_text(encoding="utf-8"))
    test = {r["id"]: r for r in read_records(run / "test.jsonl")}
    adds = {r["id"]: r["adds"] for r in read_records(run / "perturbations.jsonl")}
    checks.expect(set(ev["attacks"]) == {"greedy", "adaptive1", "adaptive2"},
                  "evaluation lacks an attack mode")
    cache = {}
    for mode, rows in ev["attacks"].items():
        traces = read_records(run / f"traces-{mode}.jsonl")
        eligible = [t for t in traces if t["eligible"]]
        wins = [t for t in eligible if t["success"]]
        if mode == "greedy":
            for tr in traces:
                replay = set(test[tr["sample_id"]]["features"])
                for pid in tr["applied"]:
                    replay |= set(adds[pid])
                checks.expect(sorted(replay) == tr["final"],
                              f"greedy final of {tr['sample_id']} does not replay")
            det = ref.detector([t["final"] for t in wins])
            checks.expect(np.all(det <= TOL), "a successful greedy final is detector-malicious")
        for row in rows:
            checks.expect(row["asr_before"] == len(wins) / len(eligible),
                          f"{mode} K={row['control_rate']}: asr_before")
            epoch = row["best_epoch"]
            if epoch not in cache:
                cache[epoch] = series_nets(run, epoch)
            scores = ref.scores(cache[epoch], [t["final"] for t in wins])
            t = row["threshold"]
            below = int(np.sum(scores < t - TOL))
            near = int(np.sum(np.abs(scores - t) <= TOL))
            surviving = round(row["asr_after"] * len(eligible))
            checks.expect(below <= surviving <= below + near,
                          f"{mode} K={row['control_rate']}: asr_after")
            checks.note("finals_near_threshold", near)


def check_serve(run: Path, checks: Checks, rows, detect, batch, defend_file) -> None:
    """Check one pass of *rows* (dataset records) served by both paths.

    *detect* and *batch* hold one (final label, revisited, score) per row from
    ``pipeline.detect`` and ``pipeline.defended_run``; *defend_file* is the
    results file the ``defend`` verb wrote for the same rows.
    """
    ref = Reference(run)
    meta, arrays = read_container(run / "defense.zip")
    t = meta["threshold"]
    feats = [r["features"] for r in rows]
    det = ref.detector(feats)
    scores = ref.scores(nets(arrays), feats)
    judged_det = np.abs(det) > TOL
    judged_score = np.abs(scores - t) > TOL
    checks.note("rows_detector_near_zero", np.sum(~judged_det))
    checks.note("rows_near_threshold", np.sum(~judged_score))
    for name, results in (("detect", detect), ("defended_run", batch)):
        checks.expect(len(results) == len(rows), f"{name} result count")
        for i, (label, revisited, _) in enumerate(results):
            checks.expect(revisited or label == "malicious",
                          f"{name} row {i}: benign verdict without a revisit")
            if judged_det[i]:
                checks.expect(revisited == (det[i] <= 0),
                              f"{name} row {i}: revisited disagrees with the detector")
            if revisited and judged_det[i] and judged_score[i]:
                checks.expect((label == "malicious") == (scores[i] > t),
                              f"{name} row {i}: verdict disagrees with the reference score")
    checks.note("verdict_mismatches",
                sum(a[0] != b[0] for a, b in zip(detect, batch)))
    written = read_records(defend_file)
    checks.expect([r["id"] for r in written] == [r["id"] for r in rows],
                  "defend results do not list every input once, in order")
    checks.expect([r["label"] for r in written] == [d[0] for d in detect],
                  "defend labels differ from detect")
