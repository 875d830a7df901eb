"""Malformed run-directory artifacts fail with one message, never a traceback.

Every artifact of a TINY run directory is damaged by a seeded mutation
fuzzer, in the manner of Miller, Fredriksen & So, "An Empirical Study of the
Reliability of UNIX Utilities" (CACM 1990). Each mutant goes through its
reader, which must load it or raise ``FormatError``/``StageError``. A sample
of the mutants also goes through the verb that consumes the file, with the
file's digest re-recorded so that the damage reaches the reader: the verb
must exit 0, or exit 1 with exactly one ``error [`` line.
"""
import contextlib
import io
import json
import random
import shutil
import warnings
import zipfile

import pytest

from malguard import attacks, calibration, cli, data, detectors, encoders, pipeline
from malguard import problem_space, quantify
from malguard import storage
from test_cli import CHAIN, TINY, run_verbs

TRACES = [f"traces-{mode}.jsonl" for mode in ("greedy", "adaptive1", "adaptive2")]
CONTAINERS = (cli.DETECTOR_FILE, cli.ENCODERS_FILE, cli.BUNDLE_FILE)
JSON_DOCS = (cli.CONFIG_FILE, cli.MANIFEST_FILE, cli.CALIBRATION_FILE, cli.EVALUATION_JSON)
CALIBRATE, DEFEND = ["calibrate"], ["defend", "--vectors"]
# The verb that reads each artifact; the partition with the planted truth is read by none.
CONSUMERS = {
    cli.SPACE_FILE: ["quantify"],
    cli.DATASET_FILE: ["split"],
    cli.PERTURBATIONS_FILE: ["quantify"],
    cli.TRAIN_FILE: ["gen-pseudo"],
    cli.CALIB_FILE: CALIBRATE,
    cli.TEST_FILE: ["attack", "--mode", "greedy"],
    cli.PARTITION_FILE: CALIBRATE,
    cli.TRUE_PARTITION_FILE: None,
    cli.PSEUDO_FILE: ["train-encoders"],
    **{name: ["evaluate"] for name in TRACES},
    cli.DETECTOR_FILE: DEFEND,
    cli.ENCODERS_FILE: CALIBRATE,
    cli.BUNDLE_FILE: DEFEND,
    cli.CONFIG_FILE: CALIBRATE,
    cli.MANIFEST_FILE: CALIBRATE,
}
# The stored results that a verb reads back, with that verb. Their mutants come after
# those of CONSUMERS, whose mutants they therefore leave as they were.
DOCS = {cli.CALIBRATION_FILE: ["build-defense"], cli.EVALUATION_JSON: ["report"]}
# One value of each JSON type; a type swap replaces a value by one of another type.
SWAPS = (["x"], 7, "x", True, None)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    config = root / "exp.json"
    config.write_text(json.dumps(TINY))
    run = root / "run"
    run_verbs(run, config, CHAIN)
    return run


def readers(run):
    space = data.load_feature_space(run / cli.SPACE_FILE)
    table = {name: (lambda p: data.read_dataset(p, space)) for name in (
        cli.DATASET_FILE, cli.TRAIN_FILE, cli.CALIB_FILE, cli.TEST_FILE, cli.PSEUDO_FILE)}
    table.update({name: (lambda p: attacks.load_traces(p, space.dim)) for name in TRACES})
    table.update({
        cli.SPACE_FILE: data.load_feature_space,
        cli.PERTURBATIONS_FILE: problem_space.load_perturbations,
        cli.PARTITION_FILE: quantify.load_partition,
        cli.TRUE_PARTITION_FILE: quantify.load_partition,
        cli.DETECTOR_FILE: detectors.load_model,
        cli.ENCODERS_FILE: encoders.CheckpointSeries.load,
        cli.BUNDLE_FILE: pipeline.load_bundle,
        cli.CONFIG_FILE: lambda p: cli.resolve_config(str(p), None),
        cli.MANIFEST_FILE: lambda p: cli._load_manifest(cli.RunDir(p.parent)),
        cli.CALIBRATION_FILE: lambda p: storage.load_json(
            p, calibration.CalibrationResult.from_dict),
        cli.EVALUATION_JSON: lambda p: storage.load_json(p, cli._evaluation_doc),
    })
    return table


def _swap(rng, value):
    return rng.choice([v for v in SWAPS if type(v) is not type(value)])


def _swap_somewhere(rng, doc):
    """*doc* with the value of one key, at any depth of nested objects, type-swapped."""
    paths = []

    def walk(node, path):
        for key, value in node.items():
            paths.append(path + (key,))
            if isinstance(value, dict):
                walk(value, path + (key,))

    walk(doc, ())
    *parents, key = rng.choice(paths)
    node = doc
    for name in parents:
        node = node[name]
    node[key] = _swap(rng, node[key])
    return doc


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _rezip(blob: bytes, edit) -> bytes:
    """The container *blob* with its (name, bytes) entry list passed through *edit*."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        entries = [(name, zf.read(name)) for name in zf.namelist()]
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a doubled entry is a duplicate name
        for name, payload in edit(entries):
            zf.writestr(name, payload)
    return out.getvalue()


def _swap_meta(rng, entries):
    out = []
    for name, payload in entries:
        if name == "meta.json":
            meta = json.loads(payload)
            key = rng.choice(sorted(meta))
            payload = _dump(meta | {key: _swap(rng, meta[key])})
        out.append((name, payload))
    return out


def _drop_entry(rng, entries):
    del entries[rng.randrange(len(entries))]
    return entries


def _double_entry(rng, entries):
    return entries + [entries[rng.randrange(len(entries))]]


def mutants(name: str, blob: bytes, rng: random.Random, per_kind: int):
    """(kind, bytes) pairs: *per_kind* mutants of each kind that applies to *name*."""
    kinds = {
        "truncate": lambda: blob[:rng.randrange(len(blob))],
        "flip": lambda: _flip(rng, blob),
    }
    if name in CONTAINERS:
        kinds["drop entry"] = lambda: _rezip(blob, lambda e: _drop_entry(rng, e))
        kinds["double entry"] = lambda: _rezip(blob, lambda e: _double_entry(rng, e))
        kinds["swap meta"] = lambda: _rezip(blob, lambda e: _swap_meta(rng, e))
    else:
        kinds["drop line"] = lambda: _edit_lines(rng, blob, lambda lines, i: lines.pop(i))
        kinds["double line"] = lambda: _edit_lines(
            rng, blob, lambda lines, i: lines.insert(i, lines[i]))
    if name in JSON_DOCS:
        kinds["swap"] = lambda: (json.dumps(_swap_somewhere(rng, json.loads(blob)), indent=2)
                                 .encode())
    elif name.endswith((".jsonl", ".json")):
        kinds["swap"] = lambda: _swap_record(rng, blob)
    for kind, make in kinds.items():
        for _ in range(per_kind):
            yield kind, make()


def _flip(rng, blob):
    i = rng.randrange(len(blob))
    return blob[:i] + bytes([blob[i] ^ rng.randrange(1, 256)]) + blob[i + 1:]


def _edit_lines(rng, blob, edit):
    lines = blob.splitlines(keepends=True)
    edit(lines, rng.randrange(len(lines)))
    return b"".join(lines)


def _swap_record(rng, blob):
    header, *records = blob.splitlines()
    i = rng.randrange(len(records))
    records[i] = _dump(_swap_somewhere(rng, json.loads(records[i])))
    return b"\n".join([header, *records]) + b"\n"


def all_mutants(run, seed=20240601):
    rng = random.Random(seed)
    for name in [*sorted(CONSUMERS), *DOCS]:
        for kind, blob in mutants(name, (run / name).read_bytes(), rng, per_kind=6):
            yield name, kind, blob


def test_every_mutant_loads_or_fails_with_a_format_error(pristine, tmp_path):
    table = readers(pristine)
    outcomes = {}
    for name, kind, blob in all_mutants(pristine):
        path = tmp_path / name
        path.write_bytes(blob)
        try:
            table[name](path)
            outcome = "loaded"
        except (storage.FormatError, cli.StageError) as exc:
            outcome = "rejected"
            assert str(path) in str(exc), (name, kind, exc)
        outcomes.setdefault(name, set()).add(outcome)
    # every artifact had some mutant rejected, so the damage reached each reader
    assert all("rejected" in seen for seen in outcomes.values()), outcomes


def _run_verb(run, verb, config):
    """Exit code and stderr of *verb* in *run*; a trailing ``--vectors`` gets test.jsonl."""
    argv = list(verb)
    if argv[-1] == "--vectors":
        argv.append(str(run / cli.TEST_FILE))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--run-dir", str(run), "--config", str(config)])
    return code, err.getvalue()


def _install(run, name, blob):
    """Write *blob* as *name* and re-record its digest wherever a stage recorded it."""
    (run / name).write_bytes(blob)
    if name == cli.MANIFEST_FILE:
        return
    manifest_path = run / cli.MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["stages"].values():
        if name in entry["outputs"]:
            entry["outputs"][name] = storage.file_sha256(run / name)
    manifest_path.write_text(json.dumps(manifest))


def test_verbs_fail_on_mutants_with_one_error_line(pristine, tmp_path):
    sampled = [m for m in all_mutants(pristine) if CONSUMERS.get(m[0])][::4]
    assert 90 <= len(sampled) <= 130
    assert _verb_exit_codes(pristine, tmp_path, sampled) == {0, 1}


def test_verbs_fail_on_stored_result_mutants_with_one_error_line(pristine, tmp_path):
    sampled = [m for m in all_mutants(pristine) if m[0] in DOCS]
    assert _verb_exit_codes(pristine, tmp_path, sampled) == {0, 1}


def _verb_exit_codes(pristine, tmp_path, sampled):
    """Exit codes of each mutant's verb, checking that a failure is one error line."""
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(TINY))
    codes = set()
    for i, (name, kind, blob) in enumerate(sampled):
        run = tmp_path / f"run{i}"
        shutil.copytree(pristine, run)
        verb = CONSUMERS.get(name) or DOCS[name]
        if name == cli.CONFIG_FILE:
            mutant_config = tmp_path / f"config{i}.json"
            mutant_config.write_bytes(blob)
            code, err = _run_verb(run, verb, mutant_config)
        else:
            _install(run, name, blob)
            code, err = _run_verb(run, verb, config)
        errors = [line for line in err.splitlines() if line.startswith("error [")]
        assert code in (0, 1), (name, kind, code)
        assert len(errors) == (code == 1) and "Traceback" not in err, (name, kind, err)
        codes.add(code)
        shutil.rmtree(run)
    return codes


def _meta_edit(**changes):
    """A container edit that sets meta keys, or deletes those set to None."""
    def edit(entries):
        out = []
        for name, payload in entries:
            if name == "meta.json":
                meta = json.loads(payload) | changes
                payload = _dump({k: v for k, v in meta.items() if v is not None})
            out.append((name, payload))
        return out
    return edit


def _drop(entry):
    return lambda entries: [(name, payload) for name, payload in entries if name != entry]


def _first_record(**changes):
    def edit(blob):
        header, first, *rest = blob.splitlines()
        return b"\n".join([header, _dump(json.loads(first) | changes), *rest]) + b"\n"
    return edit


def _doc_edit(**changes):
    return lambda blob: _dump(json.loads(blob) | changes)


def _half(blob):
    return blob[:len(blob) // 2]


# (file, edit of its bytes, consuming verb) for each malformed case that once escaped
CASES = {
    "truncated encoders.zip": (cli.ENCODERS_FILE, _half, CALIBRATE),
    "truncated defense.zip": (cli.BUNDLE_FILE, _half, DEFEND),
    "no meta.json": (cli.ENCODERS_FILE, lambda b: _rezip(b, _drop("meta.json")), CALIBRATE),
    "no ps array": (cli.BUNDLE_FILE, lambda b: _rezip(b, _drop("ps.npy")), DEFEND),
    "no weights array": (cli.DETECTOR_FILE, lambda b: _rezip(b, _drop("weights.npy")), DEFEND),
    "no e0000_eps_w0 array": (cli.ENCODERS_FILE,
                              lambda b: _rezip(b, _drop("e0000_eps_w0.npy")), CALIBRATE),
    "no threshold": (cli.BUNDLE_FILE, lambda b: _rezip(b, _meta_edit(threshold=None)), DEFEND),
    "no kind": (cli.DETECTOR_FILE, lambda b: _rezip(b, _meta_edit(kind=None)), CALIBRATE),
    "string epochs": (cli.ENCODERS_FILE, lambda b: _rezip(b, _meta_edit(epochs="x")), CALIBRATE),
    "list sample id": (cli.TEST_FILE, _first_record(id=["x"]), DEFEND),
    "list perturbation id": (cli.PERTURBATIONS_FILE, _first_record(id=["x"]), ["quantify"]),
    "partition dim below 1": (cli.PARTITION_FILE, _first_record(dim=-1, ips=[], ps=[]), CALIBRATE),
    "manifest list": (cli.MANIFEST_FILE, lambda b: b"[1]\n", ["evaluate"]),
    "calibration list": (cli.CALIBRATION_FILE, lambda b: b"[1]\n", ["build-defense"]),
    "evaluation without k_list": (cli.EVALUATION_JSON, lambda b: b"{}\n", ["report"]),
    "evaluation k_list [0]": (cli.EVALUATION_JSON, _doc_edit(k_list=[0]), ["report"]),
    "calibration control_rate 100": (cli.CALIBRATION_FILE, _doc_edit(control_rate=100.0),
                                     ["build-defense"]),
}


@pytest.mark.parametrize("case", CASES)
def test_malformed_artifact_fails_its_verb_naming_the_file(pristine, tmp_path, case):
    name, edit, verb = CASES[case]
    run = tmp_path / "run"
    shutil.copytree(pristine, run)
    _install(run, name, edit((run / name).read_bytes()))
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(TINY))
    code, err = _run_verb(run, verb, config)
    assert code == 1
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error [{verb[0]}]: {run / name}:"), err  # then a line number, if any


def test_attack_rejects_the_pipeline_target(pristine, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(pristine, run)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**TINY, "attack": {**TINY["attack"], "target": "pipeline"}}))
    code, err = _run_verb(run, ["attack", "--mode", "greedy"], config)
    assert code == 1
    assert err.startswith("error [attack]: target must be one of") and err.count("\n") == 1


def test_removed_config_keys_are_rejected(pristine, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(pristine, run)
    config = tmp_path / "exp.json"
    for section, key, value, verb in (("pseudo", "mode", "add", "gen-pseudo"),
                                      ("calibration", "method", "linear", "calibrate")):
        config.write_text(json.dumps({**TINY, section: {**TINY.get(section, {}), key: value}}))
        code, err = _run_verb(run, [verb], config)
        assert code == 1
        assert err == f"error [{verb}]: config {config}: unknown key '{section}.{key}'\n"
