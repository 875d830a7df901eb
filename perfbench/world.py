"""Set-up of one benchmark run: the run directory a workload starts from.

Every workload starts from a run directory built by the malguard verbs at the
default benchmark size (10,000 samples, 2,000 features, default encoder
widths) with the root seed taken from ``--seed``. Only ``encoders.epochs`` is
reduced, to keep a run short. The verbs are driven in process through
``malguard.cli.main``; their printed output is captured, not shown.

Run as a script, this module builds one run directory and exits, so the
benchmark can time set-up in a process of its own:

    python3 perfbench/world.py <workload> <seed> <run_dir>
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

# One BLAS thread: the steadiest setting measured for encoder training and
# per-vector scoring. It must be fixed before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EPOCHS = 2
CONFIG_NAME = "perfbench-config.json"
# The file the serve workload streams through the ``defend`` verb.
STREAM_FILE = "stream.jsonl"
FINALS_FILE = "greedy-finals.jsonl"

WORLD_VERBS = (("synth",), ("split",), ("train-detector",), ("quantify",))
BUILD_VERBS = (("gen-pseudo",), ("train-encoders",), ("calibrate",), ("build-defense",))
ATTACK_VERBS = (
    ("attack", "--mode", "greedy"),
    ("attack", "--mode", "adaptive1", "--samples", "100"),
    ("attack", "--mode", "adaptive2", "--samples", "100"),
)
EVALUATE_VERBS = ATTACK_VERBS + (
    ("evaluate", "--k", "10", "--k", "5", "--k", "1"),
    ("report",),
)

SETUP_VERBS = {
    "build": WORLD_VERBS,
    "evaluate": WORLD_VERBS + BUILD_VERBS,
    "serve": WORLD_VERBS + BUILD_VERBS + ATTACK_VERBS[:1],
}
TIMED_VERBS = {"build": BUILD_VERBS, "evaluate": EVALUATE_VERBS}


class VerbFailed(RuntimeError):
    pass


def import_malguard() -> None:
    """Import the program from the checkout's ``src`` tree.

    The CLI imports every module and scipy with them, about a second; done
    here, before any timing, so that the first timed round does not pay it.
    """
    if not (SRC / "malguard" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no malguard sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import malguard.cli  # noqa: F401


def run_verbs(run_dir: Path, seed: int, verbs) -> None:
    """Run CLI verbs in process, their output captured; stop at a failure."""
    from malguard import cli

    for argv in verbs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main([*argv, "--run-dir", str(run_dir),
                             "--config", str(run_dir / CONFIG_NAME), "--seed", str(seed)])
        if code != 0:
            raise VerbFailed(f"{' '.join(argv)} exited {code}: {out.getvalue().strip()[-400:]}")


def prepare(workload: str, seed: int, run_dir: Path) -> None:
    """Build the run directory *workload* starts from."""
    import_malguard()
    from malguard import attacks, data

    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / CONFIG_NAME).write_text(json.dumps({"encoders": {"epochs": EPOCHS}}))
    run_verbs(run_dir, seed, SETUP_VERBS[workload])
    if workload != "serve":
        return
    space = data.load_feature_space(run_dir / "space.txt")
    calib = data.read_dataset(run_dir / "calib.jsonl", space)
    test = data.read_dataset(run_dir / "test.jsonl", space)
    by_id = {s.id: s for s in test.samples}
    finals = [
        data.Sample(f"{t.sample_id}~greedy", t.final_vector, data.MALICIOUS,
                    by_id[t.sample_id].ts)
        for t in attacks.load_traces(run_dir / "traces-greedy.jsonl", space.dim)
        if t.success
    ]
    data.save_dataset(data.Dataset(space, tuple(finals)), run_dir / FINALS_FILE)
    stream = calib.samples + test.samples + tuple(finals)
    data.save_dataset(data.Dataset(space, stream), run_dir / STREAM_FILE)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in SETUP_VERBS:
        raise SystemExit("usage: world.py {build,evaluate,serve} <seed> <run_dir>")
    try:
        prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    except VerbFailed as exc:
        raise SystemExit(f"perfbench set-up: {exc}") from None
