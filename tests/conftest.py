"""Session fixtures for the acceptance suite.

One planted benchmark at generator defaults is built once and shared by the
acceptance criteria; everything downstream (splits, detector, partition,
pseudo set, encoder checkpoints, stored attack traces) hangs off it. Build
times land in the ``timings`` dict so runtime budgets that include training
can be checked honestly.
"""
import time

import pytest

from malguard import attacks, calibration, data, detectors, encoders, pipeline
from malguard import problem_space, pseudo, quantify, synthetic

_criterion_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance gate at the end of the run."""
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def announce():
    """PASS/FAIL reporter for the acceptance gates.

    Capture swallows plain prints for passing tests, so every line is also
    queued for the terminal summary, where it shows regardless.
    """

    def _announce(num: int, name: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {num}] {status} {name}: {detail}"
        print(line)
        _criterion_lines.append(line)

    return _announce


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def bench():
    return synthetic.generate(synthetic.GeneratorConfig(seed=0))


@pytest.fixture(scope="session")
def splits(bench):
    return data.split_random(bench.dataset, (0.5, 0.2, 0.3), 7)


@pytest.fixture(scope="session")
def detector(splits):
    return detectors.train_linear(splits[0], seed=11)


@pytest.fixture(scope="session")
def partition(bench):
    apps = problem_space.builtin_quantification_apps(
        bench.config.dim, bench.layout.main_activity
    )
    return quantify.quantify(bench.dataset.space, apps, list(bench.perturbations))


@pytest.fixture(scope="session")
def pam(splits, detector, partition, timings):
    t0 = time.perf_counter()
    out = pseudo.generate(
        splits[0].by_label(data.MALICIOUS), detector, partition,
        budget=100, flip_limit=20, seed=3,
    )
    timings["pseudo"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def series(splits, pam, partition, timings):
    t0 = time.perf_counter()
    out = encoders.train(splits[0], pam, partition, encoders.TrainConfig(epochs=50, seed=5))
    timings["encoders"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def attack_targets(splits, detector):
    """Test-split malware the detector catches; the population under attack."""
    test = splits[2]
    return [s for s in test.by_label(data.MALICIOUS) if detector.is_malicious(s.vector)][:200]


@pytest.fixture(scope="session")
def greedy_traces(attack_targets, detector, partition, bench, timings):
    cfg = attacks.AttackConfig(query_budget=10, seed=21)
    t0 = time.perf_counter()
    traces = attacks.attack_suite(
        attack_targets, attacks.detector_oracle(detector, with_scores=True),
        list(bench.perturbations), partition, cfg,
    )
    timings["greedy"] = time.perf_counter() - t0
    return traces


@pytest.fixture(scope="session")
def score_table(splits, detector, series, partition):
    """Per-epoch TN/FN scores of the calibration split, shared by every budget."""
    return calibration.score_table(splits[1], detector, series, partition)


@pytest.fixture(scope="session")
def bundle_at(detector, series, partition, score_table):
    """Calibrated defense bundle per TNIR budget, memoized."""
    cache = {}

    def get(control_rate):
        if control_rate not in cache:
            res = calibration.calibrate_table(score_table, control_rate)
            cache[control_rate] = pipeline.bundle_from_calibration(
                series, res, detector, partition
            )
        return cache[control_rate]

    return get
