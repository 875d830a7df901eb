"""Perturbation grammar semantics, the built-in probe apps and the grammar file."""
import pytest

from malguard.data import FormatError
from malguard import problem_space
from malguard.problem_space import Perturbation


def pert(pid="p0", adds=(3,), requires=(), forbids=()):
    return Perturbation(
        id=pid,
        kind="inject",
        adds=frozenset(adds),
        requires=frozenset(requires),
        forbids=frozenset(forbids),
    )


def test_perturbation_rejects_conflicting_sets():
    with pytest.raises(ValueError):
        pert(requires=(2,), forbids=(2,))
    with pytest.raises(ValueError):
        pert(adds=())
    with pytest.raises(ValueError):
        pert(adds=(-1,))
    with pytest.raises(ValueError):
        Perturbation("", "inject", frozenset({1}), frozenset(), frozenset())


def test_applicable_checks_requires_and_forbids():
    p = pert(adds=(5,), requires=(1,), forbids=(2,))
    assert p.applicable(frozenset({1}))
    assert not p.applicable(frozenset())          # missing requirement
    assert not p.applicable(frozenset({1, 2}))    # forbidden bit present


def test_builtin_quantification_apps():
    apps = problem_space.builtin_quantification_apps(16, main_activity=9)
    assert apps == [frozenset(), frozenset({9})]
    for bad in (-1, 16):
        with pytest.raises(ValueError, match="out of range"):
            problem_space.builtin_quantification_apps(16, main_activity=bad)


def test_perturbations_round_trip(tmp_path):
    perts = [
        pert("a", adds=(1, 2)),
        pert("b", adds=(4,), requires=(0,), forbids=(7,)),
    ]
    p = tmp_path / "perts.jsonl"
    problem_space.save_perturbations(perts, p)
    first = p.read_bytes()
    back = problem_space.load_perturbations(p)
    assert back == perts
    problem_space.save_perturbations(back, p)
    assert p.read_bytes() == first


def test_load_perturbations_rejects_garbage(tmp_path):
    p = tmp_path / "perts.jsonl"
    p.write_text("#addfmt v1\n{\"id\": \"x\"}\n")
    with pytest.raises(FormatError):
        problem_space.load_perturbations(p)
