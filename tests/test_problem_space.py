"""Perturbation grammar semantics and the app transformation model."""
import pytest

from malguard.data import FeatureVector, FormatError
from malguard import problem_space
from malguard.problem_space import AppModel, InapplicableError, Perturbation, apply


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


def test_apply_adds_features():
    app = AppModel(FeatureVector.make([0], 8), 8)
    out = apply(app, pert(adds=(3, 4)))
    assert out.effective() == frozenset({0, 3, 4})
    assert out.applied_ids == ("p0",)
    # base app is untouched
    assert app.effective() == frozenset({0})


def test_apply_is_idempotent_on_features():
    app = AppModel(FeatureVector.make([0, 3], 8), 8)
    out = apply(app, pert(adds=(3,)))
    assert out.effective() == frozenset({0, 3})


def test_apply_rejects_inapplicable():
    app = AppModel(FeatureVector.make([2], 8), 8)
    with pytest.raises(InapplicableError):
        apply(app, pert(requires=(1,)))
    with pytest.raises(InapplicableError):
        apply(app, pert(forbids=(2,)))


def test_effective_reflects_applied_stack():
    app = AppModel(FeatureVector.make([1], 8), 8)
    app = apply(app, pert("a", adds=(2,)))
    app = apply(app, pert("b", adds=(5,), requires=(2,)))
    assert app.effective() == frozenset({1, 2, 5})


def test_builtin_quantification_apps():
    apps = problem_space.builtin_quantification_apps(16, main_activity=9)
    assert len(apps) == 2
    effectives = [a.effective() for a in apps]
    assert frozenset() in effectives
    assert frozenset({9}) in effectives


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
