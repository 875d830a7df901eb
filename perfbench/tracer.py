"""Per-layer spans and counts for the traced benchmark run.

The tracer replaces public functions and methods of the malguard modules with
wrappers that record a span per call: the span's duration, added to its
name's total, and its self time, the duration minus the time covered by the
spans it caused. Spans nest on one stack because the program is single
threaded. Counts are taken at the same boundaries from arguments and
results. Nothing is written out until the run ends; ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

MB = 1 << 20


def _rows(arg_index):
    return lambda args, kwargs, result: args[arg_index].shape[0]


def _file_mb(args, kwargs, result):
    return os.path.getsize(args[0]) / MB


def _pseudo_counts(counts, args, kwargs, result):
    sources, budget = len(args[0]), kwargs.get("budget", 100)
    counts["pseudo.sources"] += sources
    counts["pseudo.accepted"] += len(result)
    # Each accepted sample records the attempt that hit; a dropped source
    # used its whole budget.
    counts["pseudo.attempts"] += (sum(p.attempts_used for p in result)
                                  + (sources - len(result)) * budget)


def _queries(args, kwargs, result):
    traces = result if isinstance(result, list) else [result]
    return sum(t.queries_used for t in traces)


def _served(counts, audits):
    counts["pipeline.served"] += len(audits)
    counts["pipeline.revisited"] += sum(a.revisited for a in audits)


def _detect_counts(counts, args, kwargs, result):
    _served(counts, [result[1]])


def _batch_counts(counts, args, kwargs, result):
    _served(counts, result)
    counts["pipeline.defended_run_rows"] += len(result)


def targets():
    """(owner, attribute, span name, counter) for every wrapped boundary.

    A counter is either None, a (count name, function of args/kwargs/result)
    pair, or a function updating the counts itself.
    """
    from malguard import (attacks, calibration, cli, data, detectors, encoders,
                          nnet, pipeline, pseudo, quantify, storage, synthetic)

    verbs = [(cli, f"cmd_{name}", f"cli.{name}", None) for name in (
        "synth", "split", "train_detector", "quantify", "gen_pseudo",
        "train_encoders", "calibrate", "build_defense", "attack", "defend",
        "evaluate", "report")]
    return verbs + [
        (detectors.LinearModel, "score_vector", "detectors.score_vector", None),
        (detectors.LinearModel, "decision_scores", "detectors.decision_scores", None),
        (storage, "save_container", "storage.save",
         ("storage.save_mb", _file_mb)),
        (storage, "load_container", "storage.load",
         ("storage.load_mb", _file_mb)),
        (storage, "file_sha256", "storage.sha256",
         ("storage.sha256_mb", _file_mb)),
        (data, "read_dataset", "data.read",
         ("data.rows_read", lambda a, k, r: len(r))),
        (nnet, "forward", "nnet.forward", ("nnet.forward_rows", _rows(1))),
        (nnet, "backward", "nnet.backward", None),
        (nnet.Adam, "step", "nnet.adam", None),
        (encoders, "train", "encoders.train", None),
        (encoders, "batch_loss", "encoders.batch_loss", None),
        (encoders, "batch_scores", "encoders.batch_scores",
         ("encoders.batch_scores_rows", _rows(2))),
        (encoders, "incompatibility_score", "encoders.score_vector", None),
        (encoders.CheckpointSeries, "save", "encoders.series_save", None),
        (encoders.CheckpointSeries, "load", "encoders.series_load", None),
        (calibration, "calibrate", "calibration.calibrate",
         ("calibration.checkpoints_scored", lambda a, k, r: len(r.table))),
        (pseudo, "generate", "pseudo.generate", _pseudo_counts),
        (detectors, "model_digest", "detectors.digest", None),
        (detectors, "train_linear", "detectors.train", None),
        (pipeline, "detect", "pipeline.detect", _detect_counts),
        (pipeline, "defended_run", "pipeline.defended_run", _batch_counts),
        (pipeline, "load_bundle", "pipeline.load_bundle", None),
        (attacks, "attack_suite", "attacks.greedy",
         ("attacks.queries", _queries)),
        (attacks, "adaptive_attack_1", "attacks.adaptive1",
         ("attacks.queries", _queries)),
        (attacks, "adaptive_attack_2", "attacks.adaptive2",
         ("attacks.queries", _queries)),
        (attacks, "evaluate_defense", "attacks.evaluate_defense", None),
        (attacks, "offline_defense_rates", "attacks.offline_rates", None),
        (synthetic, "generate", "synthetic.generate", None),
        (quantify, "quantify", "quantify.quantify", None),
    ]


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.total, self.self_time, self.calls, self.counts):
            table.clear()

    def _wrap(self, fn, name, counter):
        stack = self._stack
        total, self_time, calls, counts = self.total, self.self_time, self.calls, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - children[0]
                calls[name] += 1
            if isinstance(counter, tuple):
                counts[counter[0]] += counter[1](args, kwargs, result)
            elif counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        for owner, attr, name, counter in targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            setattr(owner, attr, wrapped)
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, by the names the benchmark declares."""
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        out = {f"cli.{verb}_s": t[f"cli.{verb}"] for verb in (
            "gen_pseudo", "train_encoders", "calibrate", "build_defense",
            "attack", "evaluate", "report", "defend")}
        out["cli.self_s"] = sum(v for k, v in s.items() if k.startswith("cli."))
        for op in ("save", "load", "sha256"):
            out[f"storage.{op}_s"] = t[f"storage.{op}"]
            out[f"storage.{op}_mb"] = c[f"storage.{op}_mb"]
        out["data.read_s"] = t["data.read"]
        out["data.rows_read"] = c["data.rows_read"]
        out["nnet.forward_s"] = t["nnet.forward"]
        out["nnet.forward_calls"] = n["nnet.forward"]
        out["nnet.forward_rows"] = c["nnet.forward_rows"]
        out["nnet.backward_s"] = t["nnet.backward"]
        out["nnet.backward_calls"] = n["nnet.backward"]
        out["nnet.adam_s"] = t["nnet.adam"]
        out["nnet.adam_steps"] = n["nnet.adam"]
        out["encoders.train_s"] = t["encoders.train"]
        out["encoders.batch_loss_s"] = t["encoders.batch_loss"]
        out["encoders.train_self_s"] = s["encoders.train"]
        out["encoders.batch_scores_s"] = t["encoders.batch_scores"]
        out["encoders.batch_scores_rows"] = c["encoders.batch_scores_rows"]
        out["encoders.score_vector_s"] = t["encoders.score_vector"]
        out["encoders.score_vector_calls"] = n["encoders.score_vector"]
        out["encoders.series_save_s"] = t["encoders.series_save"]
        out["encoders.series_load_s"] = t["encoders.series_load"]
        out["calibration.calibrate_s"] = t["calibration.calibrate"]
        out["calibration.calibrate_calls"] = n["calibration.calibrate"]
        out["calibration.checkpoints_scored"] = c["calibration.checkpoints_scored"]
        out["pseudo.generate_s"] = t["pseudo.generate"]
        for name in ("attempts", "accepted", "sources"):
            out[f"pseudo.{name}"] = c[f"pseudo.{name}"]
        out["detectors.score_vector_s"] = t["detectors.score_vector"]
        out["detectors.score_vector_calls"] = n["detectors.score_vector"]
        out["detectors.decision_scores_s"] = t["detectors.decision_scores"]
        out["detectors.digest_s"] = t["detectors.digest"]
        out["detectors.digest_calls"] = n["detectors.digest"]
        out["pipeline.detect_calls"] = n["pipeline.detect"]
        out["pipeline.detect_self_s"] = s["pipeline.detect"]
        out["pipeline.revisited"] = c["pipeline.revisited"]
        out["pipeline.served"] = c["pipeline.served"]
        out["pipeline.defended_run_s"] = t["pipeline.defended_run"]
        out["pipeline.defended_run_rows"] = c["pipeline.defended_run_rows"]
        out["pipeline.load_bundle_s"] = t["pipeline.load_bundle"]
        for name in ("greedy", "adaptive1", "adaptive2"):
            out[f"attacks.{name}_s"] = t[f"attacks.{name}"]
        out["attacks.queries"] = c["attacks.queries"]
        out["attacks.evaluate_defense_s"] = t["attacks.evaluate_defense"]
        out["attacks.offline_rates_s"] = t["attacks.offline_rates"]
        out["synthetic.generate_s"] = t["synthetic.generate"]
        out["quantify.quantify_s"] = t["quantify.quantify"]
        out["detectors.train_s"] = t["detectors.train"]
        return out


SETUP_METRICS = ("synthetic.generate_s", "quantify.quantify_s", "detectors.train_s",
                 "pipeline.load_bundle_s")
