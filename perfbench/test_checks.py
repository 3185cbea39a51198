"""Self-test of the benchmark's output checks: every workload's checks pass
on its real outputs, and each check fails on a deliberately corrupted
output. Workloads run here at small sizes.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from svkit import calibration, clustering, scoring  # noqa: E402

SMALL = {
    "vox-cohort": dict(eval_speakers=10, eval_trials=400,
                       cohort_speakers=120, cal_speakers=20, per_class=100),
    "vox-trials": dict(eval_speakers=10, cal_speakers=10, utts=10,
                       cohort_speakers=120, eval_trials=1000, cal_trials=400),
    "pseudo-label": dict(speakers=20, utts=10, k_centers=60, trials=400),
    "loss-check": dict(instances=3),
}


def failed_checks(wl, inp, out):
    return {name for name, _ in
            checks.run_all(wl.checks(inp, out, np.random.default_rng(0)))}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """name -> (workload, inputs, outputs) of one small run, made once."""
    cache = {}

    def get(name):
        if name not in cache:
            wl = type(workloads.WORKLOADS[name])()
            for attr, value in SMALL[name].items():
                setattr(wl, attr, value)
            ops = workloads.Ops()
            seeds = np.random.SeedSequence(7).generate_state(8)
            inp = wl.setup(str(tmp_path_factory.mktemp(name)), seeds, ops)
            out = wl.run(inp, ops, None)
            assert ops.failed == 0
            cache[name] = wl, inp, out
        return cache[name]

    return get


@pytest.mark.parametrize("name", list(SMALL))
def test_checks_pass_on_real_outputs(small_run, name):
    assert failed_checks(*small_run(name)) == set()


def _rewrite(path, fn):
    """Apply fn(index, line) -> line to a text file; returns the original
    text for restoring."""
    text = Path(path).read_text()
    lines = text.splitlines()
    Path(path).write_text(
        "\n".join(fn(i, line) for i, line in enumerate(lines)) + "\n")
    return text


def _scale_score(factor, only=None):
    def fn(i, line):
        if only is not None and i != only:
            return line
        e, t, s = line.split()
        return f"{e} {t} {float(s) * factor:.9g}"
    return fn


def _bump(score_set, delta):
    return score_set.with_scores(score_set.scores + delta)


def _vox_cohort_corruptions(inp, out):
    final = out["final"]
    ct = out["cal_trials"]
    flipped = ct.labels.copy()
    flipped[0] ^= 1
    qa = out["qa"]
    return {
        "cosine_score": {"raw": _bump(out["raw"], 1e-9)},
        "snorm": {"normed": _bump(out["normed"], 1e-9)},
        "trial_qmfs": {"qmfs": [dataclasses.replace(q, max_imp_q=q.max_imp_q + 1e-9)
                                for q in out["qmfs"]]},
        "gen_calibration_trials": {"cal_trials": scoring.TrialList(
            ct.enroll_ids, ct.test_ids, flipped)},
        "fit_logreg": {"qa": calibration.CalibrationModel(
            qa.weights, qa.bias + 1e-3, qa.feature_names)},
        "apply_calibration": {"final": _bump(final, 1e-9)},
        "detection_metrics": {"claimed": {**out["claimed"],
                                          "min_dcf": out["claimed"]["min_dcf"] + 1e-9}},
    }


def _pseudo_label_corruptions(inp, out):
    assignment = dict(out["labeling"].assignment)
    first = next(iter(assignment))
    assignment[first] = (assignment[first] + 1) % out["labeling"].num_clusters
    km = out["km"]
    return {
        "kmeans_file": {"km": clustering.KMeansModel(
            km.centers, km.counts + (np.arange(km.k) == 0))},
        "assign_pseudo_labels": {"labeling": dataclasses.replace(
            out["labeling"], assignment=assignment)},
        "adjusted_rand_index": {"ari": out["ari"] + 1e-9},
        "sweep_and_iterate": {"records": out["records"][:-1]},
    }


def _loss_check_corruptions(inp, out):
    return {"gradients": {"errors": {**out["errors"], "moco": 1e-3}}}


@pytest.mark.parametrize("name", ["vox-cohort", "pseudo-label", "loss-check"])
def test_each_check_fails_on_corrupted_output(small_run, name):
    wl, inp, out = small_run(name)
    cases = {
        "vox-cohort": _vox_cohort_corruptions,
        "pseudo-label": _pseudo_label_corruptions,
        "loss-check": _loss_check_corruptions,
    }[name](inp, out)
    assert {n for n, _ in wl.checks(inp, out, np.random.default_rng(0))} \
        - {"write_scores"} == set(cases)
    for check_name, replaced in cases.items():
        assert check_name in failed_checks(wl, inp, {**out, **replaced}), \
            check_name

    if name == "vox-cohort":
        original = _rewrite(inp["scores_out"], _scale_score(1 + 1e-6, only=0))
        try:
            assert "write_scores" in failed_checks(wl, inp, out)
        finally:
            Path(inp["scores_out"]).write_text(original)


def test_vox_trials_file_corruptions(small_run):
    wl, inp, out = small_run("vox-trials")

    def qmf_line(i, line):
        if i == 0:
            return line
        utt, dur, imp = line.split(",")
        return f"{utt},{dur},{float(imp) + 1e-9!r}"

    p = inp
    files = {
        "cli_score_files": (f"{p['eval']}_rawA.txt", _scale_score(1 + 1e-6, 0)),
        "snorm": (f"{p['eval']}_snA.txt", _scale_score(1 + 1e-6)),
        "fuse": (f"{p['eval']}_fused.txt", _scale_score(1 + 1e-6, 0)),
        "qmf": (f"{p['A']}_qmf.csv", qmf_line),
        "apply_cal": (f"{p['eval']}_cal.txt", _scale_score(1 + 1e-6, 0)),
    }
    for check_name, (path, fn) in files.items():
        original = _rewrite(path, fn)
        try:
            assert check_name in failed_checks(wl, inp, out), check_name
        finally:
            Path(path).write_text(original)

    model_path = Path(f"{p['cal']}_model.json")
    original = model_path.read_text()
    model = json.loads(original)
    model["bias"] += 1e-3
    model_path.write_text(json.dumps(model))
    try:
        assert "fit_cal" in failed_checks(wl, inp, out)
    finally:
        model_path.write_text(original)

    claimed = {**out["claimed"], "eer_pct": out["claimed"]["eer_pct"] + 1e-9}
    assert "detection_metrics" in failed_checks(wl, inp, {"claimed": claimed})


def test_detection_check_catches_a_wrong_metric_function(small_run,
                                                         monkeypatch):
    _, _, out = small_run("vox-cohort")
    real = checks.metrics.min_dcf
    monkeypatch.setattr(checks.metrics, "min_dcf",
                        lambda s, p: real(s, p) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="MinDCF"):
        checks.check_detection_metrics(out["final"], out["claimed"],
                                       workloads.P_TARGET,
                                       np.random.default_rng(0))


def test_gradient_check_rejects_nan():
    with pytest.raises(checks.CheckFailed):
        checks.check_gradients({"aam": float("nan")})


def test_run_all_counts_a_crashing_check_as_failed():
    def boom():
        raise KeyError("eer_pct")

    assert [n for n, _ in checks.run_all([("ok", lambda: None),
                                          ("boom", boom)])] == ["boom"]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(n, workloads.WORKLOADS[n].why) for n in run.NAMES]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == workloads.per_layer_defs()


def test_speed_probe_rescales_by_the_median_probe_time():
    probe = speed.SpeedProbe()
    probe._starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    probe._times = [2e-4, 2e-4, 4e-4, 2e-4, 1e-4]
    assert probe.rescaled(0.5, 4.5) == pytest.approx(4.0 * speed.REFERENCE_S / 2e-4)
    # fewer than three samples inside: widen to the neighbours
    assert probe.scale(2.5, 3.5) == pytest.approx(speed.REFERENCE_S / 2e-4)
