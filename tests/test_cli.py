import argparse
import json
import math
import re
import struct

import numpy as np
import pytest

from svkit import (
    EmbeddingSet,
    TrialList,
    UttMeta,
    build_cohort,
    cosine_score,
    length_normalize,
    read_embeddings,
    read_metadata,
    read_scores,
    read_trials,
    snorm,
    synth_dataset,
    write_embeddings,
    write_metadata,
    write_scores,
    write_trials,
)
from svkit import cli
from svkit.cli import build_parser, run
from svkit.clustering import minibatch_kmeans, read_labels, write_kmeans
from svkit.embeddings import _RECORD_BLOCK
from svkit.metrics import det_points
from svkit.scoring import ScoreSet
from svkit.trainmath import clr_triangular2


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1]) if out else None
    return code, payload


def test_help(capsys):
    assert run(["--help"]) == 0


def test_usage_error():
    assert run(["no-such-command"]) == 1


def test_data_error(capsys):
    assert run(["metrics", "--trials", "/nonexistent", "--scores",
                "/nonexistent"]) == 2


def test_metrics_perfect_separation(tmp_path, capsys):
    trials = tmp_path / "t.txt"
    scores = tmp_path / "s.txt"
    trials.write_text("a x 1\nb y 1\nc z 0\nd w 0\n")
    scores.write_text("a x 0.9\nb y 0.8\nc z 0.3\nd w 0.2\n")
    code, payload = _run(capsys, "metrics", "--trials", str(trials),
                         "--scores", str(scores), "--p-target", "0.01")
    assert code == 0
    assert payload["eer_pct"] == 0.0
    assert payload["min_dcf"] == 0.0


def test_det_out_matches_per_point_lines(tmp_path, capsys):
    rng = np.random.default_rng(12)
    trials = tmp_path / "t.txt"
    scores = tmp_path / "s.txt"
    labels = rng.integers(0, 2, size=300)
    values = rng.normal(size=300) + labels
    trials.write_text("".join(f"e{i} t{i} {lab}\n"
                              for i, lab in enumerate(labels)))
    scores.write_text("".join(f"e{i} t{i} {v:.17g}\n"
                              for i, v in enumerate(values)))
    det = tmp_path / "det.csv"
    code, _ = _run(capsys, "metrics", "--trials", str(trials),
                   "--scores", str(scores), "--det-out", str(det))
    assert code == 0
    ref = "p_fa,p_miss\n"
    p_fa, p_miss = det_points(read_scores(scores, read_trials(trials)))
    for fa, miss in zip(p_fa.tolist(), p_miss.tolist()):
        ref += f"{fa:.9g},{miss:.9g}\n"
    assert det.read_bytes() == ref.encode()


@pytest.mark.parametrize("points", [4, _RECORD_BLOCK - 1, _RECORD_BLOCK,
                                    _RECORD_BLOCK + 1, 2 * _RECORD_BLOCK + 3])
def test_det_out_matches_one_shot_format_at_block_edges(tmp_path, capsys,
                                                        points):
    # n distinct scores give n + 2 points: one threshold below them all,
    # one per score and one above them all
    n = points - 2
    rng = np.random.default_rng(points)
    labels = np.arange(n) % 2
    trials = TrialList([f"e{i}" for i in range(n)],
                       [f"t{i}" for i in range(n)], labels)
    write_trials(trials, tmp_path / "t.txt")
    write_scores(ScoreSet(trials, rng.normal(size=n) + labels),
                 tmp_path / "s.txt")
    det = tmp_path / "det.csv"
    code, _ = _run(capsys, "metrics", "--trials", str(tmp_path / "t.txt"),
                   "--scores", str(tmp_path / "s.txt"), "--det-out", str(det))
    assert code == 0
    p_fa, p_miss = det_points(read_scores(tmp_path / "s.txt", trials))
    assert len(p_fa) == len(p_miss) == points
    got = zip(p_fa.tolist(), p_miss.tolist())
    assert det.read_bytes() == ("p_fa,p_miss\n" + ("%.9g,%.9g\n" * points)
                                % tuple(x for p in got for x in p)).encode()


def test_non_finite_score_is_data_error(tmp_path, capsys):
    trials = tmp_path / "t.txt"
    scores = tmp_path / "s.txt"
    trials.write_text("a x 1\nb y 1\nc z 0\nd w 0\n")
    scores.write_text("a x 0.9\nb y nan\nc z 0.3\nd w 0.2\n")
    code, payload = _run(capsys, "metrics", "--trials", str(trials),
                         "--scores", str(scores), "--p-target", "0.01")
    assert code == 2
    assert payload is None


@pytest.mark.parametrize("trial_text, score_text, bad", [
    ("a x 1\nb y\nc z 0\nd w 0 1\n", "a x 0.9\n", "t.txt:4"),
    ("a x 1\nb y 2\n", "a x 0.9\n", "t.txt:2"),
    ("a x 1\nb y 0\n", "a x 0.9\nb y\n", "s.txt:2"),
    ("a x 1\nb y 0\n", "a x 0.9\nb y 0.1 0.2\n", "s.txt:2"),
    ("a x 1\nb y 0\n", "a x 0.9\nb y high\n", "s.txt:2"),
])
def test_malformed_trial_or_score_line_is_data_error(
        tmp_path, capsys, caplog, trial_text, score_text, bad):
    trials = tmp_path / "t.txt"
    scores = tmp_path / "s.txt"
    trials.write_text(trial_text)
    scores.write_text(score_text)
    code, payload = _run(capsys, "metrics", "--trials", str(trials),
                         "--scores", str(scores))
    assert code == 2
    assert payload is None
    assert f"{tmp_path / bad}: malformed" in caplog.text


def test_corrupt_embedding_header_is_data_error(tmp_path, capsys):
    emb = tmp_path / "e.svb"
    write_embeddings(EmbeddingSet(["a", "b"], [[1.0, 0.0], [0.0, 1.0]]), emb)
    raw = emb.read_bytes()
    emb.write_bytes(raw[:12] + (2**40).to_bytes(8, "little") + raw[20:])
    trials = tmp_path / "t.txt"
    trials.write_text("a b\n")
    code, payload = _run(capsys, "score", "--trials", str(trials),
                         "--enroll", str(emb), "--out", str(tmp_path / "o"))
    assert code == 2
    assert payload is None


def test_clr_command(capsys):
    code, payload = _run(capsys, "clr", "--t", "65000")
    assert code == 0
    assert payload["lr"] == 1e-3


def test_runs_share_one_parser_but_no_parsed_state(capsys, monkeypatch):
    code, first = _run(capsys, "clr", "--t", "5", "--cycle-len", "10",
                       "--lr-min", "0.1", "--lr-max", "0.5")
    assert code == 0

    def no_new_parser():
        raise AssertionError("parser built again")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    code, other = _run(capsys, "loss-check", "--instances", "1",
                       "--seed", "3")
    assert code == 0 and other["command"] == "loss-check"
    code, second = _run(capsys, "clr", "--t", "5")
    assert code == 0
    assert first["lr"] == clr_triangular2(5, 10, 0.1, 0.5)
    assert second["lr"] == clr_triangular2(5, 130000, 1e-8, 1e-3)


def test_loss_check(capsys):
    code, payload = _run(capsys, "loss-check", "--instances", "3")
    assert code == 0
    assert payload["aam_softmax_k1"] < 1e-6
    assert payload["aam_softmax_k2"] < 1e-6
    assert payload["moco"] < 1e-6


def test_synth_deterministic_per_seed(tmp_path, capsys):
    a = tmp_path / "a.svb"
    b = tmp_path / "b.svb"
    for out in (a, b):
        code, _ = _run(capsys, "synth", "--speakers", "5",
                       "--utts-per-speaker", "3", "--dim", "8",
                       "--seed", "7", "--out", str(out),
                       "--meta-out", str(out) + ".csv")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_full_supervised_pipeline(tmp_path, capsys):
    emb = tmp_path / "emb.svb"
    meta = tmp_path / "meta.csv"
    code, _ = _run(capsys, "synth", "--speakers", "30",
                   "--utts-per-speaker", "8", "--dim", "16",
                   "--concentration", "8", "--seed", "1",
                   "--out", str(emb), "--meta-out", str(meta))
    assert code == 0

    trials = tmp_path / "trials.txt"
    code, payload = _run(capsys, "gen-trials", "--emb", str(emb),
                         "--meta", str(meta), "--per-class", "60",
                         "--seed", "2", "--out", str(trials))
    assert code == 0
    assert payload["trials"] == 180
    assert payload["targets"] == 90

    raw = tmp_path / "raw.txt"
    code, _ = _run(capsys, "score", "--trials", str(trials),
                   "--enroll", str(emb), "--out", str(raw))
    assert code == 0

    snormed = tmp_path / "snorm.txt"
    code, _ = _run(capsys, "snorm", "--trials", str(trials),
                   "--scores", str(raw), "--enroll", str(emb),
                   "--cohort-emb", str(emb), "--cohort-meta", str(meta),
                   "--top-n", "10", "--out", str(snormed))
    assert code == 0

    qmf = tmp_path / "qmf.csv"
    code, _ = _run(capsys, "qmf", "--emb", str(emb), "--meta", str(meta),
                   "--cohort-emb", str(emb), "--cohort-meta", str(meta),
                   "--qmf-top-n", "10", "--out", str(qmf))
    assert code == 0

    model = tmp_path / "cal.json"
    code, payload = _run(capsys, "fit-cal", "--trials", str(trials),
                         "--scores", str(snormed), "--out", str(model))
    assert code == 0 and payload["features"] == 1

    cal = tmp_path / "cal.txt"
    code, _ = _run(capsys, "apply-cal", "--model", str(model),
                   "--trials", str(trials), "--scores", str(snormed),
                   "--out", str(cal))
    assert code == 0

    fused = tmp_path / "fused.txt"
    code, _ = _run(capsys, "fuse", "--trials", str(trials),
                   "--scores", str(cal), str(cal), "--out", str(fused))
    assert code == 0
    a = read_scores(fused, read_trials(trials))
    b = read_scores(cal, read_trials(trials))
    assert np.array_equal(a.scores, b.scores)

    qa_model = tmp_path / "qa.json"
    code, payload = _run(capsys, "fit-cal", "--trials", str(trials),
                         "--scores", str(fused), "--qmf", str(qmf),
                         "--out", str(qa_model))
    assert code == 0 and payload["features"] == 5

    final = tmp_path / "final.txt"
    code, _ = _run(capsys, "apply-cal", "--model", str(qa_model),
                   "--trials", str(trials), "--scores", str(fused),
                   "--qmf", str(qmf), "--out", str(final))
    assert code == 0

    code, payload = _run(capsys, "metrics", "--trials", str(trials),
                         "--scores", str(final), "--p-target", "0.05",
                         "--actual")
    assert code == 0
    assert payload["eer_pct"] < 10.0
    assert payload["act_dcf"] >= payload["min_dcf"] - 1e-12

    # a trial side missing from the QMF cache is a data error
    first = read_trials(trials).enroll_ids[0]
    qmf.write_text("".join(line for line in qmf.read_text().splitlines(True)
                           if not line.startswith(f"{first},")))
    code, _ = _run(capsys, "apply-cal", "--model", str(qa_model),
                   "--trials", str(trials), "--scores", str(fused),
                   "--qmf", str(qmf), "--out", str(final))
    assert code == 2


def test_cluster_commands(tmp_path, capsys):
    emb = tmp_path / "emb.svb"
    meta = tmp_path / "meta.csv"
    _run(capsys, "synth", "--speakers", "10", "--utts-per-speaker", "8",
         "--dim", "16", "--concentration", "10", "--seed", "3",
         "--out", str(emb), "--meta-out", str(meta))

    km = tmp_path / "km.svkm"
    code, _ = _run(capsys, "kmeans", "--emb", str(emb), "--k", "20",
                   "--batch-size", "20", "--seed", "4", "--out", str(km))
    assert code == 0

    centers = tmp_path / "centers.txt"
    code, _ = _run(capsys, "ahc", "--kmeans", str(km), "--clusters", "10",
                   "--out", str(centers))
    assert code == 0

    labels = tmp_path / "labels.txt"
    code, payload = _run(capsys, "assign", "--emb", str(emb),
                         "--kmeans", str(km),
                         "--center-labels", str(centers),
                         "--out", str(labels))
    assert code == 0
    assert payload["clusters"] == 10
    assert len(read_labels(labels)) == 80

    trials = tmp_path / "trials.txt"
    lines = []
    labs = read_labels(labels)
    ids = sorted(labs)
    for i in range(0, 60, 2):
        spk_same = 1 if ids[i][:7] == ids[i + 1][:7] else 0
        lines.append(f"{ids[i]} {ids[i+1]} {spk_same}")
    # guarantee both classes
    lines.append(f"{ids[0]} {ids[1]} 1")
    lines.append(f"{ids[0]} {ids[-1]} 0")
    trials.write_text("\n".join(lines) + "\n")

    sweep = tmp_path / "sweep.csv"
    code, payload = _run(capsys, "sweep", "--emb", str(emb),
                         "--kmeans", str(km), "--trials", str(trials),
                         "--k-values", "5,10,15", "--out", str(sweep))
    assert code == 0
    assert payload["best_k"] in (5, 10, 15)
    assert sweep.read_text().startswith("K,EER\n")

    out_labels = tmp_path / "iter_labels.txt"
    code, payload = _run(capsys, "iterate", "--emb", str(emb),
                         "--k-centers", "20", "--clusters", "10",
                         "--batch-size", "20", "--max-iters", "2",
                         "--refresher", "prototype-pull",
                         "--seed", "5", "--out", str(out_labels))
    assert code == 0
    assert payload["iterations"] == 2
    assert len(read_labels(out_labels)) == 80


def _synth(tmp_path, capsys, speakers=10):
    emb, meta = tmp_path / "emb.svb", tmp_path / "meta.csv"
    code, _ = _run(capsys, "synth", "--speakers", str(speakers),
                   "--utts-per-speaker", "8", "--dim", "16",
                   "--concentration", "8", "--seed", "1",
                   "--out", str(emb), "--meta-out", str(meta))
    assert code == 0
    return emb, meta


def test_gen_trials_with_no_trials_per_class_is_data_error(tmp_path, capsys,
                                                           caplog):
    # an empty trial file would be a silent no-op
    emb, meta = _synth(tmp_path, capsys)
    out = tmp_path / "t.txt"
    code, payload = _run(capsys, "gen-trials", "--emb", str(emb), "--meta",
                         str(meta), "--per-class", "0", "--out", str(out))
    assert (code, payload) == (2, None)
    assert "--per-class 0 would write no trials" in caplog.text
    assert not out.exists()


def test_gen_trials_refuses_ids_its_trial_file_would_split(tmp_path, capsys,
                                                          caplog):
    # the .svb and CSV formats hold "spk0000_utt000 1"; a trial line of
    # such ids would read back as other fields, so nothing is written
    data = synth_dataset(10, 8, 16, 8.0, seed=1)
    ids = [f"{u} 1" for u in data.ids]
    meta = dict(zip(ids, map(data.meta.__getitem__, data.ids)))
    emb, meta_csv = tmp_path / "emb.svb", tmp_path / "meta.csv"
    write_embeddings(EmbeddingSet(ids, data.vectors, meta), emb)
    write_metadata(meta, meta_csv)
    out = tmp_path / "t.txt"
    code, payload = _run(capsys, "gen-trials", "--emb", str(emb), "--meta",
                         str(meta_csv), "--per-class", "20", "--out",
                         str(out))
    assert (code, payload) == (2, None)
    assert re.search(r"t\.txt: id 'spk\d{4}_utt\d{3} 1' is empty or "
                     "contains whitespace", caplog.text), caplog.text
    assert not out.exists()


def test_short_metadata_row_is_data_error(tmp_path, capsys, caplog):
    emb, meta = _synth(tmp_path, capsys)
    lines = meta.read_text().splitlines(True)
    lines[2] = lines[2].split(",")[0] + ",300\n"
    meta.write_text("".join(lines))
    code, _ = _run(capsys, "gen-trials", "--emb", str(emb), "--meta",
                   str(meta), "--per-class", "20", "--out",
                   str(tmp_path / "t.txt"))
    assert code == 2
    assert f"{meta}:3: " in caplog.text


def test_metadata_for_unknown_id_names_both_files(tmp_path, capsys,
                                                  caplog):
    emb, meta = _synth(tmp_path, capsys)
    meta.write_text(meta.read_text() + "zz,300,3.0,spk0000\n")
    code, payload = _run(capsys, "gen-trials", "--emb", str(emb), "--meta",
                         str(meta), "--per-class", "20", "--out",
                         str(tmp_path / "t.txt"))
    assert code == 2
    assert payload is None
    assert f"{meta}: metadata for unknown ids: ['zz'] (not in {emb})" \
        in caplog.text


@pytest.mark.parametrize("text", [
    "[1.0]",
    '{"version": 1, "bias": 0.0}',
    '{"version": 1, "weights": [[1.0]], "bias": 0.0}',
    '{"version": 1, "weights": [1.0], "bias": 0.0, "feature_names": 7}',
])
def test_malformed_model_file_is_data_error(tmp_path, capsys, caplog, text):
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("a x 1\nb y 0\n")
    scores.write_text("a x 0.9\nb y 0.1\n")
    model = tmp_path / "m.json"
    model.write_text(text)
    code, _ = _run(capsys, "apply-cal", "--model", str(model), "--trials",
                   str(trials), "--scores", str(scores), "--out",
                   str(tmp_path / "c.txt"))
    assert code == 2
    assert f"{model}: " in caplog.text


def test_fit_cal_reports_a_model_that_did_not_converge(tmp_path, capsys):
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("a x 1\nb y 0\nc z 1\nd w 0\n")
    scores.write_text("a x 0.9\nb y 0.1\nc z 0.2\nd w 0.6\n")
    code, payload = _run(capsys, "fit-cal", "--trials", str(trials),
                         "--scores", str(scores), "--max-iter", "0",
                         "--out", str(tmp_path / "m.json"))
    assert code == 0
    assert payload["converged"] is False


def test_non_finite_kmeans_center_is_data_error(tmp_path, capsys):
    emb, _ = _synth(tmp_path, capsys)
    km = tmp_path / "km.svkm"
    code, _ = _run(capsys, "kmeans", "--emb", str(emb), "--k", "4",
                   "--seed", "4", "--out", str(km))
    assert code == 0
    raw = bytearray(km.read_bytes())
    raw[20:24] = np.float32(np.nan).tobytes()
    km.write_bytes(bytes(raw))
    centers = tmp_path / "centers.txt"
    centers.write_text("".join(f"center_{i} 0\n" for i in range(4)))
    code, _ = _run(capsys, "assign", "--emb", str(emb), "--kmeans", str(km),
                   "--center-labels", str(centers),
                   "--out", str(tmp_path / "labels.txt"))
    assert code == 2


@pytest.mark.parametrize("entries", [
    [f"center_{i}" for i in range(40)],        # labels of a k = 40 model
    [f"center_{i}" for i in range(19)],        # one center missing
    [f"center_{i}" for i in range(19)] + ["center_20"],
])
def test_center_labels_of_another_model_are_data_error(tmp_path, capsys,
                                                       caplog, entries):
    emb, _ = _synth(tmp_path, capsys)
    km = tmp_path / "km.svkm"
    _run(capsys, "kmeans", "--emb", str(emb), "--k", "20",
         "--batch-size", "20", "--seed", "4", "--out", str(km))
    centers = tmp_path / "centers.txt"
    centers.write_text("".join(f"{name} 0\n" for name in entries))
    labels = tmp_path / "labels.txt"
    code, payload = _run(capsys, "assign", "--emb", str(emb),
                         "--kmeans", str(km), "--center-labels", str(centers),
                         "--out", str(labels))
    assert code == 2
    assert payload is None
    assert not labels.exists()
    assert (f"{centers}: {len(entries)} center labels do not match the 20 "
            "centers") in caplog.text


def test_zero_dimensional_kmeans_file_is_data_error(tmp_path, capsys,
                                                    caplog):
    emb, _ = _synth(tmp_path, capsys)
    km = tmp_path / "km.svkm"
    km.write_bytes(b"SVKM" + struct.pack("<IIQ", 1, 0, 2)
                   + struct.pack("<QQ", 1, 1))
    centers = tmp_path / "centers.txt"
    centers.write_text("center_0 0\ncenter_1 1\n")
    code, _ = _run(capsys, "assign", "--emb", str(emb), "--kmeans", str(km),
                   "--center-labels", str(centers),
                   "--out", str(tmp_path / "labels.txt"))
    assert code == 2
    assert f"{km}: centers must be" in caplog.text


def test_model_with_numbers_as_strings_is_data_error(tmp_path, capsys,
                                                     caplog):
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("a x 1\nb y 0\n")
    scores.write_text("a x 0.9\nb y 0.1\n")
    model = tmp_path / "m.json"
    model.write_text('{"version": 1, "weights": ["1.5"], "bias": "0.5"}')
    code, _ = _run(capsys, "apply-cal", "--model", str(model), "--trials",
                   str(trials), "--scores", str(scores), "--out",
                   str(tmp_path / "c.txt"))
    assert code == 2
    assert f"{model}: " in caplog.text


@pytest.mark.parametrize("command, flag, inputs", [
    ("snorm", "--top-n",
     ["--trials", "--scores", "--enroll", "--cohort-emb", "--cohort-meta"]),
    ("qmf", "--qmf-top-n", ["--emb", "--meta", "--cohort-emb",
                            "--cohort-meta"]),
])
def test_bad_top_n_is_usage_error_before_any_file_is_read(
        capsys, command, flag, inputs):
    # every input is missing, so reading one first would exit 2
    for value in ("abc", "0", "-1"):
        argv = [command, f"{flag}={value}", "--out", "/nonexistent/out"]
        for name in inputs:
            argv += [name, "/nonexistent"]
        assert run(argv) == 1, value
        assert f"argument {flag}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["a", ",", "0", "5,-1"])
def test_bad_k_values_is_usage_error_before_any_file_is_read(capsys, value):
    # every input is missing, so reading one first would exit 2
    argv = ["sweep", f"--k-values={value}", "--emb", "/nonexistent",
            "--kmeans", "/nonexistent", "--trials", "/nonexistent",
            "--out", "/nonexistent/out"]
    assert run(argv) == 1
    assert "argument --k-values: invalid" in capsys.readouterr().err


def test_fit_cal_on_unlabeled_trials_is_data_error(tmp_path, capsys,
                                                   caplog):
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("a x 1\nb y 0\nc z\nd w 0\n")
    scores.write_text("a x 0.9\nb y 0.1\nc z 0.4\nd w 0.6\n")
    code, payload = _run(capsys, "fit-cal", "--trials", str(trials),
                         "--scores", str(scores),
                         "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert payload is None
    assert "label -1 at row 2 must be 0 or 1" in caplog.text
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("l2", ["nan", "inf", "-1"])
def test_bad_l2_is_data_error_naming_it(tmp_path, capsys, caplog, l2):
    # RuntimeWarnings fail the suite (pyproject), so this also checks that
    # the Newton loop never runs on the bad value
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("a x 1\nb y 0\nc z 1\nd w 0\n")
    scores.write_text("a x 0.9\nb y 0.1\nc z 0.4\nd w 0.6\n")
    code, payload = _run(capsys, "fit-cal", "--trials", str(trials),
                         "--scores", str(scores), f"--l2={l2}",
                         "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert payload is None
    assert f"l2={float(l2)} must be finite and >= 0" in caplog.text


def test_every_subcommand_has_a_handler():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 16
    for name, parser in sub.choices.items():
        assert callable(parser.get_default("handler")), name


@pytest.mark.parametrize("command", ["sweep", "iterate"])
def test_unknown_trial_id_is_data_error(tmp_path, capsys, caplog, command):
    emb, _ = _synth(tmp_path, capsys)
    trials = tmp_path / "t.txt"
    trials.write_text("spk0000_utt000 spk0000_utt001 1\n"
                      "spk0000_utt000 ghost 0\n")
    km = tmp_path / "km.svkm"
    _run(capsys, "kmeans", "--emb", str(emb), "--k", "20",
         "--batch-size", "20", "--seed", "4", "--out", str(km))
    if command == "sweep":
        argv = ["sweep", "--kmeans", str(km), "--k-values", "5,10"]
    else:
        argv = ["iterate", "--k-centers", "20", "--clusters", "10",
                "--batch-size", "20", "--max-iters", "2"]
    code, payload = _run(capsys, *argv, "--emb", str(emb), "--trials",
                         str(trials), "--out", str(tmp_path / "out.txt"))
    assert code == 2
    assert payload is None
    assert "unknown utterance id 'ghost'" in caplog.text


@pytest.mark.parametrize("argv", [
    ["loss-check", "--instances", "0"],
    ["loss-check", "--instances", "-3"],
    ["iterate", "--k-centers", "20", "--clusters", "10", "--batch-size",
     "20", "--max-iters", "0"],
    ["kmeans", "--k", "20", "--batch-size", "20", "--n-batches", "0"],
    ["kmeans", "--k", "20", "--batch-size", "20", "--n-batches", "-1"],
])
def test_counts_below_one_are_data_errors(tmp_path, capsys, caplog, argv):
    # each would do nothing and still report success
    if argv[0] != "loss-check":
        emb, _ = _synth(tmp_path, capsys)
        argv = argv + ["--emb", str(emb), "--out", str(tmp_path / "out")]
    code, payload = _run(capsys, *argv)
    assert code == 2
    assert payload is None
    assert "must be >= 1" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["snorm", "qmf"])
def test_zero_mean_cohort_speaker_is_data_error(tmp_path, capsys, caplog,
                                                command):
    # the two utterances of speaker s2 cancel to a zero mean
    v, w = np.array([0.6, 0.8]), np.array([1.0, 0.0])
    ids = ["c0", "c1", "c2", "c3"]
    meta = {u: UttMeta(300, 3.0, spk)
            for u, spk in zip(ids, ["s1", "s2", "s2", "s3"])}
    emb, meta_csv = tmp_path / "coh.svb", tmp_path / "coh.csv"
    write_embeddings(EmbeddingSet(ids, [w, v, -v, -w], meta), emb)
    write_metadata(meta, meta_csv)
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("c0 c1 1\n")
    scores.write_text("c0 c1 0.6\n")
    if command == "snorm":
        argv = ["snorm", "--trials", trials, "--scores", scores,
                "--enroll", emb, "--top-n", "3"]
    else:
        argv = ["qmf", "--emb", emb, "--meta", meta_csv,
                "--qmf-metric", "cosine", "--qmf-top-n", "3"]
    argv += ["--cohort-emb", emb, "--cohort-meta", meta_csv,
             "--out", tmp_path / "out.txt"]
    code, payload = _run(capsys, *map(str, argv))
    assert code == 2
    assert payload is None
    assert "cohort speaker 's2' has a zero mean embedding" in caplog.text
    assert not (tmp_path / "out.txt").exists()


def _two_sets(tmp_path, capsys):
    """The synth set, a second set of other vectors over the same ids and
    a trial list whose two sides list different utterances."""
    emb, meta = _synth(tmp_path, capsys)
    ids = read_embeddings(emb).ids
    rng = np.random.default_rng(40)
    other = tmp_path / "other.svb"
    write_embeddings(EmbeddingSet(ids, rng.standard_normal((len(ids), 16))),
                     other)
    trials = tmp_path / "t.txt"
    write_trials(TrialList(ids[:40], ids[-40:][::-1]), trials)
    return emb, meta, other, trials


def _score_and_snorm(tmp_path, capsys, emb, meta, trials, test, tag):
    """The paths of the `score` and `snorm` outputs, each run with
    `--test test` after the enroll set (none when test is None)."""
    side = [] if test is None else ["--test", str(test)]
    raw, normed = tmp_path / f"raw{tag}.txt", tmp_path / f"snorm{tag}.txt"
    code, _ = _run(capsys, "score", "--trials", str(trials), "--enroll",
                   str(emb), *side, "--out", str(raw))
    assert code == 0
    code, _ = _run(capsys, "snorm", "--trials", str(trials), "--scores",
                   str(raw), "--enroll", str(emb), *side, "--cohort-emb",
                   str(emb), "--cohort-meta", str(meta), "--top-n", "5",
                   "--out", str(normed))
    assert code == 0
    return raw, normed


def test_score_and_snorm_over_a_separate_test_set(tmp_path, capsys):
    emb, meta, other, trials = _two_sets(tmp_path, capsys)
    raw, normed = _score_and_snorm(tmp_path, capsys, emb, meta, trials,
                                   other, "")
    # the library on the sets the CLI reads, written at the same 9 digits
    enroll = length_normalize(read_embeddings(emb))
    test = length_normalize(read_embeddings(other))
    cohort_set = read_embeddings(emb)
    cohort = build_cohort(length_normalize(EmbeddingSet(
        cohort_set.ids, cohort_set.vectors, read_metadata(meta))))
    tl = read_trials(trials)
    write_scores(cosine_score(tl, enroll, test), tmp_path / "lib_raw.txt")
    write_scores(snorm(read_scores(raw, tl), enroll, test, cohort, 5),
                 tmp_path / "lib_snorm.txt")
    assert raw.read_bytes() == (tmp_path / "lib_raw.txt").read_bytes()
    assert normed.read_bytes() == (tmp_path / "lib_snorm.txt").read_bytes()

    # --test naming the enroll file is the same as no --test: the sets are
    # equal but two objects, so the per-side statistics path runs
    same = _score_and_snorm(tmp_path, capsys, emb, meta, trials, emb, "_same")
    omitted = _score_and_snorm(tmp_path, capsys, emb, meta, trials, None,
                               "_none")
    assert same[0].read_bytes() == omitted[0].read_bytes()
    a, b = (read_scores(paths[1], tl).scores for paths in (same, omitted))
    assert np.allclose(a, b, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("command", ["snorm", "qmf", "score", "snorm-test"])
def test_sets_of_different_dim_are_data_errors_naming_both(
        tmp_path, capsys, caplog, command):
    ids = ["a0", "a1", "b0", "b1"]
    meta = {u: UttMeta(300, 3.0, u[0]) for u in ids}
    rng = np.random.default_rng(41)
    small, large = tmp_path / "e8.svb", tmp_path / "e16.svb"
    write_embeddings(EmbeddingSet(ids, rng.standard_normal((4, 8))), small)
    write_embeddings(EmbeddingSet(ids, rng.standard_normal((4, 16))), large)
    meta_csv = tmp_path / "meta.csv"
    write_metadata(meta, meta_csv)
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("a0 b1 0\n")
    scores.write_text("a0 b1 0.1\n")
    cohort = ["--cohort-emb", large, "--cohort-meta", meta_csv]
    argv = {
        "snorm": ["snorm", "--trials", trials, "--scores", scores,
                  "--enroll", small, *cohort, "--top-n", "2"],
        "qmf": ["qmf", "--emb", small, "--meta", meta_csv, *cohort,
                "--qmf-top-n", "2"],
        "score": ["score", "--trials", trials, "--enroll", small,
                  "--test", large],
        # the cohort agrees with --enroll: only --test is of another dim
        "snorm-test": ["snorm", "--trials", trials, "--scores", scores,
                       "--enroll", small, "--test", large, "--cohort-emb",
                       small, "--cohort-meta", meta_csv, "--top-n", "2"],
    }[command] + ["--out", tmp_path / "out.txt"]
    code, payload = _run(capsys, *map(str, argv))
    assert (code, payload) == (2, None)
    want = ("embeddings are 8-dim, cohort 16-dim"
            if command in ("snorm", "qmf")
            else "enroll set is 8-dim, test set 16-dim")
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", want)]
    assert not (tmp_path / "out.txt").exists()


def test_clr_with_a_nan_rate_is_data_error(capsys):
    # its rate would be NaN, which no JSON result line can hold
    assert run(["clr", "--t", "5", "--lr-max", "nan"]) == 2
    assert capsys.readouterr().out == ""


_SYNTH = ["synth", "--speakers", "4", "--utts-per-speaker", "2",
          "--meta-out", "meta.csv"]
_ITERATE = ["iterate", "--k-centers", "20", "--clusters", "10",
            "--batch-size", "20"]
_PULL = _ITERATE + ["--refresher", "prototype-pull"]


# (argv, the fragment that names the option's value in the one ERROR line):
# a bare value would also match a bound, as "0" matches "(0, 1)"
_DOMAIN_CASES = [
    (_SYNTH + ["--dur-hi", "inf"], "[2.0, inf]"),
    (_SYNTH + ["--dur-lo", "nan"], "[nan, 12.0]"),
    (_SYNTH + ["--concentration", "nan"], "concentration=nan"),
    (_PULL + ["--pull-factor", "5"], "pull=5.0"),
    (_PULL + ["--pull-factor", "-1"], "pull=-1.0"),
    (_ITERATE + ["--pull-factor", "nan"], "pull=nan"),
    (_ITERATE + ["--pull-factor=-1"], "pull=-1.0"),
    (_ITERATE + ["--pull-factor", "1e308"], "pull=1e+308"),
    (["fit-cal", "--max-iter", "-1"], "max_iter=-1"),
    (_SYNTH + ["--seed=-1"], "seed=-1"),
    (_SYNTH + ["--dim=-1"], "dim=-1"),
    (["gen-trials", "--per-class", "2", "--seed=-1"], "seed=-1"),
    (["kmeans", "--k", "5", "--seed=-1"], "seed=-1"),
    (_ITERATE + ["--seed=-1"], "seed=-1"),
    (["loss-check", "--instances", "1", "--seed=-1"], "seed=-1"),
    (["kmeans", "--k", "0"], "k=0"),
    (["kmeans", "--k", "5", "--batch-size", "0"], "batch_size=0"),
    (_ITERATE + ["--k-centers", "0"], "k=0"),
    (_ITERATE + ["--batch-size", "0"], "batch_size=0"),
    (_ITERATE + ["--clusters", "0"], "num_clusters=0"),
    (_SYNTH + ["--speakers", "0"], "num_speakers=0"),
    (_SYNTH + ["--utts-per-speaker", "0"], "utts_per_speaker=0"),
    (["ahc", "--clusters", "0"], "num_clusters=0"),
    (["clr", "--t", "-1"], "t=-1"),
    (["clr", "--t", "5", "--cycle-len", "1"], "cycle_len=1"),
    (["clr", "--t", "5", "--lr-min", "-1"], "lr_min=-1.0"),
    (["clr", "--t", "5", "--lr-max", "nan"], "lr_max=nan"),
    (["gen-trials", "--per-class", "-1"], "per_class=-1"),
    (["gen-trials", "--per-class", "3"], "per_class=3"),
    (["metrics", "--p-target", "0"], "p_target=0.0"),
    (["metrics", "--p-target", "1e308"], "p_target=1e+308"),
    (["snorm", "--top-n", "1"], "top_n=1"),
]


@pytest.mark.parametrize("argv, named", _DOMAIN_CASES,
                         ids=[" ".join(argv[:1] + argv[-2:])
                              for argv, _ in _DOMAIN_CASES])
def test_values_outside_an_options_domain_are_data_errors(
        tmp_path, capsys, caplog, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    if argv[0] in ("iterate", "kmeans", "gen-trials", "snorm"):
        emb, meta = _synth(tmp_path, capsys)
        if argv[0] == "snorm":
            a, b = read_embeddings(emb).ids[:2]
            (tmp_path / "t.txt").write_text(f"{a} {b} 1\n")
            (tmp_path / "s.txt").write_text(f"{a} {b} 0.5\n")
            argv = argv + ["--trials", "t.txt", "--scores", "s.txt",
                           "--enroll", str(emb), "--cohort-emb", str(emb),
                           "--cohort-meta", str(meta)]
        else:
            argv = argv + ["--emb", str(emb)]
        if argv[0] == "gen-trials":
            argv += ["--meta", str(meta)]
    elif argv[0] in ("fit-cal", "metrics"):
        (tmp_path / "t.txt").write_text("a x 1\nb y 0\n")
        (tmp_path / "s.txt").write_text("a x 0.9\nb y 0.1\n")
        argv = argv + ["--trials", "t.txt", "--scores", "s.txt"]
    elif argv[0] == "ahc":
        write_kmeans(minibatch_kmeans(synth_dataset(5, 2, 4, 8.0), 5, 10),
                     tmp_path / "km.svkm")
        argv = argv + ["--kmeans", "km.svkm"]
    if argv[0] not in ("loss-check", "clr", "metrics"):
        argv += ["--out", "out"]
    caplog.clear()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()
    [error] = [r.getMessage() for r in caplog.records
               if r.levelname == "ERROR"]
    assert named in error, error


@pytest.mark.parametrize("lo, hi", [("0", "1e308"), ("-5", "-1")])
def test_synth_duration_range_outside_its_domain_is_named(
        tmp_path, capsys, caplog, monkeypatch, lo, hi):
    # the first overflowed int(duration * frame rate), the second was
    # reported as a negative speech-frame count
    monkeypatch.chdir(tmp_path)
    assert run(_SYNTH + [f"--dur-lo={lo}", f"--dur-hi={hi}",
                         "--out", "out"]) == 2
    assert capsys.readouterr().out == ""
    assert f"duration range [{float(lo)}, {float(hi)}] s" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """A small labeled set, its metadata, a labeled trial list with
    scores and a k-means model: valid inputs for every subcommand that
    has a numeric option."""
    root = tmp_path_factory.mktemp("sweep")
    data = synth_dataset(6, 5, 8, 8.0, seed=3)
    write_embeddings(data, root / "emb.svb")
    write_metadata(data.meta, root / "meta.csv")
    ids = data.ids
    trials = TrialList(ids[:-1], ids[1:],
                       [int(a[:7] == b[:7]) for a, b in zip(ids, ids[1:])])
    write_trials(trials, root / "t.txt")
    rng = np.random.default_rng(4)
    write_scores(ScoreSet(trials, rng.normal(size=len(trials))
                          + trials.labels), root / "s.txt")
    write_kmeans(minibatch_kmeans(data, 6, 30, 2, seed=5), root / "km.svkm")
    return root


# every subcommand with an int or float option, each option at a valid
# value; files are read from the sweep inputs and written as `out`
_SWEEP_BASE = {
    "synth": ["--speakers", "3", "--utts-per-speaker", "2", "--dim", "4",
              "--concentration", "4", "--dur-lo", "2", "--dur-hi", "12",
              "--seed", "0", "--meta-out", "out.csv"],
    "gen-trials": ["--emb", "emb.svb", "--meta", "meta.csv",
                   "--per-class", "2", "--seed", "0"],
    "fit-cal": ["--trials", "t.txt", "--scores", "s.txt", "--l2", "1e-6",
                "--max-iter", "100"],
    "metrics": ["--trials", "t.txt", "--scores", "s.txt",
                "--p-target", "0.01"],
    "kmeans": ["--emb", "emb.svb", "--k", "6", "--batch-size", "30",
               "--n-batches", "2", "--seed", "0"],
    "ahc": ["--kmeans", "km.svkm", "--clusters", "3"],
    "iterate": ["--emb", "emb.svb", "--k-centers", "6", "--clusters", "3",
                "--batch-size", "30", "--max-iters", "2",
                "--pull-factor", "0.2", "--seed", "0"],
    "loss-check": ["--instances", "1", "--seed", "0"],
    "clr": ["--t", "5", "--cycle-len", "10", "--lr-min", "1e-8",
            "--lr-max", "1e-3"],
}

# the domains the README states; any other value must not exit 0
_SWEEP_DOMAINS = {
    ("synth", "--dur-lo"): lambda v: 0 <= v <= 12,
    ("synth", "--dur-hi"): lambda v: 2 <= v and math.isfinite(v * 100),
    ("synth", "--dim"): lambda v: v >= 1,
    ("synth", "--concentration"): lambda v: v >= 0,
    ("gen-trials", "--per-class"): lambda v: v >= 2,
    ("fit-cal", "--l2"): lambda v: 0 <= v < math.inf,
    ("fit-cal", "--max-iter"): lambda v: v >= 0,
    ("metrics", "--p-target"): lambda v: 0 < v < 1,
    ("kmeans", "--n-batches"): lambda v: v >= 1,
    ("iterate", "--max-iters"): lambda v: v >= 1,
    ("iterate", "--pull-factor"): lambda v: 0 <= v <= 1,
    ("loss-check", "--instances"): lambda v: v >= 1,
    ("clr", "--lr-min"): lambda v: 0 <= v <= 1e-3,
    ("clr", "--lr-max"): lambda v: 1e-8 <= v < math.inf,
    ("clr", "--t"): lambda v: v >= 0,
    ("clr", "--cycle-len"): lambda v: v >= 2,
    ("ahc", "--clusters"): lambda v: 1 <= v <= 6,  # the model's k
    ("iterate", "--clusters"): lambda v: 1 <= v <= 6,  # --k-centers
    **{(name, "--seed"): lambda v: v >= 0
       for name in ("synth", "gen-trials", "kmeans", "iterate",
                    "loss-check")},
    **{option: lambda v: v >= 1
       for option in (("synth", "--speakers"),
                      ("synth", "--utts-per-speaker"),
                      ("kmeans", "--k"), ("kmeans", "--batch-size"),
                      ("iterate", "--k-centers"),
                      ("iterate", "--batch-size"))},
}


def test_generated_sweep_of_every_numeric_option(sweep_inputs, capsys,
                                                  monkeypatch):
    # each int and float option of every subcommand at nan, inf, -inf,
    # -1, 0 and 1e308, the other options valid: never a traceback, an
    # exit code of 0, 1 or 2, and no success outside a stated domain
    monkeypatch.chdir(sweep_inputs)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [(name, action.option_strings[0])
               for name, parser in sub.choices.items()
               for action in parser._actions if action.type in (int, float)]
    assert len(options) == 29
    assert {name for name, _ in options} == _SWEEP_BASE.keys()
    bad = []
    for name, flag in options:
        base = _SWEEP_BASE[name]
        at = base.index(flag)
        in_domain = _SWEEP_DOMAINS.get((name, flag), lambda v: True)
        for value in ("nan", "inf", "-inf", "-1", "0", "1e308"):
            argv = [name, *base[:at], f"{flag}={value}", *base[at + 2:]]
            if name not in ("metrics", "loss-check", "clr"):
                argv += ["--out", "out"]
            try:
                code = run(argv)
            except Exception as e:  # a traceback from the console script
                bad.append(f"{' '.join(argv)}: raised {e!r}")
                continue
            err = capsys.readouterr().err
            if "Traceback" in err or code not in (0, 1, 2):
                bad.append(f"{' '.join(argv)}: exit {code}")
            elif code == 0 and not in_domain(float(value)):
                bad.append(f"{' '.join(argv)}: exit 0 outside its domain")
    assert not bad, "\n".join(bad)
