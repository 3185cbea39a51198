"""The four benchmark workloads and the svkit calls the traced run wraps.

Every workload synthesizes its inputs from the run's seed, writes them to
files, and then drives svkit only through public calls: library functions,
and `svkit.cli.run(argv)` in-process for `vox-trials`. All embeddings are
256-dimensional at synthetic concentration 9, where raw-cosine EER is a few
percent; trial lists are half targets, because uniform random pairs would
give about 0.2% targets.

Why each workload exists (which layer it loads, which it bypasses):

* vox-cohort: the library path of the supervised back-end with a 6000-speaker
  cohort, so per-utterance cohort work dominates: s-norm, trial QMFs and
  calibration-trial generation. The cohort is kept at full size and s-norm
  keeps its unique-utterances x cohort matrices, so their memory cost shows
  in peak RSS. The eval set is a fifth of the 10k-utterance shape (2000
  utterances, 24k trials) so that two passes fit in one run; the
  calibration set keeps per_class 2000.
* vox-trials: the same back-end composed through files with the CLI, with
  many trials per utterance and a small cohort, so per-trial Python paths,
  text parsing and formatting and id lookups dominate and s-norm statistics
  are small. Sizes are a sixth of 5k utterances / 600k trials per system.
* pseudo-label: the only workload that runs `clustering` (k-means, Ward
  AHC, assignment, sweep, iterate); scoring and calibration are bypassed.
  6000 utterances with k = n / 10, the 10k-utterance shape scaled down.
* loss-check: the only workload that runs `trainmath` through `gradcheck`,
  at the `svkit loss-check` settings (100 instances per loss).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os

import numpy as np

import checks
from svkit import (
    calibration,
    cli,
    clustering,
    embeddings,
    gradcheck,
    metrics,
    scoring,
)

DIM = 256
CONCENTRATION = 9.0
TOP_N = 100
P_TARGET = 0.01
L2 = 1e-6
QA_FEATURES = ("score", "min_dur_q", "max_dur_q", "min_imp_q", "max_imp_q")


class Ops:
    """Counts the run's timed public calls and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def cli(self, *argv):
        """`svkit.cli.run` in-process; returns its JSON line and raises on a
        nonzero exit code."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self(cli.run, list(argv))
        if rc != 0:
            self.failed += 1
            raise RuntimeError(f"svkit {argv[0]} exited with code {rc}")
        return json.loads(out.getvalue().splitlines()[-1])


# ---------------------------------------------------------------------------
# input synthesis

def corpus(prefix, speakers, utts, seed, ops):
    """synth_dataset with ids and speakers prefixed, so that sets made for
    different roles never share an id or a speaker name."""
    ds = ops(embeddings.synth_dataset, speakers, utts, DIM, CONCENTRATION,
             seed=int(seed))
    meta = {prefix + u: dataclasses.replace(ds.meta[u],
                                            speaker=prefix + ds.meta[u].speaker)
            for u in ds.ids}
    return embeddings.EmbeddingSet(list(meta), ds.vectors, meta)


def balanced_trials(ids, speakers, n, rng):
    """n trials over ids, half same-speaker and half different-speaker
    pairs, drawn with replacement and shuffled. Every speaker needs at
    least two utterances."""
    ids = np.asarray(ids)
    _, spk = np.unique(np.asarray(speakers), return_inverse=True)
    order = np.argsort(spk, kind="stable")
    counts = np.bincount(spk)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    n_tar = n // 2
    s = rng.integers(0, counts.size, n_tar)
    a = rng.integers(0, counts[s])
    b = (a + rng.integers(1, counts[s])) % counts[s]
    enroll = [order[starts[s] + a]]
    test = [order[starts[s] + b]]

    x = rng.integers(0, ids.size, n - n_tar)
    y = rng.integers(0, ids.size, n - n_tar)
    same = spk[x] == spk[y]
    while same.any():
        y[same] = rng.integers(0, ids.size, int(same.sum()))
        same = spk[x] == spk[y]
    enroll.append(x)
    test.append(y)

    e, t = np.concatenate(enroll), np.concatenate(test)
    labels = np.r_[np.ones(n_tar, np.int8), np.zeros(n - n_tar, np.int8)]
    perm = rng.permutation(n)
    return scoring.TrialList(ids[e[perm]].tolist(), ids[t[perm]].tolist(),
                             labels[perm])


def write_set(emb_set, stem, ops):
    ops(embeddings.write_embeddings, emb_set, f"{stem}.svb")
    ops(embeddings.write_metadata, emb_set.meta, f"{stem}.csv")


def load_set(stem, ops):
    emb = ops(embeddings.read_embeddings, f"{stem}.svb")
    meta = ops(embeddings.read_metadata, f"{stem}.csv")
    return ops(embeddings.length_normalize,
               embeddings.EmbeddingSet(emb.ids, emb.vectors, meta))


def _speakers(emb_set):
    return [emb_set.meta[u].speaker for u in emb_set.ids]


def _rows(emb_set, ids):
    return emb_set.vectors[[emb_set.index(u) for u in ids]]


def _qmf_array(qmfs):
    return np.array([q.as_array() for q in qmfs])


# ---------------------------------------------------------------------------
# workloads

class VoxCohort:
    why = ("library back-end with a full 6000-speaker cohort: loads s-norm "
           "(its utterance x cohort matrices set peak RSS), trial QMFs and "
           "calibration-trial generation; the CLI and clustering are bypassed")
    eval_speakers, utts, eval_trials = 100, 20, 24000
    cohort_speakers, cohort_utts = 6000, 2
    cal_speakers, per_class = 60, 2000

    def setup(self, work, seeds, ops):
        stems = {k: os.path.join(work, k) for k in ("eval", "cohort", "cal")}
        ev = corpus("e", self.eval_speakers, self.utts, seeds[0], ops)
        write_set(ev, stems["eval"], ops)
        write_set(corpus("c", self.cohort_speakers, self.cohort_utts,
                         seeds[1], ops), stems["cohort"], ops)
        write_set(corpus("k", self.cal_speakers, self.utts, seeds[2], ops),
                  stems["cal"], ops)
        trials = os.path.join(work, "trials.txt")
        ops(scoring.write_trials,
            balanced_trials(ev.ids, _speakers(ev), self.eval_trials,
                            np.random.default_rng(seeds[3])), trials)
        return {"stems": stems, "trials": trials, "gen_seed": int(seeds[4]),
                "scores_out": os.path.join(work, "calibrated.txt")}

    def run(self, inp, ops, tracer):
        ev = load_set(inp["stems"]["eval"], ops)
        cohort_set = load_set(inp["stems"]["cohort"], ops)
        cal = load_set(inp["stems"]["cal"], ops)
        trials = ops(scoring.read_trials, inp["trials"])

        raw = ops(scoring.cosine_score, trials, ev)
        cohort = ops(scoring.build_cohort, cohort_set)
        normed = ops(scoring.snorm, raw, ev, ev, cohort, TOP_N)
        qmfs = ops(calibration.trial_qmfs, trials, ev, ev, cohort)

        cal_trials = ops(calibration.gen_calibration_trials, cal,
                         self.per_class, inp["gen_seed"])
        cal_raw = ops(scoring.cosine_score, cal_trials, cal)
        cal_normed = ops(scoring.snorm, cal_raw, cal, cal, cohort, TOP_N)
        cal_qmfs = ops(calibration.trial_qmfs, cal_trials, cal, cal, cohort)

        plain = ops(calibration.fit_logreg,
                    ops(calibration.build_features, cal_normed),
                    cal_trials.labels, L2, feature_names=("score",))
        cal_stage1 = ops(calibration.apply_calibration, plain, cal_normed)
        qa = ops(calibration.fit_logreg,
                 ops(calibration.build_features, cal_stage1, cal_qmfs),
                 cal_trials.labels, L2, feature_names=QA_FEATURES)
        stage1 = ops(calibration.apply_calibration, plain, normed)
        final = ops(calibration.apply_calibration, qa, stage1, qmfs)

        params = metrics.DcfParams(P_TARGET)
        claimed = {
            "eer_pct": ops(metrics.eer, final) * 100.0,
            "min_dcf": ops(metrics.min_dcf, final, params),
            "act_dcf": ops(metrics.actual_dcf, final, params),
        }
        ops(metrics.det_points, final)
        ops(scoring.write_scores, final, inp["scores_out"])
        return {"ev": ev, "cohort_set": cohort_set, "cal": cal,
                "trials": trials, "raw": raw, "normed": normed, "qmfs": qmfs,
                "cal_trials": cal_trials, "cal_raw": cal_raw,
                "cal_normed": cal_normed, "cal_qmfs": cal_qmfs,
                "plain": plain, "qa": qa, "cal_stage1": cal_stage1,
                "stage1": stage1, "final": final, "claimed": claimed}

    def quality(self, out):
        return dict(out["claimed"])

    def checks(self, inp, out, rng):
        ev, cal, trials = out["ev"], out["cal"], out["trials"]
        cs = out["cohort_set"]
        means = checks.cohort_means(cs.vectors, _speakers(cs))
        ct = out["cal_trials"]

        def sides(emb_set, tl, idx):
            e = [tl.enroll_ids[i] for i in idx]
            t = [tl.test_ids[i] for i in idx]
            return _rows(emb_set, e), _rows(emb_set, t), e, t

        def cosine():
            idx = checks.sample(len(trials), 200, rng)
            ev_vecs, t_vecs, _, _ = sides(ev, trials, idx)
            checks.check_cosine(out["raw"].scores, ev_vecs, t_vecs, idx)

        def snorm():
            for emb_set, tl, raw, normed, k in (
                    (ev, trials, out["raw"], out["normed"], 20),
                    (cal, ct, out["cal_raw"], out["cal_normed"], 10)):
                idx = checks.sample(len(tl), k, rng)
                e_vecs, t_vecs, _, _ = sides(emb_set, tl, idx)
                checks.check_snorm(raw.scores, normed.scores, e_vecs, t_vecs,
                                   means, TOP_N, idx)

        def trial_qmfs():
            idx = checks.sample(len(trials), 50, rng)
            e_vecs, t_vecs, e_ids, t_ids = sides(ev, trials, idx)
            qmf = [[checks.qmf_values(v, ev.meta[u].speech_frames, means,
                                      TOP_N) for v, u in zip(vecs, ids)]
                   for vecs, ids in ((e_vecs, e_ids), (t_vecs, t_ids))]
            checks.check_trial_qmfs(_qmf_array(out["qmfs"])[idx], *qmf)

        def calibration_trials():
            checks.check_calibration_trials(
                ct.enroll_ids, ct.test_ids, ct.labels,
                {u: cal.meta[u].speaker for u in cal.ids},
                {u: cal.meta[u].duration_s for u in cal.ids}, self.per_class)

        x_plain = out["cal_normed"].scores[:, None]
        x_qa = np.column_stack([out["cal_stage1"].scores,
                                _qmf_array(out["cal_qmfs"])])

        def fit_logreg():
            checks.check_logreg_optimal(out["plain"], x_plain, ct.labels, L2)
            checks.check_logreg_optimal(out["qa"], x_qa, ct.labels, L2)

        def apply_calibration():
            plain, qa = out["plain"], out["qa"]
            checks.check_calibrated(out["stage1"].scores, plain.weights,
                                    plain.bias, out["normed"].scores[:, None])
            checks.check_calibrated(
                out["final"].scores, qa.weights, qa.bias,
                np.column_stack([out["stage1"].scores,
                                 _qmf_array(out["qmfs"])]))

        return [
            ("cosine_score", cosine),
            ("snorm", snorm),
            ("trial_qmfs", trial_qmfs),
            ("gen_calibration_trials", calibration_trials),
            ("fit_logreg", fit_logreg),
            ("apply_calibration", apply_calibration),
            ("detection_metrics", lambda: checks.check_detection_metrics(
                out["final"], out["claimed"], P_TARGET, rng)),
            ("write_scores", lambda: checks.check_score_file(
                inp["scores_out"], trials.enroll_ids, trials.test_ids,
                out["final"].scores)),
        ]


class VoxTrials:
    why = ("two systems scored, normed, fused, QMF-calibrated and evaluated "
           "through the CLI: loads per-trial text I/O and id lookups; s-norm "
           "statistics are small and clustering is bypassed")
    eval_speakers, cal_speakers, utts = 50, 25, 20
    cohort_speakers, cohort_utts = 1000, 2
    eval_trials, cal_trials = 100000, 2000

    def setup(self, work, seeds, ops):
        p = {k: os.path.join(work, k) for k in
             ("A", "B", "cohA", "cohB", "eval", "cal")}
        n_eval = self.eval_speakers * self.utts
        for i, system in enumerate("AB"):
            # the same utterances embedded by two independent systems
            emb = corpus("u", self.eval_speakers + self.cal_speakers,
                         self.utts, seeds[i], ops)
            write_set(emb, p[system], ops)
            write_set(corpus("c", self.cohort_speakers, self.cohort_utts,
                             seeds[2 + i], ops), p["coh" + system], ops)
        spk = _speakers(emb)
        rng = np.random.default_rng(seeds[4])
        for name, lo, hi, n in (("eval", 0, n_eval, self.eval_trials),
                                ("cal", n_eval, len(emb), self.cal_trials)):
            ops(scoring.write_trials,
                balanced_trials(emb.ids[lo:hi], spk[lo:hi], n, rng),
                f"{p[name]}.txt")
        return p

    def run(self, inp, ops, tracer):
        p = inp
        for tl in ("eval", "cal"):
            trials = f"{p[tl]}.txt"
            for s in "AB":
                ops.cli("score", "--trials", trials, "--enroll",
                        f"{p[s]}.svb", "--out", f"{p[tl]}_raw{s}.txt")
                ops.cli("snorm", "--trials", trials,
                        "--scores", f"{p[tl]}_raw{s}.txt",
                        "--enroll", f"{p[s]}.svb",
                        "--cohort-emb", f"{p['coh' + s]}.svb",
                        "--cohort-meta", f"{p['coh' + s]}.csv",
                        "--top-n", str(TOP_N), "--out", f"{p[tl]}_sn{s}.txt")
            ops.cli("fuse", "--trials", trials, "--scores",
                    f"{p[tl]}_snA.txt", f"{p[tl]}_snB.txt",
                    "--out", f"{p[tl]}_fused.txt")
        ops.cli("qmf", "--emb", f"{p['A']}.svb", "--meta", f"{p['A']}.csv",
                "--cohort-emb", f"{p['cohA']}.svb",
                "--cohort-meta", f"{p['cohA']}.csv",
                "--qmf-top-n", str(TOP_N), "--out", f"{p['A']}_qmf.csv")
        ops.cli("fit-cal", "--trials", f"{p['cal']}.txt",
                "--scores", f"{p['cal']}_fused.txt",
                "--qmf", f"{p['A']}_qmf.csv", "--l2", repr(L2),
                "--out", f"{p['cal']}_model.json")
        ops.cli("apply-cal", "--model", f"{p['cal']}_model.json",
                "--trials", f"{p['eval']}.txt",
                "--scores", f"{p['eval']}_fused.txt",
                "--qmf", f"{p['A']}_qmf.csv", "--out", f"{p['eval']}_cal.txt")
        res = ops.cli("metrics", "--trials", f"{p['eval']}.txt",
                      "--scores", f"{p['eval']}_cal.txt",
                      "--p-target", repr(P_TARGET), "--actual",
                      "--det-out", f"{p['eval']}_det.csv")
        return {"claimed": {k: res[k] for k in ("eer_pct", "min_dcf",
                                                "act_dcf")}}

    def quality(self, out):
        return dict(out["claimed"])

    def checks(self, inp, out, rng):
        p = inp
        trials = {tl: scoring.read_trials(f"{p[tl]}.txt")
                  for tl in ("eval", "cal")}
        emb = {s: embeddings.length_normalize(
            embeddings.read_embeddings(f"{p[s]}.svb")) for s in "AB"}
        means = {}
        for s in "AB":
            coh = embeddings.read_embeddings(f"{p['coh' + s]}.svb")
            meta = embeddings.read_metadata(f"{p['coh' + s]}.csv")
            means[s] = checks.cohort_means(
                coh.vectors, [meta[u].speaker for u in coh.ids])

        def scores(name, tl):
            return scoring.read_scores(f"{p[tl]}_{name}.txt",
                                       trials[tl]).scores

        def score_files():
            for tl, t in trials.items():
                for s in "AB":
                    lib = scoring.cosine_score(t, emb[s])
                    checks.check_score_file(f"{p[tl]}_raw{s}.txt",
                                            t.enroll_ids, t.test_ids,
                                            lib.scores)

        def snorm():
            t = trials["eval"]
            for s in "AB":
                idx = checks.sample(len(t), 10, rng)
                checks.check_snorm(
                    scores(f"raw{s}", "eval"), scores(f"sn{s}", "eval"),
                    _rows(emb[s], [t.enroll_ids[i] for i in idx]),
                    _rows(emb[s], [t.test_ids[i] for i in idx]),
                    means[s], TOP_N, idx, rtol=checks.FILE_RTOL, atol=1e-12)

        def fusion():
            for tl in trials:
                checks.check_fusion(scores("fused", tl),
                                    [scores("snA", tl), scores("snB", tl)])

        cache = calibration.read_qmf_cache(f"{p['A']}_qmf.csv")
        meta_a = embeddings.read_metadata(f"{p['A']}.csv")

        def qmf():
            ids = [emb["A"].ids[i] for i in
                   checks.sample(len(emb["A"]), 50, rng)]
            want = [checks.qmf_values(emb["A"].vector(u),
                                      meta_a[u].speech_frames, means["A"],
                                      TOP_N) for u in ids]
            checks.check_utterance_qmfs([cache[u] for u in ids], want)

        def features(tl):
            t = trials[tl]
            e = np.array([cache[u] for u in t.enroll_ids])
            q = np.array([cache[u] for u in t.test_ids])
            return np.column_stack([
                scores("fused", tl),
                np.minimum(e[:, 0], q[:, 0]), np.maximum(e[:, 0], q[:, 0]),
                np.minimum(e[:, 1], q[:, 1]), np.maximum(e[:, 1], q[:, 1]),
            ])

        model = calibration.read_model(f"{p['cal']}_model.json")
        final = scoring.read_scores(f"{p['eval']}_cal.txt", trials["eval"])

        return [
            ("cli_score_files", score_files),
            ("snorm", snorm),
            ("fuse", fusion),
            ("qmf", qmf),
            ("fit_cal", lambda: checks.check_logreg_optimal(
                model, features("cal"), trials["cal"].labels, L2)),
            ("apply_cal", lambda: checks.check_calibrated(
                final.scores, model.weights, model.bias, features("eval"),
                rtol=checks.FILE_RTOL)),
            ("detection_metrics", lambda: checks.check_detection_metrics(
                final, out["claimed"], P_TARGET, rng)),
        ]


class PseudoLabel:
    why = ("k-means, Ward AHC, assignment, cluster-count sweep and three "
           "prototype-pull iterations: the only load on clustering; scoring "
           "and calibration are bypassed")
    speakers, utts, k_centers, trials, iterations = 300, 20, 600, 6000, 3

    def setup(self, work, seeds, ops):
        data = corpus("p", self.speakers, self.utts, seeds[0], ops)
        p = {"emb": os.path.join(work, "data.svb"),
             "trials": os.path.join(work, "trials.txt"),
             "kmeans": os.path.join(work, "model.svkm")}
        ops(embeddings.write_embeddings, data, p["emb"])
        ops(scoring.write_trials,
            balanced_trials(data.ids, _speakers(data), self.trials,
                            np.random.default_rng(seeds[1])), p["trials"])
        return {"paths": p, "truth": dict(zip(data.ids, _speakers(data))),
                "kmeans_seed": int(seeds[2]), "iterate_seed": int(seeds[3])}

    def run(self, inp, ops, tracer):
        p, K = inp["paths"], self.speakers
        emb = ops(embeddings.length_normalize,
                  ops(embeddings.read_embeddings, p["emb"]))
        trials = ops(scoring.read_trials, p["trials"])
        km = ops(clustering.minibatch_kmeans, emb, self.k_centers,
                 seed=inp["kmeans_seed"])
        ops(clustering.write_kmeans, km, p["kmeans"])
        km_read = ops(clustering.read_kmeans, p["kmeans"])
        _, center_labels = ops(clustering.ahc_ward, km_read.centers, K)
        labeling = ops(clustering.assign_pseudo_labels, emb, km_read,
                       center_labels)
        k_values = [K // 2, K, 2 * K]
        rows, _ = ops(clustering.sweep_cluster_count, emb, km_read, k_values,
                      trials)
        refresher = clustering.make_prototype_pull_refresher(0.2)
        if tracer is not None:
            refresher = tracer.wrap(refresher, "clustering.refresher")
        # eer_tol -inf disables the early stop: always `iterations` cycles
        records = ops(clustering.iterate, emb, refresher, self.k_centers, K,
                      eval_trials=trials, max_iters=self.iterations,
                      eer_tol=float("-inf"), seed=inp["iterate_seed"])
        final = records[-1].labeling.assignment
        ari = ops(metrics.adjusted_rand_index, final, inp["truth"])
        return {"emb": emb, "km": km, "km_read": km_read,
                "center_labels": center_labels, "labeling": labeling,
                "k_values": k_values, "rows": rows, "records": records,
                "ari": ari, "eer_pct": records[-1].eer * 100.0}

    def quality(self, out):
        return {"eer_pct": out["eer_pct"], "ari": out["ari"]}

    def checks(self, inp, out, rng):
        emb, km = out["emb"], out["km_read"]

        def assignment():
            idx = checks.sample(len(emb), 200, rng)
            got = [out["labeling"].assignment[emb.ids[i]] for i in idx]
            checks.check_assignment(got, emb.vectors[idx], km.centers,
                                    out["center_labels"])

        def shape():
            ks = [k for k, _ in out["rows"]]
            if ks != out["k_values"] or len(out["records"]) != self.iterations:
                raise checks.CheckFailed(
                    f"sweep over {ks}, {len(out['records'])} iterations")

        return [
            ("kmeans_file", lambda: checks.check_kmeans_file(km, out["km"])),
            ("assign_pseudo_labels", assignment),
            ("adjusted_rand_index", lambda: checks.check_ari(
                out["ari"], out["records"][-1].labeling.assignment,
                inp["truth"], rng)),
            ("sweep_and_iterate", shape),
        ]


class LossCheck:
    why = ("AAM (K=1, K=2) and MoCo gradient checks at 100 instances each: "
           "the only load on trainmath and gradcheck; every other layer is "
           "bypassed")
    instances = 100

    def setup(self, work, seeds, ops):
        return {"seeds": [int(s) for s in seeds[:3]]}

    def run(self, inp, ops, tracer):
        s = inp["seeds"]
        errors = {
            "aam_k1": ops(gradcheck.check_aam, 1, self.instances, seed=s[0]),
            "aam_k2": ops(gradcheck.check_aam, 2, self.instances, seed=s[1]),
            "moco": ops(gradcheck.check_moco, self.instances, seed=s[2]),
        }
        return {"errors": errors}

    def quality(self, out):
        return {"grad_max_rel_err": max(out["errors"].values())}

    def checks(self, inp, out, rng):
        return [("gradients",
                 lambda: checks.check_gradients(out["errors"]))]


WORKLOADS = {
    "vox-cohort": VoxCohort(),
    "vox-trials": VoxTrials(),
    "pseudo-label": PseudoLabel(),
    "loss-check": LossCheck(),
}


# ---------------------------------------------------------------------------
# traced run: wrapped calls, computed counts, reported per-layer metrics

def _count(key, fn):
    def count(rec, args, result):
        rec["counts"][key] = fn(args, result)
    return count


def _cohort_cells(args, result):
    t = args["scores"].trials
    return (len(set(t.enroll_ids)) + len(set(t.test_ids))) * len(args["cohort"])


def _candidate_pairs(args, result):
    # gen_calibration_trials scans |bucket a| x |bucket b| pairs for each
    # duration class, once for targets and once for nontargets
    meta = args["emb_set"].meta
    dur = np.array([meta[u].duration_s for u in args["emb_set"].ids])
    short = int(((dur >= 2.0) & (dur < 6.0)).sum())
    long_ = int((dur >= 6.0).sum())
    if args["per_class"] == 0:
        return 0
    return 2 * (short * short + short * long_ + long_ * long_)


def _kmeans_counts(rec, args, model):
    n = len(args["emb_set"])
    batches = args["n_batches"]
    if batches is None:
        batches = -(-10 * n // args["batch_size"])
    rec["counts"]["clustering.minibatch_kmeans.distance_evals"] = (
        (batches * min(args["batch_size"], n) + n) * model.k)
    # summed over the pass's k-means runs, like every count
    rec["counts"]["clustering.minibatch_kmeans.inertia"] = model.inertia


def _aam_evals(args, result):
    # one analytic call, then two loss calls per input coordinate
    per = 1 + 2 * args["dim"] * (1 + args["num_classes"] * args["num_subcenters"])
    return args["instances"] * per


def _moco_evals(args, result):
    return args["instances"] * (1 + 2 * args["batch"] * args["dim"])


_CLI_READS = {"--trials", "--scores", "--enroll", "--test", "--cohort-emb",
              "--cohort-meta", "--emb", "--meta", "--qmf", "--model"}
_CLI_WRITES = {"--out", "--det-out"}


def _cli_counts(rec, args, rc):
    rec["failed"] = rc != 0
    flag = None
    sizes = {"cli.bytes_read": 0, "cli.bytes_written": 0}
    for tok in args["argv"]:
        if tok.startswith("--"):
            flag = tok
        elif os.path.isfile(tok):
            if flag in _CLI_READS:
                sizes["cli.bytes_read"] += os.path.getsize(tok)
            elif flag in _CLI_WRITES:
                sizes["cli.bytes_written"] += os.path.getsize(tok)
    rec["counts"].update(sizes)


def trace_points():
    """(module, attribute, span name, count) for every svkit call the
    traced run wraps. Functions called per utterance or per instance
    (QMF helpers, the losses) stay unwrapped: their time is part of the
    caller's self time."""
    plain = {
        embeddings: ["synth_dataset", "write_embeddings", "write_metadata",
                     "read_metadata", "length_normalize"],
        scoring: ["read_trials", "write_trials", "cosine_score",
                  "build_cohort", "mean_fuse", "read_scores", "write_scores"],
        calibration: ["trial_qmfs", "utterance_qmfs", "build_features",
                      "apply_calibration", "read_model", "write_model",
                      "read_qmf_cache", "write_qmf_cache"],
        metrics: ["eer", "min_dcf", "actual_dcf", "det_points",
                  "adjusted_rand_index"],
        clustering: ["ahc_ward", "assign_pseudo_labels", "prototype_scores",
                     "sweep_cluster_count", "write_kmeans", "read_kmeans"],
    }
    points = [(m, f, f"{m.__name__.split('.')[-1]}.{f}", None)
              for m, fs in plain.items() for f in fs]
    points += [
        (embeddings, "read_embeddings", "embeddings.read_embeddings",
         _count("embeddings.read_embeddings.records",
                lambda a, r: len(r))),
        (scoring, "snorm", "scoring.snorm",
         _count("scoring.snorm.cohort_cells", _cohort_cells)),
        (calibration, "gen_calibration_trials",
         "calibration.gen_calibration_trials",
         _count("calibration.gen_calibration_trials.candidate_pairs",
                _candidate_pairs)),
        (calibration, "fit_logreg", "calibration.fit_logreg",
         _count("calibration.fit_logreg.converged",
                lambda a, r: int(r.converged))),
        (clustering, "minibatch_kmeans", "clustering.minibatch_kmeans",
         _kmeans_counts),
        (clustering, "iterate", "clustering.iterate",
         _count("clustering.iterate.iterations", lambda a, r: len(r))),
        (gradcheck, "check_aam",
         lambda k, *a, **kw: f"gradcheck.check_aam_k{k}",
         _count("trainmath.loss_evals", _aam_evals)),
        (gradcheck, "check_moco", "gradcheck.check_moco",
         _count("trainmath.loss_evals", _moco_evals)),
        (cli, "run", lambda argv, *a, **kw: f"cli.{argv[0]}", _cli_counts),
    ]
    return points


REPORTED_SPANS = [
    "embeddings.synth_dataset", "embeddings.write_embeddings",
    "embeddings.read_embeddings",
    "scoring.write_trials", "scoring.read_trials", "scoring.cosine_score",
    "scoring.snorm", "scoring.mean_fuse", "scoring.read_scores",
    "scoring.write_scores",
    "calibration.gen_calibration_trials", "calibration.trial_qmfs",
    "calibration.fit_logreg", "calibration.apply_calibration",
    "metrics.eer", "metrics.min_dcf", "metrics.actual_dcf",
    "metrics.det_points", "metrics.adjusted_rand_index",
    "clustering.minibatch_kmeans", "clustering.ahc_ward",
    "clustering.assign_pseudo_labels", "clustering.sweep_cluster_count",
    "clustering.iterate", "clustering.refresher",
    "gradcheck.check_aam_k1", "gradcheck.check_aam_k2",
    "gradcheck.check_moco",
    "cli.score", "cli.snorm", "cli.fuse", "cli.qmf", "cli.fit-cal",
    "cli.apply-cal", "cli.metrics",
]
# units ending in _computed are derived from input sizes, not observed
COUNTS = [
    ("scoring.snorm.cohort_cells", "count_computed", "lower"),
    ("calibration.gen_calibration_trials.candidate_pairs", "count_computed",
     "lower"),
    ("calibration.fit_logreg.converged", "count", "higher"),
    ("cli.bytes_read", "bytes_computed", "lower"),
    ("cli.bytes_written", "bytes_computed", "lower"),
    ("embeddings.read_embeddings.records", "count", "lower"),
    ("clustering.minibatch_kmeans.distance_evals", "count_computed", "lower"),
    ("clustering.minibatch_kmeans.inertia", "sq_dist", "lower"),
    ("clustering.iterate.iterations", "count", "lower"),
    ("trainmath.loss_evals", "count_computed", "lower"),
]
LAYERS = ["embeddings", "scoring", "calibration", "metrics", "clustering",
          "gradcheck", "cli"]
# result quality; 0 on workloads that do not compute it
QUALITY = [
    ("eer_pct", "%", "lower"),
    ("min_dcf", "norm_cost", "lower"),
    ("act_dcf", "norm_cost", "lower"),
    ("ari", "index", "higher"),
    ("grad_max_rel_err", "rel_err", "lower"),
]


def per_layer_defs():
    """(name, unit, better) of every per-layer metric, in report order."""
    defs = []
    for span in REPORTED_SPANS:
        defs += [(f"{span}.s", "s", "lower"), (f"{span}.calls", "count", "lower"),
                 (f"{span}.failed", "count", "lower")]
    defs += COUNTS
    defs += [(f"layer.{layer}.s", "s", "lower") for layer in LAYERS]
    defs += [(f"quality.{name}", unit, better) for name, unit, better in QUALITY]
    defs.append(("trace.overhead_s", "s", "lower"))
    return defs


def per_layer_values(summary, quality, overhead_s):
    """{name: value} for every per-layer metric from the traced summary."""
    layer_s = {layer: 0.0 for layer in LAYERS}
    for key, value in summary.items():
        layer = key.split(".")[0]
        if key.endswith(".s") and layer in layer_s:
            layer_s[layer] += value
    values = {}
    for name, _, _ in per_layer_defs():
        if name.startswith("layer."):
            values[name] = layer_s[name.split(".")[1]]
        elif name.startswith("quality."):
            values[name] = quality.get(name.split(".", 1)[1], 0)
        elif name == "trace.overhead_s":
            values[name] = overhead_s
        else:
            values[name] = summary.get(name, 0)
    return values
