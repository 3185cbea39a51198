"""Command-line surface. Every subcommand does one thing and composes with
the others through files. Machine-readable one-line JSON goes to stdout,
human-readable logs to stderr. Exit codes: 0 ok, 1 usage error, 2 data
error."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys

import numpy as np

from . import (
    calibration,
    clustering,
    embeddings,
    gradcheck,
    metrics,
    scoring,
    trainmath,
)
from .errors import SvkitError

log = logging.getLogger("svkit")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_set(emb_path, meta_path=None, normalize=False):
    emb = embeddings.read_embeddings(emb_path)
    if meta_path:
        meta = embeddings.read_metadata(meta_path)
        try:
            emb = embeddings.EmbeddingSet(emb.ids, emb.vectors, meta)
        except SvkitError as e:
            raise type(e)(f"{meta_path}: {e} (not in {emb_path})") from None
    if normalize:
        emb = embeddings.length_normalize(emb)
    return emb


def _top_n(text):
    """`--top-n` / `--qmf-top-n` value: a positive integer, or 'all' (None)
    for the whole cohort."""
    if text == "all":
        return None
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"invalid value {n}: must be >= 1 or 'all'")
    return n


def _k_values(text):
    """`--k-values` value: comma-separated integers >= 1."""
    values = [int(v) for v in text.split(",") if v]
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be comma-separated integers >= 1")
    return values


def _add_qmf_args(p):
    p.add_argument("--qmf-metric", default="inner_product",
                   choices=["inner_product", "cosine"])
    p.add_argument("--qmf-top-n", type=_top_n, default=100,
                   help="integer or 'all'")


def build_parser():
    parser = _Parser(prog="svkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("synth", _cmd_synth, "generate a synthetic labeled set")
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--utts-per-speaker", type=int, required=True)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--concentration", type=float, default=4.0)
    p.add_argument("--dur-lo", type=float, default=2.0)
    p.add_argument("--dur-hi", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="binary embedding file")
    p.add_argument("--meta-out", required=True, help="metadata CSV")

    p = command("score", _cmd_score, "cosine-score a trial list")
    p.add_argument("--trials", required=True)
    p.add_argument("--enroll", required=True)
    p.add_argument("--test", help="defaults to the enroll set")
    p.add_argument("--out", required=True)

    p = command("snorm", _cmd_snorm, "adaptive s-normalization")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--enroll", required=True)
    p.add_argument("--test")
    p.add_argument("--cohort-emb", required=True)
    p.add_argument("--cohort-meta", required=True)
    p.add_argument("--top-n", type=_top_n, default=100,
                   help="integer or 'all'")
    p.add_argument("--out", required=True)

    p = command("gen-trials", _cmd_gen_trials,
                "calibration trial generation")
    p.add_argument("--emb", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--per-class", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("qmf", _cmd_qmf, "per-utterance quality measure cache")
    p.add_argument("--emb", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--cohort-emb", required=True)
    p.add_argument("--cohort-meta", required=True)
    _add_qmf_args(p)
    p.add_argument("--out", required=True)

    p = command("fit-cal", _cmd_fit_cal,
                "fit logistic-regression calibration")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--qmf", help="QMF cache CSV for quality-aware features")
    p.add_argument("--l2", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", required=True)

    p = command("apply-cal", _cmd_apply_cal, "apply a calibration model")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--qmf")
    p.add_argument("--out", required=True)

    p = command("fuse", _cmd_fuse, "mean-fuse score files")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = command("metrics", _cmd_metrics, "EER / MinDCF / actual DCF")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--p-target", type=float, default=0.01)
    p.add_argument("--actual", action="store_true",
                   help="scores are LLRs; also report actual DCF")
    p.add_argument("--det-out", help="write (P_fa, P_miss) CSV")

    p = command("kmeans", _cmd_kmeans, "mini-batch k-means")
    p.add_argument("--emb", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=10000)
    p.add_argument("--n-batches", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("ahc", _cmd_ahc, "Ward AHC over k-means centers")
    p.add_argument("--kmeans", required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--out", required=True,
                   help="center-label file (`center_<i> label`)")

    p = command("assign", _cmd_assign, "assign pseudo-labels")
    p.add_argument("--emb", required=True)
    p.add_argument("--kmeans", required=True)
    p.add_argument("--center-labels", required=True)
    p.add_argument("--out", required=True)

    p = command("sweep", _cmd_sweep, "cluster-count sweep")
    p.add_argument("--emb", required=True)
    p.add_argument("--kmeans", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--k-values", type=_k_values, required=True,
                   help="comma-separated cluster counts")
    p.add_argument("--out", required=True, help="CSV `K,EER`")

    p = command("iterate", _cmd_iterate, "iterative clustering driver")
    p.add_argument("--emb", required=True)
    p.add_argument("--k-centers", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=10000)
    p.add_argument("--trials", help="evaluation trials for the stop rule")
    p.add_argument("--max-iters", type=int, default=7)
    p.add_argument("--refresher", default="identity",
                   choices=["identity", "prototype-pull"])
    p.add_argument("--pull-factor", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="final labels file")

    p = command("loss-check", _cmd_loss_check, "gradient-check the losses")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = command("clr", _cmd_clr, "triangular2 learning rate at t")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--cycle-len", type=int, default=130000)
    p.add_argument("--lr-min", type=float, default=1e-8)
    p.add_argument("--lr-max", type=float, default=1e-3)

    return parser


@functools.cache
def _parser():
    """The one parser of the process: parsing reads the tree and puts what
    it parses into a new namespace, so `run` calls share no state."""
    return build_parser()


def _cmd_synth(args):
    emb = embeddings.synth_dataset(
        args.speakers, args.utts_per_speaker, args.dim, args.concentration,
        (args.dur_lo, args.dur_hi), args.seed,
    )
    embeddings.write_embeddings(emb, args.out)
    embeddings.write_metadata(emb.meta, args.meta_out)
    return {"utterances": len(emb),
            "speakers": args.speakers, "out": args.out}


def _cmd_score(args):
    trials = scoring.read_trials(args.trials)
    enroll = _load_set(args.enroll, normalize=True)
    test = _load_set(args.test, normalize=True) if args.test else enroll
    out = scoring.cosine_score(trials, enroll, test)
    scoring.write_scores(out, args.out)
    return {"trials": len(out), "out": args.out}


def _cmd_snorm(args):
    trials = scoring.read_trials(args.trials)
    raw = scoring.read_scores(args.scores, trials)
    enroll = _load_set(args.enroll, normalize=True)
    test = _load_set(args.test, normalize=True) if args.test else enroll
    cohort = scoring.build_cohort(
        _load_set(args.cohort_emb, args.cohort_meta, normalize=True))
    out = scoring.snorm(raw, enroll, test, cohort, args.top_n)
    scoring.write_scores(out, args.out)
    return {"trials": len(out), "cohort_size": len(cohort), "out": args.out}


def _cmd_gen_trials(args):
    if args.per_class == 0:  # the library returns no trials for 0
        raise SvkitError("--per-class 0 would write no trials")
    emb = _load_set(args.emb, args.meta)
    trials = calibration.gen_calibration_trials(emb, args.per_class,
                                                args.seed)
    scoring.write_trials(trials, args.out)
    return {"trials": len(trials),
            "targets": int((trials.labels == 1).sum()), "out": args.out}


def _cmd_qmf(args):
    emb = _load_set(args.emb, args.meta, normalize=True)
    cohort = scoring.build_cohort(
        _load_set(args.cohort_emb, args.cohort_meta, normalize=True))
    cache = calibration.utterance_qmfs(emb, cohort, args.qmf_metric,
                                       args.qmf_top_n)
    calibration.write_qmf_cache(cache, args.out)
    return {"utterances": len(cache), "out": args.out}


def _trial_qmf_vectors(trials, qmf_path):
    """(n, 4) trial QMF features from the QMF cache at `qmf_path`, or None."""
    if not qmf_path:
        return None
    return calibration.trial_qmfs_from_cache(
        trials, calibration.read_qmf_cache(qmf_path))


def _cmd_fit_cal(args):
    trials = scoring.read_trials(args.trials)
    scores = scoring.read_scores(args.scores, trials)
    qmfs = _trial_qmf_vectors(trials, args.qmf)
    names = ("score",) if qmfs is None else calibration.QA_FEATURE_NAMES
    X = calibration.build_features(scores, qmfs)
    model = calibration.fit_logreg(X, trials.labels, args.l2, args.max_iter,
                                   feature_names=names)
    calibration.write_model(model, args.out)
    return {"features": model.arity,
            "converged": model.converged, "out": args.out}


def _cmd_apply_cal(args):
    trials = scoring.read_trials(args.trials)
    scores = scoring.read_scores(args.scores, trials)
    qmfs = _trial_qmf_vectors(trials, args.qmf)
    model = calibration.read_model(args.model)
    out = calibration.apply_calibration(model, scores, qmfs)
    scoring.write_scores(out, args.out)
    return {"trials": len(out), "out": args.out}


def _cmd_fuse(args):
    trials = scoring.read_trials(args.trials)
    sets = [scoring.read_scores(p, trials) for p in args.scores]
    out = scoring.mean_fuse(sets)
    scoring.write_scores(out, args.out)
    return {"systems": len(sets), "out": args.out}


def _cmd_metrics(args):
    params = metrics.DcfParams(p_target=args.p_target)
    trials = scoring.read_trials(args.trials)
    scores = scoring.read_scores(args.scores, trials)
    # the scores are sorted once, for all three operating-point metrics
    p_miss, p_fa = metrics._operating_points(scores)
    e = metrics._eer(p_miss, p_fa)
    m = metrics._min_dcf(p_miss, p_fa, params)
    payload = {"eer_pct": e * 100.0, "min_dcf": m, "p_target": args.p_target}
    line = f"EER(%) {e * 100.0:.4f} MinDCF_{args.p_target:g} {m:.4f}"
    if args.actual:
        a = metrics.actual_dcf(scores, params)
        payload["act_dcf"] = a
        line += f" ActDCF_{args.p_target:g} {a:.4f}"
    if args.det_out:
        def block(lo, hi):
            return (("%.9g,%.9g\n" * (hi - lo)) % tuple(scoring._flat(
                p_fa[lo:hi].tolist(), p_miss[lo:hi].tolist())))

        embeddings._write_blocks(args.det_out, len(p_fa), block,
                                 header="p_fa,p_miss\n")
    log.info(line)
    return payload


def _cmd_kmeans(args):
    emb = _load_set(args.emb, normalize=True)
    model = clustering.minibatch_kmeans(emb, args.k, args.batch_size,
                                        args.n_batches, args.seed)
    clustering.write_kmeans(model, args.out)
    return {"k": model.k, "inertia": model.inertia, "out": args.out}


def _cmd_ahc(args):
    model = clustering.read_kmeans(args.kmeans)
    _, labels = clustering.ahc_ward(model.centers, args.clusters)
    clustering.write_labels(
        {f"center_{i}": int(c) for i, c in enumerate(labels)}, args.out)
    return {"centers": model.k, "clusters": args.clusters, "out": args.out}


def _read_center_labels(path, k):
    """The labels of center_0 .. center_{k-1}; a file with any other
    entries was written for another model."""
    raw = clustering.read_labels(path)
    names = [f"center_{i}" for i in range(k)]
    if raw.keys() != set(names):
        raise SvkitError(
            f"{path}: {len(raw)} center labels do not match the {k} "
            f"centers center_0 .. center_{k - 1} of the k-means model")
    return np.fromiter(map(raw.__getitem__, names), np.int64, k)


def _cmd_assign(args):
    emb = _load_set(args.emb, normalize=True)
    model = clustering.read_kmeans(args.kmeans)
    labels = _read_center_labels(args.center_labels, model.k)
    labeling = clustering.assign_pseudo_labels(emb, model, labels)
    clustering.write_labels(labeling.assignment, args.out)
    return {"utterances": len(labeling.assignment),
            "clusters": labeling.num_clusters, "out": args.out}


def _cmd_sweep(args):
    emb = _load_set(args.emb, normalize=True)
    model = clustering.read_kmeans(args.kmeans)
    trials = scoring.read_trials(args.trials)
    rows, best = clustering.sweep_cluster_count(emb, model, args.k_values,
                                                trials)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("K,EER\n")
        for k_val, e in rows:
            f.write(f"{k_val},{e:.9g}\n")
    return {"best_k": best,
            "table": [{"K": k_val, "eer": e} for k_val, e in rows],
            "out": args.out}


def _cmd_iterate(args):
    # the pull factor is checked whichever refresher runs
    pull = clustering.make_prototype_pull_refresher(args.pull_factor)
    refresher = (pull if args.refresher == "prototype-pull"
                 else clustering.identity_refresher)
    emb = _load_set(args.emb, normalize=True)
    trials = scoring.read_trials(args.trials) if args.trials else None
    records = clustering.iterate(
        emb, refresher, args.k_centers, args.clusters, args.batch_size,
        eval_trials=trials, max_iters=args.max_iters, seed=args.seed,
    )
    clustering.write_labels(records[-1].labeling.assignment, args.out)
    return {"iterations": len(records),
            "eer": [r.eer for r in records],
            "agreement": [r.agreement_with_prev for r in records],
            "out": args.out}


def _cmd_loss_check(args):
    results = gradcheck.run_suite(args.instances, args.seed)
    for name, err in results.items():
        log.info("%s max relative gradient error: %.3e", name, err)
    return results


def _cmd_clr(args):
    lr = trainmath.clr_triangular2(args.t, args.cycle_len, args.lr_min,
                                   args.lr_max)
    return {"t": args.t, "lr": lr}


def run(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help and friends
        return 0 if e.code in (0, None) else 1
    try:
        payload = args.handler(args)
        print(json.dumps({"command": args.command, **payload},
                         allow_nan=False))
        return 0
    except (SvkitError, OSError, ValueError) as e:
        log.error("%s", e)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
