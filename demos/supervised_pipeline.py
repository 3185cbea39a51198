"""End-to-end supervised verification demo.

Walks a synthetic embedding corpus through the full post-embedding stack:
cosine scoring, adaptive s-norm, two-system fusion, quality-aware
calibration, and EER / MinDCF / actual DCF evaluation.

Run:  python3 demos/supervised_pipeline.py
"""


from svkit import (
    DcfParams,
    actual_dcf,
    apply_calibration,
    build_cohort,
    build_features,
    cosine_score,
    eer,
    fit_logreg,
    gen_calibration_trials,
    length_normalize,
    mean_fuse,
    min_dcf,
    snorm,
    synth_dataset,
    trial_qmfs,
)


def main():
    print("== 1. synthetic corpus ==")
    data = length_normalize(
        synth_dataset(100, 20, 32, concentration=4.0, seed=0)
    )
    print(f"{len(data)} utterances from 100 speakers, dim {data.dim}")

    print("\n== 2. trials and raw cosine scores ==")
    cal_trials = gen_calibration_trials(data, per_class=1000, seed=1)
    eval_trials = gen_calibration_trials(data, per_class=1000, seed=2)
    raw = cosine_score(eval_trials, data, data)
    print(f"{len(cal_trials)} calibration trials, "
          f"{len(eval_trials)} evaluation trials")
    print(f"raw cosine EER: {eer(raw) * 100:.2f}%")

    print("\n== 3. adaptive s-norm ==")
    cohort = build_cohort(data)
    normed = snorm(raw, data, data, cohort, top_n=100)
    # right after s-norm on the same trials, sets and cohort, the
    # imposter-mean QMFs reuse s-norm's pass over the cohort
    eval_qmfs = trial_qmfs(eval_trials, data, data, cohort, top_n=100)
    print(f"s-normed EER: {eer(normed) * 100:.2f}% "
          f"(cohort of {len(cohort)} speaker means, top-100)")

    print("\n== 4. two-system fusion ==")
    # second 'system': embeddings of the same utterances from an
    # independent synthesis seed, standing in for a second trained network
    data_b = length_normalize(
        synth_dataset(100, 20, 32, concentration=4.0, seed=4)
    )
    raw_b = cosine_score(eval_trials, data_b, data_b)
    normed_b = snorm(raw_b, data_b, data_b, build_cohort(data_b),
                     top_n=100)
    fused = mean_fuse([normed, normed_b])
    print(f"system B EER: {eer(normed_b) * 100:.2f}%, "
          f"fused EER: {eer(fused) * 100:.2f}%")

    print("\n== 5. quality-aware calibration ==")
    params = DcfParams(p_target=0.01)

    cal_normed = snorm(cosine_score(cal_trials, data, data),
                       data, data, cohort, top_n=100)
    cal_qmfs = trial_qmfs(cal_trials, data, data, cohort, top_n=100)
    cal_fused = mean_fuse([
        cal_normed,
        snorm(cosine_score(cal_trials, data_b, data_b),
              data_b, data_b, build_cohort(data_b), top_n=100),
    ])
    plain = fit_logreg(build_features(cal_fused), cal_trials.labels)
    stage1 = apply_calibration(plain, cal_fused)
    qa = fit_logreg(build_features(stage1, cal_qmfs), cal_trials.labels)

    llr = apply_calibration(qa, apply_calibration(plain, fused), eval_qmfs)

    print(f"calibrated EER:  {eer(llr) * 100:.2f}%")
    print(f"MinDCF(0.01):    {min_dcf(llr, params):.4f}")
    print(f"actual DCF(0.01): {actual_dcf(llr, params):.4f} "
          f"(close to MinDCF means well calibrated)")


if __name__ == "__main__":
    main()
