import numpy as np

from trajvrnn.baselines import (
    impute_linear_fit, impute_mean, impute_median, metric_i_l2, metric_p_l2,
    predict_constant_velocity,
)
from trajvrnn.data import SCENE_CENTER, MaskingSpec, build_dataset, generate_sequences
from trajvrnn.report import (
    MetricReport, baseline_infer_fns, csv_to_reports, evaluate_methods,
    report_table, reports_to_csv,
)

from oracle_ops import pooled_distance


def single_agent(track):
    return np.asarray(track, dtype=float)[:, None, :]


# ---------------------------------------------------------------------------
# imputers


def test_mean_fill():
    coords = single_agent([[0.0, 0.0], [9.0, 9.0], [2.0, 4.0]])
    mask = np.array([[1.0], [0.0], [1.0]])
    out = impute_mean(coords, mask)
    np.testing.assert_array_equal(out[1, 0], [1.0, 2.0])
    np.testing.assert_array_equal(out[0, 0], [0.0, 0.0])


def test_mean_identity_when_fully_observed():
    coords = single_agent([[1.0, 2.0], [3.0, 4.0]])
    out = impute_mean(coords, np.ones((2, 1)))
    np.testing.assert_array_equal(out, coords)


def test_mean_scene_center_fallback():
    coords = single_agent([[5.0, 5.0], [6.0, 6.0]])
    out = impute_mean(coords, np.zeros((2, 1)))
    np.testing.assert_array_equal(out, np.broadcast_to(SCENE_CENTER, (2, 1, 2)))


def test_median_fill():
    coords = single_agent([[0.0, 0.0], [2.0, 2.0], [10.0, 10.0], [0.0, 0.0]])
    mask = np.array([[1.0], [1.0], [1.0], [0.0]])
    out = impute_median(coords, mask)
    np.testing.assert_array_equal(out[3, 0], [2.0, 2.0])


def test_median_single_observation():
    coords = single_agent([[7.0, -3.0], [0.0, 0.0]])
    mask = np.array([[1.0], [0.0]])
    out = impute_median(coords, mask)
    np.testing.assert_array_equal(out[1, 0], [7.0, -3.0])


def test_linear_fit_midpoint():
    coords = single_agent([[0.0, 0.0], [99.0, 99.0], [2.0, 2.0]])
    mask = np.array([[1.0], [0.0], [1.0]])
    out = impute_linear_fit(coords, mask)
    np.testing.assert_array_equal(out[1, 0], [1.0, 1.0])


def test_linear_fit_flat_extrapolation():
    coords = single_agent([[55.0, 55.0], [1.0, 1.0], [2.0, 2.0], [77.0, 77.0]])
    mask = np.array([[0.0], [1.0], [1.0], [0.0]])
    out = impute_linear_fit(coords, mask)
    np.testing.assert_array_equal(out[0, 0], [1.0, 1.0])
    np.testing.assert_array_equal(out[3, 0], [2.0, 2.0])


def test_linear_fit_identity_when_observed():
    coords = single_agent([[1.0, 1.0], [4.0, 2.0]])
    out = impute_linear_fit(coords, np.ones((2, 1)))
    np.testing.assert_array_equal(out, coords)


def test_linear_equals_mean_on_symmetric_bracket():
    coords = single_agent([[0.0, 2.0], [50.0, 50.0], [4.0, 6.0]])
    mask = np.array([[1.0], [0.0], [1.0]])
    np.testing.assert_allclose(impute_linear_fit(coords, mask),
                               impute_mean(coords, mask))


# ---------------------------------------------------------------------------
# prediction baseline


def test_constant_velocity_ramp():
    past = single_agent([[0.0, 0.0], [1.0, 0.0]])
    out = predict_constant_velocity(past, 3)
    np.testing.assert_array_equal(out[:, 0], [[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])


def test_constant_velocity_stationary():
    past = single_agent([[2.0, 2.0], [2.0, 2.0]])
    out = predict_constant_velocity(past, 2)
    np.testing.assert_array_equal(out, np.broadcast_to([2.0, 2.0], (2, 1, 2)))


def test_constant_velocity_negative_components():
    past = single_agent([[0.0, 0.0], [-1.0, 2.0]])
    out = predict_constant_velocity(past, 2)
    np.testing.assert_array_equal(out[:, 0], [[-2.0, 4.0], [-3.0, 6.0]])


def test_constant_velocity_single_step_past():
    past = single_agent([[3.0, 3.0]])
    out = predict_constant_velocity(past, 2)
    np.testing.assert_array_equal(out, np.broadcast_to([3.0, 3.0], (2, 1, 2)))


# ---------------------------------------------------------------------------
# metrics


def test_metric_zero_when_exact():
    truth = np.random.default_rng(0).normal(size=(4, 3, 2))
    assert metric_i_l2(truth, truth) == 0.0
    assert metric_p_l2(truth, truth) == 0.0


def test_metric_345_triangle():
    assert metric_i_l2(np.array([[[0.0, 0.0]]]), np.array([[[3.0, 4.0]]])) == 5.0


def test_metric_averages_steps():
    imputed = np.array([[[0.0, 0.0]], [[0.0, 0.0]]])
    truth = np.array([[[0.0, 0.0]], [[3.0, 4.0]]])
    assert metric_i_l2(imputed, truth) == 2.5


def test_metric_missing_only_variant():
    imputed = np.array([[[0.0, 0.0]], [[0.0, 0.0]]])
    truth = np.array([[[1.0, 0.0]], [[3.0, 4.0]]])
    mask = np.array([[1.0], [0.0]])
    assert metric_i_l2(imputed, truth, mask, variant="missing-only") == 5.0
    assert metric_i_l2(imputed, truth, np.ones((2, 1)), variant="missing-only") == 0.0


def test_metric_permutation_invariance_and_translation_bound():
    rng = np.random.default_rng(1)
    imputed = rng.normal(size=(5, 4, 2))
    truth = rng.normal(size=(5, 4, 2))
    perm = rng.permutation(4)
    assert np.isclose(metric_i_l2(imputed[:, perm], truth[:, perm]),
                      metric_i_l2(imputed, truth))
    offset = np.array([0.3, -0.7])
    shifted = metric_i_l2(imputed + offset, truth)
    assert shifted <= metric_i_l2(imputed, truth) + np.linalg.norm(offset) + 1e-12


def test_metrics_match_norm_oracle():
    rng = np.random.default_rng(33)
    estimate, truth = rng.normal(scale=10.0, size=(2, 256, 40, 10, 2))
    mask = (rng.random((256, 40, 10)) < 0.6).astype(np.float64)
    assert metric_i_l2(estimate, truth) == pooled_distance(estimate, truth)
    assert metric_i_l2(estimate, truth, mask, variant="missing-only") == \
        pooled_distance(estimate, truth, mask == 0)
    assert metric_p_l2(estimate[:, :10], truth[:, :10]) == \
        pooled_distance(estimate[:, :10], truth[:, :10])
    # one cell per call, so the mean is that cell's distance: a pooled mean
    # of many cells hides a last-bit difference in one
    for one, want in zip(estimate.reshape(-1, 1, 2)[:200], truth.reshape(-1, 1, 2)):
        assert metric_p_l2(one, want) == pooled_distance(one, want)


def test_linear_fit_beats_mean_on_circle_data():
    seqs = generate_sequences(500, 6, 20, 5, seed=61)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                       split="train", seed=61)
    err_linear = err_mean = 0.0
    for seq, mask in zip(ds.sequences, ds.masks):
        past = seq.past
        err_linear += metric_i_l2(impute_linear_fit(past, mask), past, mask,
                                  variant="missing-only")
        err_mean += metric_i_l2(impute_mean(past, mask), past, mask,
                                variant="missing-only")
    assert err_linear < err_mean


# ---------------------------------------------------------------------------
# reports


def sample_reports():
    return [
        MetricReport("mean", "circle", 5.0, "all", 2.0, 3.0, 10),
        MetricReport("linear_fit", "circle", 5.0, "all", 1.0, 2.0, 10),
        MetricReport("mean", "circle", 3.0, "all", 2.5, 3.5, 10),
        MetricReport("linear_fit", "circle", 3.0, "all", 1.5, 2.5, 10),
    ]


def test_table_single_cell():
    table = report_table([MetricReport("mean", "circle", 5.0, "all", 1.0, 2.0, 4)])
    assert "circle 5" in table and "I-L2" in table and "P-L2" in table
    assert "mean" in table


def test_table_orders_scenarios_and_methods():
    table = report_table(sample_reports())
    assert table.index("circle 3") < table.index("circle 5")
    assert table.index("linear_fit") < table.index("\nmean")


def test_csv_roundtrip():
    reports = sample_reports()
    text = reports_to_csv(reports)
    back = csv_to_reports(text)
    assert sorted(back, key=lambda r: (r.method, r.parameter)) == \
        sorted(reports, key=lambda r: (r.method, r.parameter))
    assert reports_to_csv(back) == text


def test_evaluate_methods_perfect_stub_zero():
    seqs = generate_sequences(4, 3, 8, 2, seed=67)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                       split="test", seed=67)

    def perfect(past, masks):
        truth = np.stack([s.coords for s in ds.sequences])
        return truth[:, :ds.t_past], truth[:, ds.t_past:]

    reports = evaluate_methods(ds, {"perfect": perfect})
    assert {r.variant for r in reports} == {"all", "missing-only"}
    for r in reports:
        assert r.i_l2 == 0.0 and r.p_l2 == 0.0


def test_evaluate_methods_baselines_run():
    seqs = generate_sequences(6, 4, 10, 3, seed=71)
    ds = build_dataset(seqs, MaskingSpec(mode="camera", angle=10.0),
                       split="test", seed=71)
    reports = evaluate_methods(ds, baseline_infer_fns(ds.t_future))
    methods = {r.method for r in reports}
    assert methods == {"mean", "median", "linear_fit"}
    assert all(r.i_l2 >= 0 and r.p_l2 >= 0 for r in reports)
    assert all(r.n_sequences == 6 for r in reports)
