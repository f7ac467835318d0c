"""End-to-end flow and reporting tests."""

import numpy as np
import pytest

from repro.flow import (
    FdrEstimator,
    ascii_series_plot,
    ascii_xy_plot,
    format_table,
    run_reference_flow,
    series_to_csv,
)
from repro.ml import KNeighborsRegressor, LinearLeastSquares, StandardScaler, make_pipeline


def knn_model():
    return make_pipeline(StandardScaler(), KNeighborsRegressor(3))


def test_reference_flow_end_to_end(tiny_mac, tiny_workload):
    report = run_reference_flow(
        tiny_mac,
        tiny_workload,
        knn_model(),
        n_injections=12,
        train_size=0.5,
        campaign_seed=1,
        split_seed=1,
    )
    n = report.dataset.n_samples
    assert len(report.train_indices) + len(report.test_indices) == n
    assert report.test_predictions.shape == report.y_test.shape
    assert np.all((report.test_predictions >= 0) & (report.test_predictions <= 1))
    assert set(report.test_metrics) == {"mae", "max", "rmse", "ev", "r2"}
    # k-NN should comfortably beat a coin flip on this structured data.
    assert report.test_metrics["r2"] > 0.2


def test_estimator_predict_dataset(tiny_dataset):
    estimator = FdrEstimator(knn_model())
    estimator.fit(tiny_dataset)
    predictions = estimator.predict_dataset(tiny_dataset)
    assert set(predictions) == set(tiny_dataset.ff_names)
    assert all(0.0 <= v <= 1.0 for v in predictions.values())


def test_estimator_partial_training(tiny_dataset):
    """Train on half the flip-flops, predict the other half."""
    n = tiny_dataset.n_samples
    train_rows = list(range(0, n, 2))
    test_rows = list(range(1, n, 2))
    estimator = FdrEstimator(knn_model())
    estimator.fit(tiny_dataset, train_rows)
    predictions = estimator.predict(tiny_dataset.X[test_rows])
    assert predictions.shape == (len(test_rows),)


def test_estimator_unfitted_raises(tiny_dataset):
    with pytest.raises(RuntimeError):
        FdrEstimator(knn_model()).predict(tiny_dataset.X)


def test_clipping_toggle(tiny_dataset):
    raw = FdrEstimator(LinearLeastSquares(), clip=False)
    raw.fit(tiny_dataset)
    clipped = FdrEstimator(LinearLeastSquares(), clip=True)
    clipped.fit(tiny_dataset)
    raw_pred = raw.predict(tiny_dataset.X)
    clipped_pred = clipped.predict(tiny_dataset.X)
    assert clipped_pred.min() >= 0.0 and clipped_pred.max() <= 1.0
    # The linear model does overshoot [0,1] on this dataset.
    assert raw_pred.min() < 0.0 or raw_pred.max() > 1.0


def test_campaign_cost_saving(tiny_dataset):
    estimator = FdrEstimator(knn_model())
    savings = estimator.campaign_cost_saving(tiny_dataset, train_size=0.5)
    assert savings["cost_reduction_factor"] == pytest.approx(2.0, rel=0.05)
    savings20 = estimator.campaign_cost_saving(tiny_dataset, train_size=0.2)
    assert savings20["cost_reduction_factor"] == pytest.approx(5.0, rel=0.05)


# ------------------------------------------------------------- reporting


def test_format_table_alignment():
    text = format_table(["A", "Metric"], [["x", 1.23456], ["yy", 2.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.235" in text
    assert all(len(line) == len(lines[1]) for line in lines[1:])


def test_ascii_plots_render():
    plot = ascii_xy_plot({"s": ([0, 1, 2], [0.0, 0.5, 1.0])}, width=20, height=5, title="p")
    assert "p" in plot and "o" in plot
    line_plot = ascii_series_plot([0, 1], {"a": [0.1, 0.9], "b": [0.9, 0.1]}, width=20, height=5)
    assert "a" in line_plot and "b" in line_plot
    assert ascii_xy_plot({}) == "(empty plot)"


def test_series_to_csv():
    csv_text = series_to_csv({"x": [1, 2], "y": [0.5]})
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,"


def test_generate_report(tiny_dataset):
    from repro.flow import generate_report

    text = generate_report(
        tiny_dataset,
        cv_folds=3,
        curve_sizes=[0.2, 0.5],
        include_future_work=False,
    )
    assert text.startswith("# Reproduction report")
    assert "## Table I" in text
    for figure in ("fig2", "fig3", "fig4"):
        assert f"## {figure}" in text
    assert "Shape holds" in text
    assert "Campaign economics" in text
    assert "Engine cost" not in text


def test_generate_report_with_campaign_economics(tiny_dataset, tiny_campaign):
    from repro.flow import generate_report

    _runner, campaign = tiny_campaign
    text = generate_report(
        tiny_dataset,
        cv_folds=3,
        curve_sizes=[0.5],
        include_future_work=False,
        campaign=campaign,
    )
    assert "Engine cost" in text
    assert f"{campaign.n_forward_runs} forward simulations" in text
