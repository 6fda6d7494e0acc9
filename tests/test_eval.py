"""Evaluation harness, reporting, and analysis helpers."""

import numpy as np
import pytest

from repro.eval import (
    analyze_stochasticity,
    ascii_plot,
    average_rows,
    cdf_points,
    compare_methods,
    evaluate_method,
    fidelity_rows,
    format_table,
    GenerationEnvelope,
    ranking,
    serving_cell_distances_fast,
    sparkline,
    stitched_generation,
)


def constant_generator(value, n_kpis=2):
    def generate(trajectory, rng):
        return np.full((len(trajectory), n_kpis), value, dtype=float)

    return generate


def echo_generator(record_map):
    """Perfect oracle: returns the real series (keyed by trajectory id)."""

    def generate(trajectory, rng):
        return record_map[id(trajectory)]

    return generate


class TestHarness:
    def test_evaluate_method_structure(self, tiny_split):
        result = evaluate_method(
            "const", constant_generator(-85.0), tiny_split.test, ["rsrp", "rsrq"]
        )
        assert set(result.scenarios()) == {r.scenario for r in tiny_split.test}
        for scenario in result.scenarios():
            for kpi in ("rsrp", "rsrq"):
                for metric in ("mae", "dtw", "hwd"):
                    assert result.get(scenario, kpi, metric) >= 0

    def test_oracle_scores_zero(self, tiny_split):
        record_map = {
            id(r.trajectory): r.kpi_matrix(["rsrp", "rsrq"]) for r in tiny_split.test
        }
        result = evaluate_method(
            "oracle", echo_generator(record_map), tiny_split.test, ["rsrp", "rsrq"]
        )
        assert result.average("rsrp", "mae") == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch_caught(self, tiny_split):
        def bad(trajectory, rng):
            return np.zeros((len(trajectory), 5))

        with pytest.raises(ValueError):
            evaluate_method("bad", bad, tiny_split.test, ["rsrp", "rsrq"])

    def test_ranking_prefers_oracle(self, tiny_split):
        record_map = {
            id(r.trajectory): r.kpi_matrix(["rsrp", "rsrq"]) for r in tiny_split.test
        }
        results = compare_methods(
            {
                "oracle": echo_generator(record_map),
                "const": constant_generator(-85.0),
            },
            tiny_split.test,
            ["rsrp", "rsrq"],
        )
        assert ranking(results, "rsrp", "mae")[0] == "oracle"

    def test_average_missing_kpi_raises(self, tiny_split):
        result = evaluate_method(
            "const", constant_generator(-85.0, n_kpis=1), tiny_split.test, ["rsrp"]
        )
        with pytest.raises(KeyError):
            result.average("cqi", "mae")


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1.2345, "x"], [2.0, "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # all lines equal width

    def test_format_table_with_title(self):
        text = format_table(["h"], [[1.0]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_sparkline_length(self):
        out = sparkline(np.sin(np.linspace(0, 10, 500)), width=40)
        assert len(out) == 40

    def test_sparkline_constant(self):
        out = sparkline(np.ones(10))
        assert len(set(out)) == 1

    def test_ascii_plot_contains_legend(self):
        text = ascii_plot({"real": [1, 2, 3], "gen": [3, 2, 1]}, width=20, height=5)
        assert "real" in text and "gen" in text

    def test_cdf_points(self, rng):
        xs, cdf = cdf_points(rng.normal(size=200))
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_fidelity_rows_shape(self, tiny_split):
        results = {
            "const": evaluate_method(
                "const", constant_generator(-85.0, n_kpis=1), tiny_split.test, ["rsrp"]
            )
        }
        scenarios = results["const"].scenarios()
        headers, rows = fidelity_rows(results, "rsrp", scenarios)
        assert len(headers) == 1 + 3 * len(scenarios)
        assert len(rows) == 1

    def test_average_rows_shape(self, tiny_split):
        results = {
            "const": evaluate_method(
                "const", constant_generator(-85.0), tiny_split.test, ["rsrp", "rsrq"]
            )
        }
        headers, rows = average_rows(results, ["rsrp", "rsrq"])
        assert len(headers) == 1 + 6
        assert len(rows[0]) == len(headers)


class TestAnalysis:
    def test_stochasticity(self, small_simulator, sample_trajectory):
        rng = np.random.default_rng(0)
        analysis = analyze_stochasticity(small_simulator, sample_trajectory, rng, repeats=4)
        assert analysis.rsrp_runs.shape == (4, len(sample_trajectory))
        assert analysis.mean_cross_run_std > 0.5  # Fig. 1: real variability
        diversity = analysis.serving_cell_diversity()
        assert diversity.max() >= 2  # Fig. 2: serving cell varies across runs

    def test_stochasticity_correlation(self, small_simulator, sample_trajectory):
        rng = np.random.default_rng(1)
        analysis = analyze_stochasticity(small_simulator, sample_trajectory, rng, repeats=5)
        # Locations with serving-cell churn show more RSRP variation.
        assert analysis.correlation_std_vs_diversity() > 0.0

    def test_envelope(self, rng):
        real = rng.normal(size=100)
        samples = real[None] + rng.normal(0, 0.1, size=(10, 100))
        env = GenerationEnvelope(real=real, samples=samples)
        assert np.all(env.lower <= env.upper)
        assert env.coverage() > 0.5
        assert env.histogram_hwd() < 1.0

    def test_serving_distances(self, sample_record, small_region):
        d = serving_cell_distances_fast(sample_record, small_region.deployment)
        assert d.shape == (len(sample_record),)
        assert np.all(d >= 0)
        assert d.max() < 5000

    def test_stitched_generation_covers(self, tiny_split):
        traj = tiny_split.test[0].trajectory

        def generate(piece):
            return np.zeros((len(piece), 2))

        out = stitched_generation(generate, traj, segment_s=30.0)
        assert out.shape == (len(traj), 2)
