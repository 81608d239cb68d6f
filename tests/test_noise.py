import numpy as np
import pytest
from scipy import stats

from spmlab.data import SyntheticSpec, generate_synthetic
from spmlab.net import make_rng
from spmlab.noise import (
    FlipRateTable,
    compute_flip_rates,
    simulate_dominant_spml,
    simulate_random_spml,
)

from oracles import reference_random_spml, reference_write_fliprates


class TestRandomSimulator:
    def test_single_candidate_is_forced(self):
        y = np.array([[1.0, 0.0, 0.0]])
        out = simulate_random_spml(y, make_rng(0))
        np.testing.assert_array_equal(out, y)

    def test_choice_is_a_true_positive(self):
        y = np.array([[1.0, 1.0, 0.0]])
        for seed in range(20):
            out = simulate_random_spml(y, make_rng(seed))
            assert out.sum() == 1.0
            assert np.all(out <= y)

    def test_row_without_positive_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            simulate_random_spml(np.array([[1.0, 0.0], [0.0, 0.0]]), make_rng(0))

    def test_two_class_frequency(self):
        y = np.tile([1.0, 1.0], (100_000, 1))
        out = simulate_random_spml(y, make_rng(3))
        freq = out[:, 0].mean()
        assert abs(freq - 0.5) < 0.01

    def test_uniform_choice_chi_square(self):
        y = np.tile([1.0, 1.0, 1.0, 1.0, 0.0], (100_000, 1))
        out = simulate_random_spml(y, make_rng(4))
        counts = out.sum(axis=0)[:4]
        assert stats.chisquare(counts).pvalue > 0.01

    def test_output_is_valid_single_positive(self):
        rng = make_rng(5)
        y = (rng.random((500, 6)) < 0.4).astype(float)
        y[y.sum(axis=1) == 0, 0] = 1.0
        out = simulate_random_spml(y, rng)
        assert np.all(out.sum(axis=1) == 1.0)
        assert np.all(out <= y)

    @pytest.mark.parametrize("n, n_classes, density", [
        pytest.param(300, 6, 0.4, id="mixed"),
        pytest.param(200, 5, 0.0, id="one-positive-rows"),
        pytest.param(50, 1, 0.0, id="one-column"),
        pytest.param(1, 7, 0.5, id="one-row"),
        pytest.param(120, 90, 0.6, id="wide-rows"),
    ])
    def test_bulk_draw_equals_per_row_reference(self, n, n_classes, density):
        # same picks from the same draws: the generators end in one state
        rng = make_rng(11)
        y = (rng.random((n, n_classes)) < density).astype(float)
        y[np.arange(n), rng.integers(0, n_classes, n)] = 1.0
        bulk, loop = make_rng(12), make_rng(12)
        assert np.array_equal(simulate_random_spml(y, bulk), reference_random_spml(y, loop))
        assert bulk.random() == loop.random()


class TestDominantSimulator:
    def test_argmax_extent_kept(self):
        y = np.array([[1.0, 1.0]])
        e = np.array([[0.7, 0.3]])
        np.testing.assert_array_equal(simulate_dominant_spml(y, e), [[1.0, 0.0]])

    def test_tie_goes_to_lowest_index(self):
        y = np.array([[1.0, 1.0]])
        e = np.array([[0.5, 0.5]])
        np.testing.assert_array_equal(simulate_dominant_spml(y, e), [[1.0, 0.0]])

    def test_deterministic_and_idempotent(self):
        rng = make_rng(6)
        splits = generate_synthetic(SyntheticSpec(n_samples=400, seed=6))
        ds = splits["train"]
        a = simulate_dominant_spml(ds.y_true, ds.extents)
        b = simulate_dominant_spml(ds.y_true, ds.extents)
        np.testing.assert_array_equal(a, b)
        # re-running on the already-single-positive output keeps it fixed
        kept_extents = np.where(a == 1.0, 1.0, 0.0)
        np.testing.assert_array_equal(simulate_dominant_spml(a, kept_extents), a)

    def test_minor_classes_flip_more(self):
        # generator weights make low-index classes systematically dominant
        splits = generate_synthetic(SyntheticSpec(n_samples=2000, n_classes=10, seed=7))
        ds = splits["train"]
        obs = simulate_dominant_spml(ds.y_true, ds.extents)
        table = compute_flip_rates(ds.y_true, obs)
        dominant_beta = np.nanmean(table.beta[:3])
        minor_beta = np.nanmean(table.beta[-3:])
        assert minor_beta > dominant_beta

    def test_extent_support_validated(self):
        y = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="label is 0"):
            simulate_dominant_spml(y, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="true-positive cell"):
            simulate_dominant_spml(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="^extent rows must sum to 1 over positive classes$"):
            simulate_dominant_spml(np.array([[1.0, 1.0]]), np.array([[0.5, 0.6]]))


class TestFlipRates:
    def test_identity_labels_have_zero_rates(self):
        y = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        table = compute_flip_rates(y, y)
        np.testing.assert_allclose(table.beta[~np.isnan(table.beta)], 0.0)
        assert table.micro == 0.0

    def test_definition(self):
        y = np.zeros((10, 2))
        y[:, 0] = 1.0
        obs = y.copy()
        obs[:7, 0] = 0.0
        obs[:7, 1] = 0.0
        # class 1 has no true positives at all
        table = compute_flip_rates(y, obs)
        assert abs(table.beta[0] - 0.7) < 1e-12
        assert np.isnan(table.beta[1])
        assert table.support[1] == 0

    def test_micro_matches_cardinality(self):
        rng = make_rng(8)
        splits = generate_synthetic(SyntheticSpec(n_samples=3000, seed=8))
        ds = splits["train"]
        obs = simulate_random_spml(ds.y_true, rng)
        table = compute_flip_rates(ds.y_true, obs)
        mean_card = ds.y_true.sum(axis=1).mean()
        assert abs(table.micro - (1.0 - 1.0 / mean_card)) < 0.02
        # desk anchor: mean cardinality 2.9 puts the micro rate near 0.65
        assert 0.6 < table.micro < 0.7

    def test_round_trip_count_identity(self):
        rng = make_rng(9)
        y = (rng.random((300, 5)) < 0.5).astype(float)
        y[y.sum(axis=1) == 0, 2] = 1.0
        obs = simulate_random_spml(y, rng)
        table = compute_flip_rates(y, obs)
        kept = (1.0 - table.beta[~np.isnan(table.beta)]) * table.support[table.support > 0]
        assert abs(kept.sum() - y.shape[0]) < 1e-9

    def test_rejects_invented_positive(self):
        with pytest.raises(ValueError, match="ground truth"):
            compute_flip_rates(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))

    def test_rejects_ground_truth_without_positives(self):
        with pytest.raises(ValueError, match="^ground truth has no positive labels at all$"):
            compute_flip_rates(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("table", [
        # an unsupported class, and floats whose reprs differ most
        FlipRateTable(np.array([np.nan, -0.0, 1e-300, 5e-324]), np.array([0, 3, 2, 1]),
                      5e-324, 1e-300),
        compute_flip_rates(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                           np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
    ], ids=["edge-values", "computed"])
    def test_csv_has_the_bytes_of_csv_writer(self, tmp_path, table):
        table.to_csv(tmp_path / "fliprates.csv")
        reference_write_fliprates(tmp_path / "reference.csv", table)
        assert ((tmp_path / "fliprates.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())


def test_both_simulators_satisfy_single_positive_contract():
    splits = generate_synthetic(SyntheticSpec(n_samples=600, seed=10))
    ds = splits["train"]
    rng = make_rng(10)
    for obs in (
        simulate_random_spml(ds.y_true, rng),
        simulate_dominant_spml(ds.y_true, ds.extents),
    ):
        assert np.all(obs.sum(axis=1) == 1.0)
        assert np.all(obs <= ds.y_true)
