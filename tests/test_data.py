import csv
import itertools
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    reference_generate_synthetic,
    reference_read_numeric_csv,
    reference_write_csv,
)
from spmlab.data import (
    MultiLabelDataset,
    SyntheticSpec,
    _cdf,
    _draw_classes,
    _read_csv_rows,
    _read_numeric_csv,
    _write_csv,
    generate_synthetic,
    ingest_csv,
    load_split_csv,
    write_split_csv,
)


class TestGenerator:
    def test_split_sizes_follow_ratio(self):
        splits = generate_synthetic(SyntheticSpec(n_samples=4000, seed=0))
        assert splits["train"].n_samples == 2000
        assert splits["val"].n_samples == 1000
        assert splits["test"].n_samples == 1000

    def test_every_row_has_a_positive(self):
        splits = generate_synthetic(SyntheticSpec(n_samples=800, seed=1))
        for ds in splits.values():
            assert np.all(ds.y_true.sum(axis=1) >= 1)

    def test_extent_support_matches_labels(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=500, seed=2))["train"]
        assert np.all((ds.extents > 0) == (ds.y_true == 1))
        np.testing.assert_allclose(ds.extents.sum(axis=1), 1.0, atol=1e-9)

    def test_mean_cardinality_near_target(self):
        ds = generate_synthetic(SyntheticSpec(n_samples=4000, seed=3))["train"]
        assert abs(ds.y_true.sum(axis=1).mean() - 2.9) < 0.15

    def test_forced_full_cardinality(self):
        splits = generate_synthetic(
            SyntheticSpec(n_samples=100, n_classes=2, mean_positives=2.0, seed=4)
        )
        for ds in splits.values():
            assert np.all(ds.y_true == 1.0)

    def test_same_seed_same_data(self):
        a = generate_synthetic(SyntheticSpec(n_samples=300, seed=5))["train"]
        b = generate_synthetic(SyntheticSpec(n_samples=300, seed=5))["train"]
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.y_true, b.y_true)
        assert np.array_equal(a.extents, b.extents)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("n_samples", 300.5),
                                              ("n_classes", 4.0)])
    def test_integer_field_rejects_a_non_integer(self, field, value):
        SyntheticSpec(**{field: np.int64(value)}).validate()  # NumPy integers pass
        with pytest.raises(ValueError) as exc:
            generate_synthetic(SyntheticSpec(**{field: value}))
        assert str(exc.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("changes, message", [
        ({"n_samples": 3}, "n_samples must be at least 4, got 3"),
        ({"n_samples": float("nan")}, "n_samples must be finite, got nan"),
        ({"n_samples": 300.5}, "n_samples must be an integer, got 300.5"),
        ({"n_classes": 1}, "n_classes must be at least 2, got 1"),
        ({"n_classes": float("inf")}, "n_classes must be finite, got inf"),
        ({"n_features": 0}, "n_features must be at least 1, got 0"),
        ({"n_features": float("-inf")}, "n_features must be finite, got -inf"),
        ({"separation": 0.0}, "separation must be positive, got 0.0"),
        ({"separation": float("nan")}, "separation must be finite, got nan"),
        ({"mean_positives": 0.5}, "mean_positives must be in [1, 19], got 0.5"),
        ({"n_classes": 4, "mean_positives": 4.5}, "mean_positives must be in [1, 4], got 4.5"),
        ({"mean_positives": float("inf")}, "mean_positives must be finite, got inf"),
        ({"extent_concentration": -1.0}, "extent_concentration must be positive, got -1.0"),
        ({"extent_concentration": float("nan")}, "extent_concentration must be finite, got nan"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
        ({"split_ratio": (1, 1)}, "split_ratio must be three finite, positive numbers, got (1, 1)"),
        ({"split_ratio": (1, float("inf"), 1)},
         "split_ratio must be three finite, positive numbers, got (1, inf, 1)"),
        ({"n_samples": 4, "split_ratio": (1, 1, 10)}, "split_ratio must give every split at "
         "least one row, got (1, 1, 10) (train/val/test rows (0, 0, 4) of 4)"),
        # two bad fields: the first declared is named
        ({"n_samples": 3, "separation": 0.0}, "n_samples must be at least 4, got 3"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
    ])
    def test_config_rule_names_field_and_value(self, changes, message):
        with pytest.raises(ValueError) as exc:
            SyntheticSpec(**changes).validate()
        assert str(exc.value) == message

    def test_infeasible_cardinality_rejected(self):
        with pytest.raises(ValueError, match="mean_positives"):
            generate_synthetic(SyntheticSpec(n_classes=4, mean_positives=9.0))

    @pytest.mark.parametrize("ratio, rule", [
        ((float("nan"), 1, 1), "be three finite, positive numbers, got (nan, 1, 1)"),
        ((1, 1, float("inf")), "be three finite, positive numbers, got (1, 1, inf)"),
        ((1, 1), "be three finite, positive numbers, got (1, 1)"),
        ((2, 0, 1), "be three finite, positive numbers, got (2, 0, 1)"),
        ((1, 1, 1e9), "give every split at least one row, got (1, 1, 1000000000.0) "
                      "(train/val/test rows (0, 0, 40) of 40)"),
        ((98, 1, 1), "give every split at least one row, got (98, 1, 1) "
                     "(train/val/test rows (39, 0, 1) of 40)"),
    ], ids=["nan", "inf", "two", "zero", "huge", "empty-val"])
    def test_split_ratio_rejection_names_field_and_value(self, ratio, rule):
        with pytest.raises(ValueError) as exc:
            generate_synthetic(SyntheticSpec(n_samples=40, split_ratio=ratio))
        assert str(exc.value) == f"split_ratio must {rule}"

    @pytest.mark.parametrize("n, ratio, sizes", [
        (4000, (2, 1, 1), (2000, 1000, 1000)), (8000, (98, 1, 1), (7840, 80, 80)),
        (800, (98, 1, 1), (784, 8, 8)), (4, (2, 1, 1), (2, 1, 1)),
    ])
    def test_split_sizes_of_the_suites(self, n, ratio, sizes):
        splits = generate_synthetic(SyntheticSpec(n_samples=n, n_classes=4, split_ratio=ratio))
        assert tuple(ds.n_samples for ds in splits.values()) == sizes


class TestClassDraws:
    @pytest.mark.parametrize("n_classes", [2, 5, 19, 80])
    @pytest.mark.parametrize("skewed", [False, True], ids=["linear", "skewed"])
    def test_same_draws_as_rng_choice(self, n_classes, skewed):
        # one class 100x the rest: later rounds and repeated draws within a round. One
        # generator draws a run of rows of mixed k from the shared first-round CDF, so a
        # later round that changed that CDF would change the next row's draws
        weights = np.linspace(1.0, 0.35, n_classes)
        if skewed:
            weights = np.ones(n_classes)
            weights[n_classes // 2] = 100.0
        weights = weights / weights.sum()
        cdf = _cdf(weights.tolist())
        expected_cdf = np.cumsum(weights)
        expected_cdf /= expected_cdf[-1]
        assert np.array(cdf).tobytes() == expected_cdf.tobytes()
        for seed in range(3):
            ks = np.random.default_rng([seed, n_classes, 1]).permutation(
                np.arange(1, n_classes + 1).repeat(2))
            expected_rng = np.random.default_rng([seed, n_classes])
            rng = np.random.default_rng([seed, n_classes])
            for k in ks.tolist():
                expected = expected_rng.choice(n_classes, k, replace=False, p=weights)
                assert _draw_classes(rng, weights.tolist(), cdf, k) == expected.tolist()
            assert rng.bit_generator.state == expected_rng.bit_generator.state
        assert np.array(cdf).tobytes() == expected_cdf.tobytes()

    @pytest.mark.parametrize("shape", [
        {},
        {"n_classes": 2, "mean_positives": 1.5},
        {"n_classes": 80, "mean_positives": 40.0},
        {"n_classes": 6, "mean_positives": 6.0},
        {"mean_positives": 1.0},
        {"extent_concentration": 0.01},
        # alpha from 0.051 to 0.148: some rows take NumPy's stick-breaking
        # path, others its gamma path
        {"extent_concentration": 0.1},
        # rows of up to 19 shares, so sums with k >= 9 are pairwise: all on the gamma path,
        # all on the stick path (alpha below 0.075), or straddling (alpha 0.077 to 0.219)
        {"mean_positives": 12.0},
        {"mean_positives": 12.0, "extent_concentration": 0.05},
        {"mean_positives": 12.0, "extent_concentration": 0.148},
    ], ids=["default", "c2", "c80", "all-positive", "one-positive", "peaked-extents",
            "straddling-extents", "long-rows", "long-stick-rows", "long-straddling-rows"])
    def test_generator_equals_the_rng_choice_loop(self, shape):
        for seed in range(3):
            spec = SyntheticSpec(n_samples=300, n_features=8, seed=seed, **shape)
            splits = generate_synthetic(spec).values()
            expected = reference_generate_synthetic(spec)
            for got, want in zip(("features", "y_true", "extents"), expected):
                # bytes, so that -0.0 in place of 0.0 would fail
                assert np.concatenate([getattr(ds, got) for ds in splits]).tobytes() == \
                    want.tobytes()

    def test_generator_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma, about 1 MB of peak memory on every benchmark workload
        code = ("import sys; from spmlab.data import SyntheticSpec, generate_synthetic; "
                "generate_synthetic(SyntheticSpec(n_samples=300)); "
                "sys.exit('numpy.ma' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


class TestCsvRoundTrip:
    def test_byte_identical_regeneration(self, tmp_path):
        spec = SyntheticSpec(n_samples=200, n_classes=5, n_features=6, seed=6)
        for sub in ("a", "b"):
            splits = generate_synthetic(spec)
            write_split_csv(splits["train"], tmp_path / sub, "train")
        for name in ("train_features.csv", "train_labels.csv", "train_extents.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_round_trip_preserves_values(self, tmp_path):
        splits = generate_synthetic(
            SyntheticSpec(n_samples=120, n_classes=4, n_features=5, seed=7)
        )
        ds = splits["val"]
        write_split_csv(ds, tmp_path, "val")
        back = load_split_csv(tmp_path, "val")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.y_true, ds.y_true)
        assert np.array_equal(back.extents, ds.extents)

    def test_tiny_hand_files(self, tmp_path):
        (tmp_path / "features.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        (tmp_path / "labels.csv").write_text("1,0\n0,1\n1,1\n")
        ds = ingest_csv(tmp_path / "features.csv", tmp_path / "labels.csv")
        assert ds.n_samples == 3 and ds.n_classes == 2
        write_split_csv(ds, tmp_path, "copy")
        back = load_split_csv(tmp_path, "copy")
        assert np.array_equal(back.features, ds.features)


# -0.0, subnormals, extremes and integer-valued floats, whose reprs differ most
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, 1e300,
               -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1 / 3]


class TestCsvFormat:
    """``_write_csv`` writes the bytes of ``csv.writer``, kept as ``reference_write_csv``."""

    def assert_same_bytes(self, tmp_path, array, dtype):
        _write_csv(tmp_path / "fast.csv", array, dtype)
        reference_write_csv(tmp_path / "reference.csv", array, dtype)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_float_matrices(self, tmp_path, data):
        rows, cols = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 6))
        cells = data.draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                                   min_size=rows * cols, max_size=rows * cols))
        self.assert_same_bytes(tmp_path, np.array(cells, dtype=np.float64).reshape(rows, cols),
                               float)

    @given(st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_binary_matrices(self, tmp_path, data):
        rows, cols = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 6))
        cells = data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                   min_size=rows * cols, max_size=rows * cols))
        self.assert_same_bytes(tmp_path, np.array(cells).reshape(rows, cols), int)

    @pytest.mark.parametrize("shape", [(len(EDGE_FLOATS), 1), (1, len(EDGE_FLOATS))])
    def test_edge_values_in_one_column_and_one_row(self, tmp_path, shape):
        self.assert_same_bytes(tmp_path, np.array(EDGE_FLOATS).reshape(shape), float)

    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(n_samples=120, n_classes=4, n_features=5,
                                              seed=8))["val"]
        write_split_csv(ds, tmp_path, "val")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        cells = itertools.count()

        def repr_then_fail(value):
            if next(cells) == 100:
                raise RuntimeError("killed mid-write")
            return repr(value)

        # the features are written first, and cell 100 is one of theirs
        monkeypatch.setattr("spmlab.data.repr", repr_then_fail, raising=False)
        with pytest.raises(RuntimeError, match="mid-write"):
            write_split_csv(MultiLabelDataset(ds.features + 1.0, ds.y_true, ds.y_true, ds.extents),
                            tmp_path, "val")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestIngestValidation:
    def write(self, tmp_path, features, labels, extents=None):
        (tmp_path / "f.csv").write_text(features, encoding="utf-8")
        (tmp_path / "l.csv").write_text(labels, encoding="utf-8")
        paths = [tmp_path / "f.csv", tmp_path / "l.csv"]
        if extents is not None:
            (tmp_path / "e.csv").write_text(extents, encoding="utf-8")
            paths.append(tmp_path / "e.csv")
        return paths

    def test_all_zero_label_row_rejected_with_line(self, tmp_path):
        paths = self.write(tmp_path, "1.0\n2.0\n", "1\n0\n")
        with pytest.raises(ValueError,
                           match=r"l\.csv: line 2: y_true must have a positive label in every row"):
            ingest_csv(*paths)

    def test_non_binary_label_rejected(self, tmp_path):
        paths = self.write(tmp_path, "1.0\n", "0.5\n")
        with pytest.raises(ValueError,
                           match=r"l\.csv: line 1, column 1: y_true must be binary \(0/1\)"):
            ingest_csv(*paths)

    def test_row_count_mismatch(self, tmp_path):
        paths = self.write(tmp_path, "1.0\n2.0\n", "1\n")
        with pytest.raises(ValueError, match="rows"):
            ingest_csv(*paths)

    def test_extent_on_negative_label_rejected(self, tmp_path):
        paths = self.write(
            tmp_path, "1.0,0.0\n", "1,0\n", "0.5,0.5\n"
        )
        with pytest.raises(ValueError, match="line 1, column 2"):
            ingest_csv(*paths)

    def test_negative_extent_rejected(self, tmp_path):
        paths = self.write(tmp_path, "1.0,0.0\n", "1,1\n", "1.5,-0.5\n")
        with pytest.raises(ValueError,
                           match=r"e\.csv: line 1, column 2: extents must be non-negative"):
            ingest_csv(*paths)

    def test_malformed_cell_names_position(self, tmp_path):
        paths = self.write(tmp_path, "1.0,oops\n", "1,0\n")
        with pytest.raises(ValueError, match="line 1, column 2"):
            ingest_csv(*paths)

    def test_blank_line_before_a_bad_row_gives_its_true_line(self, tmp_path):
        paths = self.write(tmp_path, "1.0\n2.0\n3.0\n", "1\n\n1\n0\n")
        with pytest.raises(ValueError) as exc:
            ingest_csv(*paths)
        assert str(exc.value) == (
            f"labels {paths[1]}: line 4: y_true must have a positive label in every row, "
            "found no positive label in row 2")

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\uff13", 3.0), (" 7", 7.0)],
                             ids=["underscore", "fullwidth-digit", "leading-space"])
    def test_a_cell_is_what_float_takes(self, tmp_path, cell, value):
        # bare on line 1, split on commas; quoted on line 2, read by csv.reader
        paths = self.write(tmp_path, f'{cell}\n"{cell}"\n', "1,0\n0,1\n")
        assert ingest_csv(*paths).features.tolist() == [[value], [value]]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, cell):
        paths = self.write(tmp_path, f"1.0,2.0\n\n3.0,{cell}\n", "1,0\n0,1\n")
        with pytest.raises(ValueError) as exc:
            ingest_csv(*paths)
        assert str(exc.value) == (
            f"features {paths[0]}: line 3, column 2: not a finite number: {float(cell)!r}")

    def test_row_count_mismatch_names_the_labels_file(self, tmp_path):
        paths = self.write(tmp_path, "1.0\n2.0\n", "1\n")
        with pytest.raises(ValueError) as exc:
            ingest_csv(*paths)
        assert str(exc.value) == (f"labels {paths[1]}: y_true must have shape (2, 1) "
                                  "to match the feature rows, found shape (1, 1)")


# cells float() takes, among them non-ASCII digits and cells that a field size
# limit of 4 rejects; cells in quotes, some spanning lines; and cells that fail
NUMBERS = ["1", "-2.5", "1e3", "0", " 7", "1_0", "\u0661\u0662", "\uff13", "123456"]
QUOTED = ['"1"', '"-2.5"', '"6\n"', '"\r\n8"', '" 9 "', '"1""2"', '"12345"']
ODD = ["nan", "inf", "-inf", "x", "", " ", "\t", '"', '""', '"4,5"', '"6\n7"', "\x00", "1\x00",
       "\x85", "\u2028", '1"2']
LINE_ENDS = ["\r\n", "\n", "\r"]
# plain spellings, which NumPy's parser reads: the writer's repr and other formats of
# any finite float (subnormals, -0.0 and the extremes among them), long digit
# strings, values that overflow, and a bare sign or point
PLAIN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([repr(x), "%.17e" % x, "%.3E" % x])),
    st.text("0123456789", min_size=25, max_size=25),
    st.text("0123456789", min_size=400, max_size=400),
    st.sampled_from(["1e400", "-1e400", "+.5", "5."]))


@st.composite
def csv_texts(draw):
    """File text of rows of ``width`` cells, with blank, ragged and odd rows among them; in
    three files of four, only plain cells in full rows, with now and then a ragged or ``,`` one."""
    width = draw(st.integers(1, 3))
    plain = draw(st.integers(0, 3)) > 0
    cell = PLAIN if plain else st.one_of(st.sampled_from(NUMBERS * 4 + QUOTED * 2 + ODD), PLAIN)
    full = st.lists(cell, min_size=width, max_size=width).map(",".join)
    kinds = [full] * (9 if plain else 3) + [
        st.lists(cell, min_size=int(plain), max_size=4).map(",".join),
        st.sampled_from([","] if plain else ["", " ", ","])]
    row = st.one_of(*kinds)
    rows = draw(st.lists(st.tuples(row, st.sampled_from(LINE_ENDS)), max_size=6))
    text = "".join(cells + end for cells, end in rows)
    return text[:-1] if text and draw(st.booleans()) else text  # an unterminated last line


def read_outcome(read, path):
    """The matrix bytes, shape and lines ``read`` gives, or its exception's type and message."""
    try:
        matrix, lines = read(path, "features")
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return matrix.tobytes(), matrix.shape, lines


def csv_error_record(path):
    """The 1-based record at which ``csv.reader`` raises on ``path``."""
    record = 1
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for _ in csv.reader(fh):
                record += 1
        except csv.Error:
            return record
    raise AssertionError(f"csv.reader read all of {path}")


class TestNumericCsvReader:
    """``_read_numeric_csv`` accepts, numbers and rejects what the all-``csv.reader``
    ``reference_read_numeric_csv`` does, and names ``csv.reader``'s own errors."""

    @given(csv_texts(), st.sampled_from([None, None, 4]))
    @settings(max_examples=500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_csv_reader_reference(self, tmp_path, text, field_limit):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        default_limit = csv.field_size_limit()
        try:
            if field_limit is not None:  # 123456 and most plain cells are too long for it
                csv.field_size_limit(field_limit)
            expected = read_outcome(reference_read_numeric_csv, path)
            if expected[0] is csv.Error:
                expected = (ValueError,
                            f"features {path}: line {csv_error_record(path)}: {expected[1]}")
            assert read_outcome(_read_numeric_csv, path) == expected
        finally:
            csv.field_size_limit(default_limit)


def written_split(tmp_path):
    """The train split of a small synthetic dataset with dominant single positives, after
    ``write_split_csv`` wrote its four files to ``tmp_path``, as ``gen`` and ``corrupt`` do."""
    spec = SyntheticSpec(n_samples=60, n_classes=5, n_features=4, seed=3)
    ds = generate_synthetic(spec)["train"]
    observed = np.zeros_like(ds.y_true)
    observed[np.arange(ds.n_samples), ds.extents.argmax(axis=1)] = 1.0
    ds = ds.with_observed(observed)
    write_split_csv(ds, tmp_path, "train")
    return ds


def refuse_records(data, path, name):
    raise AssertionError(f"_read_csv_rows read {path}, a file of plain numbers")


class TestPlainCsvFastPath:
    """A file of plain numbers is parsed by NumPy; a respelling of it that is not plain
    goes through ``_read_csv_rows`` to the same matrix bytes."""

    def test_a_written_split_is_read_without_the_exact_reader(self, tmp_path, monkeypatch):
        ds = written_split(tmp_path)
        monkeypatch.setattr("spmlab.data._read_csv_rows", refuse_records)
        back = load_split_csv(tmp_path, "train")
        for field in ("features", "y_true", "extents", "y_observed"):
            assert getattr(back, field).tobytes() == getattr(ds, field).tobytes(), field

    @pytest.mark.parametrize("respell, blank_at", [
        (lambda text: re.sub(r"^[^,]*", r'"\g<0>"', text, count=1), None),
        (lambda text: re.sub(r"(\d)(\d)", r"\1_\2", text, count=1), None),
        (lambda text: text.replace("\r\n", "\r\n\r\n", 1), 2),
        (lambda text: text.replace(",", ", "), None),
    ], ids=["quoted-cell", "underscore", "blank-line", "comma-space"])
    def test_a_respelled_file_goes_through_the_exact_reader(self, tmp_path, monkeypatch,
                                                            respell, blank_at):
        written_split(tmp_path)
        path = tmp_path / "train_features.csv"
        plain, lines = _read_numeric_csv(path, "features")
        respelled = tmp_path / "respelled.csv"
        respelled.write_bytes(respell(path.read_bytes().decode()).encode())
        read = []
        monkeypatch.setattr("spmlab.data._read_csv_rows",
                            lambda *args: read.append(args) or _read_csv_rows(*args))
        matrix, respelled_lines = _read_numeric_csv(respelled, "features")
        assert len(read) == 1
        assert matrix.tobytes() == plain.tobytes()
        if blank_at is not None:  # the lines from the blank on move down by one
            lines = [line + (line >= blank_at) for line in lines]
        assert respelled_lines == lines

    def test_a_line_as_long_as_the_field_size_limit_is_plain(self, tmp_path, monkeypatch):
        # csv.reader rejects a cell only past the limit: a line of 4 characters holds
        # none, and is parsed by NumPy; one of 5 goes to csv.reader, which names it
        short, long = tmp_path / "short.csv", tmp_path / "long.csv"
        short.write_bytes(b"1234\r\n")
        long.write_bytes(b"12345\r\n")
        default_limit = csv.field_size_limit()
        try:
            csv.field_size_limit(4)
            with pytest.raises(ValueError) as exc:
                _read_numeric_csv(long, "features")
            assert str(exc.value) == f"features {long}: line 1: field larger than field limit (4)"
            monkeypatch.setattr("spmlab.data._read_csv_rows", refuse_records)
            assert _read_numeric_csv(short, "features")[0].tolist() == [[1234.0]]
        finally:
            csv.field_size_limit(default_limit)


def write_split(tmp_path, observed):
    (tmp_path / "s_features.csv").write_text("1.0\n2.0\n")
    (tmp_path / "s_labels.csv").write_text("1,0\n1,1\n")
    (tmp_path / "s_observed.csv").write_text(observed)
    return tmp_path / "s_observed.csv"


class TestLoadSplitObserved:
    def test_non_binary_observed_cell_names_file_line_and_column(self, tmp_path):
        path = write_split(tmp_path, "1,0\n\n0,2\n")
        with pytest.raises(ValueError) as exc:
            load_split_csv(tmp_path, "s")
        assert str(exc.value) == (f"observed labels {path}: line 3, column 2: "
                                  "y_observed must be binary (0/1), found 2.0 at [1, 1]")

    def test_observed_shape_mismatch_names_file(self, tmp_path):
        path = write_split(tmp_path, "1,0\n0,1\n1,0\n")
        with pytest.raises(ValueError) as exc:
            load_split_csv(tmp_path, "s")
        assert str(exc.value) == (f"observed labels {path}: y_observed must have shape (2, 2) "
                                  "to match y_true, found shape (3, 2)")

    def test_split_is_checked_once(self, tmp_path, monkeypatch):
        write_split(tmp_path, "1,0\n0,1\n")
        calls = []
        original = MultiLabelDataset.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(MultiLabelDataset, "__post_init__", counted)
        ds = load_split_csv(tmp_path, "s")
        assert calls == [ds]
        assert np.array_equal(ds.y_observed, [[1.0, 0.0], [0.0, 1.0]])


class TestDatasetInvariants:
    def test_rejects_row_without_positive(self):
        with pytest.raises(ValueError, match="no positive"):
            MultiLabelDataset(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            MultiLabelDataset(np.zeros((2, 2)), np.ones((3, 2)))

    def test_shape_mismatch_is_a_y_true_rejection(self):
        with pytest.raises(ValueError) as exc:
            MultiLabelDataset(np.zeros((2, 2)), np.ones((3, 2)))
        assert (exc.value.name, exc.value.position) == ("y_true", None)

    def test_with_observed_keeps_arrays(self):
        ds = MultiLabelDataset(np.zeros((2, 2)), np.ones((2, 2)))
        obs = np.array([[1.0, 0.0], [0.0, 1.0]])
        ds2 = ds.with_observed(obs)
        assert np.array_equal(ds2.y_observed, obs)
        assert ds.y_observed is None
