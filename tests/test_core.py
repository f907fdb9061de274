import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfx.core import (
    DataError,
    DesignSpec,
    Overrides,
    Term,
    TreatmentPair,
    build_design_matrix,
    dataset_from_arrays,
    parse_term,
    read_csv,
    recode_pair,
    restrict_to_pair,
    wmean,
    write_csv,
)


class TestDatasetFromArrays:
    def test_three_wellformed_rows(self):
        ds = dataset_from_arrays(
            [[0.5], [1.5], [0.2]],
            [0, 1, 1],
            [[1.0, 2.0, 3.0], [0.0, 0.5, -1.0], [0.3, 0.1, 0.9]],
            [0.1, -0.2, 0.0],
            [1.0, 2.0, -1.0],
        )
        assert ds.n == 3
        assert ds.d0 == 1 and ds.d1 == 3
        assert ds.e_levels == {0, 1}

    def test_nan_reported_with_row_and_column(self):
        with pytest.raises(DataError, match=r"row 1.*c1_2"):
            dataset_from_arrays(
                [[0.5], [1.5]], [0, 1], [[1.0, 2.0, 3.0], [0.0, float("nan"), -1.0]], [0.1, -0.2], [1.0, 2.0]
            )

    def test_levels_enumerated(self):
        ds = dataset_from_arrays(np.zeros((4, 1)), [0, 1, 2, 1], np.zeros((4, 1)), np.zeros(4), np.zeros(4))
        assert ds.e_levels == {0, 1, 2}

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            dataset_from_arrays(np.zeros((0, 1)), [], np.zeros((0, 1)), [], [])

    def test_non_integer_level(self):
        with pytest.raises(DataError, match="non-negative integer"):
            dataset_from_arrays([[0.0]], [0.5], [[0.0]], [0.0], [1.0])

    @pytest.mark.parametrize("level", [2**53, 2**60, 99999999999999999999, 10**400, 1e20],
                             ids=["2**53", "2**60", "1e20-int", "1e400-int", "1e20-float"])
    def test_level_beyond_exact_doubles_is_rejected(self, level):
        with pytest.raises(DataError, match=r"^row 2: treatment level .* is not below 2\*\*53"):
            dataset_from_arrays(np.zeros((4, 1)), [0, 1, level, 1], np.zeros((4, 1)), np.zeros(4), np.zeros(4))

    def test_largest_exact_level_is_kept(self):
        ds = dataset_from_arrays(np.zeros((2, 1)), [0, 2**53 - 1], np.zeros((2, 1)), np.zeros(2), np.zeros(2))
        assert ds.e_levels == {0, 2**53 - 1}


class TestRestrictToPair:
    def _dataset(self, levels):
        n = len(levels)
        return dataset_from_arrays(
            np.arange(n, dtype=float)[:, None],
            np.asarray(levels),
            np.zeros((n, 1)),
            np.zeros(n),
            np.zeros(n),
        )

    def test_identity_on_binary(self):
        ds = self._dataset([0, 1, 0, 1])
        out = restrict_to_pair(ds, TreatmentPair(1, 0))
        assert out.n == 4
        assert np.array_equal(out.e, ds.e)

    def test_filters_levels_and_preserves_order(self):
        ds = self._dataset([1, 2, 3, 4, 5, 1, 5])
        out = restrict_to_pair(ds, TreatmentPair(1, 5))
        assert list(out.e) == [1, 5, 1, 5]
        assert list(out.c0[:, 0]) == [0.0, 4.0, 5.0, 6.0]

    def test_absent_level_is_an_error(self):
        ds = self._dataset([0, 1])
        with pytest.raises(DataError, match="level 7 absent"):
            restrict_to_pair(ds, TreatmentPair(1, 7))

    def test_idempotent(self):
        ds = self._dataset([0, 1, 2, 1, 0])
        pair = TreatmentPair(1, 0)
        once = restrict_to_pair(ds, pair)
        twice = restrict_to_pair(once, pair)
        assert np.array_equal(once.e, twice.e)
        assert np.array_equal(once.y, twice.y)

    def test_identity_pair_requires_flag(self):
        ds = self._dataset([0, 1])
        with pytest.raises(DataError, match="identity"):
            restrict_to_pair(ds, TreatmentPair(1, 1))
        out = restrict_to_pair(ds, TreatmentPair(1, 1), allow_identity=True)
        assert out.n == 1

    def test_recode_maps_baseline_to_zero(self):
        ds = self._dataset([3, 5, 3, 5])
        recoded, coding = recode_pair(ds, TreatmentPair(5, 3))
        assert list(recoded.e) == [0, 1, 0, 1]
        assert coding.comparison_internal == 1 and coding.baseline_internal == 0

    def test_recode_identity_mode(self):
        ds = self._dataset([3, 5, 3])
        recoded, coding = recode_pair(ds, TreatmentPair(3, 3), allow_identity=True)
        assert recoded.n == 2
        assert coding.is_identity
        assert np.all(coding.ind_comparison(recoded.e) == 1.0)
        assert np.all(coding.ind_baseline(recoded.e) == 1.0)


class TestDesign:
    def test_parse_and_labels(self):
        spec = DesignSpec.parse("1, c0_1, e, m, e*m")
        assert spec.labels == ("1", "c0_1", "e", "m", "e*m")

    def test_duplicate_terms_forbidden(self):
        with pytest.raises(DataError, match="duplicate"):
            DesignSpec.parse("1, m, e*m, m*e")

    def test_square_via_star(self):
        assert parse_term("c0_1*c0_1") == Term("square", ("c0_1",))

    def test_bad_reference(self):
        with pytest.raises(DataError, match="invalid column reference"):
            DesignSpec.parse("1, c2_1")

    def test_dims_validation(self):
        spec = DesignSpec.parse("1, c1_4")
        with pytest.raises(DataError, match="c1_4"):
            spec.validate_dims(d0=1, d1=3)

    def test_example_row(self):
        ds = dataset_from_arrays([[2.0]], [1], [[1.0, 1.0, 1.0]], [0.5], [0.0])
        spec = DesignSpec.parse("1, c0_1, e, m, e*m")
        assert build_design_matrix(ds, spec).tolist() == [[1.0, 2.0, 1.0, 0.5, 0.5]]
        assert build_design_matrix(ds, spec, Overrides(e=0)).tolist() == [[1.0, 2.0, 0.0, 0.5, 0.0]]

    def test_square_row(self):
        ds = dataset_from_arrays([[2.0]], [0], [[0.0]], [0.0], [0.0])
        spec = DesignSpec.parse("1, c0_1, c0_1^2")
        assert build_design_matrix(ds, spec).tolist() == [[1.0, 2.0, 4.0]]

    def test_per_record_overrides(self):
        ds = dataset_from_arrays(
            np.array([[1.0], [2.0]]), np.array([0, 1]),
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 1.5]), np.zeros(2),
        )
        spec = DesignSpec.parse("1, m, c1_2")
        X = build_design_matrix(ds, spec, Overrides(m=np.array([9.0, 10.0]), c1=np.array([[5.0, 6.0], [7.0, 8.0]])))
        assert X.tolist() == [[1.0, 9.0, 6.0], [1.0, 10.0, 8.0]]

    def test_reduce_at_e(self):
        spec = DesignSpec.parse("1, c0_1, e, c1_1, m, e*m")
        at0 = spec.reduce_at_e(0)
        assert at0.labels == ("1", "c0_1", "c1_1", "m")
        at1 = spec.reduce_at_e(1)
        assert at1.labels == ("1", "c0_1", "c1_1", "m")

    def test_no_nonfinite_from_study_designs(self):
        from pathfx.simulation import draw_dataset, working_models_for

        ds = draw_dataset(200, 3)
        for regime in ("int", "a", "b", "c"):
            models = working_models_for(regime, include_marginal=True)
            for role in models.working_set.roles():
                X = build_design_matrix(ds, models.working_set[role].design)
                assert np.all(np.isfinite(X)), role


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = dataset_from_arrays(
            rng.standard_normal((17, 2)) * 1e3,
            rng.integers(0, 3, 17),
            rng.standard_normal((17, 3)) * 1e-4,
            rng.standard_normal(17),
            rng.standard_normal(17),
        )
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = read_csv(path)
        # %.17g formatting round-trips IEEE doubles bit-for-bit, which is
        # stronger than the 15-significant-digit contract
        assert np.array_equal(back.c0, ds.c0)
        assert np.array_equal(back.c1, ds.c1)
        assert np.array_equal(back.m, ds.m)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.e, ds.e)

    def test_extra_column_strict(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0_1,e,c1_1,m,y,note\n0.1,0,0.2,0.3,0.4,hello\n")
        with pytest.raises(DataError, match="note"):
            read_csv(path)
        ds = read_csv(path, ignore_extra=True)
        assert ds.n == 1

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0_1,e,c1_1,m\n0.1,0,0.2,0.3\n")
        with pytest.raises(DataError, match="'y'"):
            read_csv(path)

    def test_bad_level_reported_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0_1,e,c1_1,m,y\n0.1,-1,0.2,0.3,0.4\n")
        with pytest.raises(DataError, match="row 0"):
            read_csv(path)

    HEADER = "c0_1,e,c1_1,c1_2,m,y\n"
    GOOD = "0.1,0,0.2,0.3,0.4,0.5\n"

    def _error(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + body)
        with pytest.raises(DataError) as excinfo:
            read_csv(path)
        return path, str(excinfo.value)

    def test_ragged_row(self, tmp_path):
        path, message = self._error(tmp_path, self.GOOD + "0.1,1\n")
        assert message == f"{path}: row 1: list index out of range"

    def test_unparsable_cell(self, tmp_path):
        path, message = self._error(tmp_path, "0.1,0,abc,0.3,0.4,0.5\n")
        assert message == f"{path}: row 0: could not convert string to float: 'abc'"

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path, message = self._error(tmp_path, self.GOOD + "0.1,1,0.2,nan,0.4,0.5\n")
        assert message == f"{path}: row 1: non-finite value in c1_2"

    def test_blank_line_counts_in_every_row_number(self, tmp_path):
        # parse errors and value errors alike count file rows, blank lines included
        path, message = self._error(tmp_path, self.GOOD + "\n0.1,1,0.2,x,0.4,0.5\n")
        assert message == f"{path}: row 2: could not convert string to float: 'x'"
        _, message = self._error(tmp_path, self.GOOD + "\n0.1,1,0.2,nan,0.4,0.5\n")
        assert message == f"{path}: row 2: non-finite value in c1_2"
        _, message = self._error(tmp_path, "\n\n" + self.GOOD + "0.1,1,0.2,0.3,0.4,inf\n")
        assert message == f"{path}: row 3: non-finite value in y"

    @pytest.mark.parametrize("level", ["9007199254740992", "99999999999999999999", "1" * 400],
                             ids=["2**53", "1e20", "400-digits"])
    def test_level_beyond_exact_doubles_names_row(self, tmp_path, level):
        path, message = self._error(tmp_path, self.GOOD + f"\n0.1,{level},0.2,0.3,0.4,0.5\n")
        assert message == (f"{path}: row 2: treatment level {level} is not below 2**53, "
                           "above which a double does not hold every integer exactly")

    def test_header_only(self, tmp_path):
        path, message = self._error(tmp_path, "")
        assert message == f"{path}: no data rows"


class TestWmean:
    def test_plain(self):
        assert wmean(np.array([1.0, 3.0])) == 2.0

    def test_weighted_normalized(self):
        assert wmean(np.array([1.0, 3.0]), np.array([3.0, 1.0])) == 1.5

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_unit_weights_match_mean(self, values):
        arr = np.asarray(values)
        assert wmean(arr, np.ones(arr.size)) == pytest.approx(float(arr.mean()), abs=1e-9)
