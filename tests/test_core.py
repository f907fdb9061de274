import dataclasses
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pathfx.core as core_mod
from pathfx.core import (
    DataError,
    DesignSpec,
    Overrides,
    PairCoding,
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
from pathfx.simulation import draw_dataset


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

    def test_a_pair_that_keeps_every_record_shares_the_columns(self):
        ds = self._dataset([3, 5, 3, 5])
        assert restrict_to_pair(ds, TreatmentPair(5, 3)) is ds
        recoded, _ = recode_pair(ds, TreatmentPair(5, 3))
        for name in ("c0", "c1", "m", "y"):
            assert np.shares_memory(getattr(recoded, name), getattr(ds, name)), name
        assert not np.shares_memory(recoded.e, ds.e)
        for name in ("c0", "e", "c1", "m", "y"):
            assert not getattr(recoded, name).flags.writeable, name
            assert not getattr(ds, name).flags.writeable, name
        assert list(ds.e) == [3, 5, 3, 5] and list(recoded.e) == [0, 1, 0, 1]

    def test_a_proper_subset_is_taken(self):
        ds = self._dataset([3, 5, 4, 5])
        recoded, _ = recode_pair(ds, TreatmentPair(5, 3))
        for name in ("c0", "c1", "m", "y"):
            assert not np.shares_memory(getattr(recoded, name), getattr(ds, name)), name
        assert list(recoded.c0[:, 0]) == [0.0, 1.0, 3.0]

    def test_recode_identity_mode(self):
        ds = self._dataset([3, 5, 3])
        recoded, coding = recode_pair(ds, TreatmentPair(3, 3), allow_identity=True)
        assert recoded.n == 2
        assert coding.is_identity
        assert np.all(coding.ind_comparison(recoded.e) == 1.0)
        assert np.all(coding.ind_baseline(recoded.e) == 1.0)

    def test_coding_is_worked_out_from_the_pair(self):
        assert [f.name for f in dataclasses.fields(PairCoding)] == ["pair"]
        identity = PairCoding(pair=TreatmentPair(3, 3))
        assert identity.is_identity
        assert (identity.comparison_internal, identity.baseline_internal) == (1, 1)
        contrast = PairCoding(pair=TreatmentPair(5, 3))
        assert not contrast.is_identity
        assert (contrast.comparison_internal, contrast.baseline_internal) == (1, 0)


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

    @pytest.mark.parametrize("overrides", [
        None,
        Overrides(e=0),
        Overrides(e=np.arange(40) % 2, m=1.5),
        Overrides(m=np.linspace(-2.0, 2.0, 40), c1=np.array([0.25, -3.0])),
        Overrides(e=1, c1=np.arange(80.0).reshape(40, 2) / 7.0),
    ], ids=["none", "scalar-e", "per-record-e", "per-record-m", "per-record-c1"])
    def test_columns_are_contiguous_and_match_a_row_reference(self, overrides):
        rng = np.random.default_rng(11)
        ds = dataset_from_arrays(rng.standard_normal((40, 2)), rng.integers(0, 2, 40),
                                 rng.standard_normal((40, 2)), rng.standard_normal(40), np.zeros(40))
        spec = DesignSpec.parse("1, c0_1, c0_2, e, m, c1_1, c1_2, c0_1^2, m^2, e*m, c0_1*c1_2, e*c0_2")
        X = build_design_matrix(ds, spec, overrides)
        assert X.flags.f_contiguous
        o = overrides or Overrides()

        def value(ref, i):
            if ref == "e":
                return float(ds.e[i] if o.e is None else np.broadcast_to(o.e, (40,))[i])
            if ref == "m":
                return float(ds.m[i] if o.m is None else np.broadcast_to(o.m, (40,))[i])
            j = int(ref[3:]) - 1
            if ref.startswith("c0_"):
                return float(ds.c0[i, j])
            c1 = ds.c1 if o.c1 is None else np.broadcast_to(o.c1, (40, 2))
            return float(c1[i, j])

        def entry(term, i):
            if term.kind == "intercept":
                return 1.0
            a = value(term.refs[0], i)
            if term.kind == "covariate":
                return a
            return a * a if term.kind == "square" else a * value(term.refs[1], i)

        reference = np.array([[entry(term, i) for term in spec.terms] for i in range(40)])
        assert X.tobytes(order="C") == reference.tobytes()

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


def _row_path(path, **kwargs):
    """``read_csv`` held to its row path, the reference the C pass must match."""
    with mock.patch.object(core_mod, "_load_columns", return_value=None):
        return read_csv(path, **kwargs)


def _c_pass(path, **kwargs):
    """``read_csv`` that fails if the file leaves the C pass."""
    with mock.patch.object(core_mod, "_read_rows", side_effect=AssertionError("took the row path")):
        return read_csv(path, **kwargs)


def _outcome(read, path, **kwargs):
    """The columns bit for bit with their dtypes, or the error text."""
    try:
        ds = read(path, **kwargs)
    except DataError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (ds.c0, ds.e, ds.c1, ds.m, ds.y)]


_HEADERS = {
    "full": "c0_1,e,c1_1,c1_2,m,y",
    "bare": "y,m,e",
    "noted": "c0_1,e,m,y,note",
    "shuffled": "c1_1,y,c0_2,e,m,c0_1",
}
_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "1e5", "+.5", "2.", " 2 ", "\t3", "4\xa0", "\u20035"]),
)
_ODD_CELLS = st.sampled_from(["1e400", "nan", "inf", "-inf", "1_000", "1__0", "\u0661.\u0665", "0x10", "", " ", "x",
                              "5\x1c", "\x1f6", "7\x00"])
_PLAIN_LEVELS = st.one_of(st.integers(0, 10**15).map(str), st.sampled_from(["01", " 1 ", "\t2", "007"]))
_ODD_LEVELS = st.one_of(
    st.integers(10**15, 10**21).map(str),
    st.sampled_from(["+1", "1.0", "-1", "1e0", "", "x", "\u0661", "1\x00", "1\x1c", "0000000000000001",
                     "0000000000000001.0", "9007199254740991", "9007199254740992"]),
)


@st.composite
def _csv_files(draw):
    """A header and rows of numbers with awkward spacing, quoting and line ends; some rows odder still."""
    key = draw(st.sampled_from(sorted(_HEADERS)))
    names = _HEADERS[key].split(",")
    odd = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))  # chance that a cell or row is odd
    lines = [_HEADERS[key]]
    for _ in range(draw(st.integers(0, 6))):
        kind = "row"
        if draw(st.floats(0, 1)) < odd:
            kind = draw(st.sampled_from(["row", "spaces", "short", "long", "trailing comma"]))
        elif draw(st.integers(0, 9)) == 0:
            kind = "blank"
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", '""', ","])))
            continue
        cells = []
        for name in names:
            strange = draw(st.floats(0, 1)) < odd
            if name == "e":
                cells.append(draw(_ODD_LEVELS if strange else _PLAIN_LEVELS))
            else:
                cells.append(draw(_ODD_CELLS if strange else _PLAIN_CELLS))
        cells = [f'"{c}"' if draw(st.booleans()) else c for c in cells]
        if kind == "short":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif kind == "long":
            cells.append(draw(_PLAIN_CELLS))
        elif kind == "trailing comma":
            cells.append("")
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text, draw(st.booleans())


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

    # a cell over csv's 131,072-character field limit, and a 0x1c byte that
    # sends the file to the row path
    OVERLONG = "0.1,0,0.2,0.3," + "0.4" + " " * 140_000 + ",0.5\n" + "0.1,1\x1c,0.2,0.3,0.4,0.5\n"

    def test_an_overlong_cell_on_the_row_path_names_its_row(self, tmp_path):
        with mock.patch.object(core_mod, "_load_columns", side_effect=AssertionError("took the C pass")):
            path, message = self._error(tmp_path, self.OVERLONG)
        assert message == f"{path}: row 0: field larger than field limit (131072)"
        path, message = self._error(tmp_path, self.GOOD + "\n" + self.OVERLONG)
        assert message == f"{path}: row 2: field larger than field limit (131072)"

    def test_an_overlong_header_cell_is_a_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER.replace("y", "y" * 140_000) + self.GOOD)
        with pytest.raises(DataError) as excinfo:
            read_csv(path)
        assert str(excinfo.value) == f"{path}: header: field larger than field limit (131072)"

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

    # the C pass against the row path: same columns or same error, byte for byte

    def _compare(self, path, text, ignore_extra=False):
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_row_path, path, ignore_extra=ignore_extra)
        assert _outcome(read_csv, path, ignore_extra=ignore_extra) == expected
        return expected

    @pytest.mark.parametrize("body", [
        " 0.1 ,\t0 , 0.2,0.3 ,0.4,0.5\n",
        '"0.1","1",0.2,"0.3",0.4,"0.5"\n',
        '" 0.1 ",0,"0.2\n",0.3,0.4,0.5\n',
        "0.1,0,0.2,0.3,0.4,0.5\r\n0.6,1,0.7,0.8,0.9,1.0\r\n",
        "0.1,0,0.2,0.3,0.4,0.5\r0.6,1,0.7,0.8,0.9,1.0",
        "\n0.1,0,0.2,0.3,0.4,0.5\n\r\n\n0.6,1,0.7,0.8,0.9,1.0\n\n",
        "-0,0,1e5,1E-5,+.5,-2.\n",
        "0.1\xa0,0,\u20030.2,0.3,0.4,0.5\n",
        "0.1,01,0.2,0.3,0.4,0.5\n0.1,007,0.2,0.3,0.4,0.5\n",
        "0.1,000000000000001,0.2,0.3,0.4,0.5\n",
        "0.1,0,0.2,0.3,0.4,0.5,\n",
        "0.1,0,0.2,0.3,0.4,0.5,extra,cells\n",
    ], ids=["spaces", "quoted", "quoted-newline", "crlf", "cr", "blank-lines", "signs-exponents",
            "unicode-spaces", "leading-zero-levels", "15-digit-level", "trailing-comma", "long-row"])
    def test_plain_files_take_the_c_pass(self, tmp_path, body):
        path = tmp_path / "plain.csv"
        self._compare(path, self.HEADER + body)
        _c_pass(path)

    @pytest.mark.parametrize("body", [
        " \n" + GOOD,
        GOOD + "\t\n",
        '""\n' + GOOD,
        "nan,0,0.2,0.3,0.4,0.5\n",
        GOOD + "0.1,0,inf,0.3,0.4,0.5\n",
        "0.1,0,0.2,0.3,0.4,-inf\n",
        "1_000,0,0.2,0.3,0.4,0.5\n",
        "\u0661.\u0665,0,0.2,0.3,0.4,\u0661\n",
        "0.1,0,0.2,0.3,0.4,0.5\x1c\n",
        "0.1,1\x1c,0.2,0.3,0.4,0.5\n",
        "0.1,+1,0.2,0.3,0.4,0.5\n",
        "0.1,1.0,0.2,0.3,0.4,0.5\n",
        "0.1,-1,0.2,0.3,0.4,0.5\n",
        "0.1,\u0661,0.2,0.3,0.4,0.5\n",
        "0.1,1\x00,0.2,0.3,0.4,0.5\n",
        "0.1,,0.2,0.3,0.4,0.5\n",
        "0.1,1000000000000000,0.2,0.3,0.4,0.5\n",
        "0.1,0000000000000001,0.2,0.3,0.4,0.5\n",
        "0.1,0000000000000001.0,0.2,0.3,0.4,0.5\n",
        "0.1,9007199254740991,0.2,0.3,0.4,0.5\n",
        "0.1,9007199254740992,0.2,0.3,0.4,0.5\n",
        "0.1,123456789012345678,0.2,0.3,0.4,0.5\n",
        "0.1,999999999999999999999,0.2,0.3,0.4,0.5\n",
        GOOD + "0.1,1,0.2\n",
        GOOD + "0.1,1,0.2,0.3,0.4,\n",
        '"0.1"2,0,0.2,0.3,0.4,0.5\n',
        '0"1",0,0.2,0.3,0.4,0.5\n',
        "",
        "\n\r\n",
    ])
    def test_other_files_match_the_row_path(self, tmp_path, body):
        self._compare(tmp_path / "odd.csv", self.HEADER + body)

    @pytest.mark.parametrize("ignore_extra", [False, True])
    def test_extra_columns(self, tmp_path, ignore_extra):
        outcome = self._compare(tmp_path / "extra.csv", "c0_1,e,note,m,y\n0.1,1,hello,0.3,0.4\n",
                                ignore_extra=ignore_extra)
        assert isinstance(outcome, str) != ignore_extra

    @given(_csv_files())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_generated_files(self, tmp_path, file):
        text, ignore_extra = file
        self._compare(tmp_path / "generated.csv", text, ignore_extra=ignore_extra)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_round_trip_of_a_large_draw_is_bitwise(self, tmp_path, seed):
        ds = draw_dataset(25000, seed)
        path = tmp_path / "draw.csv"
        write_csv(ds, path)
        back = _c_pass(path)
        for name in ("c0", "e", "c1", "m", "y"):
            got, want = getattr(back, name), getattr(ds, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_takes_the_row_path(self, tmp_path):
        text = self.HEADER + self.GOOD + "\n0.6,1,0.7,0.8,0.9,1.0\n"
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            piped = _outcome(read_csv, fifo)
        finally:
            writer.join()
        plain = tmp_path / "plain.csv"
        plain.write_text(text)
        assert piped == _outcome(_c_pass, plain)

    @pytest.mark.parametrize("ignore_extra", [False, True])
    @pytest.mark.parametrize("read", [_c_pass, _row_path], ids=["c-pass", "row-path"])
    def test_a_utf8_byte_order_mark_reads_as_the_plain_file(self, tmp_path, read, ignore_extra):
        # Excel's "CSV UTF-8" export starts the file with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(draw_dataset(400, 1), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outcome = _outcome(read, marked, ignore_extra=ignore_extra)
        assert not isinstance(outcome, str)
        assert outcome == _outcome(read, plain, ignore_extra=ignore_extra)


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
