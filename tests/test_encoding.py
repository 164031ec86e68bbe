"""Table parsing, rule-based encoding, and the dataset round trip."""

import dataclasses
import hashlib
import io
import math
import os
import pickle
import typing

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublelasso import (
    EmptyDatasetError,
    EncodingError,
    ParseError,
    SchemaError,
    encode,
    encoding_spec_from_yaml,
    encoding_spec_to_yaml,
    load_table,
    save_dataset,
    synthetic_survey_schema,
    synthetic_survey_table,
)
from doublelasso import encoding, simulate
from doublelasso.encoding import (
    YAML_LOADER,
    CategoricalRule,
    ColumnInfo,
    ColumnRule,
    Dataset,
    DerivedRule,
    EncodingSpec,
    InteractionRule,
    NumericRule,
    RawTable,
    load_dataset,
    sidecar_path,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _yaml_documents() -> dict:
    docs = {}
    for name in ("encoding.yaml", "study.yaml"):
        with open(os.path.join(ROOT, "demo", name), encoding="utf-8") as fh:
            docs[name] = fh.read()
    docs["survey"] = encoding_spec_to_yaml(synthetic_survey_schema())
    for name in ("confounded_benchmark", "sparse_logistic_benchmark",
                 "sparse_linear_benchmark", "null_logistic_benchmark"):
        docs[name] = simulate.study_spec_to_yaml(getattr(simulate, name)())
    return docs


# The shipped demo specs, the survey spec and the benchmark studies.
YAML_DOCUMENTS = _yaml_documents()


class TestLoadTable:
    def test_two_row_comma_file(self):
        t = load_table(io.StringIO("a,b\n1,x\n2,y\n"))
        assert t.columns == ("a", "b")
        assert t.rows == ((1.0, "x"), (2.0, "y"))

    def test_tab_delimiter_sniffed_from_header(self):
        t = load_table(io.StringIO("a\tb\n1\tstill,one,cell\n"))
        assert t.columns == ("a", "b")
        assert t.rows[0] == (1.0, "still,one,cell")

    def test_ragged_row_raises_with_its_index(self):
        with pytest.raises(ParseError, match=r"row 2: expected 2 cells, found 1"):
            load_table(io.StringIO("a,b\n1,2\n3\n"))

    def test_default_missing_tokens_become_none(self):
        t = load_table(io.StringIO("a,b\n,NA\n"))
        assert t.rows[0] == (None, None)

    def test_custom_missing_tokens(self):
        t = load_table(io.StringIO("a\n.\nNA\n"), missing_tokens=(".",))
        assert t.rows[0] == (None,)
        assert t.rows[1] == ("NA",)

    def test_duplicate_header_rejected(self):
        with pytest.raises(SchemaError, match="table header names column 'b' more than once"):
            load_table(io.StringIO("a,b,c,b\n1,2,3,4\n"))

    def test_trailing_blank_lines_ignored(self):
        t = load_table(io.StringIO("a\n1\n\n\n"))
        assert t.n_rows == 1

    @pytest.mark.parametrize("text, rows", [
        ("a,b\n1,2\n   \n3,4\n", ((1.0, 2.0), (3.0, 4.0))),
        ("a,b\n1,2\n3,4\n \t \n", ((1.0, 2.0), (3.0, 4.0))),
        ("a\tb\n1\t2\n  \n3\t4\n", ((1.0, 2.0), (3.0, 4.0))),
        ("y\n1\n   \n2\n", ((1.0,), (2.0,))),
    ], ids=["mid-file", "end-of-file", "tab-delimited", "one-column"])
    def test_a_whitespace_only_line_is_blank_wherever_it_sits(self, text, rows):
        assert load_table(io.StringIO(text)).rows == rows

    def test_a_line_of_delimiters_is_a_row_of_empty_cells(self):
        assert load_table(io.StringIO("a\tb\n1\t2\n\t\n3\t4\n")).rows == (
            (1.0, 2.0), (None, None), (3.0, 4.0))

    @pytest.mark.parametrize("tail", ["\t\n", "\t\n \t \n\n", "\t"])
    def test_trailing_lines_of_whitespace_are_dropped_tab_only_ones_included(self, tail):
        # Mid-file the same tab-only line is a row of empty cells (above).
        assert load_table(io.StringIO("a\tb\n1\t2\n" + tail)).rows == ((1.0, 2.0),)

    def test_non_finite_numbers_stay_text(self):
        t = load_table(io.StringIO("a\ninf\n"))
        assert t.rows[0] == ("inf",)

    @pytest.mark.parametrize("wrap", [io.StringIO, lambda text: io.BytesIO(text.encode())],
                             ids=["text", "bytes"])
    def test_a_byte_order_mark_is_dropped_from_a_file_object(self, wrap):
        t = load_table(wrap("\ufeffa,b\n1,x\n"))
        assert t.columns == ("a", "b")
        assert t.rows == ((1.0, "x"),)

    def test_a_byte_order_mark_is_dropped_from_a_file(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,x\n")
        assert load_table(path) == load_table(io.StringIO("a,b\n1,x\n"))

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0c", "\x0b", "\x1c",
                                     "\x1d", "\x1e"])
    def test_only_lf_crlf_and_cr_end_a_record(self, sep):
        table = load_table(io.StringIO(f"y,g\r\n1,a{sep}b\r0,c\n1,a{sep}b\n"))
        assert table.rows == ((1.0, f"a{sep}b"), (0.0, "c"), (1.0, f"a{sep}b"))
        spec = EncodingSpec(outcome="y", columns=(
            CategoricalRule(name="g", levels=("c", f"a{sep}b"), baseline="c"),))
        ds = encode(table, spec)
        assert ds.column_names == ("g_a_b",)
        assert ds.design[:, 0].tolist() == [1.0, 0.0, 1.0]

    def test_row_numbers_count_the_rows_kept_as_encode_does(self):
        with pytest.raises(ParseError, match=r"^row 2: expected 2 cells, found 1$"):
            load_table(io.StringIO("a,b\n1,2\n\n3\n"))
        spec = EncodingSpec(outcome="a", columns=(NumericRule(name="b"),))
        with pytest.raises(EncodingError, match=r"^column 'b': non-numeric value 'x' at data row 2$"):
            encode(load_table(io.StringIO("a,b\n1,2\n\n3,x\n")), spec)

    def test_repeated_cells_parse_as_each_cell_alone(self):
        # load_table parses each distinct cell text once per call; every
        # cell must still read as a parse of that cell on its own would.
        parse = {
            "north": "north", " north": "north", "north ": "north", "south": "south",
            "": None, "NA": None, " NA ": None, "nan": "nan", "NaN": "NaN", "inf": "inf",
            "-inf": "-inf", " 3 ": 3.0, "3": 3.0, "01": 1.0, "1": 1.0, "1.0": 1.0,
            "-0": -0.0, "0": 0.0, "1e3": 1000.0, "x y": "x y",
        }
        cells = list(parse)
        rng = np.random.default_rng(0)
        grid = [[cells[i] for i in rng.integers(0, len(cells), size=4)] for _ in range(200)]
        text = "a\tb\tc\td\n" + "".join("\t".join(row) + "\n" for row in grid)
        t = load_table(io.StringIO(text))
        assert t.n_rows == len(grid)
        assert [[repr(v) for v in row] for row in t.rows] == \
            [[repr(parse[c]) for c in row] for row in grid]


def _survey_spec(**kw):
    columns = (
        NumericRule(name="income"),
        NumericRule(name="weight_g", rename="weight_kg", scale=0.001, standardize=False),
        DerivedRule(name="birth_year", expression="2013 - x", rename="age",
                    standardize=False, role="treatment"),
        CategoricalRule(name="gender", levels=("male", "female"), baseline="male",
                        role="treatment"),
        CategoricalRule(
            name="citizenship",
            levels=("germany", "eu28", "rest_of_europe", "other"),
            baseline="germany",
            merge={"eu28": "other", "rest_of_europe": "other"},
        ),
    )
    interactions = (InteractionRule(a="gender_female", b="age", role="treatment"),)
    return EncodingSpec(outcome="signed_up", columns=columns,
                        interactions=interactions, **kw)


_SURVEY_TEXT = (
    "signed_up,income,weight_g,birth_year,gender,citizenship\n"
    "1,10,70000,1990,female,eu28\n"
    "0,20,80000,1985,male,germany\n"
    "1,30,60000,2000,female,rest_of_europe\n"
    "0,40,90000,1970,male,other\n"
)


class TestEncode:
    # Under zero-indicator, a column with a missing cell gains <source>_missing,
    # a name that the spec cannot check against the other encoded columns.
    @pytest.mark.parametrize("text, spec, message", [
        ("y,q\n1,yes\n0,missing\n1,\n0,yes\n",
         EncodingSpec(outcome="y", missing_policy="zero-indicator", columns=(
             CategoricalRule(name="q", levels=("yes", "missing"), baseline="yes"),)),
         "encoded column 'q_missing' collides with another encoded column"),
        ("y,a,b\n1,1,3\n0,,2\n1,3,1\n",
         EncodingSpec(outcome="y", missing_policy="zero-indicator", columns=(
             NumericRule(name="a"), NumericRule(name="b", rename="a_missing"))),
         "encoded column 'a_missing' collides with another encoded column"),
        ("a_missing,a\n1,1\n0,\n1,3\n",
         EncodingSpec(outcome="a_missing", missing_policy="zero-indicator", columns=(
             NumericRule(name="a"),)),
         "encoded column 'a_missing' collides with the outcome"),
    ], ids=["categorical-level", "renamed-numeric", "outcome"])
    def test_a_missing_indicator_that_collides_is_a_schema_error(self, text, spec, message):
        with pytest.raises(SchemaError) as err:
            encode(load_table(io.StringIO(text)), spec)
        assert str(err.value) == message

    def test_column_layout_and_roles(self):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        assert ds.column_names == (
            "income", "weight_kg", "age", "gender_female", "citizenship_other",
            "gender_female*age",
        )
        assert ds.treatment_names == ("age", "gender_female", "gender_female*age")
        assert ds.outcome_name == "signed_up"
        assert ds.n == 4 and ds.n_dropped == 0

    def test_golden_export_is_byte_exact(self, tmp_path):
        # Every expected number below is recomputed by hand from the rules:
        # income standardizes over (10,20,30,40); weight rescales by 1e-3;
        # age evaluates 2013 - birth_year; the two dummies point away from
        # their baselines; the product column multiplies encoded parents.
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "survey.tsv"
        save_dataset(ds, out)

        sd = math.sqrt(125.0)  # population sd of (10, 20, 30, 40)
        inc = [(v - 25.0) / sd for v in (10.0, 20.0, 30.0, 40.0)]
        rows = [
            [1.0, inc[0], 70.0, 23.0, 1.0, 1.0, 23.0],
            [0.0, inc[1], 80.0, 28.0, 0.0, 0.0, 0.0],
            [1.0, inc[2], 60.0, 13.0, 1.0, 1.0, 13.0],
            [0.0, inc[3], 90.0, 43.0, 0.0, 1.0, 0.0],
        ]
        header = ("signed_up\tincome\tweight_kg\tage\tgender_female\t"
                  "citizenship_other\tgender_female*age")
        want = header + "\n" + "".join(
            "\t".join(repr(v) for v in row) + "\n" for row in rows
        )
        assert out.read_bytes() == want.encode()

        meta = yaml.safe_load((tmp_path / "survey.columns.yaml").read_text())
        assert meta["version"] == 1
        assert meta["outcome"] == "signed_up"
        assert meta["n"] == 4 and meta["n_dropped"] == 0
        by_name = {c["name"]: c for c in meta["columns"]}
        assert by_name["income"]["center"] == 25.0
        assert by_name["income"]["scale"] == sd
        assert by_name["citizenship_other"]["level"] == "other"
        assert by_name["age"]["role"] == "treatment"

    def test_standardized_column_has_zero_mean_unit_spread(self):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        col = ds.design[:, ds.index_of("income")]
        assert float(col.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(col.std()) == pytest.approx(1.0, abs=1e-12)

    def test_dummies_are_exclusive_and_baseline_rows_all_zero(self):
        text = "y,c\n1,a\n0,b\n1,c\n0,d\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(CategoricalRule(name="c", levels=("a", "b", "c", "d"), baseline="a"),),
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        block = ds.design
        assert block.shape == (4, 3)
        assert np.all(block.sum(axis=1) <= 1.0)
        assert np.all(block[0] == 0.0)  # baseline row

    def test_numeric_levels_match_canonical_declared_text(self):
        text = "y,grade\n1,1\n0,2\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(CategoricalRule(name="grade", levels=("1", "2"), baseline="1"),),
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        assert ds.column_names == ("grade_2",)
        np.testing.assert_array_equal(ds.design[:, 0], [0.0, 1.0])

    @pytest.mark.parametrize("cells, levels, names", [
        (("1.0", "2.0"), '["1.0", "2.0"]', ("grade_2_0",)),
        (("01", "02"), '["01", "02"]', ("grade_02",)),
        (("1.0", "2.0"), "[1.0, 2.0]", ("grade_2_0",)),
        (("1", "02"), "[1.0, 2.0]", ("grade_2_0",)),
        (("1234567", "1234568"), "[1234567, 1234568]", ("grade_1234568",)),
    ], ids=["decimal-text", "leading-zero", "yaml-floats", "other-spelling", "seven-digits"])
    def test_numeric_looking_levels_match_however_they_are_spelled(self, cells, levels, names):
        text = f"y,grade\n1,{cells[0]}\n0,{cells[1]}\n1,{cells[1]}\n"
        levels = yaml.safe_load(levels)
        spec = encoding_spec_from_yaml(yaml.safe_dump({"version": 1, "outcome": "y", "columns": [
            {"name": "grade", "kind": "categorical", "levels": levels, "baseline": levels[0]}]}))
        ds = encode(load_table(io.StringIO(text)), spec)
        assert ds.column_names == names
        np.testing.assert_array_equal(ds.design[:, 0], [0.0, 1.0, 1.0])

    def test_a_zero_level_matches_zero_cells_of_either_sign(self):
        text = "y,g\n1,0\n0,1\n1,0.0\n0,-0\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(CategoricalRule(name="g", levels=("-0", "1"), baseline="-0"),),
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        assert ds.column_names == ("g_1",)
        np.testing.assert_array_equal(ds.design[:, 0], [0.0, 1.0, 0.0, 0.0])

    def test_level_names_are_slugged_case_insensitively(self):
        text = "y,g\n1,Female\n0,Male\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(CategoricalRule(name="g", levels=("Male", "Female"), baseline="Male"),),
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        assert ds.column_names == ("g_female",)
        np.testing.assert_array_equal(ds.design[:, 0], [1.0, 0.0])

    @settings(max_examples=500, deadline=None)
    @given(st.text() | st.integers() | st.floats())
    @example("Ünïcödé  __ Straße--ǅ 2")
    @example("_-_")
    @example("٣٤ x²")
    def test_a_slug_is_the_one_the_character_loop_made(self, text):
        def loop_slug(text):
            # The character loop _slug was before it became one substitution.
            out, prev_us = [], False
            for ch in str(text).lower():
                if ch.isalnum():
                    out.append(ch)
                    prev_us = False
                elif not prev_us:
                    out.append("_")
                    prev_us = True
            return "".join(out).strip("_") or "x"

        assert encoding._slug(text) == loop_slug(text)

    def test_listwise_drop_counts_add_up(self):
        text = "y,a,b\n1,1,x\n0,,x\n1,2,\n,3,x\n0,4,x\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(
                NumericRule(name="a", standardize=False),
                CategoricalRule(name="b", levels=("x",), baseline="x"),
            ),
        )
        table = load_table(io.StringIO(text))
        ds = encode(table, spec)
        assert ds.n == 2  # rows with any missing cell (or missing outcome) drop
        assert ds.n + ds.n_dropped == table.n_rows

    def test_zero_indicator_keeps_rows_and_appends_flags(self):
        text = "y,a\n1,\n0,4\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(NumericRule(name="a", standardize=False),),
            missing_policy="zero-indicator",
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        assert ds.column_names == ("a", "a_missing")
        np.testing.assert_array_equal(ds.design, [[0.0, 1.0], [4.0, 0.0]])

    def test_zero_indicator_imputes_standardized_columns_at_their_center(self):
        text = "y,a\n1,\n0,4\n1,8\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(NumericRule(name="a"),),
            missing_policy="zero-indicator",
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        # center/scale come from the observed entries (4, 8) only
        assert ds.design[0, ds.index_of("a")] == 0.0
        assert ds.columns[0].center == 6.0

    def test_missing_outcome_always_drops_the_row(self):
        text = "y,a\n,1\n0,2\n"
        for policy in ("drop", "zero-indicator"):
            spec = EncodingSpec(
                outcome="y",
                columns=(NumericRule(name="a", standardize=False),),
                missing_policy=policy,
            )
            ds = encode(load_table(io.StringIO(text)), spec)
            assert ds.n == 1 and ds.n_dropped == 1

    @pytest.mark.parametrize("text, level, row", [
        ("y,g\n1,male\n0,unknown\n", "unknown", 2),
        # A dropped row before it, and a second unseen level after it.
        ("y,g\n1,\n1,male\n0,other\n1,unknown\n0,other\n", "other", 3),
    ])
    def test_unseen_level_error_names_level_and_row(self, text, level, row):
        spec = EncodingSpec(
            outcome="y",
            columns=(CategoricalRule(name="g", levels=("male", "female"), baseline="male"),),
        )
        with pytest.raises(EncodingError) as err:
            encode(load_table(io.StringIO(text)), spec)
        assert str(err.value) == f"unseen level {level!r} in column 'g' at data row {row}"

    def test_non_numeric_cell_in_numeric_column_is_reported(self):
        text = "y,a\n1,2\n0,oops\n"
        spec = EncodingSpec(outcome="y", columns=(NumericRule(name="a"),))
        with pytest.raises(EncodingError, match=r"column 'a': non-numeric value 'oops' at data row 2"):
            encode(load_table(io.StringIO(text)), spec)

    def test_all_rows_dropped_is_an_error(self):
        text = "y,a\n,1\n,2\n"
        spec = EncodingSpec(outcome="y", columns=(NumericRule(name="a"),))
        with pytest.raises(EmptyDatasetError):
            encode(load_table(io.StringIO(text)), spec)

    def test_absent_source_column_is_a_schema_error(self):
        spec = EncodingSpec(outcome="y", columns=(NumericRule(name="zzz"),))
        with pytest.raises(SchemaError, match="zzz"):
            encode(load_table(io.StringIO("y,a\n1,2\n")), spec)

    def test_an_affine_map_that_overflows_fails_as_a_non_finite_value(self):
        spec = EncodingSpec(outcome="y", columns=(
            NumericRule(name="a", scale=10.0, standardize=False),))
        with pytest.raises(ValueError, match="dataset values must be finite"):
            encode(load_table(io.StringIO("y,a\n1,1e308\n0,1\n")), spec)

    def test_derived_expression_failure_is_reported(self):
        text = "y,a\n1,0\n"
        spec = EncodingSpec(
            outcome="y",
            columns=(DerivedRule(name="a", expression="1 / x", standardize=False),),
        )
        with pytest.raises(EncodingError, match="expression failed"):
            encode(load_table(io.StringIO(text)), spec)


    @pytest.mark.parametrize("text, rule, name", [
        ("y,a,b\n1,2,3\n0,4,5\n", NumericRule(name="a", rename="a\tz"), "a\tz"),
        ("y,a\tz,b\n1,2,3\n0,4,5\n", NumericRule(name="a\tz"), "a\tz"),
        ('"y\nz",a,b\n1,2,3\n0,4,5\n', NumericRule(name="a"), "y\nz"),
    ], ids=["rename", "header-cell", "outcome"])
    def test_a_column_name_the_dataset_file_cannot_store_is_a_schema_error(self, text, rule,
                                                                            name):
        table = load_table(io.StringIO(text))
        spec = EncodingSpec(outcome=table.columns[0], columns=(rule,))
        with pytest.raises(SchemaError) as err:
            encode(table, spec)
        assert str(err.value) == (f"column name {name!r} holds a tab or line break, "
                                  "which the dataset file cannot store")

    @pytest.mark.parametrize("expression, message", [
        ("x ** 0.5", "result (1.2246467991473532e-16+2j) is not a finite real number"),
        ("1e308 * x * 10", "result -inf is not a finite real number"),
    ], ids=["complex", "infinite"])
    def test_a_complex_or_infinite_derived_value_names_the_row(self, expression, message):
        spec = EncodingSpec(outcome="y",
                            columns=(DerivedRule(name="a", expression=expression),))
        with pytest.raises(EncodingError) as err:
            encode(load_table(io.StringIO("y,a\n1,-4\n0,4\n1,9\n")), spec)
        assert str(err.value) == f"column 'a': expression failed on -4.0 at data row 1: {message}"


    def test_a_spec_that_yields_no_design_column_is_a_schema_error(self):
        spec = EncodingSpec(outcome="y",
                            columns=(CategoricalRule(name="g", levels=("a",), baseline="a"),))
        with pytest.raises(SchemaError, match="^spec yields no design column$"):
            encode(load_table(io.StringIO("y,g\n1,a\n0,a\n")), spec)


class TestSpecValidation:
    def test_wrong_version_rejected(self):
        with pytest.raises(SchemaError, match="spec needs version: 1, got 2"):
            encoding_spec_from_yaml(
                "version: 2\noutcome: y\ncolumns: [{name: a, kind: numeric}]\n")

    def test_output_name_collision_rejected(self):
        with pytest.raises(SchemaError, match="encoded column names collide: 'z' is made "
                                              "more than once"):
            EncodingSpec(
                outcome="y",
                columns=(NumericRule(name="a", rename="z"), NumericRule(name="b", rename="z")),
            )

    def test_outcome_collision_rejected(self):
        with pytest.raises(SchemaError, match="outcome"):
            EncodingSpec(outcome="a", columns=(NumericRule(name="a"),))

    def test_a_repeated_source_column_is_named(self):
        with pytest.raises(SchemaError, match="spec lists source column 'a' more than once"):
            EncodingSpec(outcome="y", columns=(NumericRule(name="a"),
                                               NumericRule(name="a", rename="b")))

    def test_interaction_must_reference_declared_outputs(self):
        with pytest.raises(SchemaError, match="undeclared"):
            EncodingSpec(
                outcome="y",
                columns=(NumericRule(name="a"),),
                interactions=(InteractionRule(a="a", b="ghost"),),
            )

    def test_baseline_must_be_a_declared_level(self):
        with pytest.raises(SchemaError, match="baseline"):
            CategoricalRule(name="g", levels=("a", "b"), baseline="c")

    def test_merge_keys_must_be_declared_levels(self):
        with pytest.raises(SchemaError, match="merge key"):
            CategoricalRule(name="g", levels=("a", "b"), baseline="a", merge={"c": "b"})

    @pytest.mark.parametrize("levels", [("1", "01"), ("2", "2.0"), ("x", "1e3", " 1000"),
                                        ("0", "-0.0")])
    def test_levels_that_match_the_same_cells_rejected(self, levels):
        with pytest.raises(SchemaError, match=f"levels {levels[-2]!r} and {levels[-1]!r} "
                                              "match the same cells"):
            CategoricalRule(name="g", levels=levels, baseline=levels[0])

    def test_bad_role_rejected(self):
        with pytest.raises(SchemaError, match="role"):
            NumericRule(name="a", role="instrument")

    def test_disallowed_expression_syntax_rejected(self):
        with pytest.raises(SchemaError):
            DerivedRule(name="a", expression="__import__('os')")

    def test_expression_may_only_reference_x(self):
        with pytest.raises(SchemaError, match="only 'x'"):
            DerivedRule(name="a", expression="x + t")


class TestSpecYaml:
    def test_round_trip_preserves_the_spec(self):
        spec = _survey_spec(missing_policy="zero-indicator")
        again = encoding_spec_from_yaml(encoding_spec_to_yaml(spec))
        assert again == spec

    def test_the_writer_stamps_the_one_spec_version(self):
        doc = yaml.safe_load(encoding_spec_to_yaml(_survey_spec()))
        assert doc["version"] == 1

    def test_missing_version_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            encoding_spec_from_yaml("outcome: y\ncolumns: [{name: a, kind: numeric}]\n")

    def test_unknown_top_level_key_rejected(self):
        text = "version: 1\noutcome: y\nplots: true\ncolumns: [{name: a, kind: numeric}]\n"
        with pytest.raises(SchemaError, match="unknown keys"):
            encoding_spec_from_yaml(text)

    def test_unknown_keys_of_mixed_types_are_named(self):
        text = "version: 1\noutcome: y\n1: 2\nplots: 3\ncolumns: [{name: a, kind: numeric}]\n"
        with pytest.raises(SchemaError, match=r"spec: unknown keys \[1, 'plots'\]"):
            encoding_spec_from_yaml(text)

    def test_unknown_rule_key_rejected(self):
        text = "version: 1\noutcome: y\ncolumns: [{name: a, kind: numeric, spline: 3}]\n"
        with pytest.raises(SchemaError, match="unknown keys"):
            encoding_spec_from_yaml(text)

    def test_unknown_kind_rejected(self):
        text = "version: 1\noutcome: y\ncolumns: [{name: a, kind: spline}]\n"
        with pytest.raises(SchemaError, match="kind"):
            encoding_spec_from_yaml(text)

    def test_invalid_yaml_rejected(self):
        with pytest.raises(SchemaError, match="valid YAML"):
            encoding_spec_from_yaml("version: [unclosed\n")

    # One value of the wrong YAML type each, in a spec that reads without it.
    @pytest.mark.parametrize("top, rule", [
        ({}, {"standardize": "false"}), ({}, {"scale": True}),
        ({"missing_tokens": ["", None]}, {}),
        ({"version": 1.9}, {}), ({"version": "1"}, {}), ({"version": True}, {}),
    ], ids=["standardize-text", "scale-bool", "token-null", "version-float", "version-text",
            "version-bool"])
    def test_a_value_of_the_wrong_yaml_type_is_a_schema_error(self, top, rule):
        doc = {"version": 1, "outcome": "y",
               "columns": [{"name": "a", "kind": "numeric", **rule}], **top}
        (key,) = {**top, **rule}
        with pytest.raises(SchemaError, match=key):
            encoding_spec_from_yaml(yaml.safe_dump(doc))

    @pytest.mark.parametrize("rule, message", [
        ("scale: .nan", "scale must be a finite number, got nan"),
        ("offset: -.inf", "offset must be a finite number, got -inf"),
        ("scale: 1.0e+400", "scale must be a finite number, got inf"),
        ("offset: 1" + "0" * 400, "offset must be a finite number, got 1" + "0" * 400),
    ], ids=["scale-nan", "offset-minus-inf", "scale-overflow", "offset-huge-integer"])
    def test_a_non_finite_number_is_a_schema_error_that_names_the_key(self, rule, message):
        text = f"version: 1\noutcome: y\ncolumns: [{{name: a, kind: numeric, {rule}}}]\n"
        with pytest.raises(SchemaError) as err:
            encoding_spec_from_yaml(text)
        assert str(err.value) == f"column 'a': {message}"

    @pytest.mark.parametrize("rule, message", [
        ("scale: 1.0e308", "scale must be a number, written unquoted with a decimal point "
                           "and a signed exponent as 1.0e+308, got '1.0e308'"),
        ("scale: 1e-7", "scale must be a number, written unquoted with a decimal point "
                        "and a signed exponent as 1.0e-07, got '1e-7'"),
        ("offset: 1E+3", "offset must be a number, written unquoted as 1000.0, got '1E+3'"),
        ("offset: '0.5'", "offset must be a number, written unquoted as 0.5, got '0.5'"),
        ("scale: abc", "scale must be a number, got 'abc'"),
        ("scale: 1e400", "scale must be a number, got '1e400'"),
    ], ids=["exponent-without-sign", "exponent-without-point", "capital-e", "quoted",
            "not-a-number", "past-every-float"])
    def test_text_that_reads_as_a_number_says_how_to_write_it(self, rule, message):
        text = f"version: 1\noutcome: y\ncolumns: [{{name: a, kind: numeric, {rule}}}]\n"
        with pytest.raises(SchemaError) as err:
            encoding_spec_from_yaml(text)
        assert str(err.value) == f"column 'a': {message}"

    @pytest.mark.parametrize("text", ["1e3", "1.0e3", "1E+3", "-2.5e300", "1e-7", "'7'",
                                      "'0.05'", "123456789e10"])
    def test_the_spelling_an_error_gives_reads_as_that_number(self, text):
        value = yaml.safe_load(text)
        assert isinstance(value, str)
        for convert, integral in ((encoding._float, False), (encoding._int, True)):
            with pytest.raises(ValueError) as err:
                convert(value)
            if integral and not float(value).is_integer():
                assert "written" not in str(err.value)
                continue
            spelled = str(err.value).rsplit(" as ", 1)[1]
            assert convert(yaml.safe_load(spelled)) == float(value)

    def test_a_number_reads_as_text_where_text_belongs(self):
        spec = encoding_spec_from_yaml(
            "version: 1\noutcome: 7\ncolumns: [{name: 2020, kind: numeric, rename: 5}]\n")
        assert (spec.outcome, spec.columns[0].name, spec.columns[0].rename) == ("7", "2020", "5")

    @pytest.mark.parametrize("text", YAML_DOCUMENTS.values(), ids=YAML_DOCUMENTS.keys())
    def test_the_package_loader_reads_what_the_pure_loader_reads(self, text):
        assert yaml.load(text, Loader=YAML_LOADER) == yaml.safe_load(text)

    @pytest.mark.parametrize("parse", [encoding_spec_from_yaml, simulate.study_spec_from_yaml])
    def test_invalid_yaml_is_a_schema_error_for_every_parser(self, parse):
        with pytest.raises(SchemaError, match="not valid YAML"):
            parse("version: 1\nreports: [unclosed\n")


class TestEncodedInteractions:
    """Products that encode appends for a spec's interactions."""

    TEXT = "y,u,v\n1,1,b\n0,2,a\n1,6,b\n"

    def _encode(self, *pairs, role="control", policy="drop", text=TEXT):
        spec = EncodingSpec(
            outcome="y",
            columns=(NumericRule(name="u"),
                     CategoricalRule(name="v", levels=("a", "b"), baseline="a")),
            interactions=tuple(InteractionRule(a=a, b=b, role=role) for a, b in pairs),
            missing_policy=policy,
        )
        return encode(load_table(io.StringIO(text)), spec)

    def test_product_of_the_encoded_parents(self):
        ds = self._encode(("u", "v_b"))
        assert ds.column_names == ("u", "v_b", "u*v_b")
        u = ds.design[:, 0]
        np.testing.assert_array_equal(ds.design[:, 2], [u[0], 0.0, u[2]])
        assert ds.columns[-1] == ColumnInfo(name="u*v_b", role="control", source="u*v_b")

    def test_listing_order_changes_layout_but_not_values(self):
        d1 = self._encode(("u", "v_b"), ("u", "u"))
        d2 = self._encode(("u", "u"), ("u", "v_b"))
        assert d1.column_names[2:] == ("u*v_b", "u*u")
        assert d2.column_names[2:] == ("u*u", "u*v_b")
        for name in ("u*v_b", "u*u"):
            np.testing.assert_array_equal(
                d1.design[:, d1.index_of(name)], d2.design[:, d2.index_of(name)]
            )

    def test_treatment_role_reaches_the_product_column(self):
        ds = self._encode(("u", "v_b"), role="treatment")
        assert ds.treatment_names == ("u*v_b",)
        assert ds.columns[-1].role == "treatment"

    def test_under_zero_indicator_products_follow_the_indicators_and_use_imputed_values(self):
        # u is missing in row 1 and imputed at its center (0 once
        # standardized); v is missing in row 3, so v_b reads 0 there.
        ds = self._encode(("u", "v_b"), policy="zero-indicator",
                          text="y,u,v\n1,,b\n0,2,b\n1,4,a\n0,6,\n")
        assert ds.column_names == ("u", "v_b", "u_missing", "v_missing", "u*v_b")
        u, v_b = ds.design[:, 0], ds.design[:, 1]
        np.testing.assert_array_equal(u, [0.0, -math.sqrt(1.5), 0.0, math.sqrt(1.5)])
        np.testing.assert_array_equal(v_b, [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(ds.design[:, 4], u * v_b)

    def test_a_repeated_interaction_is_rejected(self):
        with pytest.raises(SchemaError, match="already exists"):
            self._encode(("u", "v_b"), ("u", "v_b"))


class TestDatasetRoundTrip:
    def test_save_then_load_is_bit_exact(self, tmp_path):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        side = save_dataset(ds, out)
        assert side == sidecar_path(out)
        back = load_dataset(out)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.design, ds.design)
        assert back.columns == ds.columns
        assert back.outcome_name == ds.outcome_name
        assert back.n_dropped == ds.n_dropped

    def test_header_only_file_is_an_empty_dataset(self, tmp_path):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        save_dataset(ds, out)
        out.write_text(out.read_text().splitlines()[0] + "\n")
        with pytest.raises(EmptyDatasetError, match="no data rows"):
            load_dataset(out)

    def test_invalid_sidecar_yaml_is_a_schema_error(self, tmp_path):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        side = save_dataset(ds, out)
        with open(side, "w", encoding="utf-8") as fh:
            fh.write("version: [1\n")
        with pytest.raises(SchemaError, match="not valid YAML"):
            load_dataset(out)

    @pytest.mark.parametrize("old, new", [
        ("version: 1\n", "version: true\n"),
        ("n_dropped: 0\n", "n_dropped: 2.7\n"),
        ("  center: 25.0\n", "  center: true\n"),
    ], ids=["version", "n_dropped", "center"])
    def test_a_sidecar_value_of_the_wrong_yaml_type_is_a_schema_error(self, tmp_path, old, new):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        side = save_dataset(ds, out)
        with open(side, encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        with open(side, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new, 1))
        with pytest.raises(SchemaError, match=new.split(":")[0].strip()):
            load_dataset(out)

    def test_a_row_count_other_than_the_sidecar_n_is_a_schema_error(self, tmp_path):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        save_dataset(ds, out)
        out.write_text("".join(out.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(SchemaError, match=f"{out} has 3 data rows, but its sidecar says n: 4"):
            load_dataset(out)

    def test_a_sidecar_role_other_than_treatment_or_control_is_a_schema_error(self, tmp_path):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        side = save_dataset(ds, out)
        with open(side, encoding="utf-8") as fh:
            text = fh.read()
        with open(side, "w", encoding="utf-8") as fh:
            fh.write(text.replace("role: control", "role: intercept", 1))
        with pytest.raises(SchemaError, match="role must be one of .*got 'intercept'"):
            load_dataset(out)
        with pytest.raises(ValueError):
            ColumnInfo(name="k", role="intercept", source="k")

    def test_header_sidecar_mismatch_rejected(self, tmp_path):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        save_dataset(ds, out)
        body = out.read_text().splitlines()
        body[0] = body[0].replace("income", "wages")
        out.write_text("\n".join(body) + "\n")
        with pytest.raises(SchemaError, match="header"):
            load_dataset(out)

    @pytest.mark.parametrize("bad, message", [
        (lambda cells: cells + ["0.0"], "row 2: expected 7 cells, found 8"),
        (lambda cells: ["yes"] + cells[1:], "row 2: could not convert string to float: 'yes'"),
        (lambda cells: cells[:3] + ["nan"] + cells[4:],
         "row 2: column 'age' is nan, not a finite number"),
        (lambda cells: ["-inf"] + cells[1:],
         "row 2: column 'signed_up' is -inf, not a finite number"),
    ], ids=["ragged", "text-cell", "nan-cell", "inf-outcome"])
    def test_a_bad_row_after_a_blank_line_names_its_data_row(self, tmp_path, bad, message):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        save_dataset(ds, out)
        head, first, second, *rest = out.read_text().splitlines(keepends=True)
        second = "\t".join(bad(second.rstrip("\n").split("\t"))) + "\n"
        out.write_text("".join([head, first, "\n", second, *rest]))
        with pytest.raises(ParseError) as err:
            load_dataset(out)
        assert str(err.value) == message


class TestDataset:
    def test_arrays_are_read_only(self):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        with pytest.raises(ValueError):
            ds.design[0, 0] = 9.9
        with pytest.raises(ValueError):
            ds.y[0] = 9.9

    @pytest.mark.parametrize("record", ["Dataset", "TruthRecord", "NuisanceArtifacts"])
    def test_a_record_leaves_the_callers_arrays_writeable(self, record):
        from doublelasso.dml import NuisanceArtifacts
        from doublelasso.simulate import TruthRecord

        v = np.array([0.25, 0.2, 0.1])
        cols = (ColumnInfo(name="d", role="treatment", source="d"),
                ColumnInfo(name="x", role="control", source="x"))
        arrays, build = {
            "Dataset": ({"y": np.array([0.0, 1.0, 1.0]), "design": np.ones((3, 2))},
                        lambda a: Dataset(columns=cols, **a)),
            "TruthRecord": ({"beta": v.copy(), "gamma": v.copy()},
                            lambda a: TruthRecord(alpha0=0.5, intercept=0.0, family="linear",
                                                  nu=1.0, noise_sd=1.0, seed=0, **a)),
            "NuisanceArtifacts": (
                {"eta_tilde": v.copy(), "w_hat": v.copy(), "sigma2_hat": v.copy(),
                 "f_hat": np.sqrt(v), "v_hat": v.copy(), "z_hat": v.copy(),
                 "beta_tilde": v.copy(), "theta_tilde": v.copy()},
                lambda a: NuisanceArtifacts(alpha_tilde=0.5, intercept_tilde=0.0,
                                            theta_intercept=0.0, **a)),
        }[record]
        held = build(arrays)
        for name, arr in arrays.items():
            assert arr.flags.writeable, name
            assert not getattr(held, name).flags.writeable, name
            assert np.array_equal(getattr(held, name), arr)

    def test_equality_is_identity_and_a_dataset_hashes(self):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        back = pickle.loads(pickle.dumps(ds))
        assert ds == ds and ds != back
        assert len({ds, back, ds}) == 2

    @pytest.mark.parametrize("names, outcome, dup", [(("a", "b", "a"), "y", "a"),
                                                     (("a", "y"), "y", "y")])
    def test_a_repeated_column_name_is_named(self, names, outcome, dup):
        cols = tuple(ColumnInfo(name=s, role="control", source=s) for s in names)
        with pytest.raises(ValueError, match=f"'{dup}' names more than one of the outcome"):
            Dataset(y=np.array([0.0, 1.0]), design=np.ones((2, len(names))), columns=cols,
                    outcome_name=outcome)

    def test_index_of_unknown_column(self):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        with pytest.raises(KeyError):
            ds.index_of("nope")

    def test_shape_mismatch_rejected(self):
        from doublelasso.encoding import ColumnInfo
        with pytest.raises(ValueError):
            Dataset(
                y=np.ones(3),
                design=np.ones((2, 1)),
                columns=(ColumnInfo(name="a", role="control", source="a"),),
            )


def _encoded(tmp_path):
    ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
    assert ds.column_names == ("income", "weight_kg", "age", "gender_female",
                               "citizenship_other", "gender_female*age")
    income = np.array([10.0, 20.0, 30.0, 40.0])
    age = np.array([23.0, 28.0, 13.0, 43.0])
    female = np.array([1.0, 0.0, 1.0, 0.0])
    return ds, np.column_stack([
        (income - income.mean()) / income.std(),
        np.array([70000.0, 80000.0, 60000.0, 90000.0]) * 0.001,
        age, female, np.array([1.0, 0.0, 1.0, 1.0]), female * age,
    ])


def _loaded(tmp_path):
    ds, design = _encoded(tmp_path)
    save_dataset(ds, tmp_path / "data.tsv")
    return load_dataset(tmp_path / "data.tsv"), design


def _pickled(tmp_path):
    ds, design = _encoded(tmp_path)
    return pickle.loads(pickle.dumps(ds)), design


def _simulated(tmp_path):
    spec = simulate.DgpSpec(family="linear", n=40, p=6, alpha0=0.5, x_corr="independent")
    ds, truth = simulate.gen_dgp(spec, 9)
    # gen_dgp's draws: the control block, then the treatment noise
    rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
    X = rng.standard_normal((40, 6))
    d = X @ truth.gamma + spec.nu * rng.standard_normal(40)
    return ds, np.column_stack([d, X])


def _subset(tmp_path):
    from doublelasso.cli import _subset_dataset
    ds, design = _encoded(tmp_path)
    return _subset_dataset(ds, ["gender_female"], ["income", "age"]), design[:, [3, 0, 2]]


class TestDatasetLayout:
    """Every path that makes a Dataset gives it a read-only column-major
    design, the layout the solvers read columns from, equal to its input."""

    @pytest.mark.parametrize("make", [_encoded, _loaded, _pickled, _simulated, _subset],
                             ids=["encode", "load_dataset", "pickle", "gen_dgp", "subset"])
    def test_the_design_is_read_only_and_column_major(self, make, tmp_path):
        ds, expected = make(tmp_path)
        assert np.array_equal(ds.design.view(np.uint64), expected.view(np.uint64))
        assert ds.design.flags.f_contiguous and not ds.design.flags.writeable
        assert ds.y.ndim == 1 and ds.y.flags.c_contiguous and not ds.y.flags.writeable

    def test_a_c_ordered_design_is_copied_and_a_fortran_one_shared(self):
        cols = tuple(ColumnInfo(name=f"x{j}", role="control", source="x") for j in range(3))
        y = np.zeros(4)
        c_design = np.arange(12.0).reshape(4, 3)
        f_design = np.asfortranarray(c_design)
        from_c = Dataset(y=y, design=c_design, columns=cols)
        from_f = Dataset(y=y, design=f_design, columns=cols)
        assert not np.shares_memory(from_c.design, c_design)
        assert np.shares_memory(from_f.design, f_design)
        for ds in (from_c, from_f):
            assert ds.design.flags.f_contiguous and not ds.design.flags.writeable
            assert np.array_equal(ds.design, c_design)
            assert np.shares_memory(ds.y, y)


class TestSyntheticSurvey:
    def test_dimensions_match_the_documented_layout(self):
        spec = synthetic_survey_schema()
        table = synthetic_survey_table(80, seed=1)
        ds = encode(table, spec)
        assert ds.p == 329
        assert len(ds.treatment_names) == 26
        assert len(ds.control_names) == 303
        assert "mode_online*age" in ds.treatment_names

    def test_table_generation_is_deterministic(self):
        a = synthetic_survey_table(30, seed=5)
        b = synthetic_survey_table(30, seed=5)
        assert a == b

    @pytest.mark.parametrize("seed, message", [(-1, "nonnegative"), (2**64, r"below 2\*\*64")])
    def test_a_seed_outside_64_bits_is_a_value_error(self, seed, message):
        with pytest.raises(ValueError, match=message):
            synthetic_survey_table(3, seed=seed)
        assert synthetic_survey_table(3, seed=2**64 - 1).n_rows == 3


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


class TestKeyTables:
    """Each file format's key table names exactly the fields of the class it builds,
    so a field added without its key fails here."""

    @pytest.mark.parametrize("kind", encoding._RULES)
    def test_each_rule_table_names_its_rule_fields(self, kind):
        cls, keys = encoding._RULES[kind]
        assert set(keys) == _field_names(cls)

    def test_every_rule_class_has_a_kind(self):
        assert {cls for cls, _ in encoding._RULES.values()} == set(typing.get_args(ColumnRule))

    def test_the_interaction_table_names_the_interaction_fields(self):
        assert set(encoding._INTERACTION_KEYS) == _field_names(InteractionRule)

    def test_the_spec_table_names_every_spec_field_but_version(self):
        assert set(encoding._SPEC_KEYS) == _field_names(EncodingSpec) - {"version"}

    def test_the_sidecar_column_table_names_the_column_fields(self):
        assert set(encoding._COLUMN_KEYS) == _field_names(ColumnInfo)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode_digests(ds: Dataset) -> tuple:
    """SHA-256 of y, of the design, of the ColumnInfo tuple and of n_dropped."""
    return (_sha(ds.y.tobytes()), _sha(ds.design.tobytes()),
            _sha(repr(ds.columns).encode()), _sha(str(ds.n_dropped).encode()))


def _messy_table(n: int = 400, seed: int = 11) -> RawTable:
    """A seeded table with "" and NA cells in every column, text in the numeric and
    derived columns of rows whose outcome is missing, and text and numeric levels."""
    rng = np.random.default_rng(seed)
    regions = ("north", "south", "east", "west-1", "")
    grades = ("1", "2.0", "03", "4", "NA")

    def cell(text: str, drop: bool) -> str:
        u = rng.random()
        if drop:
            return "refused" if u < 0.5 else text
        return "" if u < 0.04 else "NA" if u < 0.08 else text

    lines = ["y,income,weight_g,birth_year,region,grade"]
    for _ in range(n):
        u = rng.random()
        y = "" if u < 0.05 else "NA" if u < 0.1 else str(int(rng.integers(0, 2)))
        no_outcome = y in ("", "NA")
        lines.append(",".join([
            y,
            cell(repr(round(float(rng.lognormal(3.0, 0.7)), 2)), no_outcome),
            cell(str(int(rng.integers(40_000, 120_000))), no_outcome),
            cell(str(int(rng.integers(1930, 2005))), no_outcome),
            regions[rng.integers(0, len(regions))],
            grades[rng.integers(0, len(grades))],
        ]))
    return load_table(io.StringIO("\n".join(lines) + "\n"))


def _messy_spec(policy: str) -> EncodingSpec:
    return EncodingSpec(
        outcome="y", missing_policy=policy,
        columns=(
            NumericRule(name="income", scale=2.54, offset=-0.3),
            NumericRule(name="weight_g", rename="weight_kg", scale=0.001, offset=-1.5,
                        standardize=False),
            DerivedRule(name="birth_year", expression="(2013 - x) ** 2 / 7", rename="age2",
                        role="treatment"),
            CategoricalRule(name="region", levels=("north", "south", "east", "west-1"),
                            baseline="north", merge={"east": "south"}, role="treatment"),
            CategoricalRule(name="grade", levels=("1", "2", "3", "4"), baseline="1"),
        ),
        interactions=(InteractionRule(a="region_south", b="age2", role="treatment"),
                      InteractionRule(a="income", b="grade_3")),
    )


SURVEY_ROWS = "a39a1274ef43e9ea3c36ee57b52b44972087578b8743fcd4049cb1123a421bd1"
SURVEY_ENCODED = (
    "24dc7ccf3d3615ab7d90da1187fe65d0dd761ad413c91d5fb1210cd1cd020905",
    "b187db80ce07d737b98424de7b136f972b5ef4f2fb071a52d67f7f42f7e8c89e",
    "dea754d0b32b847b4abbf4e37e6ba0128e7151707f6b41de5cb3db47cb620000",
    "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
)
MESSY_ENCODED = {
    "drop": (  # 168 rows kept, 232 dropped
        "c63b5be1bae0d8a7d4537608b01ed295a9f0771ca9035854360045151b074a64",
        "7f1270c412f097147211157943c590782ccd0f8f8c9aa638ca4a7792bd4d246c",
        "ce4e1d977d2cf9ce23d84ab9f1823d8ba9665f28437912968661e320e7028286",
        "835d5e8314340ab852a2f979ab4cd53e994dbe38366afb6eed84fe4957b980c8",
    ),
    "zero-indicator": (  # 360 rows kept, 40 dropped
        "34018d89253caf5d88b7893fb1bfd2f1967f43237dbb2b1cfcddbb9b1f18a46f",
        "27173ef9e88451707d70e03c765cac8345f628e1d3b5d99eb09a16292241e5f2",
        "4deb90e131cc953eafada2938ef959a443848e74c2fff8702f9d70601f24db57",
        "d59eced1ded07f84c145592f65bdf854358e009c5cd705f5215bf18697fed103",
    ),
}


class TestEncodePins:
    """encode's output bits, recorded before its column-wise rewrite."""

    def test_the_survey_table_rows_and_encoding_are_pinned(self):
        table = synthetic_survey_table(n=2000, seed=1)
        assert _sha(repr(table.rows).encode()) == SURVEY_ROWS
        assert _encode_digests(encode(table, synthetic_survey_schema())) == SURVEY_ENCODED

    @pytest.mark.parametrize("policy", ["drop", "zero-indicator"])
    def test_a_table_with_missing_and_text_cells_is_pinned(self, policy):
        ds = encode(_messy_table(), _messy_spec(policy))
        assert _encode_digests(ds) == MESSY_ENCODED[policy]
