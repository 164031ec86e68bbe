"""Table parsing, rule-based encoding, and the dataset round trip."""

import dataclasses
import io
import math
import os
import typing

import numpy as np
import pytest
import yaml

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
        with pytest.raises(SchemaError):
            load_table(io.StringIO("a,a\n1,2\n"))

    def test_trailing_blank_lines_ignored(self):
        t = load_table(io.StringIO("a\n1\n\n\n"))
        assert t.n_rows == 1

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
    return EncodingSpec(version=1, outcome="signed_up", columns=columns,
                        interactions=interactions, **kw)


_SURVEY_TEXT = (
    "signed_up,income,weight_g,birth_year,gender,citizenship\n"
    "1,10,70000,1990,female,eu28\n"
    "0,20,80000,1985,male,germany\n"
    "1,30,60000,2000,female,rest_of_europe\n"
    "0,40,90000,1970,male,other\n"
)


class TestEncode:
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
            version=1, outcome="y",
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
            version=1, outcome="y",
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

    def test_level_names_are_slugged_case_insensitively(self):
        text = "y,g\n1,Female\n0,Male\n"
        spec = EncodingSpec(
            version=1, outcome="y",
            columns=(CategoricalRule(name="g", levels=("Male", "Female"), baseline="Male"),),
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        assert ds.column_names == ("g_female",)
        np.testing.assert_array_equal(ds.design[:, 0], [1.0, 0.0])

    def test_listwise_drop_counts_add_up(self):
        text = "y,a,b\n1,1,x\n0,,x\n1,2,\n,3,x\n0,4,x\n"
        spec = EncodingSpec(
            version=1, outcome="y",
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
            version=1, outcome="y",
            columns=(NumericRule(name="a", standardize=False),),
            missing_policy="zero-indicator",
        )
        ds = encode(load_table(io.StringIO(text)), spec)
        assert ds.column_names == ("a", "a_missing")
        np.testing.assert_array_equal(ds.design, [[0.0, 1.0], [4.0, 0.0]])

    def test_zero_indicator_imputes_standardized_columns_at_their_center(self):
        text = "y,a\n1,\n0,4\n1,8\n"
        spec = EncodingSpec(
            version=1, outcome="y",
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
                version=1, outcome="y",
                columns=(NumericRule(name="a", standardize=False),),
                missing_policy=policy,
            )
            ds = encode(load_table(io.StringIO(text)), spec)
            assert ds.n == 1 and ds.n_dropped == 1

    def test_unseen_level_error_names_level_and_row(self):
        text = "y,g\n1,male\n0,unknown\n"
        spec = EncodingSpec(
            version=1, outcome="y",
            columns=(CategoricalRule(name="g", levels=("male", "female"), baseline="male"),),
        )
        with pytest.raises(EncodingError, match=r"unseen level 'unknown' in column 'g' at data row 2"):
            encode(load_table(io.StringIO(text)), spec)

    def test_non_numeric_cell_in_numeric_column_is_reported(self):
        text = "y,a\n1,2\n0,oops\n"
        spec = EncodingSpec(version=1, outcome="y", columns=(NumericRule(name="a"),))
        with pytest.raises(EncodingError, match=r"column 'a': non-numeric value 'oops' at data row 2"):
            encode(load_table(io.StringIO(text)), spec)

    def test_all_rows_dropped_is_an_error(self):
        text = "y,a\n,1\n,2\n"
        spec = EncodingSpec(version=1, outcome="y", columns=(NumericRule(name="a"),))
        with pytest.raises(EmptyDatasetError):
            encode(load_table(io.StringIO(text)), spec)

    def test_absent_source_column_is_a_schema_error(self):
        spec = EncodingSpec(version=1, outcome="y", columns=(NumericRule(name="zzz"),))
        with pytest.raises(SchemaError, match="zzz"):
            encode(load_table(io.StringIO("y,a\n1,2\n")), spec)

    def test_derived_expression_failure_is_reported(self):
        text = "y,a\n1,0\n"
        spec = EncodingSpec(
            version=1, outcome="y",
            columns=(DerivedRule(name="a", expression="1 / x", standardize=False),),
        )
        with pytest.raises(EncodingError, match="expression failed"):
            encode(load_table(io.StringIO(text)), spec)


    @pytest.mark.parametrize("expression, message", [
        ("x ** 0.5", "result (1.2246467991473532e-16+2j) is not a finite real number"),
        ("1e308 * x * 10", "result -inf is not a finite real number"),
    ], ids=["complex", "infinite"])
    def test_a_complex_or_infinite_derived_value_names_the_row(self, expression, message):
        spec = EncodingSpec(version=1, outcome="y",
                            columns=(DerivedRule(name="a", expression=expression),))
        with pytest.raises(EncodingError) as err:
            encode(load_table(io.StringIO("y,a\n1,-4\n0,4\n1,9\n")), spec)
        assert str(err.value) == f"column 'a': expression failed on -4.0 at data row 1: {message}"


class TestSpecValidation:
    def test_wrong_version_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            EncodingSpec(version=2, outcome="y", columns=(NumericRule(name="a"),))

    def test_output_name_collision_rejected(self):
        with pytest.raises(SchemaError, match="collide"):
            EncodingSpec(
                version=1, outcome="y",
                columns=(NumericRule(name="a", rename="z"), NumericRule(name="b", rename="z")),
            )

    def test_outcome_collision_rejected(self):
        with pytest.raises(SchemaError, match="outcome"):
            EncodingSpec(version=1, outcome="a", columns=(NumericRule(name="a"),))

    def test_interaction_must_reference_declared_outputs(self):
        with pytest.raises(SchemaError, match="undeclared"):
            EncodingSpec(
                version=1, outcome="y",
                columns=(NumericRule(name="a"),),
                interactions=(InteractionRule(a="a", b="ghost"),),
            )

    def test_baseline_must_be_a_declared_level(self):
        with pytest.raises(SchemaError, match="baseline"):
            CategoricalRule(name="g", levels=("a", "b"), baseline="c")

    def test_merge_keys_must_be_declared_levels(self):
        with pytest.raises(SchemaError, match="merge key"):
            CategoricalRule(name="g", levels=("a", "b"), baseline="a", merge={"c": "b"})

    @pytest.mark.parametrize("levels", [("1", "01"), ("2", "2.0"), ("x", "1e3", " 1000")])
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

    def test_a_number_reads_as_text_where_text_belongs(self):
        spec = encoding_spec_from_yaml(
            "version: 1\noutcome: 7\ncolumns: [{name: 2020, kind: numeric, rename: 5}]\n")
        assert (spec.outcome, spec.columns[0].name, spec.columns[0].rename) == ("7", "2020", "5")

    @pytest.mark.parametrize("text", YAML_DOCUMENTS.values(), ids=YAML_DOCUMENTS.keys())
    def test_the_package_loader_reads_what_the_pure_loader_reads(self, text):
        assert yaml.load(text, Loader=YAML_LOADER) == yaml.safe_load(text)

    @pytest.mark.parametrize("parse", [
        encoding_spec_from_yaml, simulate.study_spec_from_yaml,
        simulate.coverage_reports_from_yaml,
    ])
    def test_invalid_yaml_is_a_schema_error_for_every_parser(self, parse):
        with pytest.raises(SchemaError, match="not valid YAML"):
            parse("version: 1\nreports: [unclosed\n")


class TestEncodedInteractions:
    """Products that encode appends for a spec's interactions."""

    TEXT = "y,u,v\n1,1,b\n0,2,a\n1,6,b\n"

    def _encode(self, *pairs, role="control", policy="drop", text=TEXT):
        spec = EncodingSpec(
            version=1, outcome="y",
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

    def test_header_sidecar_mismatch_rejected(self, tmp_path):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        out = tmp_path / "data.tsv"
        save_dataset(ds, out)
        body = out.read_text().splitlines()
        body[0] = body[0].replace("income", "wages")
        out.write_text("\n".join(body) + "\n")
        with pytest.raises(SchemaError, match="header"):
            load_dataset(out)


class TestDataset:
    def test_arrays_are_read_only(self):
        ds = encode(load_table(io.StringIO(_SURVEY_TEXT)), _survey_spec())
        with pytest.raises(ValueError):
            ds.design[0, 0] = 9.9
        with pytest.raises(ValueError):
            ds.y[0] = 9.9

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
