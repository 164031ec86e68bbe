"""Table parsing, rule-based encoding, and the dataset round trip."""

import io
import math
import os

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
from doublelasso import simulate
from doublelasso.encoding import (
    YAML_LOADER,
    CategoricalRule,
    Dataset,
    DerivedRule,
    EncodingSpec,
    InteractionRule,
    NumericRule,
    interact,
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


class TestInteract:
    def _toy(self):
        y = np.array([1.0, 0.0, 1.0])
        design = np.array([[1.0, 2.0], [0.0, 3.0], [1.0, 4.0]])
        from doublelasso.encoding import ColumnInfo
        cols = (
            ColumnInfo(name="u", role="treatment", source="u"),
            ColumnInfo(name="v", role="control", source="v"),
        )
        return Dataset(y=y, design=design, columns=cols)

    def test_product_of_parents(self):
        ds = interact(self._toy(), [("u", "v")])
        np.testing.assert_array_equal(ds.design[:, 2], [2.0, 0.0, 4.0])
        assert ds.column_names[-1] == "u*v"
        assert ds.columns[-1].role == "control"

    def test_pair_order_changes_layout_but_not_values(self):
        base = self._toy()
        d1 = interact(base, [("u", "v"), ("u", "u")])
        d2 = interact(base, [("u", "u"), ("u", "v")])
        for name in ("u*v", "u*u"):
            np.testing.assert_array_equal(
                d1.design[:, d1.index_of(name)], d2.design[:, d2.index_of(name)]
            )

    def test_role_sequence_assigns_treatment(self):
        ds = interact(self._toy(), [("u", "v")], roles=["treatment"])
        assert ds.columns[-1].role == "treatment"

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="ghost"):
            interact(self._toy(), [("u", "ghost")])

    def test_duplicate_product_rejected(self):
        ds = interact(self._toy(), [("u", "v")])
        with pytest.raises(ValueError, match="already exists"):
            interact(ds, [("u", "v")])

    def test_input_dataset_untouched(self):
        base = self._toy()
        interact(base, [("u", "v")])
        assert base.p == 2


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
