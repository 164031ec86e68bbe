"""Design-matrix construction from raw delimited tables.

A RawTable is parsed with per-cell type sniffing; an EncodingSpec (a small
YAML document, grammar in the README) turns it into a numeric Dataset:
categorical columns become baseline-omitted dummies with optional level
merges, numeric columns pass through an optional affine map, derived columns
evaluate a one-variable arithmetic expression, and declared interactions
append product columns. Rows with missing values in any used column are
dropped by default; the zero-with-indicator policy is available per spec.

Continuous columns are standardized to mean 0 / sd 1 at encode time (can be
switched off per column); the applied center and scale are stored with the
column so results can be reported on the original scale.
"""

from __future__ import annotations

import ast
import csv
import functools
import io
import math
import os
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
import yaml

from .errors import (
    EmptyDatasetError,
    EncodingError,
    ParseError,
    SchemaError,
)

SPEC_VERSION = 1
DEFAULT_MISSING_TOKENS = ("", "NA")
_ROLES = ("control", "treatment")
# libyaml's loader where PyYAML was built with it: the same documents, parsed
# about 8x faster. Dumps stay on the pure emitter, whose bytes are pinned.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _slug(text) -> str:
    """Lower-cased text with each run of non-alphanumerics as one "_", trimmed."""
    return re.sub(r"[\W_]+", "_", str(text).lower()).strip("_") or "x"


def _canon(cell) -> str:
    """A cell as the "unseen level" message shows it: 1.0 as '1'.

    Exact, so that distinct numbers never share a form.
    """
    if isinstance(cell, float):
        return str(int(cell)) if cell.is_integer() else repr(cell)
    return str(cell)


def _first_duplicate(names):
    """The first name that repeats an earlier one, or None."""
    seen = set()
    return next((name for name in names if name in seen or seen.add(name)), None)


# ---------------------------------------------------------------------------
# Raw tables


@dataclass(frozen=True)
class RawTable:
    """Header plus typed rows; cells are float, str, or None (missing)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        if (dup := _first_duplicate(self.columns)) is not None:
            raise SchemaError(f"table header names column {dup!r} more than once")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def _sniff_cell(text: str, missing_tokens) -> object:
    stripped = text.strip()
    if stripped in missing_tokens:
        return None
    try:
        value = float(stripped)
    except ValueError:
        return stripped
    if not math.isfinite(value):
        return stripped
    return value


def load_table(source, *, missing_tokens=DEFAULT_MISSING_TOKENS) -> RawTable:
    """Parse a delimited text file (path or file object) into a RawTable.

    The delimiter is sniffed from the header row (tab wins over comma when
    both appear). Cells parse as numbers when possible, the given missing
    tokens (an encoding spec's `missing_tokens`) become None, and
    everything else stays text. A leading UTF-8 byte-order mark, as
    spreadsheet "CSV UTF-8" exports write it, is dropped.
    Records end at LF, CRLF or CR; any other line separator stays in its
    cell. Blank lines are skipped, as is a line with no delimiter that holds
    only whitespace. Mid-file, a line of delimiters (a tab-only line in a
    tab-delimited file) is a row of empty cells; at the end of the file,
    every line that holds only whitespace, tab-only lines included, is
    dropped. Ragged rows raise ParseError with the 1-based index of the data
    row among the rows kept, as encode counts them.
    """
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        text = text.removeprefix("\ufeff")
    else:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty input: no header row")
    head = lines[0]
    delimiter = "\t" if head.count("\t") > head.count(",") else ","
    reader = csv.reader(io.StringIO("\n".join(lines)), delimiter=delimiter)
    columns = tuple(h.strip() for h in next(reader))
    # Survey tables repeat a few labels across many cells; parse each
    # distinct cell text once.
    sniff = functools.cache(functools.partial(_sniff_cell, missing_tokens=tuple(missing_tokens)))
    rows = []
    for raw in reader:
        if len(raw) < 2 and not "".join(raw).strip():
            continue
        if len(raw) != len(columns):
            raise ParseError(
                f"row {len(rows) + 1}: expected {len(columns)} cells, found {len(raw)}"
            )
        rows.append(tuple(map(sniff, raw)))
    return RawTable(columns=columns, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Spec documents: every file format names its keys once, in a table that maps
# each key to the converter reading its value. A converter takes only values
# of its own YAML type and otherwise raises ValueError naming that type.


def _spelled(value, integral: bool) -> str:
    """For text that reads as a finite number, how to write it so that YAML
    reads a number: ", written unquoted as ..."; "" for any other value.

    YAML reads a float only with a decimal point and a signed exponent
    (1.0e+3), so 1e3, 1.0e3 and 1E+3 are text, as is any quoted value.
    """
    if not isinstance(value, str):
        return ""
    try:
        number = float(value)
    except ValueError:
        return ""
    if not math.isfinite(number) or (integral and not number.is_integer()):
        return ""
    if integral:
        return f", written unquoted as {int(number)}"
    mantissa, _, exponent = repr(number).partition("e")
    if not exponent:
        return f", written unquoted as {mantissa}"
    if "." not in mantissa:
        mantissa += ".0"
    return (", written unquoted with a decimal point and a signed exponent as "
            f"{mantissa}e{exponent}")


def _int(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("an integer" + _spelled(value, True))
    return value


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("a number" + _spelled(value, False))
    if not abs(value) <= sys.float_info.max:  # nan, an infinity, or an int past every float
        raise ValueError("a finite number")
    return float(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("true or false")
    return value


def _text(value) -> str:
    """A string, or a number read as its text (`name: 2020` is "2020")."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError("text")
    return str(value)


def _text_or_null(value) -> str | None:
    return None if value is None else _text(value)


def _mapping(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError("a mapping")
    return value


def _text_map(value) -> tuple[tuple[str, str], ...]:
    try:
        return tuple((_text(k), _text(v)) for k, v in _mapping(value).items())
    except ValueError:
        raise ValueError("a mapping of text to text") from None


def _list(item):
    """The converter of a list whose items `item` reads; it returns a tuple."""
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError("a list")
        try:
            return tuple(map(item, value))
        except ValueError as exc:
            raise ValueError(f"a list, each item {exc}") from None
    return read


def _read(mapping: dict, keys: dict, where: str) -> dict:
    """Each key of `mapping`, read by its converter in `keys`."""
    unknown = set(mapping) - set(keys)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    out = {}
    for key, value in mapping.items():
        try:
            out[key] = keys[key](value)
        except ValueError as exc:
            raise SchemaError(f"{where}: {key} must be {exc}, got {value!r}") from None
    return out


def _build(cls, kwargs: dict, where: str):
    """cls(**kwargs), once every field of `cls` without a default is given."""
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise SchemaError(f"{where} is missing {', '.join(missing)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a value that the class rejects
        raise SchemaError(f"{where}: {exc}") from None


def _plain(value):
    """A field value as YAML writes it: pairs as a mapping, another tuple as a list."""
    if isinstance(value, tuple):
        return dict(value) if value and isinstance(value[0], tuple) else list(value)
    return value


def _yaml_mapping(source, what: str) -> dict:
    """The mapping that YAML text or a file holds, less its version key, which
    must be 1 in every format; SchemaError names `what` otherwise."""
    try:
        doc = yaml.load(source, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{what} is not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a mapping")
    version = doc.pop("version", None)
    if type(version) is not int or version != SPEC_VERSION:
        raise SchemaError(f"{what} needs version: {SPEC_VERSION}, got {version!r}")
    return doc


# ---------------------------------------------------------------------------
# Encoding spec


_ALLOWED_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.FloorDiv,
    ast.USub, ast.UAdd,
)


def _compile_expression(text: str):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SchemaError(f"bad derived expression {text!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_EXPR_NODES):
            raise SchemaError(
                f"derived expression {text!r} uses unsupported syntax "
                f"({type(node).__name__})"
            )
        if isinstance(node, ast.Name) and node.id != "x":
            raise SchemaError(
                f"derived expression may reference only 'x', got {node.id!r}"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise SchemaError("derived expression constants must be numeric")
    code = compile(tree, "<derived>", "eval")

    def fn(x: float) -> float:
        value = eval(code, {"__builtins__": {}}, {"x": float(x)})
        if isinstance(value, complex) or not math.isfinite(value):
            raise ValueError(f"result {value!r} is not a finite real number")
        return float(value)

    return fn


def _check_role(role: str, where: str) -> str:
    if role not in _ROLES:
        raise SchemaError(f"{where}: role must be one of {_ROLES}, got {role!r}")
    return role


@dataclass(frozen=True)
class NumericRule:
    name: str
    rename: str | None = None
    scale: float = 1.0
    offset: float = 0.0
    standardize: bool = True
    role: str = "control"

    def __post_init__(self):
        _check_role(self.role, f"column {self.name!r}")

    @property
    def output(self) -> str:
        return self.rename or self.name


@dataclass(frozen=True)
class DerivedRule:
    name: str
    expression: str
    rename: str | None = None
    standardize: bool = True
    role: str = "control"

    def __post_init__(self):
        _check_role(self.role, f"column {self.name!r}")
        _compile_expression(self.expression)

    @property
    def output(self) -> str:
        return self.rename or self.name


@dataclass(frozen=True)
class CategoricalRule:
    name: str
    levels: tuple[str, ...]
    baseline: str
    merge: tuple[tuple[str, str], ...] = ()
    role: str = "control"

    def __post_init__(self):
        levels = tuple(str(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "baseline", str(self.baseline))
        if isinstance(self.merge, dict):
            object.__setattr__(
                self, "merge", tuple((str(k), str(v)) for k, v in self.merge.items())
            )
        _check_role(self.role, f"column {self.name!r}")
        if len(set(levels)) != len(levels):
            raise SchemaError(f"column {self.name!r}: duplicate levels")
        if self.baseline not in levels:
            raise SchemaError(
                f"column {self.name!r}: baseline {self.baseline!r} is not a declared level"
            )
        for key, _ in self.merge:
            if key not in levels:
                raise SchemaError(
                    f"column {self.name!r}: merge key {key!r} is not a declared level"
                )
        seen: dict[object, str] = {}
        for lvl in levels:
            other = seen.setdefault(_sniff_cell(lvl, ()), lvl)
            if other != lvl:
                raise SchemaError(
                    f"column {self.name!r}: levels {other!r} and {lvl!r} match the same cells"
                )

    @property
    def merge_map(self) -> dict[str, str]:
        m = {lvl: lvl for lvl in self.levels}  # total over declared levels
        m.update(dict(self.merge))
        return m

    @property
    def cell_map(self) -> dict[object, str]:
        """merge_map keyed by the cell each level reads as, so "01", "1.0" and
        1.0 all match the cells "1", "01" and "1.0"."""
        return {_sniff_cell(lvl, ()): lab for lvl, lab in self.merge_map.items()}

    @property
    def output_levels(self) -> tuple[str, ...]:
        """Merged non-baseline labels in first-appearance (declared) order."""
        m = self.merge_map
        base = m[self.baseline]
        seen = []
        for lvl in self.levels:
            lab = m[lvl]
            if lab != base and lab not in seen:
                seen.append(lab)
        return tuple(seen)

    def output_names(self) -> tuple[str, ...]:
        return tuple(f"{self.name}_{_slug(lab)}" for lab in self.output_levels)


@dataclass(frozen=True)
class InteractionRule:
    a: str
    b: str
    role: str = "control"

    def __post_init__(self):
        _check_role(self.role, f"interaction {self.a!r} x {self.b!r}")

    @property
    def output(self) -> str:
        return f"{self.a}*{self.b}"


ColumnRule = NumericRule | DerivedRule | CategoricalRule


@dataclass(frozen=True)
class EncodingSpec:
    """Everything needed to turn a RawTable into a numeric Dataset."""

    outcome: str
    columns: tuple[ColumnRule, ...]
    interactions: tuple[InteractionRule, ...] = ()
    missing_policy: str = "drop"
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "interactions", tuple(self.interactions))
        object.__setattr__(self, "missing_tokens", tuple(self.missing_tokens))
        if not self.columns:
            raise SchemaError("spec declares no columns")
        if self.missing_policy not in ("drop", "zero-indicator"):
            raise SchemaError(
                f"missing_policy must be 'drop' or 'zero-indicator', got {self.missing_policy!r}"
            )
        if (dup := _first_duplicate(r.name for r in self.columns)) is not None:
            raise SchemaError(f"spec lists source column {dup!r} more than once")
        outs = self.base_output_names()
        if (dup := _first_duplicate(outs)) is not None:
            raise SchemaError(f"encoded column names collide: {dup!r} is made more than once")
        if self.outcome in outs:
            raise SchemaError(f"outcome name {self.outcome!r} collides with an encoded column")
        declared = set(outs)
        seen_products = set()
        for inter in self.interactions:
            for side in (inter.a, inter.b):
                if side not in declared:
                    raise SchemaError(
                        f"interaction references undeclared output column {side!r}"
                    )
            if inter.output in declared or inter.output in seen_products:
                raise SchemaError(f"interaction column {inter.output!r} already exists")
            seen_products.add(inter.output)

    def base_output_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for rule in self.columns:
            if isinstance(rule, CategoricalRule):
                names.extend(rule.output_names())
            else:
                names.append(rule.output)
        return tuple(names)


# Each rule kind's class and keys, and the keys of an interaction and of the
# spec itself. A key left out takes the dataclass default; a field without
# one is required.
_RULES = {
    "numeric": (NumericRule, {"name": _text, "rename": _text_or_null, "scale": _float,
                              "offset": _float, "standardize": _bool, "role": _text}),
    "derived": (DerivedRule, {"name": _text, "expression": _text, "rename": _text_or_null,
                              "standardize": _bool, "role": _text}),
    "categorical": (CategoricalRule, {"name": _text, "levels": _list(_text),
                                      "baseline": _text, "merge": _text_map, "role": _text}),
}
_INTERACTION_KEYS = {"a": _text, "b": _text, "role": _text}
# encoding_spec_to_yaml leaves out a key that holds its default, except these.
_WRITTEN_AT_DEFAULT = ("standardize", "role", "missing_policy", "missing_tokens")


def _rule_from_mapping(entry) -> ColumnRule:
    entry = dict(_mapping(entry))
    kind = entry.pop("kind", None)
    where = f"column {entry.get('name')!r}"
    if not isinstance(kind, str) or kind not in _RULES:
        raise SchemaError(f"{where}: kind must be one of {tuple(_RULES)}, got {kind!r}")
    cls, keys = _RULES[kind]
    return _build(cls, _read(entry, keys, where), where)


def _interaction_from_mapping(entry) -> InteractionRule:
    return _build(InteractionRule, _read(_mapping(entry), _INTERACTION_KEYS, "interaction"),
                  "interaction")


_SPEC_KEYS = {"outcome": _text, "missing_policy": _text, "missing_tokens": _list(_text),
              "columns": _list(_rule_from_mapping),
              "interactions": _list(_interaction_from_mapping)}


def encoding_spec_from_yaml(text: str) -> EncodingSpec:
    """Parse the YAML spec document; the version field is mandatory."""
    doc = _read(_yaml_mapping(text, "spec"), _SPEC_KEYS, "spec")
    return _build(EncodingSpec, doc, "spec")


def _written(record, keys: dict) -> dict:
    """The values of `record` that its YAML form holds, in the order of `keys`."""
    defaults = {f.name: f.default for f in fields(record)}
    return {key: _plain(getattr(record, key)) for key in keys
            if key in _WRITTEN_AT_DEFAULT or getattr(record, key) != defaults[key]}


def encoding_spec_to_yaml(spec: EncodingSpec) -> str:
    doc = {"version": SPEC_VERSION, **_written(spec, _SPEC_KEYS)}
    doc["columns"] = [{"name": rule.name, "kind": kind, **_written(rule, keys)}
                      for rule in spec.columns
                      for kind, (cls, keys) in _RULES.items() if isinstance(rule, cls)]
    if "interactions" in doc:
        doc["interactions"] = [_written(i, _INTERACTION_KEYS) for i in spec.interactions]
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# Datasets


@dataclass(frozen=True)
class ColumnInfo:
    name: str
    role: str
    source: str
    level: str | None = None
    center: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {self.role!r}")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "scale", float(self.scale))


class _ArrayRecord:
    """Base of the frozen `eq=False` dataclasses that hold arrays: the fields
    named in `_ARRAYS` become read-only Fortran-contiguous float views, and
    a pickle rebuilds the record through __init__, so they are read-only
    again. A view of an array that is already Fortran-contiguous float
    shares the caller's buffer without changing the caller's flags; any
    other input, a C-ordered matrix included, is copied. A contiguous 1-D
    array is both, so only a matrix field's layout differs from C order:
    Dataset.design is column-major, the layout the solvers read columns
    from."""

    _ARRAYS: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self._ARRAYS:
            arr = np.asfortranarray(getattr(self, name), dtype=float).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(eq=False, frozen=True)
class Dataset(_ArrayRecord):
    """Outcome vector plus design matrix with per-column metadata.

    Immutable: its arrays are read-only views, made at construction.
    """

    _ARRAYS = ("y", "design")

    y: np.ndarray
    design: np.ndarray
    columns: tuple[ColumnInfo, ...]
    outcome_name: str = "y"
    n_dropped: int = 0

    def __post_init__(self):
        super().__post_init__()
        y, design = self.y, self.design
        if y.ndim != 1 or design.ndim != 2 or design.shape[0] != y.size:
            raise ValueError("y must be (n,) and design (n, p)")
        if design.shape[1] != len(self.columns):
            raise ValueError("column metadata does not match the design width")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(design))):
            raise ValueError("dataset values must be finite")
        names = [self.outcome_name] + [c.name for c in self.columns]
        if (dup := _first_duplicate(names)) is not None:
            raise ValueError(f"{dup!r} names more than one of the outcome and design columns")
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.design.shape[1]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def treatment_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.role == "treatment")

    @property
    def control_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.role == "control")

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"no design column named {name!r}")


def _floats(cells, rows, where: str) -> np.ndarray:
    """The cells of one column as floats, a missing cell as 0.0; EncodingError
    names the data row, rows[i] + 1, of the first cell that is text."""
    for i, cell in enumerate(cells):
        if not (cell is None or isinstance(cell, float)):
            raise EncodingError(f"{where}: non-numeric value {cell!r} at data row {rows[i] + 1}")
    return np.array([0.0 if cell is None else cell for cell in cells])


def encode(table: RawTable, spec: EncodingSpec) -> Dataset:
    """Apply the spec's rules to a parsed table. See the module docstring."""
    col_index = {name: i for i, name in enumerate(table.columns)}
    if spec.outcome not in col_index:
        raise SchemaError(f"outcome column {spec.outcome!r} is absent from the table")
    for rule in spec.columns:
        if rule.name not in col_index:
            raise SchemaError(f"spec references absent column {rule.name!r}")

    # One tuple of cells per table column, empty when the table has no rows.
    by_column = tuple(zip(*table.rows)) or ((),) * len(table.columns)
    outcome = by_column[col_index[spec.outcome]]
    sources = [by_column[col_index[rule.name]] for rule in spec.columns]
    zero_indicator = spec.missing_policy == "zero-indicator"
    # The outcome is never imputable; under "drop" no rule's cell is either.
    tested = (outcome,) if zero_indicator else (outcome, *sources)
    keep = [ri for ri, cells in enumerate(zip(*tested)) if None not in cells]
    n = len(keep)
    n_dropped = table.n_rows - n
    if n == 0:
        raise EmptyDatasetError("all rows were dropped while encoding")

    def kept(column):
        return [column[ri] for ri in keep] if n_dropped else column

    y = _floats(kept(outcome), keep, f"outcome column {spec.outcome!r}")
    infos: list[ColumnInfo] = []
    arrays: list[np.ndarray] = []
    indicator_blocks: list[tuple[ColumnInfo, np.ndarray]] = []
    none_missing = np.zeros(n, dtype=bool)  # under "drop" every kept cell is present

    for rule, column in zip(spec.columns, sources):
        cells = kept(column)
        miss = np.equal(np.array(cells, dtype=object), None) if zero_indicator else none_missing
        if isinstance(rule, CategoricalRule):
            mm = rule.cell_map
            out_levels = rule.output_levels
            lab_pos = {lab: k for k, lab in enumerate(out_levels)}
            # Each distinct cell, in order of first appearance, maps to its
            # dummy position, or -1 for a missing cell or a baseline label.
            pos = dict.fromkeys(cells, -1)
            for cell in pos:
                if cell is None:
                    continue
                if cell not in mm:
                    raise EncodingError(
                        f"unseen level {_canon(cell)!r} in column {rule.name!r} "
                        f"at data row {keep[cells.index(cell)] + 1}"
                    )
                pos[cell] = lab_pos.get(mm[cell], -1)
            codes = np.fromiter(map(pos.__getitem__, cells), dtype=np.intp, count=n)
            block = (codes[:, None] == np.arange(len(out_levels))).astype(float)
            for k, (name, lab) in enumerate(zip(rule.output_names(), out_levels)):
                infos.append(ColumnInfo(name=name, role=rule.role, source=rule.name, level=lab))
                arrays.append(block[:, k])
        else:
            vals = _floats(cells, keep, f"column {rule.name!r}")
            if isinstance(rule, DerivedRule):
                fn = _compile_expression(rule.expression)
                for i, cell in enumerate(cells):
                    if cell is None:
                        continue
                    try:
                        vals[i] = fn(cell)
                    except (ZeroDivisionError, OverflowError, ValueError) as exc:
                        raise EncodingError(
                            f"column {rule.name!r}: expression failed on {cell!r} "
                            f"at data row {keep[i] + 1}: {exc}"
                        ) from None
            else:
                with np.errstate(over="ignore"):  # an overflow fails as a non-finite value
                    vals = vals * rule.scale + rule.offset
            center, scale = 0.0, 1.0
            obs = vals[~miss]
            if rule.standardize and obs.size:
                center = float(obs.mean())
                sd = float(obs.std())
                scale = sd if sd > 0 else 1.0
            vals = np.where(miss, 0.0, (vals - center) / scale)
            infos.append(ColumnInfo(
                name=rule.output, role=rule.role, source=rule.name, level=None,
                center=center, scale=scale,
            ))
            arrays.append(vals)
        if zero_indicator and miss.any():
            ind_info = ColumnInfo(
                name=f"{rule.name}_missing", role="control", source=rule.name,
                level="<missing>",
            )
            indicator_blocks.append((ind_info, miss.astype(float)))

    encoded = {info.name: vals for info, vals in zip(infos, arrays)}
    for info, vals in indicator_blocks:
        infos.append(info)
        arrays.append(vals)
    # Products of the encoded (standardized, imputed) parents. The spec has
    # checked that both parents are encoded columns and the name is new.
    for inter in spec.interactions:
        infos.append(ColumnInfo(name=inter.output, role=inter.role, source=inter.output))
        arrays.append(encoded[inter.a] * encoded[inter.b])

    # One pass over the dataset file's header, which is tab-separated text
    # read back line by line. A zero-indicator column, <source>_missing, is
    # the one name the spec cannot check.
    seen = set()
    for name in (spec.outcome, *(info.name for info in infos)):
        if any(ch in name for ch in "\t\r\n"):
            raise SchemaError(f"column name {name!r} holds a tab or line break, "
                              "which the dataset file cannot store")
        if name in seen:
            owner = "the outcome" if name == spec.outcome else "another encoded column"
            raise SchemaError(f"encoded column {name!r} collides with {owner}")
        seen.add(name)
    if not arrays:
        raise SchemaError("spec yields no design column")
    return Dataset(
        y=y,
        design=np.array(arrays).T,  # column-major, as Dataset keeps it
        columns=tuple(infos),
        outcome_name=spec.outcome,
        n_dropped=n_dropped,
    )


# ---------------------------------------------------------------------------
# Dataset round trip: delimited matrix + YAML sidecar


def sidecar_path(data_path) -> str:
    base, _ = os.path.splitext(os.fspath(data_path))
    return base + ".columns.yaml"


def save_dataset(dataset: Dataset, path) -> str:
    """Write a tab-delimited matrix plus its metadata sidecar.

    Values are written with repr (shortest round-trip form), so reloading
    reproduces the array bit for bit. Returns the sidecar path.
    """
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join((dataset.outcome_name,) + dataset.column_names) + "\n")
        for row in np.column_stack([dataset.y, dataset.design]).tolist():
            fh.write("\t".join(map(repr, row)) + "\n")
    meta = {
        "version": SPEC_VERSION,
        "outcome": dataset.outcome_name,
        "n": dataset.n,
        "n_dropped": dataset.n_dropped,
        "columns": [asdict(c) for c in dataset.columns],
    }
    side = sidecar_path(path)
    with open(side, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(yaml.safe_dump(meta, sort_keys=False))
    return side


# The sidecar's keys besides version, and the six keys of each column entry;
# save_dataset writes them all, and load_dataset requires them all.
_SIDECAR_KEYS = {"outcome": _text, "n": _int, "n_dropped": _int, "columns": _list(_mapping)}
_COLUMN_KEYS = {"name": _text, "role": _text, "source": _text, "level": _text_or_null,
                "center": _float, "scale": _float}


def _read_all(mapping: dict, keys: dict, where: str) -> dict:
    if set(mapping) != set(keys):
        raise SchemaError(f"{where}: needs exactly the keys {', '.join(keys)}")
    return _read(mapping, keys, where)


def load_dataset(path) -> Dataset:
    """Reload a matrix + sidecar pair written by save_dataset."""
    path = os.fspath(path)
    side = sidecar_path(path)
    where = f"dataset sidecar {side!r}"
    with open(side, "r", encoding="utf-8") as fh:
        meta = _read_all(_yaml_mapping(fh, where), _SIDECAR_KEYS, where)
    where = f"bad column in {where}"
    infos = [_build(ColumnInfo, _read_all(entry, _COLUMN_KEYS, where), where)
             for entry in meta["columns"]]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        expected = [meta["outcome"]] + [c.name for c in infos]
        if header != expected:
            raise SchemaError("dataset header does not match its sidecar")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(expected):
                raise ParseError(f"row {len(rows) + 1}: expected {len(expected)} cells, "
                                 f"found {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise ParseError(f"row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise EmptyDatasetError(f"{path} has no data rows")
    matrix = np.array(rows)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:  # float() reads nan and inf; name the first such cell
        i, j = bad[0].tolist()
        raise ParseError(f"row {i + 1}: column {expected[j]!r} is {float(matrix[i, j])!r}, "
                         "not a finite number")
    if len(rows) != meta["n"]:
        raise SchemaError(f"{path} has {len(rows)} data rows, but its sidecar says n: {meta['n']}")
    return Dataset(
        y=matrix[:, 0],
        design=matrix[:, 1:],
        columns=infos,
        outcome_name=meta["outcome"],
        n_dropped=meta["n_dropped"],
    )


# ---------------------------------------------------------------------------
# Synthetic survey schema (63 source variables -> 303 controls + 26 treatments)


def synthetic_survey_schema() -> EncodingSpec:
    """A survey-shaped schema whose encoding is exactly 329 columns wide.

    Ten treatment-tagged source variables expand to 18 base columns, and the
    participation-mode dummy interacts with age, education, and living
    situation for 8 more treatment columns (26 total). Ten numeric and 43
    categorical background variables expand to 303 controls.
    """
    cols: list[ColumnRule] = [
        DerivedRule(name="birth_year", expression="2013 - x", rename="age",
                    standardize=True, role="treatment"),
        CategoricalRule(name="gender", levels=("male", "female"),
                        baseline="male", role="treatment"),
        CategoricalRule(
            name="citizenship",
            levels=("germany", "eu", "europe_other", "other"),
            baseline="eu",
            merge={"eu": "foreign", "europe_other": "foreign", "other": "foreign"},
            role="treatment",
        ),
        CategoricalRule(
            name="answer_willingness",
            levels=("good", "medium", "bad"),
            baseline="bad",
            merge={"medium": "bad"},
            role="treatment",
        ),
        CategoricalRule(
            name="persuade_interview",
            levels=("very_difficult", "rather_difficult", "rather_easy", "very_easy"),
            baseline="very_difficult",
            merge={"rather_difficult": "difficult", "very_difficult": "difficult"},
            role="treatment",
        ),
        CategoricalRule(
            name="persuade_followup",
            levels=("very_difficult", "rather_difficult", "rather_easy", "very_easy"),
            baseline="very_difficult",
            merge={"rather_difficult": "difficult", "very_difficult": "difficult"},
            role="treatment",
        ),
        CategoricalRule(
            name="participation_likelihood",
            levels=("very_likely", "rather_likely", "rather_unlikely", "very_unlikely"),
            baseline="very_unlikely",
            merge={"rather_unlikely": "unlikely", "very_unlikely": "unlikely"},
            role="treatment",
        ),
        CategoricalRule(
            name="education",
            levels=("no_degree", "lower_secondary", "poly_8_9", "secondary",
                    "poly_10", "technical_college", "university_entrance",
                    "other_degree", "in_school"),
            baseline="no_degree",
            merge={
                "no_degree": "low", "lower_secondary": "low", "poly_8_9": "low",
                "secondary": "medium", "poly_10": "medium",
                "technical_college": "high", "university_entrance": "high",
                "other_degree": "other", "in_school": "other",
            },
            role="treatment",
        ),
        CategoricalRule(
            name="living_situation",
            levels=("no_partner", "partner_separate", "partner_joint",
                    "married_together", "married_apart"),
            baseline="no_partner",
            role="treatment",
        ),
        CategoricalRule(name="mode", levels=("offline", "online"),
                        baseline="offline", role="treatment"),
    ]
    numeric_controls = (
        "household_size", "n_children", "monthly_income", "internet_hours",
        "tech_affinity", "life_satisfaction", "leisure_hours", "prior_surveys",
        "incentive_points", "contact_attempts",
    )
    for name in numeric_controls:
        cols.append(NumericRule(name=name, standardize=True, role="control"))
    for k in range(1, 36):  # 35 variables, 8 levels -> 7 dummies each
        cols.append(CategoricalRule(
            name=f"background_{k:02d}",
            levels=tuple(f"lvl{j}" for j in range(1, 9)),
            baseline="lvl1",
            role="control",
        ))
    for k in range(1, 9):  # 8 variables, 7 levels -> 6 dummies each
        cols.append(CategoricalRule(
            name=f"context_{k}",
            levels=tuple(f"lvl{j}" for j in range(1, 8)),
            baseline="lvl1",
            role="control",
        ))
    partners = (
        "age",
        "education_medium", "education_high", "education_other",
        "living_situation_partner_separate", "living_situation_partner_joint",
        "living_situation_married_together", "living_situation_married_apart",
    )
    inters = tuple(
        InteractionRule(a="mode_online", b=p, role="treatment") for p in partners
    )
    return EncodingSpec(outcome="dropout", columns=tuple(cols), interactions=inters)


def _philox(seed) -> np.random.Generator:
    """The counter-based generator keyed by `seed`, an integer in [0, 2**64)."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a nonnegative integer below 2**64, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def synthetic_survey_table(n: int, seed: int = 0) -> RawTable:
    """Draw a raw table matching synthetic_survey_schema (counter-based RNG)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _philox(seed)
    spec = synthetic_survey_schema()
    data: dict[str, list] = {}
    data["dropout"] = [float(v) for v in rng.binomial(1, 0.2, size=n)]
    for rule in spec.columns:
        if isinstance(rule, CategoricalRule):
            idx = rng.integers(0, len(rule.levels), size=n)
            data[rule.name] = [rule.levels[i] for i in idx]
        elif isinstance(rule, DerivedRule):
            data[rule.name] = [float(v) for v in rng.integers(1920, 1996, size=n)]
        else:
            data[rule.name] = [float(round(v, 3)) for v in rng.normal(0.0, 1.0, size=n)]
    columns = tuple(["dropout"] + [r.name for r in spec.columns])
    return RawTable(columns=columns, rows=tuple(zip(*(data[c] for c in columns))))
