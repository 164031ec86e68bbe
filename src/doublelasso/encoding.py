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
import io
import math
import os
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
    out = []
    prev_us = False
    for ch in str(text).lower():
        if ch.isalnum():
            out.append(ch)
            prev_us = False
        elif not prev_us:
            out.append("_")
            prev_us = True
    s = "".join(out).strip("_")
    return s or "x"


def _canon(cell) -> str:
    """Canonical text form of a cell for level matching ('1' == 1 == 1.0).

    Exact, so that distinct numbers never share a form.
    """
    if isinstance(cell, float):
        return str(int(cell)) if cell.is_integer() else repr(cell)
    return str(cell)


def _level_cells(level: str) -> str:
    """Canonical text of the cells a declared level matches.

    A level reads as a cell does, so "01", "1.0" and 1.0 all match the
    cells "1", "01" and "1.0".
    """
    return _canon(_sniff_cell(level, ()))


# ---------------------------------------------------------------------------
# Raw tables


@dataclass(frozen=True)
class RawTable:
    """Header plus typed rows; cells are float, str, or None (missing)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError("duplicate column names in table header")

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
    Ragged rows raise ParseError with the 1-based data row index.
    """
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        text = text.removeprefix("\ufeff")
    else:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty input: no header row")
    head = lines[0]
    delimiter = "\t" if head.count("\t") > head.count(",") else ","
    reader = csv.reader(io.StringIO("\n".join(lines)), delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:  # pragma: no cover - guarded by the emptiness check
        raise ParseError("empty input: no header row") from None
    columns = tuple(h.strip() for h in header)
    tokens = tuple(missing_tokens)
    # Survey tables repeat a few labels across many cells; parse each
    # distinct cell text once.
    parsed: dict[str, object] = {}

    def sniff(cell: str) -> object:
        if cell not in parsed:
            parsed[cell] = _sniff_cell(cell, tokens)
        return parsed[cell]

    rows = []
    for i, raw in enumerate(reader, start=1):
        if not raw:
            continue
        if len(raw) != len(columns):
            raise ParseError(
                f"row {i}: expected {len(columns)} cells, found {len(raw)}"
            )
        rows.append(tuple(map(sniff, raw)))
    return RawTable(columns=columns, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Spec documents: every file format names its keys once, in a table that maps
# each key to the converter reading its value. A converter takes only values
# of its own YAML type and otherwise raises ValueError naming that type.


def _int(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("an integer")
    return value


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("a number")
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


def _check_version(version, what: str) -> None:
    if type(version) is not int or version != SPEC_VERSION:
        raise SchemaError(f"{what} needs version: {SPEC_VERSION}, got {version!r}")


def _yaml_mapping(source, what: str) -> dict:
    """The mapping that YAML text or a file holds, less its version key, which
    must be 1 in every format; SchemaError names `what` otherwise."""
    try:
        doc = yaml.load(source, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{what} is not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a mapping")
    _check_version(doc.pop("version", None), what)
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
        seen: dict[str, str] = {}
        for lvl in levels:
            other = seen.setdefault(_level_cells(lvl), lvl)
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
    def cell_map(self) -> dict[str, str]:
        """merge_map keyed by the canonical text of the cells each level matches."""
        return {_level_cells(lvl): lab for lvl, lab in self.merge_map.items()}

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

    version: int
    outcome: str
    columns: tuple[ColumnRule, ...]
    interactions: tuple[InteractionRule, ...] = ()
    missing_policy: str = "drop"
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "interactions", tuple(self.interactions))
        object.__setattr__(self, "missing_tokens", tuple(self.missing_tokens))
        _check_version(self.version, "spec")
        if not self.columns:
            raise SchemaError("spec declares no columns")
        if self.missing_policy not in ("drop", "zero-indicator"):
            raise SchemaError(
                f"missing_policy must be 'drop' or 'zero-indicator', got {self.missing_policy!r}"
            )
        sources = [r.name for r in self.columns]
        if len(set(sources)) != len(sources):
            raise SchemaError("spec lists a source column more than once")
        outs = self.base_output_names()
        if len(set(outs)) != len(outs):
            raise SchemaError("encoded column names collide")
        if self.outcome in outs:
            raise SchemaError("outcome name collides with an encoded column")
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
    return _build(EncodingSpec, {"version": SPEC_VERSION, **doc}, "spec")


def _written(record, keys: dict) -> dict:
    """The values of `record` that its YAML form holds, in the order of `keys`."""
    defaults = {f.name: f.default for f in fields(record)}
    return {key: _plain(getattr(record, key)) for key in keys
            if key in _WRITTEN_AT_DEFAULT or getattr(record, key) != defaults[key]}


def encoding_spec_to_yaml(spec: EncodingSpec) -> str:
    doc = {"version": spec.version, **_written(spec, _SPEC_KEYS)}
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
        if self.role not in ("treatment", "control", "intercept"):
            raise ValueError(f"bad column role {self.role!r}")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "scale", float(self.scale))


@dataclass(frozen=True)
class Dataset:
    """Outcome vector plus design matrix with per-column metadata.

    Immutable: arrays are set read-only at construction.
    """

    y: np.ndarray
    design: np.ndarray
    columns: tuple[ColumnInfo, ...]
    outcome_name: str = "y"
    n_dropped: int = 0

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=float)
        design = np.ascontiguousarray(self.design, dtype=float)
        if y.ndim != 1 or design.ndim != 2 or design.shape[0] != y.size:
            raise ValueError("y must be (n,) and design (n, p)")
        if design.shape[1] != len(self.columns):
            raise ValueError("column metadata does not match the design width")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(design))):
            raise ValueError("dataset values must be finite")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate design column names")
        if self.outcome_name in names:
            raise ValueError("outcome name collides with a design column")
        y.setflags(write=False)
        design.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "columns", tuple(self.columns))

    def __reduce__(self):
        # Rebuild through __init__ so unpickled arrays are read-only again.
        return type(self), (self.y, self.design, self.columns, self.outcome_name,
                            self.n_dropped)

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


def encode(table: RawTable, spec: EncodingSpec) -> Dataset:
    """Apply the spec's rules to a parsed table. See the module docstring."""
    col_index = {name: i for i, name in enumerate(table.columns)}
    if spec.outcome not in col_index:
        raise SchemaError(f"outcome column {spec.outcome!r} is absent from the table")
    for rule in spec.columns:
        if rule.name not in col_index:
            raise SchemaError(f"spec references absent column {rule.name!r}")

    oc = col_index[spec.outcome]
    src_idx = {rule.name: col_index[rule.name] for rule in spec.columns}
    zero_indicator = spec.missing_policy == "zero-indicator"

    keep_rows: list[int] = []
    for ri, row in enumerate(table.rows):
        if row[oc] is None:
            continue  # the outcome is never imputable
        if not zero_indicator and any(row[src_idx[r.name]] is None for r in spec.columns):
            continue
        keep_rows.append(ri)
    n = len(keep_rows)
    n_dropped = table.n_rows - n
    if n == 0:
        raise EmptyDatasetError("all rows were dropped while encoding")

    y = np.empty(n)
    for out_i, ri in enumerate(keep_rows):
        cell = table.rows[ri][oc]
        if not isinstance(cell, float):
            raise EncodingError(
                f"outcome column {spec.outcome!r}: non-numeric value {cell!r} at data row {ri + 1}"
            )
        y[out_i] = cell

    infos: list[ColumnInfo] = []
    arrays: list[np.ndarray] = []
    indicator_blocks: list[tuple[ColumnInfo, np.ndarray]] = []

    for rule in spec.columns:
        ci = src_idx[rule.name]
        cells = [table.rows[ri][ci] for ri in keep_rows]
        miss = np.array([c is None for c in cells], dtype=bool)
        if isinstance(rule, CategoricalRule):
            mm = rule.cell_map
            out_levels = rule.output_levels
            lab_pos = {lab: k for k, lab in enumerate(out_levels)}
            block = np.zeros((n, len(out_levels)))
            for i, cell in enumerate(cells):
                if cell is None:
                    continue
                txt = _canon(cell)
                if txt not in mm:
                    raise EncodingError(
                        f"unseen level {txt!r} in column {rule.name!r} at data row {keep_rows[i] + 1}"
                    )
                lab = mm[txt]
                k = lab_pos.get(lab)
                if k is not None:
                    block[i, k] = 1.0
            for k, (name, lab) in enumerate(zip(rule.output_names(), out_levels)):
                infos.append(ColumnInfo(name=name, role=rule.role, source=rule.name, level=lab))
                arrays.append(block[:, k])
        else:
            vals = np.zeros(n)
            if isinstance(rule, DerivedRule):
                fn = _compile_expression(rule.expression)
            for i, cell in enumerate(cells):
                if cell is None:
                    continue
                if not isinstance(cell, float):
                    raise EncodingError(
                        f"column {rule.name!r}: non-numeric value {cell!r} at data row {keep_rows[i] + 1}"
                    )
                if isinstance(rule, DerivedRule):
                    try:
                        vals[i] = fn(cell)
                    except (ZeroDivisionError, OverflowError, ValueError) as exc:
                        raise EncodingError(
                            f"column {rule.name!r}: expression failed on {cell!r} "
                            f"at data row {keep_rows[i] + 1}: {exc}"
                        ) from None
                else:
                    vals[i] = rule.scale * cell + rule.offset
            center, scale = 0.0, 1.0
            if rule.standardize:
                obs = vals[~miss]
                center = float(obs.mean()) if obs.size else 0.0
                sd = float(obs.std()) if obs.size else 0.0
                scale = sd if sd > 0 else 1.0
                vals = np.where(miss, 0.0, (vals - center) / scale)
            else:
                vals = np.where(miss, 0.0, vals)
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

    if any(info.name == spec.outcome for info in infos):
        raise SchemaError("outcome name collides with an encoded column")
    return Dataset(
        y=y,
        design=np.column_stack(arrays),
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
        for i in range(dataset.n):
            cells = [repr(float(dataset.y[i]))]
            cells.extend(repr(float(v)) for v in dataset.design[i])
            fh.write("\t".join(cells) + "\n")
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
        y = []
        rows = []
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(expected):
                raise ParseError(f"row {i}: expected {len(expected)} cells, found {len(parts)}")
            try:
                vals = [float(v) for v in parts]
            except ValueError as exc:
                raise ParseError(f"row {i}: {exc}") from None
            y.append(vals[0])
            rows.append(vals[1:])
    if not rows:
        raise EmptyDatasetError(f"{path} has no data rows")
    if len(rows) != meta["n"]:
        raise SchemaError(f"{path} has {len(rows)} data rows, but its sidecar says n: {meta['n']}")
    return Dataset(
        y=np.asarray(y),
        design=np.asarray(rows),
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
    return EncodingSpec(
        version=SPEC_VERSION,
        outcome="dropout",
        columns=tuple(cols),
        interactions=inters,
    )


def synthetic_survey_table(n: int, seed: int = 0) -> RawTable:
    """Draw a raw table matching synthetic_survey_schema (counter-based RNG)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
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
    rows = tuple(
        tuple(data[c][i] for c in columns) for i in range(n)
    )
    return RawTable(columns=columns, rows=rows)
