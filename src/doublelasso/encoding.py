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
from dataclasses import dataclass

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
    """Canonical text form of a cell for level matching ('1' == 1 == 1.0)."""
    if isinstance(cell, float):
        return format(cell, "g")
    return str(cell)


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
    everything else stays text.
    Ragged rows raise ParseError with the 1-based data row index.
    """
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
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
        return float(eval(code, {"__builtins__": {}}, {"x": float(x)}))

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

    @property
    def merge_map(self) -> dict[str, str]:
        m = {lvl: lvl for lvl in self.levels}  # total over declared levels
        m.update(dict(self.merge))
        return m

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
        if self.version != SPEC_VERSION:
            raise SchemaError(
                f"unsupported spec version {self.version!r} (expected {SPEC_VERSION})"
            )
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


def _rule_from_mapping(entry: dict) -> ColumnRule:
    if not isinstance(entry, dict):
        raise SchemaError("each column rule must be a mapping")
    kind = entry.get("kind")
    known_common = {"name", "kind", "role"}
    name = entry.get("name")
    if not name:
        raise SchemaError("column rule without a name")
    if kind == "numeric":
        allowed = known_common | {"rename", "scale", "offset", "standardize"}
        _reject_unknown(entry, allowed, f"column {name!r}")
        return NumericRule(
            name=str(name),
            rename=entry.get("rename"),
            scale=float(entry.get("scale", 1.0)),
            offset=float(entry.get("offset", 0.0)),
            standardize=bool(entry.get("standardize", True)),
            role=entry.get("role", "control"),
        )
    if kind == "derived":
        allowed = known_common | {"rename", "expression", "standardize"}
        _reject_unknown(entry, allowed, f"column {name!r}")
        if "expression" not in entry:
            raise SchemaError(f"derived column {name!r} needs an expression")
        return DerivedRule(
            name=str(name),
            expression=str(entry["expression"]),
            rename=entry.get("rename"),
            standardize=bool(entry.get("standardize", True)),
            role=entry.get("role", "control"),
        )
    if kind == "categorical":
        allowed = known_common | {"levels", "baseline", "merge"}
        _reject_unknown(entry, allowed, f"column {name!r}")
        levels = entry.get("levels")
        if not isinstance(levels, list) or not levels:
            raise SchemaError(f"categorical column {name!r} needs a level list")
        if "baseline" not in entry:
            raise SchemaError(f"categorical column {name!r} needs a baseline")
        merge = entry.get("merge", {})
        if merge is None:
            merge = {}
        if not isinstance(merge, dict):
            raise SchemaError(f"categorical column {name!r}: merge must be a mapping")
        return CategoricalRule(
            name=str(name),
            levels=tuple(str(v) for v in levels),
            baseline=str(entry["baseline"]),
            merge={str(k): str(v) for k, v in merge.items()},
            role=entry.get("role", "control"),
        )
    raise SchemaError(
        f"column {name!r}: kind must be numeric, categorical, or derived, got {kind!r}"
    )


def _reject_unknown(entry: dict, allowed: set, where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def encoding_spec_from_yaml(text: str) -> EncodingSpec:
    """Parse the YAML spec document; the version field is mandatory."""
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError(f"spec is not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("spec document must be a mapping")
    _reject_unknown(
        doc,
        {"version", "outcome", "columns", "interactions", "missing_policy", "missing_tokens"},
        "spec",
    )
    if "version" not in doc:
        raise SchemaError("spec is missing the mandatory version field")
    if "outcome" not in doc or not doc["outcome"]:
        raise SchemaError("spec is missing the outcome column")
    raw_cols = doc.get("columns")
    if not isinstance(raw_cols, list) or not raw_cols:
        raise SchemaError("spec needs a nonempty columns list")
    inters = []
    for entry in doc.get("interactions") or []:
        if not isinstance(entry, dict):
            raise SchemaError("each interaction must be a mapping with keys a, b")
        _reject_unknown(entry, {"a", "b", "role"}, "interaction")
        if "a" not in entry or "b" not in entry:
            raise SchemaError("each interaction needs both a and b")
        inters.append(
            InteractionRule(a=str(entry["a"]), b=str(entry["b"]),
                            role=entry.get("role", "control"))
        )
    tokens = doc.get("missing_tokens", list(DEFAULT_MISSING_TOKENS))
    if not isinstance(tokens, list):
        raise SchemaError("missing_tokens must be a list of strings")
    return EncodingSpec(
        version=int(doc["version"]),
        outcome=str(doc["outcome"]),
        columns=tuple(_rule_from_mapping(e) for e in raw_cols),
        interactions=tuple(inters),
        missing_policy=doc.get("missing_policy", "drop"),
        missing_tokens=tuple(str(t) for t in tokens),
    )


def encoding_spec_to_yaml(spec: EncodingSpec) -> str:
    cols = []
    for rule in spec.columns:
        if isinstance(rule, NumericRule):
            entry = {"name": rule.name, "kind": "numeric"}
            if rule.rename:
                entry["rename"] = rule.rename
            if rule.scale != 1.0:
                entry["scale"] = rule.scale
            if rule.offset != 0.0:
                entry["offset"] = rule.offset
            entry["standardize"] = rule.standardize
        elif isinstance(rule, DerivedRule):
            entry = {"name": rule.name, "kind": "derived", "expression": rule.expression}
            if rule.rename:
                entry["rename"] = rule.rename
            entry["standardize"] = rule.standardize
        else:
            entry = {
                "name": rule.name,
                "kind": "categorical",
                "levels": list(rule.levels),
                "baseline": rule.baseline,
            }
            if rule.merge:
                entry["merge"] = dict(rule.merge)
        entry["role"] = rule.role
        cols.append(entry)
    doc = {
        "version": spec.version,
        "outcome": spec.outcome,
        "missing_policy": spec.missing_policy,
        "missing_tokens": list(spec.missing_tokens),
        "columns": cols,
    }
    if spec.interactions:
        doc["interactions"] = [
            {"a": i.a, "b": i.b, "role": i.role} for i in spec.interactions
        ]
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


def interact(dataset: Dataset, pairs, roles=None) -> Dataset:
    """Append product columns a*b for each (a, b) pair of existing columns.

    Returns a new Dataset; the input is untouched. Product values are exact
    elementwise products of the encoded (post-standardization) parents, so
    processing pairs in any order yields identical columns. The role of each
    product defaults to control unless `roles`, a sequence aligned with
    `pairs`, says treatment.
    """
    pairs = [(str(a), str(b)) for a, b in pairs]
    roles = ["control"] * len(pairs) if roles is None else list(roles)
    if len(roles) != len(pairs):
        raise ValueError("roles must align with pairs")
    existing = set(dataset.column_names)
    new_cols = list(dataset.columns)
    blocks = [dataset.design]
    for (a, b), role in zip(pairs, roles):
        name = f"{a}*{b}"
        if a not in existing:
            raise ValueError(f"interaction parent {a!r} is not a design column")
        if b not in existing:
            raise ValueError(f"interaction parent {b!r} is not a design column")
        if name in existing:
            raise ValueError(f"interaction column {name!r} already exists")
        va = dataset.design[:, dataset.index_of(a)]
        vb = dataset.design[:, dataset.index_of(b)]
        if role not in ("treatment", "control"):
            raise ValueError(f"bad interaction role {role!r}")
        new_cols.append(ColumnInfo(name=name, role=role, source=name, level=None))
        blocks.append((va * vb)[:, None])
        existing.add(name)
    return Dataset(
        y=dataset.y,
        design=np.hstack(blocks),
        columns=tuple(new_cols),
        outcome_name=dataset.outcome_name,
        n_dropped=dataset.n_dropped,
    )


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

    names: list[str] = []
    infos: list[ColumnInfo] = []
    arrays: list[np.ndarray] = []
    indicator_blocks: list[tuple[ColumnInfo, np.ndarray]] = []

    for rule in spec.columns:
        ci = src_idx[rule.name]
        cells = [table.rows[ri][ci] for ri in keep_rows]
        miss = np.array([c is None for c in cells], dtype=bool)
        if isinstance(rule, CategoricalRule):
            mm = rule.merge_map
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
            for k, lab in enumerate(out_levels):
                names.append(f"{rule.name}_{_slug(lab)}")
                infos.append(ColumnInfo(
                    name=names[-1], role=rule.role, source=rule.name, level=lab,
                ))
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
                            f"column {rule.name!r}: expression failed on {cell!r}: {exc}"
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
            names.append(rule.output)
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

    for info, vals in indicator_blocks:
        names.append(info.name)
        infos.append(info)
        arrays.append(vals)

    if spec.outcome in names:
        raise SchemaError("outcome name collides with an encoded column")
    dataset = Dataset(
        y=y,
        design=np.column_stack(arrays),
        columns=tuple(infos),
        outcome_name=spec.outcome,
        n_dropped=n_dropped,
    )
    if spec.interactions:
        dataset = interact(
            dataset,
            [(i.a, i.b) for i in spec.interactions],
            roles=[i.role for i in spec.interactions],
        )
    return dataset


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
        "columns": [
            {
                "name": c.name,
                "role": c.role,
                "source": c.source,
                "level": c.level,
                "center": c.center,
                "scale": c.scale,
            }
            for c in dataset.columns
        ],
    }
    side = sidecar_path(path)
    with open(side, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(yaml.safe_dump(meta, sort_keys=False))
    return side


def load_dataset(path) -> Dataset:
    """Reload a matrix + sidecar pair written by save_dataset."""
    path = os.fspath(path)
    side = sidecar_path(path)
    with open(side, "r", encoding="utf-8") as fh:
        try:
            meta = yaml.load(fh, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise SchemaError(f"dataset sidecar {side!r} is not valid YAML: {exc}") from None
    if not isinstance(meta, dict) or "columns" not in meta or "version" not in meta:
        raise SchemaError(f"bad dataset sidecar {side!r}")
    if meta["version"] != SPEC_VERSION:
        raise SchemaError(f"unsupported sidecar version {meta['version']!r}")
    infos = tuple(
        ColumnInfo(
            name=c["name"], role=c["role"], source=c.get("source", c["name"]),
            level=c.get("level"), center=float(c.get("center", 0.0)),
            scale=float(c.get("scale", 1.0)),
        )
        for c in meta["columns"]
    )
    outcome = meta.get("outcome", "y")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        expected = [outcome] + [c.name for c in infos]
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
    return Dataset(
        y=np.asarray(y),
        design=np.asarray(rows),
        columns=infos,
        outcome_name=outcome,
        n_dropped=int(meta.get("n_dropped", 0)),
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
