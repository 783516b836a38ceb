"""Component schemas: the typed "table definitions" of the game database.

Data-driven games separate *content* from *code*; the first step is giving
game state an explicit schema, exactly as a database would.  A
:class:`ComponentSchema` declares the named, typed fields a component carries
(e.g. ``Position(x: float, y: float)``), default values, and which fields are
indexable.  Component *instances* are plain dicts validated against the
schema; storage is columnar (see :mod:`repro.core.table`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SchemaError

#: The python types a component field may take.  ``entity`` fields hold
#: references to other entities (by id) and participate in referential
#: integrity checks.
FIELD_TYPES = {
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
    "entity": int,
    "blob": bytes,
}

_NUMERIC_TYPES = ("int", "float")

#: Exact value types a float column accepts without a per-value check
#: (``type(True)`` is ``bool``, so bools still take the per-value path).
_FLOAT_KINDS = frozenset({float, int})


@dataclass(frozen=True)
class FieldDef:
    """Definition of a single component field.

    Parameters
    ----------
    name:
        Field name; must be a valid identifier not starting with ``_``.
    type_name:
        One of :data:`FIELD_TYPES`.
    default:
        Value used when a spawn omits the field.  ``None`` means required.
    indexable:
        Whether the index manager may build indexes over this field.
    nullable:
        Whether ``None`` is a legal stored value (used for optional
        entity references such as "current target").
    """

    name: str
    type_name: str
    default: Any = None
    indexable: bool = True
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name.isidentifier() or self.name.startswith("_"):
            raise SchemaError(f"illegal field name {self.name!r}")
        if self.type_name not in FIELD_TYPES:
            raise SchemaError(
                f"field {self.name!r} has unknown type {self.type_name!r}; "
                f"expected one of {sorted(FIELD_TYPES)}"
            )
        if self.default is not None:
            self.validate(self.default)

    @property
    def py_type(self) -> type:
        """The concrete python type stored for this field."""
        return FIELD_TYPES[self.type_name]

    @property
    def required(self) -> bool:
        """True when a value must be supplied at attach time."""
        return self.default is None and not self.nullable

    def validate(self, value: Any) -> Any:
        """Check ``value`` against this field, returning the coerced value.

        Ints are accepted for float fields (and coerced); everything else
        must match exactly.  Subclasses of ``float`` and ``int`` (say
        ``numpy.float64`` or an ``IntEnum``) come back as the exact base
        type, so a stored value never depends on how the caller built it.
        Raises :class:`SchemaError` on mismatch.
        """
        if value is None:
            if self.nullable:
                return None
            raise SchemaError(f"field {self.name!r} is not nullable")
        if self.type_name == "float":
            if isinstance(value, bool):
                raise SchemaError(f"field {self.name!r}: bool is not a float")
            if isinstance(value, int):
                return float(value)
            if isinstance(value, float):
                if math.isnan(value):
                    raise SchemaError(f"field {self.name!r}: NaN is not storable")
                return value if type(value) is float else float(value)
            raise SchemaError(
                f"field {self.name!r} expects float, got {type(value).__name__}"
            )
        if self.type_name in ("int", "entity"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(
                    f"field {self.name!r} expects {self.type_name}, "
                    f"got {type(value).__name__}"
                )
            return value if type(value) is int else int(value)
        if not isinstance(value, self.py_type):
            raise SchemaError(
                f"field {self.name!r} expects {self.type_name}, "
                f"got {type(value).__name__}"
            )
        return value

    def validate_column(self, values: Sequence[Any]) -> list:
        """:meth:`validate` over a whole column, returning the coerced list.

        The set-at-a-time write path validates every value before it
        writes any.  When the column holds only the field's exact storage
        type (or ints for a float field) the check is one C-level pass
        over the value types plus a NaN scan; anything else falls back to
        :meth:`validate` per value, so the first offending value raises
        the same :class:`SchemaError` it would raise alone.
        """
        kinds = set(map(type, values))
        if self.type_name == "float":
            if kinds <= _FLOAT_KINDS:
                out = list(map(float, values)) if int in kinds else list(values)
                # NaN propagates through a sum, so a non-NaN total proves
                # there is none; a NaN total (or inf - inf) takes the
                # per-value path, which decides exactly.
                if not math.isnan(sum(out)):
                    return out
        elif kinds <= {self.py_type}:
            return list(values)
        return [self.validate(v) for v in values]


class ComponentSchema:
    """Schema for one component type — the analogue of a table definition.

    Examples
    --------
    >>> Position = ComponentSchema("Position", [
    ...     FieldDef("x", "float", default=0.0),
    ...     FieldDef("y", "float", default=0.0),
    ... ])
    >>> Position.validate({"x": 1, "y": 2.5})
    {'x': 1.0, 'y': 2.5}
    """

    def __init__(self, name: str, fields: Iterable[FieldDef]):
        if not name.isidentifier():
            raise SchemaError(f"illegal component name {name!r}")
        self.name = name
        self.fields: dict[str, FieldDef] = {}
        for fdef in fields:
            if fdef.name in self.fields:
                raise SchemaError(
                    f"component {name!r} declares field {fdef.name!r} twice"
                )
            self.fields[fdef.name] = fdef
        if not self.fields:
            # Tag components (no payload) are legal: presence is the datum.
            pass

    # -- introspection ------------------------------------------------------

    @property
    def field_names(self) -> tuple[str, ...]:
        """Field names in declaration order."""
        return tuple(self.fields)

    def field(self, name: str) -> FieldDef:
        """Return the :class:`FieldDef` for ``name`` or raise SchemaError."""
        try:
            return self.fields[name]
        except KeyError:
            raise SchemaError(
                f"component {self.name!r} has no field {name!r}; "
                f"fields are {list(self.fields)}"
            ) from None

    def entity_fields(self) -> tuple[str, ...]:
        """Names of fields holding entity references."""
        return tuple(
            n for n, f in self.fields.items() if f.type_name == "entity"
        )

    def numeric_fields(self) -> tuple[str, ...]:
        """Names of int/float fields (candidates for range indexes)."""
        return tuple(
            n for n, f in self.fields.items() if f.type_name in _NUMERIC_TYPES
        )

    # -- validation ---------------------------------------------------------

    def validate(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a full component instance, filling in defaults.

        Returns a new dict with every schema field present and coerced.
        Raises :class:`SchemaError` for unknown fields, missing required
        fields, or type mismatches.
        """
        unknown = set(values) - set(self.fields)
        if unknown:
            raise SchemaError(
                f"component {self.name!r}: unknown fields {sorted(unknown)}"
            )
        row: dict[str, Any] = {}
        for fname, fdef in self.fields.items():
            if fname in values:
                row[fname] = fdef.validate(values[fname])
            elif fdef.default is not None:
                row[fname] = fdef.default
            elif fdef.nullable:
                row[fname] = None
            else:
                raise SchemaError(
                    f"component {self.name!r}: missing required field {fname!r}"
                )
        return row

    def validate_update(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a partial update (only the supplied fields)."""
        unknown = set(values) - set(self.fields)
        if unknown:
            raise SchemaError(
                f"component {self.name!r}: unknown fields {sorted(unknown)}"
            )
        return {
            fname: self.fields[fname].validate(v) for fname, v in values.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{f.name}:{f.type_name}" for f in self.fields.values())
        return f"ComponentSchema({self.name}[{cols}])"


def schema(name: str, /, **field_specs: str | tuple) -> ComponentSchema:
    """Concise schema constructor used throughout examples and tests.

    Each keyword is a field; the value is either a type name or a tuple
    ``(type_name, default)``.

    >>> Health = schema("Health", hp=("int", 100), max_hp=("int", 100))
    >>> sorted(Health.field_names)
    ['hp', 'max_hp']
    """
    fields = []
    for fname, spec in field_specs.items():
        if isinstance(spec, tuple):
            type_name, default = spec
            fields.append(FieldDef(fname, type_name, default=default))
        else:
            fields.append(FieldDef(fname, spec))
    return ComponentSchema(name, fields)
