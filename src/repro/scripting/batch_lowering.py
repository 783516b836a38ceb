"""Set-at-a-time lowering of per-entity script loops.

The interpreter executes ``for e in entities("C"): e.hp = e.hp - 1`` one
entity at a time: an environment push, an attribute resolution, a metered
AST walk, and a world write *per entity per frame*.  The tutorial's point
is that this loop is really a bulk UPDATE, and the engine should run it
that way.  This module recognizes the shape statically and compiles each
loop body statement into a plain Python function over column values, so a
frame becomes: one batched read (``ComponentTable.batch_rows``), a few
``map`` calls, and one bulk write-back (``GameWorld.update_batch``).

Lowering is *sound-by-fallback*: the static pass only accepts scripts it
can prove equivalent (see the rules below), a cheap per-world validation
re-checks schema facts at run time, and any exception during the compute
phase — before a single write has happened — abandons the batch and lets
the scalar interpreter run the frame, reproducing exact error semantics.

Static rules (anything else falls back to the interpreter):

* every top-level statement is a ``for`` over ``entities("C")`` or
  ``find("C", field, op, value)`` whose body the
  :class:`~repro.scripting.analyzer.CostAnalyzer` scores as degree 0;
* body statements are ``e.field = <expr>`` on the loop variable only;
* expressions use numeric literals, ``e.field`` reads, ``dt``/``tick``,
  arithmetic/comparison/boolean operators, and the pure numeric builtins
  (``abs``/``min``/``max``/``floor``/``ceil``/``sqrt``/``clamp``);
* arithmetic operands must be provably non-bool numbers (the interpreter
  rejects ``true + 1``; Python would coerce — so we refuse to lower it);
* no later loop reads a field an earlier loop writes (batch defers all
  writes to the end, so a read-after-write across loops would diverge).

Run-time validation additionally requires every referenced field to be
an int/float field of the loop's component and *globally unambiguous*
(no other registered schema shares the name), because the interpreter's
``EntityProxy`` resolves attributes by searching all of an entity's
components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.scripting import ast_nodes as ast
from repro.scripting.analyzer import CostAnalyzer

#: Pure numeric builtins that behave identically under the interpreter
#: (which calls the same underlying functions) and compiled Python.
_PURE_CALLS: dict[str, Callable] = {
    "abs": abs,
    "min": min,
    "max": max,
    "floor": math.floor,
    "ceil": math.ceil,
    "sqrt": math.sqrt,
    "clamp": lambda value, lo, hi: max(lo, min(hi, value)),
}

#: Environment names a lowered expression may read (bound per frame).
_ENV_NAMES = frozenset({"dt", "tick"})

_COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})


class _NotLowerable(Exception):
    """Internal signal: this script shape stays on the interpreter."""


@dataclass
class LoweredStatement:
    """One compiled ``e.field = expr`` assignment."""

    field: str
    fn: Callable
    field_args: tuple[str, ...]
    env_args: tuple[str, ...]
    source: str


@dataclass
class LoweredLoop:
    """One compiled top-level entity loop."""

    component: str
    #: ("entities",) or ("find", field, op, value)
    source: tuple
    statements: list[LoweredStatement]
    #: real fields gathered before compute (reads, including find's field
    #: handled separately at query level)
    read_fields: tuple[str, ...]
    write_fields: tuple[str, ...]
    uses_id: bool
    line: int


class _ExprCompiler:
    """Compile one GSL expression into Python source over column values."""

    def __init__(self, loop_var: str):
        self.loop_var = loop_var
        self.field_reads: list[str] = []
        self.env_reads: list[str] = []
        self.uses_id = False

    def emit(self, node: ast.Node) -> str:
        if isinstance(node, ast.Literal):
            v = node.value
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise _NotLowerable("non-numeric literal")
            return repr(v)
        if isinstance(node, ast.Name):
            ident = node.ident
            if ident == self.loop_var:
                raise _NotLowerable("bare entity reference")
            if ident not in _ENV_NAMES:
                raise _NotLowerable(f"unsupported name {ident!r}")
            if ident not in self.env_reads:
                self.env_reads.append(ident)
            return f"_env_{ident}"
        if isinstance(node, ast.Attribute):
            if not (
                isinstance(node.obj, ast.Name)
                and node.obj.ident == self.loop_var
            ):
                raise _NotLowerable("attribute on non-loop variable")
            if node.name == "id":
                self.uses_id = True
                if "id" not in self.field_reads:
                    self.field_reads.append("id")
                return "_f_id"
            if node.name not in self.field_reads:
                self.field_reads.append(node.name)
            return f"_f_{node.name}"
        if isinstance(node, ast.BinOp):
            if node.op in _ARITH_OPS:
                self._require_numeric(node.left)
                self._require_numeric(node.right)
                return f"({self.emit(node.left)} {node.op} {self.emit(node.right)})"
            if node.op in _COMPARISON_OPS:
                return f"({self.emit(node.left)} {node.op} {self.emit(node.right)})"
            raise _NotLowerable(f"unsupported operator {node.op!r}")
        if isinstance(node, ast.BoolOp):
            return f"({self.emit(node.left)} {node.op} {self.emit(node.right)})"
        if isinstance(node, ast.UnaryOp):
            if node.op == "-":
                self._require_numeric(node.operand)
                return f"(- {self.emit(node.operand)})"
            if node.op == "not":
                return f"(not {self.emit(node.operand)})"
            raise _NotLowerable(f"unsupported unary {node.op!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise _NotLowerable("computed call target")
            name = node.func.ident
            if name not in _PURE_CALLS:
                raise _NotLowerable(f"call to non-pure builtin {name!r}")
            for arg in node.args:
                self._require_numeric(arg)
            args = ", ".join(self.emit(a) for a in node.args)
            return f"_call_{name}({args})"
        raise _NotLowerable(f"unsupported node {type(node).__name__}")

    def _require_numeric(self, node: ast.Node) -> None:
        # "Provably a non-bool number": the interpreter's arithmetic
        # rejects bools while Python coerces them, so arithmetic operands
        # must come from numeric-producing nodes only.
        if isinstance(node, ast.Literal):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                raise _NotLowerable("non-numeric arithmetic operand")
            return
        if isinstance(node, ast.Attribute) or (
            isinstance(node, ast.Name) and node.ident in _ENV_NAMES
        ):
            return  # fields are int/float by run-time validation; dt/tick are numbers
        if isinstance(node, ast.BinOp) and node.op in _ARITH_OPS:
            return  # its own operands are checked when emitted
        if isinstance(node, ast.UnaryOp) and node.op == "-":
            return
        if isinstance(node, ast.Call):
            return  # pure numeric builtins over numeric args
        raise _NotLowerable("arithmetic operand may be non-numeric")


def _compile_statement(stmt: ast.Node, loop_var: str) -> LoweredStatement:
    if not isinstance(stmt, ast.Assign):
        raise _NotLowerable("body statement is not an assignment")
    target = stmt.target
    if not (
        isinstance(target, ast.Attribute)
        and isinstance(target.obj, ast.Name)
        and target.obj.ident == loop_var
    ):
        raise _NotLowerable("assignment target is not a loop-variable field")
    if target.name == "id":
        raise _NotLowerable("cannot assign entity id")
    compiler = _ExprCompiler(loop_var)
    expr_src = compiler.emit(stmt.value)
    params = [f"_f_{f}" for f in compiler.field_reads]
    params += [f"_env_{n}" for n in compiler.env_reads]
    source = f"lambda {', '.join(params)}: {expr_src}"
    namespace = {f"_call_{n}": fn for n, fn in _PURE_CALLS.items()}
    namespace["__builtins__"] = {}
    fn = eval(compile(source, "<lowered-script>", "eval"), namespace)
    return LoweredStatement(
        field=target.name,
        fn=fn,
        field_args=tuple(compiler.field_reads),
        env_args=tuple(compiler.env_reads),
        source=source,
    )


def _loop_source(iterable: ast.Node) -> tuple | None:
    if not (
        isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name)
    ):
        return None
    name = iterable.func.ident
    args = iterable.args
    if name == "entities":
        if len(args) == 1 and isinstance(args[0], ast.Literal) and isinstance(
            args[0].value, str
        ):
            return (args[0].value, ("entities",))
        return None
    if name == "find":
        if len(args) != 4 or not all(isinstance(a, ast.Literal) for a in args):
            return None
        comp, field, op, value = (a.value for a in args)
        if not (isinstance(comp, str) and isinstance(field, str)):
            return None
        if op not in _COMPARISON_OPS:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            return None
        return (comp, ("find", field, op, value))
    return None


def _lower_loop(node: ast.For) -> LoweredLoop:
    src = _loop_source(node.iterable)
    if src is None:
        raise _NotLowerable("loop source is not entities()/find() of literals")
    component, source = src
    if not node.body:
        raise _NotLowerable("empty loop body")
    statements = [_compile_statement(s, node.var) for s in node.body]
    read_fields: list[str] = []
    write_fields: list[str] = []
    uses_id = False
    for st in statements:
        for f in st.field_args:
            if f == "id":
                uses_id = True
            elif f not in read_fields:
                read_fields.append(f)
        if st.field not in write_fields:
            write_fields.append(st.field)
    return LoweredLoop(
        component=component,
        source=source,
        statements=statements,
        read_fields=tuple(read_fields),
        write_fields=tuple(write_fields),
        uses_id=uses_id,
        line=node.line,
    )


class LoweredProgram:
    """A fully-lowered script: compiled loops plus run-time validation."""

    def __init__(self, loops: list[LoweredLoop]):
        self.loops = loops
        # (world, registered-component count, verdict); a new component
        # registration can introduce field-name ambiguity, so the count
        # is part of the validity check.
        self._checked: tuple[Any, int, bool] = (None, -1, False)

    # -- validation ----------------------------------------------------------

    def _validate(self, world: Any) -> bool:
        n_components = len(world.component_names())
        cached_world, cached_n, verdict = self._checked
        if cached_world is world and cached_n == n_components:
            return verdict
        verdict = self._compute_verdict(world)
        self._checked = (world, n_components, verdict)
        return verdict

    def _compute_verdict(self, world: Any) -> bool:
        # Count how many registered schemas carry each field name; the
        # interpreter resolves e.<field> by searching the entity's
        # components, so lowering is only safe when the name is unique.
        owners: dict[str, int] = {}
        for comp in world.component_names():
            for fname in world.table(comp).schema.field_names:
                owners[fname] = owners.get(fname, 0) + 1
        for loop in self.loops:
            try:
                schema = world.table(loop.component).schema
            except Exception:
                return False  # unknown component: scalar path raises it
            fields = set(loop.read_fields) | set(loop.write_fields)
            if loop.source[0] == "find":
                fields.add(loop.source[1])
            for fname in fields:
                if fname not in schema.field_names:
                    return False
                if schema.field(fname).type_name not in ("int", "float"):
                    return False
                if owners.get(fname, 0) != 1:
                    return False
        return True

    # -- execution -----------------------------------------------------------

    def execute(self, world: Any, env: Mapping[str, Any]) -> bool:
        """Run set-at-a-time; True on success, False → caller runs scalar.

        All loops *compute* first (reads see pre-frame state, exactly like
        the interpreter would because lowering rejected cross-loop
        read-after-write), then all writes land.  Any exception during
        compute returns False before a single write, so the scalar rerun
        starts from an untouched world.
        """
        if not self._validate(world):
            return False
        obs = getattr(world, "obs", None)
        tracer = obs.tracer if obs is not None else None
        if tracer is None or not tracer.enabled:
            computed = self._compute(world, env)
        else:
            with tracer.span("script.batch", cat="script") as sp:
                computed = self._compute(world, env)
                sp.set(lowered=computed is not None, loops=len(self.loops))
        if computed is None:
            return False
        for component, ids, written in computed:
            if ids and written:
                world.update_batch(component, ids, written)
        return True

    def _compute(
        self, world: Any, env: Mapping[str, Any]
    ) -> list[tuple[str, list[int], dict[str, list]]] | None:
        """Per-loop ``(component, ids, written_columns)``; None on failure."""
        computed: list[tuple[str, list[int], dict[str, list]]] = []
        try:
            for loop in self.loops:
                table = world.table(loop.component)
                if loop.source[0] == "find":
                    _, fname, op, value = loop.source
                    from repro.core.predicates import Compare

                    query = world.query(loop.component).where(
                        loop.component, Compare(fname, op, value)
                    )
                    ids = query.execute(mode="batch").ids
                    _, work = table.batch_rows(loop.read_fields, ids,
                                               copy=False)
                else:
                    ids, work = table.batch_rows(loop.read_fields, None,
                                                 copy=False)
                if loop.uses_id:
                    work["id"] = ids
                written: dict[str, list] = {}
                for st in loop.statements:
                    newcol = _apply_statement(st, work, env, len(ids))
                    newcol = table.schema.field(st.field).validate_column(newcol)
                    work[st.field] = newcol
                    written[st.field] = newcol
                computed.append((loop.component, ids, written))
        except Exception:
            return None
        return computed


def _apply_statement(
    st: LoweredStatement,
    work: Mapping[str, list],
    env: Mapping[str, Any],
    n: int,
) -> list:
    cols = [work[f] for f in st.field_args]
    if not cols:
        value = st.fn(*[env[name] for name in st.env_args])
        return [value] * n
    if not st.env_args:
        return list(map(st.fn, *cols))
    env_vals = [env[name] for name in st.env_args]
    fn = st.fn
    return [fn(*vals, *env_vals) for vals in zip(*cols)]


def lower_script(script: ast.Script) -> LoweredProgram | None:
    """Lower a parsed script, or None when any part resists lowering.

    Uses :meth:`CostAnalyzer.batchable_loops` as the shape detector: only
    loops the analyzer scores as flat entity passes are candidates, which
    keeps the lowering and the complexity gate telling one story.
    """
    if not script.body:
        return None
    batchable = set(map(id, CostAnalyzer().batchable_loops(script)))
    loops: list[LoweredLoop] = []
    try:
        for stmt in script.body:
            if not isinstance(stmt, ast.For) or id(stmt) not in batchable:
                return None
            loops.append(_lower_loop(stmt))
    except _NotLowerable:
        return None
    # Batch execution defers every write until all loops have computed;
    # a later loop reading (or driving its find() on) a field an earlier
    # loop wrote would observe pre-frame values and diverge.
    written_so_far: set[str] = set()
    for loop in loops:
        reads = set(loop.read_fields)
        if loop.source[0] == "find":
            reads.add(loop.source[1])
        if reads & written_so_far:
            return None
        written_so_far.update(loop.write_fields)
    return LoweredProgram(loops)
