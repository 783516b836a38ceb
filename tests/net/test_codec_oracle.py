"""Differential test: the wire codec against the codec it replaced.

The oracle below is the previous ``net.protocol`` codec, kept verbatim
apart from reading the live registry: it lowered every field through a
recursive ``_to_jsonable``, serialised with a fresh ``json.dumps`` per
call and walked the parsed tree a second time in ``_from_jsonable``.
The current codec must write the same bytes for every registered
message and decode every body to the same message.

The one deliberate difference is on decode: the current codec accepts
only the tag forms the encoder writes (a ``__t`` array; a ``__d`` array
of ``[key, value]`` pairs with at least one key that needed the tag).
The oracle iterated whatever sat under a tag, so it turned ``{"__t":
"ab"}`` into ``('a', 'b')`` and a top-level ``__d`` object into a
message; the current codec raises ``NetError`` there.  The hostile
tests assert exactly that and nothing wider.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.gateway.messages  # noqa: F401  (registers the session plane)
from repro.errors import NetError
from repro.net import protocol
from repro.net.protocol import decode, encode

try:
    import numpy
except ImportError:  # the stdlib-only CI leg
    numpy = None

#: Every registered message class, by wire type id.
REGISTRY = {type_id: spec.cls for type_id, spec in protocol._BY_ID.items()}
TYPE_IDS = {cls: type_id for type_id, cls in REGISTRY.items()}


# -- the oracle: the previous codec ------------------------------------------------


def _to_jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"__t": [_to_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, dict):
        plain = all(
            isinstance(k, str) and not k.startswith("__") for k in value
        )
        if plain:
            return {k: _to_jsonable(v) for k, v in value.items()}
        return {
            "__d": [[_to_jsonable(k), _to_jsonable(v)]
                    for k, v in value.items()]
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise NetError(
        f"unencodable value of type {type(value).__name__} "
        f"(in-process-only payloads cannot cross a real wire)"
    )


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    if isinstance(value, dict):
        if "__t" in value and len(value) == 1:
            return tuple(_from_jsonable(v) for v in value["__t"])
        if "__d" in value and len(value) == 1:
            return {
                _hashable(_from_jsonable(k)): _from_jsonable(v)
                for k, v in value["__d"]
            }
        return {k: _from_jsonable(v) for k, v in value.items()}
    return value


def _hashable(key: Any) -> Any:
    if isinstance(key, list):
        return tuple(_hashable(k) for k in key)
    return key


_SCALAR_CHECKS: dict[str, Callable[[Any], bool]] = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
}


def oracle_encode(msg: Any) -> bytes:
    type_id = TYPE_IDS.get(type(msg))
    if type_id is None:
        raise NetError(f"{type(msg).__name__} is not a registered wire message")
    body = {
        f.name: _to_jsonable(getattr(msg, f.name))
        for f in dataclasses.fields(msg)
    }
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return bytes((protocol.WIRE_VERSION, type_id)) + payload.encode("utf-8")


def oracle_decode(data: bytes) -> Any:
    if len(data) < 2:
        raise NetError("message truncated before the codec header")
    data, _ = protocol._unwrap_context(data)
    if len(data) < 2:
        raise NetError("message truncated before the codec header")
    if data[0] != protocol.WIRE_VERSION:
        raise NetError(f"wire version {data[0]} unsupported")
    cls = REGISTRY.get(data[1])
    if cls is None:
        raise NetError(f"unknown wire message type id {data[1]}")
    try:
        body = json.loads(data[2:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetError(f"corrupt message body: {exc}") from None
    if not isinstance(body, dict):
        raise NetError(f"corrupt {cls.__name__} body: expected an object")
    try:
        msg = cls(**{k: _from_jsonable(v) for k, v in body.items()})
    except (TypeError, ValueError, AttributeError) as exc:
        raise NetError(f"corrupt {cls.__name__} body: {exc}") from None
    for f in dataclasses.fields(cls):
        check = _SCALAR_CHECKS.get(f.type)
        if check is not None and not check(getattr(msg, f.name)):
            raise NetError(f"corrupt {cls.__name__} body: field {f.name!r}")
    return msg


# -- helpers -----------------------------------------------------------------------


def outcome(fn: Callable[[bytes], Any], data: bytes) -> tuple[str, Any]:
    """``("ok", message)`` or ``("error", None)``; anything else escapes."""
    try:
        return "ok", fn(data)
    except NetError:
        return "error", None


def same(a: Any, b: Any) -> bool:
    """Equal type and repr: NaN-safe, and tells 1 / 1.0 / True and
    tuple / list apart, which ``==`` does not."""
    return type(a) is type(b) and repr(a) == repr(b)


def noncanonical_tag(value: Any) -> bool:
    """Whether a raw parsed body holds a tag form the encoder never writes."""
    if isinstance(value, list):
        return any(noncanonical_tag(v) for v in value)
    if not isinstance(value, dict):
        return False
    if len(value) == 1 and ("__t" in value or "__d" in value):
        (tag, payload), = value.items()
        if not isinstance(payload, list):
            return True
        if tag == "__d":
            if any(not isinstance(p, list) or len(p) != 2 for p in payload):
                return True
            keys = []
            for key, _v in payload:
                try:
                    keys.append(_hashable(_from_jsonable(key)))
                except TypeError:
                    return False  # the oracle raises on these too
            if all(isinstance(k, str) and not k.startswith("__") for k in keys):
                return True
        return any(noncanonical_tag(v) for v in payload)
    return any(noncanonical_tag(v) for v in value.values())


def assert_decoders_agree(data: bytes) -> None:
    new, new_msg = outcome(decode, data)
    old, old_msg = outcome(oracle_decode, data)
    if new == "ok":
        assert old == "ok", data
        assert same(new_msg, old_msg), (data, new_msg, old_msg)
    elif old == "ok":
        # The only tightening: a tag form the encoder never writes.
        assert noncanonical_tag(json.loads(data[2:].decode("utf-8"))), (
            data, old_msg,
        )


# -- strategies --------------------------------------------------------------------

TRICKY_FLOATS = st.sampled_from(
    [-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf, 0.1]
)
TRICKY_TEXT = st.sampled_from(
    ["", "__t", "__d", "__x", "_", "é", "日本語", "\x00\x1f", "퟿", '"\\']
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(),
    TRICKY_FLOATS,
    st.text(max_size=6),
    TRICKY_TEXT,
)
if numpy is not None:
    SCALARS = st.one_of(SCALARS, st.floats().map(numpy.float64))

KEYS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), TRICKY_FLOATS,
              st.text(max_size=4), TRICKY_TEXT),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=5,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)
#: The ``((entity, {field: value}), ...)`` shape deltas and enters carry.
ENTRIES = st.lists(
    st.tuples(
        st.integers(0, 10 ** 6),
        st.dictionaries(st.sampled_from(["x", "y", "vx", "vy", "hp", "__x"]),
                        SCALARS, max_size=4),
    ),
    max_size=5,
).map(tuple)

TYPED = {
    "int": st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    "float": st.one_of(st.floats(allow_nan=False), TRICKY_FLOATS.filter(
        lambda v: not math.isnan(v))),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
    "tuple": st.one_of(ENTRIES, st.lists(VALUES, max_size=4).map(tuple)),
}


def field_values(cls: type, typed: bool) -> st.SearchStrategy:
    """Keyword arguments for ``cls``: well-typed, or anything at all."""
    strategies = {}
    for f in dataclasses.fields(cls):
        fitting = TYPED.get(str(f.type).split("[")[0], VALUES)
        strategies[f.name] = fitting if typed else st.one_of(fitting, VALUES)
    return st.fixed_dictionaries(strategies)


def messages(typed: bool) -> st.SearchStrategy:
    return st.sampled_from(sorted(REGISTRY)).flatmap(
        lambda type_id: field_values(REGISTRY[type_id], typed).map(
            lambda kwargs: REGISTRY[type_id](**kwargs)
        )
    )


def has_nan(value: Any) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, (list, tuple)):
        return any(has_nan(v) for v in value)
    if isinstance(value, dict):
        return any(has_nan(k) or has_nan(v) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return any(has_nan(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return False


# -- encode: byte-equal to the oracle -----------------------------------------------


class TestEncodeMatchesOracle:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(messages(typed=False))
    def test_any_field_values(self, msg):
        assert encode(msg) == oracle_encode(msg)

    @settings(max_examples=300, deadline=None)
    @given(messages(typed=True))
    def test_round_trip(self, msg):
        data = encode(msg)
        assert data == oracle_encode(msg)
        decoded = decode(data)
        assert same(decoded, oracle_decode(data))
        if not has_nan(msg):
            assert decoded == msg

    def test_every_registered_type_is_covered(self):
        assert len(REGISTRY) >= 28
        assert {"Delta", "EventMsg", "InputCommand", "TxnVote"} <= {
            cls.__name__ for cls in REGISTRY.values()
        }

    def test_edge_values(self):
        from repro.gateway.messages import Delta, EventMsg
        from repro.net.protocol import TxnVote

        cases = [
            Delta(tick=True, seq=-0.0, coalesced=1e300,
                  updates=((1, {"x": math.nan, "y": -math.inf}),),
                  exits=(2, (3, 4)), enters=[("a", {"__t": 1})]),
            EventMsg(1, 2, 3, "é", "日本", {"__d": [1], (1, (2,)): {"k": ()}}),
            TxnVote(1, 0, False, ((1, "W", "g"),), {None: 1, 1.5: [True]}),
        ]
        if numpy is not None:
            cases.append(Delta(tick=numpy.float64(2.5), seq=1,
                               updates=((7, {"x": numpy.float64(0.1)}),)))
        for msg in cases:
            assert encode(msg) == oracle_encode(msg)
            assert_decoders_agree(encode(msg))

    @pytest.mark.parametrize("payload", [object(), {1: lambda: 0}, [b"raw"]])
    def test_unencodable_raises_in_both(self, payload):
        from repro.gateway.messages import EventMsg

        msg = EventMsg(0, 0, 0, "e", "k", {"p": payload})
        with pytest.raises(NetError):
            oracle_encode(msg)
        with pytest.raises(NetError):
            encode(msg)


# -- decode: hostile and mutated bodies -----------------------------------------------


def _wire(cls: type, body: str) -> bytes:
    return bytes((protocol.WIRE_VERSION, TYPE_IDS[cls])) + body.encode("utf-8")


def _mutate_json(value: Any, rng: random.Random) -> Any:
    """One structural edit somewhere in a parsed body."""
    if isinstance(value, dict) and value and rng.random() < 0.6:
        key = rng.choice(sorted(value, key=repr))
        choice = rng.randrange(5)
        out = dict(value)
        if choice == 0:
            del out[key]
        elif choice == 1:
            out["evil" if rng.random() < 0.5 else "__t"] = 1
        elif choice == 2:
            out[key] = rng.choice([None, True, 7, -0.0, "s", [], {}, [[1, 2, 3]]])
        elif choice == 3:
            tag = rng.choice(["__t", "__d"])
            out[key] = {tag: rng.choice(
                [5, "ab", {"__t": [1]}, [[1, 2, 3]], [[{"a": 1}, 2]],
                 [["k", 1]], [], [[[1, [2]], 3]], out[key]]
            )}
        else:
            out[key] = _mutate_json(value[key], rng)
        return out
    if isinstance(value, list) and value:
        index = rng.randrange(len(value))
        out = list(value)
        if rng.random() < 0.5:
            out[index] = _mutate_json(value[index], rng)
        else:
            del out[index]
        return out
    return rng.choice([None, False, 3, 2.5, "x", [1], {"__t": [value]},
                       {"__d": [[value, value]]}, {"__t": value}])


class TestDecodeMatchesOracle:
    #: Both codecs must reject these (InputCommand bodies).
    HOSTILE = [
        '{"__t": 5}',
        '{"__d": [[1, 2, 3]]}',
        '{"client":"c","seq":0,"action":"a","args":{"__d":[[1,2,3]]},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{"__t":5},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{"__d":[[{"a":1},2]]},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{"__d":[[{"__t":[[1]]},2]]},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{},"tick":0,"evil":1}',
        '{"client":"c"}',
        '{"client":"c","seq":true,"action":"a","args":{},"tick":0}',
        '{"client":"c","seq":0,"action":9,"args":{},"tick":0}',
        '{"__d":[["client","c"],["seq",0],["action","a"]]}',
        '{"__d":[[1,"c"]]}',
        '{"__t":["c",0,"a"]}',
        '{"client":"c","seq":0,"action":"a","args":{"__d":[{"__t":[1,2]}]},"tick":0}',
        '[1,2]', '"x"', 'null', '{', '{"client":"c",}', '\ufeff{}', '',
    ]
    #: Accepted by the oracle; only the first is canonical.
    ODD = [
        '{"client":"c","seq":0,"action":"a","args":{"__d":[[[1,[2]],3]]},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{"__t":"ab"},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{"__d":""},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{"__d":[["k",1]]},"tick":0}',
        '{"client":"c","seq":0,"action":"a","args":{"__t":{"__t":[1]}},"tick":0}',
    ]

    @pytest.mark.parametrize("body", HOSTILE + ODD)
    def test_decoders_agree(self, body):
        from repro.net.protocol import InputCommand

        assert_decoders_agree(_wire(InputCommand, body))

    @pytest.mark.parametrize("body", HOSTILE + ODD[1:])
    def test_hostile_bodies_raise_net_error(self, body):
        from repro.net.protocol import InputCommand

        with pytest.raises(NetError):
            decode(_wire(InputCommand, body))

    def test_keyed_dict_with_list_key_decodes(self):
        from repro.net.protocol import InputCommand

        msg = decode(_wire(InputCommand, self.ODD[0]))
        assert msg.args == {(1, (2,)): 3}

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(messages(typed=True), st.randoms(use_true_random=False))
    def test_structurally_mutated_bodies(self, msg, rng):
        data = oracle_encode(msg)
        body = json.loads(data[2:].decode("utf-8"))
        for _ in range(rng.randrange(1, 4)):
            body = _mutate_json(body, rng)
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert_decoders_agree(data[:2] + text.encode("utf-8"))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(messages(typed=True), st.data())
    def test_byte_mutated_bodies(self, msg, data_strategy):
        data = bytearray(oracle_encode(msg))
        assume(len(data) > 2)
        for _ in range(data_strategy.draw(st.integers(1, 3))):
            at = data_strategy.draw(st.integers(2, len(data) - 1))
            op = data_strategy.draw(st.sampled_from(["flip", "cut", "insert"]))
            if op == "flip":
                data[at] = data_strategy.draw(st.integers(0, 255))
            elif op == "cut":
                del data[at:]
                break
            else:
                data.insert(at, data_strategy.draw(st.sampled_from(b'{}[],:"_t')))
        assert_decoders_agree(bytes(data))
