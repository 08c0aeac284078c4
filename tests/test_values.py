"""Value semantics of every public value type: equality and hashing by
fields, dataclass-style repr, immutability, copying and pickling,
keyword construction with defaults, match order and cached properties."""

from __future__ import annotations

import copy
import pickle
from datetime import datetime, timedelta, timezone

import pytest

from trailnet import (
    AlphaIntermediates,
    ByArtifact,
    ByCommit,
    ByThread,
    ByTopic,
    EventLog,
    FootprintMatrix,
    ReplayResult,
    ReviewRecord,
    SocialGraph,
    Trace,
    TraceGenerationResult,
    TraceLog,
    WorkflowNet,
)

NOON = datetime(2012, 5, 3, 12, 0, tzinfo=timezone.utc)
NOON_REPR = "datetime.datetime(2012, 5, 3, 12, 0, tzinfo=datetime.timezone.utc)"
A, B = frozenset({"a"}), frozenset({"b"})

# Each type with the fields, in order, of one instance.
FIELDS = {
    Trace: {
        "case_id": "c1",
        "activities": ("a", "b"),
        "originators": ("u", None),
        "timestamps": (NOON, NOON),
    },
    EventLog: {"traces": (Trace("c1", ("a",), (None,), (None,)),)},
    FootprintMatrix: {"alphabet": ("a", "b"), "succession": frozenset({("a", "b")})},
    AlphaIntermediates: {"t_w": A | B, "t_i": A, "t_o": B, "y_w": frozenset({(A, B)})},
    WorkflowNet: {
        "places": frozenset({"i", "o"}),
        "transitions": frozenset({"t"}),
        "arcs": frozenset({("i", "t"), ("t", "o")}),
        "source": "i",
        "sink": "o",
    },
    ReplayResult: {"fits": True, "consumed_missing": 0, "produced_remaining": 0},
    TraceGenerationResult: {"traces": (("t",),), "complete": True},
    ReviewRecord: {
        "artifact_id": "X",
        "submitter": "sam",
        "reviewer": "r1",
        "comment": "ok",
        "timestamp": NOON,
        "thread_id": "th",
        "topic": None,
    },
    ByArtifact: {},
    ByThread: {},
    ByTopic: {},
    ByCommit: {"window": timedelta(seconds=60)},
    TraceLog: {
        "log": EventLog(()),
        "strategy": "artifact",
        "record_count": 0,
        "window": (NOON, NOON),
    },
    SocialGraph: {"nodes": frozenset({"a", "b"}), "edges": {("a", "b"): 2}},
}
TYPES = list(FIELDS)
HASHABLE = [cls for cls in TYPES if cls is not SocialGraph]


def build(cls, **changes):
    return cls(**{**FIELDS[cls], **changes})


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestEveryValueType:
    def test_keyword_construction_keeps_each_field(self, cls):
        value = build(cls)
        assert {name: getattr(value, name) for name in FIELDS[cls]} == FIELDS[cls]

    def test_equal_by_fields(self, cls):
        assert build(cls) == build(cls)
        assert not build(cls) != build(cls)
        assert build(cls) != tuple(FIELDS[cls].values())

    def test_match_args_name_the_fields_in_order(self, cls):
        assert cls.__match_args__ == tuple(FIELDS[cls])

    def test_fields_cannot_be_set_or_deleted(self, cls):
        value = build(cls)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == build(cls)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal(self, cls, clone):
        copied = clone(build(cls))
        assert type(copied) is cls
        assert copied == build(cls)


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_hash_follows_equality(cls):
    assert hash(build(cls)) == hash(build(cls)) == hash(tuple(FIELDS[cls].values()))
    assert {build(cls), build(cls)} == {build(cls)}


def test_social_graph_is_unhashable():
    with pytest.raises(TypeError):
        hash(build(SocialGraph))


@pytest.mark.parametrize(
    "cls, changes",
    [
        (Trace, {"case_id": "c2"}),
        (FootprintMatrix, {"succession": frozenset()}),
        (ReplayResult, {"consumed_missing": 1}),
        (ReviewRecord, {"topic": "t"}),
        (ByCommit, {"window": timedelta(seconds=61)}),
        (TraceLog, {"window": None}),
        (SocialGraph, {"edges": {("a", "b"): 3}}),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else "",
)
def test_one_changed_field_breaks_equality(cls, changes):
    assert build(cls, **changes) != build(cls)


def test_types_with_equal_fields_differ():
    assert ByArtifact() != ByThread() != ByTopic() != ByArtifact()


def test_defaults():
    record = ReviewRecord(artifact_id="X", submitter="sam", reviewer="r1", comment="ok", timestamp=NOON)
    assert (record.thread_id, record.topic) == (None, None)
    assert TraceLog(log=EventLog(()), strategy="artifact", record_count=0).window is None


def test_repr_text():
    assert repr(build(Trace)) == (
        f"Trace(case_id='c1', activities=('a', 'b'), originators=('u', None),"
        f" timestamps=({NOON_REPR}, {NOON_REPR}))"
    )
    assert repr(build(EventLog)) == (
        "EventLog(traces=(Trace(case_id='c1', activities=('a',), originators=(None,),"
        " timestamps=(None,)),))"
    )
    assert repr(build(FootprintMatrix)) == (
        "FootprintMatrix(alphabet=('a', 'b'), succession=frozenset({('a', 'b')}))"
    )
    intermediates = build(AlphaIntermediates)
    assert repr(intermediates) == (
        f"AlphaIntermediates(t_w={intermediates.t_w!r}, t_i=frozenset({{'a'}}),"
        " t_o=frozenset({'b'}), y_w=frozenset({(frozenset({'a'}), frozenset({'b'}))}))"
    )
    net = build(WorkflowNet)
    assert repr(net) == (
        f"WorkflowNet(places={net.places!r}, transitions=frozenset({{'t'}}),"
        f" arcs={net.arcs!r}, source='i', sink='o')"
    )
    assert repr(build(ReplayResult)) == (
        "ReplayResult(fits=True, consumed_missing=0, produced_remaining=0)"
    )
    assert repr(build(TraceGenerationResult)) == (
        "TraceGenerationResult(traces=(('t',),), complete=True)"
    )
    assert repr(build(ReviewRecord)) == (
        "ReviewRecord(artifact_id='X', submitter='sam', reviewer='r1', comment='ok',"
        f" timestamp={NOON_REPR}, thread_id='th', topic=None)"
    )
    assert [repr(cls()) for cls in (ByArtifact, ByThread, ByTopic)] == [
        "ByArtifact()",
        "ByThread()",
        "ByTopic()",
    ]
    assert repr(build(ByCommit)) == "ByCommit(window=datetime.timedelta(seconds=60))"
    assert repr(build(TraceLog)) == (
        "TraceLog(log=EventLog(traces=()), strategy='artifact', record_count=0,"
        f" window=({NOON_REPR}, {NOON_REPR}))"
    )
    graph = build(SocialGraph)
    assert repr(graph) == f"SocialGraph(nodes={graph.nodes!r}, edges={{('a', 'b'): 2}})"


@pytest.mark.parametrize("cls", [Trace, ReviewRecord], ids=lambda cls: cls.__name__)
def test_slotted_types_have_no_instance_dict(cls):
    with pytest.raises(TypeError):
        vars(build(cls))


@pytest.mark.parametrize(
    "cls, name",
    [
        (EventLog, "variants"),
        (EventLog, "alphabet"),
        (FootprintMatrix, "cells"),
        (AlphaIntermediates, "x_w"),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else x,
)
def test_cached_properties_are_built_once(cls, name):
    value = build(cls)
    assert getattr(value, name) is getattr(value, name)
