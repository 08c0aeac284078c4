from __future__ import annotations

import itertools
import math
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings, strategies as st

from trailnet import petri
from trailnet.alpha import alpha
from trailnet.eventlog import log_from_sequences
from trailnet.petri import (
    NetStructureError,
    ReplayResult,
    TraceGenerationResult,
    WorkflowNet,
    generate_traces,
    isomorphic,
    net_from_json,
    replay,
    to_dot,
    to_json,
)

from .netgen import random_structured_net
from .oracles import (
    NotEnabledError,
    enabled,
    fire,
    initial_marking,
    reference_generate_traces,
    reference_replay,
)

P_BE = "p({A},{B,E})"
P_CE = "p({A},{C,E})"
P_BED = "p({B,E},{D})"
P_CED = "p({C,E},{D})"


def sequence_net():
    return WorkflowNet(
        places=frozenset({"i", "p", "o"}),
        transitions=frozenset({"A", "B"}),
        arcs=frozenset({("i", "A"), ("A", "p"), ("p", "B"), ("B", "o")}),
        source="i",
        sink="o",
    )


def looping_net():
    # a, then any number of b repetitions, then c
    return WorkflowNet(
        places=frozenset({"i", "p", "o"}),
        transitions=frozenset({"a", "b", "c"}),
        arcs=frozenset(
            {("i", "a"), ("a", "p"), ("p", "b"), ("b", "p"), ("p", "c"), ("c", "o")}
        ),
        source="i",
        sink="o",
    )



def and_split_net(branches):
    # a, then b0..b{n-1} in any order, then z: the benchmark's parallel net
    names = [f"b{k}" for k in range(branches)]
    places = {"i", "o"}
    arcs = {("i", "a"), ("z", "o")}
    for b in names:
        places |= {f"p_{b}", f"q_{b}"}
        arcs |= {("a", f"p_{b}"), (f"p_{b}", b), (b, f"q_{b}"), (f"q_{b}", "z")}
    return WorkflowNet(frozenset(places), frozenset(["a", "z", *names]), frozenset(arcs), "i", "o")


def two_depth_net():
    # {p} is reached after "a" (depth 1) and after "b c" (depth 2); d empties it into o
    return WorkflowNet(
        places=frozenset({"i", "q", "p", "o"}),
        transitions=frozenset({"a", "b", "c", "d"}),
        arcs=frozenset(
            {("i", "a"), ("a", "p"), ("i", "b"), ("b", "q"), ("q", "c"), ("c", "p"),
             ("p", "d"), ("d", "o")}
        ),
        source="i",
        sink="o",
    )

_random_nets = st.integers(0, 10_000).map(
    lambda seed: random_structured_net(random.Random(seed))
)


@st.composite
def _any_small_nets(draw):
    """Workflow nets with any arcs the shape rules allow: loops, unbounded
    places, transitions with an empty preset or postset, dead transitions."""
    places = ["i", "o"] + [f"p{k}" for k in range(draw(st.integers(0, 3)))]
    transitions = [f"t{k}" for k in range(draw(st.integers(0, 4)))]
    inputs = [(p, t) for p in places if p != "o" for t in transitions]
    outputs = [(t, p) for t in transitions for p in places if p != "i"]
    arcs = draw(st.sets(st.sampled_from(inputs + outputs))) if transitions else set()
    return WorkflowNet(frozenset(places), frozenset(transitions), frozenset(arcs), "i", "o")


@st.composite
def _traces(draw, net, foreign=False):
    """Any sequence of the net's transitions.

    With ``foreign``, some traces also hold one activity that is not a
    transition of the net: a place name or a name the net lacks.
    """
    names = sorted(net.transitions)
    trace = draw(st.lists(st.sampled_from(names), max_size=8)) if names else []
    if foreign and draw(st.booleans()):
        outsider = draw(st.sampled_from(sorted(net.places) + ["Z", ""]))
        trace.insert(draw(st.integers(0, len(trace))), outsider)
    return tuple(trace)


@st.composite
def _nets_with_traces(draw, foreign=False):
    """A structured or arbitrary small net, and one of its ``_traces``."""
    net = draw(st.one_of(_random_nets, _any_small_nets()))
    return net, draw(_traces(net, foreign))


@st.composite
def _nets_with_trace_lists(draw):
    """A structured net and traces to replay on it one after another.

    The traces come from a small pool, so they repeat; some hold an
    activity the net lacks, and each is given as a tuple or as a list.
    """
    net = draw(_random_nets)
    pool = draw(st.lists(_traces(net, foreign=True), min_size=1, max_size=4))
    kinds = st.sampled_from([tuple, list])
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), kinds), max_size=12))
    return net, [kind(trace) for trace, kind in picks]


def sink_free_net():
    # x takes the source token and puts it nowhere; y reaches the sink
    return WorkflowNet(
        places=frozenset({"i", "o"}),
        transitions=frozenset({"x", "y"}),
        arcs=frozenset({("i", "x"), ("i", "y"), ("y", "o")}),
        source="i",
        sink="o",
    )


def empty_preset_net():
    # a alone completes; g needs no token and puts one on the unbounded p,
    # h takes one off p and puts it nowhere, so g, h leads back to any marking
    return WorkflowNet(
        places=frozenset({"i", "p", "o"}),
        transitions=frozenset({"a", "g", "h"}),
        arcs=frozenset({("i", "a"), ("a", "o"), ("g", "p"), ("p", "h")}),
        source="i",
        sink="o",
    )


class TestConstruction:
    def test_name_overlap_rejected(self):
        with pytest.raises(NetStructureError):
            WorkflowNet(frozenset({"x", "o"}), frozenset({"x"}), frozenset(), "x", "o")

    def test_source_must_be_a_place(self):
        with pytest.raises(NetStructureError):
            WorkflowNet(frozenset({"o"}), frozenset({"A"}), frozenset(), "i", "o")

    def test_source_and_sink_must_differ(self):
        with pytest.raises(NetStructureError):
            WorkflowNet(frozenset({"i"}), frozenset({"A"}), frozenset(), "i", "i")

    def test_place_to_place_arc_rejected(self):
        with pytest.raises(NetStructureError):
            WorkflowNet(
                frozenset({"i", "o"}), frozenset({"A"}), frozenset({("i", "o")}), "i", "o"
            )

    def test_unknown_arc_endpoint_rejected(self):
        with pytest.raises(NetStructureError):
            WorkflowNet(
                frozenset({"i", "o"}), frozenset({"A"}), frozenset({("i", "Z")}), "i", "o"
            )

    def test_arc_into_source_rejected(self):
        with pytest.raises(NetStructureError):
            WorkflowNet(
                frozenset({"i", "o"}),
                frozenset({"A"}),
                frozenset({("i", "A"), ("A", "i")}),
                "i",
                "o",
            )

    def test_arc_out_of_sink_rejected(self):
        with pytest.raises(NetStructureError):
            WorkflowNet(
                frozenset({"i", "o"}),
                frozenset({"A"}),
                frozenset({("o", "A"), ("A", "o")}),
                "i",
                "o",
            )


class TestTokenGame:
    """The dict-marking token game that the oracles in tests/oracles.py play."""

    def test_only_source_consumer_enabled_initially(self, sample_net):
        assert enabled(sample_net, initial_marking(sample_net)) == {"A"}

    def test_enabled_after_first_firing(self, sample_net):
        marking = fire(sample_net, initial_marking(sample_net), "A")
        assert marking == {P_BE: 1, P_CE: 1}
        assert enabled(sample_net, marking) == {"B", "C", "E"}

    def test_empty_marking_enables_nothing(self, sample_net):
        assert enabled(sample_net, {}) == frozenset()

    def test_unknown_place_in_marking(self, sample_net):
        with pytest.raises(KeyError):
            enabled(sample_net, {"nowhere": 1})

    def test_fire_join_consumes_both_places(self, sample_net):
        marking = fire(sample_net, {P_BE: 1, P_CE: 1}, "E")
        assert marking == {P_BED: 1, P_CED: 1}

    def test_fire_not_enabled(self, sample_net):
        with pytest.raises(NotEnabledError):
            fire(sample_net, initial_marking(sample_net), "D")

    def test_fire_unknown_transition(self, sample_net):
        with pytest.raises(KeyError):
            fire(sample_net, initial_marking(sample_net), "Z")

    def test_fire_does_not_mutate_input_marking(self, sample_net):
        marking = initial_marking(sample_net)
        fire(sample_net, marking, "A")
        assert marking == {sample_net.source: 1}

    @settings(deadline=None)
    @given(_random_nets, st.randoms(use_true_random=False))
    def test_fire_keeps_counts_non_negative(self, net, rng):
        marking = initial_marking(net)
        for _ in range(20):
            fireable = sorted(enabled(net, marking))
            if not fireable:
                break
            marking = fire(net, marking, rng.choice(fireable))
            assert all(count >= 0 for count in marking.values())
            assert set(marking) <= net.places


class TestReplay:
    @pytest.mark.parametrize("seq", ["ABCD", "ACBD", "AED"])
    def test_sample_traces_fit(self, sample_net, seq):
        result = replay(sample_net, tuple(seq))
        assert result.fits
        assert result.consumed_missing == 0
        assert result.produced_remaining == 0

    def test_skipping_a_branch_does_not_fit(self, sample_net):
        result = replay(sample_net, ("A", "B", "D"))
        assert not result.fits
        assert result.consumed_missing >= 1
        assert result.produced_remaining >= 1

    def test_stopping_short_does_not_fit(self, sample_net):
        result = replay(sample_net, ("A",))
        assert not result.fits
        assert result.consumed_missing == 1  # no token reached the sink
        assert result.produced_remaining == 2

    def test_empty_final_marking_counts_missing_sink_token(self):
        # Mined from xxz, yz, x takes the source token and outputs nothing.
        net, _ = alpha(log_from_sequences(["xxz", "yz"]))
        assert net.outputs("x") == frozenset()
        result = replay(net, ("x",))
        assert not result.fits
        assert result.consumed_missing == 1
        assert result.produced_remaining == 0

    def test_unknown_activity_rejected(self, sample_net):
        with pytest.raises(KeyError):
            replay(sample_net, ("A", "Z"))

    def test_extra_sink_tokens_count_as_remaining(self):
        # a splits into p1 and p2, and both branches end in the sink.
        net = WorkflowNet(
            places=frozenset({"i", "p1", "p2", "o"}),
            transitions=frozenset({"a", "b", "c"}),
            arcs=frozenset(
                {("i", "a"), ("a", "p1"), ("a", "p2"), ("p1", "b"), ("b", "o"), ("p2", "c"), ("c", "o")}
            ),
            source="i",
            sink="o",
        )
        result = replay(net, ("a", "b", "c"))
        assert not result.fits
        assert result.consumed_missing == 0
        assert result.produced_remaining == 1

    def test_empty_trace_leaves_source_token(self, sample_net):
        result = replay(sample_net, ())
        assert not result.fits
        assert result.produced_remaining == 1

    @given(_nets_with_traces())
    @example((sink_free_net(), ("x",)))
    def test_every_misfit_is_explained(self, case):
        net, trace = case
        result = replay(net, trace)
        if not result.fits:
            assert result.consumed_missing + result.produced_remaining >= 1

    @given(_nets_with_traces(foreign=True))
    @example((sink_free_net(), ()))
    @example((sink_free_net(), ("x",)))
    @example((sink_free_net(), ("y", "Z", "x", "o")))
    def test_matches_reference_replay(self, case):
        net, trace = case
        try:
            expected = reference_replay(net, trace)
        except KeyError as exc:
            with pytest.raises(KeyError) as raised:
                replay(net, trace)
            assert raised.value.args == exc.args
        else:
            assert replay(net, trace) == expected


class TestReplayMemo:
    @settings(deadline=None)
    @given(_nets_with_trace_lists())
    def test_repeated_replays_match_reference(self, case):
        net, traces = case
        results = []
        for trace in traces + traces:
            try:
                expected = reference_replay(net, trace)
            except KeyError as exc:
                with pytest.raises(KeyError) as raised:
                    replay(net, trace)
                assert raised.value.args == exc.args
            else:
                results.append(replay(net, trace))
                assert results[-1] == expected
        for a in results:
            assert all((a == b) == (a is b) for b in results)

    def test_new_net_starts_with_an_empty_memo(self, sample_net):
        assert sample_net._replays == {}
        replay(sample_net, ("A", "E", "D"))
        assert list(sample_net._replays) == [("A", "E", "D")]

    def test_failing_trace_leaves_the_memo_unchanged(self, sample_net):
        replay(sample_net, ("A", "E", "D"))
        before = dict(sample_net._replays)
        for trace in (("A", "Z"), ["A", "E", "D", "Z"], ("Z",)):
            with pytest.raises(KeyError):
                replay(sample_net, trace)
        assert sample_net._replays == before

    def test_equal_nets_do_not_share_a_memo(self, sample_net):
        text = to_json(sample_net)
        first, second = net_from_json(text), net_from_json(text)
        assert first == second
        result = replay(first, ("A", "B", "D"))
        assert second._replays == {}
        again = replay(second, ("A", "B", "D"))
        assert again == result and again is not result
        assert list(first._replays) == list(second._replays) == [("A", "B", "D")]

    def test_equal_outcomes_are_one_object(self, sample_net):
        fits = [replay(sample_net, tuple(seq)) for seq in ("ABCD", "ACBD", "AED")]
        assert fits[0] is fits[1] is fits[2]
        assert replay(sample_net, ["A", "B", "C", "D"]) is fits[0]
        # Each skips one branch: one token missing before D, one left on the other branch.
        skips = replay(sample_net, ("A", "B", "D")), replay(sample_net, ("A", "C", "D"))
        assert skips[0] is skips[1]
        assert skips[0] == ReplayResult(False, 1, 1)

    def test_results_stay_frozen(self, sample_net):
        result = replay(sample_net, ("A", "E", "D"))
        with pytest.raises(FrozenInstanceError):
            result.fits = False
        assert replay(sample_net, ("A", "E", "D")).fits


def _open_markings(net, max_length):
    """The distinct markings other than the final one that the token game
    reaches in at most ``max_length`` firings without passing through the
    final marking, breadth first."""
    final = {net.sink: 1}
    level, reached = [initial_marking(net)], set()
    for _ in range(max_length + 1):
        level = {frozenset(m.items()): m for m in level if m != final}
        reached.update(level)
        level = [fire(net, m, t) for m in level.values() for t in enabled(net, m)]
    return reached


class TestGenerateTraces:
    def test_sample_net_language(self, sample_net):
        result = generate_traces(sample_net, max_length=10, max_traces=100)
        assert result.complete
        assert result.traces == (
            ("A", "B", "C", "D"),
            ("A", "C", "B", "D"),
            ("A", "E", "D"),
        )

    def test_sequence_net(self):
        result = generate_traces(sequence_net(), max_length=10, max_traces=10)
        assert result.complete
        assert result.traces == (("A", "B"),)

    def test_unreachable_sink_is_complete_and_empty(self):
        net = WorkflowNet(
            places=frozenset({"i", "p", "o"}),
            transitions=frozenset({"A"}),
            arcs=frozenset({("i", "A"), ("A", "p")}),
            source="i",
            sink="o",
        )
        result = generate_traces(net, max_length=10, max_traces=10)
        assert result.complete
        assert result.traces == ()

    def test_length_bound_reported_as_incomplete(self):
        result = generate_traces(looping_net(), max_length=3, max_traces=100)
        assert not result.complete
        assert result.traces == (("a", "b", "c"), ("a", "c"))

    def test_trace_budget_reported_as_incomplete(self, sample_net):
        result = generate_traces(sample_net, max_length=10, max_traces=1)
        assert not result.complete
        assert result.traces == (("A", "B", "C", "D"),)

    def test_negative_bounds_rejected(self, sample_net):
        with pytest.raises(ValueError):
            generate_traces(sample_net, max_length=-1, max_traces=10)

    def test_final_marking_is_not_expanded(self):
        # {o: 1} is reached after "a" and kept; expanding it would add a, g, h
        result = generate_traces(empty_preset_net(), max_length=3, max_traces=100)
        assert not result.complete
        assert result.traces == (("a",), ("g", "a", "h"), ("g", "h", "a"))

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            _random_nets,
            _any_small_nets(),
            st.sampled_from([looping_net(), empty_preset_net(), sequence_net()]),
        ),
        st.integers(0, 7),
        st.integers(0, 6),
    )
    @example(looping_net(), 3, 100)
    @example(looping_net(), 10, 2)
    @example(empty_preset_net(), 4, 100)
    @example(empty_preset_net(), 0, 0)
    @example(and_split_net(3), 5, 100)
    @example(and_split_net(4), 6, 7)  # the cut lands inside a copied slice
    @example(and_split_net(4), 6, 8)  # ... and at its end
    @example(and_split_net(4), 5, 100)
    def test_matches_reference_search(self, net, max_length, max_traces):
        assert generate_traces(net, max_length, max_traces) == reference_generate_traces(
            net, max_length, max_traces
        )

    @pytest.mark.parametrize("branches", [2, 3, 4, 5])
    def test_and_split_matches_reference_under_every_cut(self, branches):
        # Each subset of finished branches is reached once per order of it,
        # so later orders copy the first one's traces, and the trace cut
        # lands inside a copied slice, at its end and beyond the language.
        net = and_split_net(branches)
        orders = itertools.permutations(f"b{k}" for k in range(branches))
        language = tuple(("a", *order, "z") for order in orders)
        assert generate_traces(net, branches + 2, math.factorial(branches)) == (
            TraceGenerationResult(language, True)
        )
        for max_length in range(branches + 4):
            for max_traces in range(math.factorial(branches) + 2):
                assert generate_traces(net, max_length, max_traces) == reference_generate_traces(
                    net, max_length, max_traces
                ), (max_length, max_traces)

    def test_reuse_is_keyed_by_depth(self):
        # {p} at depth 1 completes as "a d"; at depth 2 the length cut stops
        # "b c" before d, so its suffixes must not be copied from depth 1.
        result = generate_traces(two_depth_net(), max_length=2, max_traces=100)
        assert result == TraceGenerationResult((("a", "d"),), False)
        assert result == reference_generate_traces(two_depth_net(), 2, 100)

    @pytest.mark.parametrize(
        "net, max_length, calls",
        [(and_split_net(4), 6, 17), (looping_net(), 5, 2)],
        ids=["and-split-4", "looping"],
    )
    def test_successors_computed_once_per_marking(self, monkeypatch, net, max_length, calls):
        seen = []
        successors = petri._successors

        def counting(marking, arcs_of):
            seen.append(marking)
            return successors(marking, arcs_of)

        monkeypatch.setattr(petri, "_successors", counting)
        generate_traces(net, max_length, 10**6)
        assert len(seen) == len(set(seen)) == calls
        assert calls == len(_open_markings(net, max_length))

    @settings(deadline=None, max_examples=50)
    @given(_random_nets, st.integers(0, 5))
    def test_trace_cut_keeps_smallest(self, net, max_traces):
        language = generate_traces(net, max_length=30, max_traces=50_000)
        assert language.complete
        cut = generate_traces(net, max_length=30, max_traces=max_traces)
        assert cut.traces == tuple(sorted(language.traces))[:max_traces]
        assert cut.complete == (max_traces >= len(language.traces))

    @settings(deadline=None, max_examples=50)
    @given(_random_nets, st.integers(0, 12), st.integers(0, 8))
    def test_traces_strictly_increasing(self, net, max_length, max_traces):
        # Under no cut, the length cut and the trace cut.
        for bounds in ((30, 50_000), (max_length, 50_000), (30, max_traces)):
            traces = generate_traces(net, *bounds).traces
            assert all(earlier < later for earlier, later in zip(traces, traces[1:]))

    @settings(deadline=None, max_examples=50)
    @given(_random_nets)
    def test_generated_traces_all_replay(self, net):
        result = generate_traces(net, max_length=10, max_traces=50_000)
        assert result.complete
        assert result.traces
        for trace in result.traces:
            assert replay(net, trace).fits


class TestIsomorphism:
    def test_reflexive(self, sample_net):
        assert isomorphic(sample_net, sample_net)

    def test_place_names_immaterial(self, sample_net):
        renames = {p: f"place{i}" for i, p in enumerate(sorted(sample_net.places))}
        renamed = WorkflowNet(
            places=frozenset(renames.values()),
            transitions=sample_net.transitions,
            arcs=frozenset(
                (renames.get(tail, tail), renames.get(head, head)) for tail, head in sample_net.arcs
            ),
            source=renames[sample_net.source],
            sink=renames[sample_net.sink],
        )
        assert isomorphic(sample_net, renamed)
        assert isomorphic(renamed, sample_net)

    def test_missing_arc_detected(self, sample_net):
        dropped = WorkflowNet(
            places=sample_net.places,
            transitions=sample_net.transitions,
            arcs=frozenset(sample_net.arcs - {(P_BED, "D")}),
            source=sample_net.source,
            sink=sample_net.sink,
        )
        assert not isomorphic(sample_net, dropped)

    def test_transition_sets_must_match(self, sample_net):
        other = sequence_net()
        assert not isomorphic(sample_net, other)

    @settings(deadline=None)
    @given(_random_nets, _random_nets, _random_nets)
    def test_equivalence_relation(self, a, b, c):
        assert isomorphic(a, a)
        assert isomorphic(a, b) == isomorphic(b, a)
        if isomorphic(a, b) and isomorphic(b, c):
            assert isomorphic(a, c)


class TestSerialization:
    def test_dot_counts_for_sample_net(self, sample_net):
        dot = to_dot(sample_net)
        lines = dot.splitlines()
        assert sum("shape=doublecircle" in l for l in lines) == 2
        assert sum("shape=circle" in l for l in lines) == 4
        assert sum("shape=box" in l for l in lines) == 5
        assert sum(" -> " in l for l in lines) == 14

    def test_dot_tiny_net(self):
        net = WorkflowNet(
            places=frozenset({"i", "o"}),
            transitions=frozenset({"A"}),
            arcs=frozenset({("i", "A"), ("A", "o")}),
            source="i",
            sink="o",
        )
        assert to_dot(net) == (
            "digraph workflow {\n"
            "  rankdir=LR;\n"
            '  "i" [shape=doublecircle];\n'
            '  "o" [shape=doublecircle];\n'
            '  "A" [shape=box];\n'
            '  "A" -> "o";\n'
            '  "i" -> "A";\n'
            "}\n"
        )

    def test_dot_deterministic(self, sample_net):
        assert to_dot(sample_net) == to_dot(sample_net)

    def test_json_round_trip(self, sample_net):
        assert net_from_json(to_json(sample_net)) == sample_net

    def test_json_arrays_sorted(self, sample_net):
        import json

        payload = json.loads(to_json(sample_net))
        assert payload["places"] == sorted(payload["places"])
        assert payload["transitions"] == sorted(payload["transitions"])
        assert payload["arcs"] == sorted(payload["arcs"])
        assert payload["source"] == "i_W"
        assert payload["sink"] == "o_W"

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "{}",
            '{"places": [], "transitions": [], "arcs": [["a"]], "source": "i", "sink": "o"}',
            '{"places": [["i"], "o"], "transitions": [], "arcs": [], "source": "i", "sink": "o"}',
            '{"places": "io", "transitions": [], "arcs": [], "source": "i", "sink": "o"}',
            '{"places": ["i", "o"], "transitions": "a", "arcs": [], "source": "i", "sink": "o"}',
            '{"places": ["i", "o"], "transitions": ["a"], "arcs": ["ia", "ao"], "source": "i", "sink": "o"}',
            '{"places": ["i", "o"], "transitions": [], "arcs": [], "source": ["i"], "sink": "o"}',
        ],
    )
    def test_bad_json_rejected(self, text):
        with pytest.raises(NetStructureError):
            net_from_json(text)

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(NetStructureError, match="nested too deeply"):
            net_from_json('{"places": ' + "[" * 100_000)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("{bad", "invalid net JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("[" * 100_000, "invalid net JSON: nested too deeply"),
        ],
        ids=["bad", "deep"],
    )
    def test_undecodable_json_message(self, text, error):
        with pytest.raises(NetStructureError) as caught:
            net_from_json(text)
        assert str(caught.value) == error

    @settings(deadline=None)
    @given(_random_nets)
    def test_round_trip_any_net(self, net):
        assert net_from_json(to_json(net)) == net
