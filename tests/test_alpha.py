from __future__ import annotations

import hashlib
import importlib
import json
import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from trailnet.alpha import (
    SINK_PLACE,
    SOURCE_PLACE,
    AlphaIntermediates,
    AlphabetLimitError,
    DanglingActivityWarning,
    alpha,
    candidate_pairs,
    intermediates_to_json,
    maximal_pairs,
    place_name,
)
from trailnet.cli import main
from trailnet.eventlog import EventLog, log_from_sequences, serialize_csv_log
from trailnet.petri import generate_traces, isomorphic, replay, to_json
from trailnet.relations import footprint

from .netgen import random_structured_net
from .oracles import brute_force_candidate_pairs, brute_force_maximal, reference_closure


def _pairs(*items):
    return frozenset((frozenset(a), frozenset(b)) for a, b in items)


SAMPLE_X = _pairs(
    ("A", "B"),
    ("A", "C"),
    ("A", "E"),
    ("B", "D"),
    ("C", "D"),
    ("E", "D"),
    ("A", "BE"),
    ("A", "CE"),
    ("BE", "D"),
    ("CE", "D"),
)

SAMPLE_Y = _pairs(("A", "BE"), ("A", "CE"), ("BE", "D"), ("CE", "D"))

_small_logs = st.lists(
    st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=8), min_size=1, max_size=12
).map(log_from_sequences)

# Names the JSON encoder must escape: quote, backslash, non-ASCII (also
# outside the BMP), control characters, and text that looks like JSON layout.
_ODD_NAMES = ["A", 'q"x', "b\\s", "\u00e9t\u00e9", "\U0001f600", "\x01c", "\t", '],\n  ["', " "]

_odd_logs = st.lists(
    st.lists(st.sampled_from(_ODD_NAMES), min_size=1, max_size=8), min_size=1, max_size=12
).map(log_from_sequences)


# Y_W-like pair sets with no antichain shape: sides that share members,
# one A side with many B sides (so that an A subset comes from several
# members), one B side with many A sides, and any union of these.
_sides = st.frozensets(st.sampled_from(_ODD_NAMES), min_size=1, max_size=3)
_fan_out = st.tuples(_sides, st.frozensets(_sides, max_size=4)).map(
    lambda fan: frozenset((fan[0], b) for b in fan[1])
)
_fan_in = st.tuples(_sides, st.frozensets(_sides, max_size=4)).map(
    lambda fan: frozenset((a, fan[0]) for a in fan[1])
)
_pair_sets = st.lists(
    st.one_of(st.frozensets(st.tuples(_sides, _sides), max_size=5), _fan_out, _fan_in),
    max_size=3,
).map(lambda parts: frozenset().union(*parts))

# Place sides over names that hold a place name's delimiters, or a backslash.
_PLACE_SIDE = st.frozensets(st.sampled_from(["a", "b", "a,b", "{", "}", '"', '"a', 'b"', "\\"]))


# Activity names shaped like the places alpha makes: plain names, the
# source's and sink's names, and names made of a place name's pieces.
_NAMES_LIKE_PLACES = st.sampled_from(["a", "b", "c", "i_W", "o_W", "i_W~1", "p({a},{b})", "p({a},{b})~1"]) | st.lists(
    st.sampled_from(["p(", "{", "}", ",", '"', ")", "a", "b"]), min_size=1, max_size=6
).map("".join)


def _place_signatures(net, rename=lambda t: t):
    """Each place's renamed input and output transitions, the source's and
    the sink's marked, as a sorted list."""
    inputs = {p: set() for p in net.places}
    outputs = {p: set() for p in net.places}
    for tail, head in net.arcs:
        if tail in net.places:
            outputs[tail].add(rename(head))
        else:
            inputs[head].add(rename(tail))
    return sorted(
        (p == net.source, p == net.sink, sorted(inputs[p]), sorted(outputs[p])) for p in net.places
    )


def _mine_quietly(log):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DanglingActivityWarning)
        return alpha(log)


def _reference_json(intermediates):
    """The rendering as the indenting encoder gives it for the whole payload,
    with X_W closed from Y_W by the oracle."""

    def pairs(items):
        return sorted(
            [[sorted(a), sorted(b)] for a, b in items],
            key=lambda pair: (tuple(pair[0]), tuple(pair[1])),
        )

    payload = {
        "T_W": sorted(intermediates.t_w),
        "T_I": sorted(intermediates.t_i),
        "T_O": sorted(intermediates.t_o),
        "X_W": pairs(reference_closure(intermediates.y_w)),
        "Y_W": pairs(intermediates.y_w),
    }
    return json.dumps(payload, indent=2) + "\n"


def _complete_bipartite_log(side):
    sources = [f"s{i}" for i in range(side)]
    targets = [f"t{i}" for i in range(side)]
    return log_from_sequences([[a, b] for a in sources for b in targets])


class TestBoundaryTasks:
    def test_sample_log(self, sample_log):
        intermediates = alpha(sample_log)[1]
        assert intermediates.t_i == {"A"}
        assert intermediates.t_o == {"D"}

    def test_multiple_heads_and_tails(self):
        intermediates = alpha(log_from_sequences(["AB", "BA"]))[1]
        assert intermediates.t_i == {"A", "B"}
        assert intermediates.t_o == {"B", "A"}

    def test_single_activity(self):
        intermediates = alpha(log_from_sequences(["A"]))[1]
        assert intermediates.t_i == {"A"}
        assert intermediates.t_o == {"A"}

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="cannot mine an empty log"):
            alpha(EventLog(()))


class TestCandidatePairs:
    def test_sample_log_exact_set(self, sample_log):
        assert candidate_pairs(footprint(sample_log)) == SAMPLE_X

    def test_sample_log_matches_brute_force(self, sample_log):
        matrix = footprint(sample_log)
        assert candidate_pairs(matrix) == brute_force_candidate_pairs(matrix)

    def test_single_causal_pair(self):
        matrix = footprint(log_from_sequences(["AB"]))
        assert candidate_pairs(matrix) == _pairs(("A", "B"))

    def test_no_causal_cells(self):
        matrix = footprint(log_from_sequences(["A", "B"]))
        assert candidate_pairs(matrix) == frozenset()

    def test_self_looping_activity_excluded(self):
        # A repeats, so A is parallel with itself and cannot sit in a pair.
        matrix = footprint(log_from_sequences(["AAB"]))
        assert candidate_pairs(matrix) == frozenset()
        assert brute_force_candidate_pairs(matrix) == frozenset()

    def test_alphabet_limit_enforced(self):
        log = log_from_sequences(["ABCDEF"])
        with pytest.raises(AlphabetLimitError) as err:
            candidate_pairs(footprint(log), alphabet_limit=5)
        assert err.value.size == 6
        assert err.value.limit == 5

    @settings(deadline=None)
    @given(_small_logs)
    def test_matches_brute_force_enumeration(self, log):
        matrix = footprint(log)
        assert candidate_pairs(matrix) == brute_force_candidate_pairs(matrix)


class TestMaximalPairs:
    def test_sample_log(self):
        assert maximal_pairs(SAMPLE_X) == SAMPLE_Y

    def test_singleton_is_its_own_maximum(self):
        single = _pairs(("A", "B"))
        assert maximal_pairs(single) == single

    def test_empty(self):
        assert maximal_pairs(frozenset()) == frozenset()

    @settings(deadline=None)
    @given(_small_logs)
    def test_matches_quadratic_domination_filter(self, log):
        pairs = candidate_pairs(footprint(log))
        assert maximal_pairs(pairs) == brute_force_maximal(pairs)


class TestAlpha:
    def test_sample_net_shape(self, sample_log):
        net, intermediates = alpha(sample_log)
        assert len(net.transitions) == 5
        assert len(net.places) == 6
        assert len(net.arcs) == 14
        assert intermediates == AlphaIntermediates(
            t_w=frozenset("ABCDE"),
            t_i=frozenset("A"),
            t_o=frozenset("D"),
            y_w=SAMPLE_Y,
        )
        assert intermediates.x_w == SAMPLE_X

    def test_sample_net_arcs(self, sample_log):
        net, _ = alpha(sample_log)
        p_be = place_name(frozenset("A"), frozenset("BE"))
        p_ce = place_name(frozenset("A"), frozenset("CE"))
        p_bed = place_name(frozenset("BE"), frozenset("D"))
        p_ced = place_name(frozenset("CE"), frozenset("D"))
        assert p_be == "p({A},{B,E})"
        assert net.arcs == {
            (SOURCE_PLACE, "A"),
            ("A", p_be),
            ("A", p_ce),
            (p_be, "B"),
            (p_be, "E"),
            (p_ce, "C"),
            (p_ce, "E"),
            ("B", p_bed),
            ("E", p_bed),
            ("C", p_ced),
            ("E", p_ced),
            (p_bed, "D"),
            (p_ced, "D"),
            ("D", SINK_PLACE),
        }

    def test_sample_net_replays_its_log(self, sample_log):
        net, _ = alpha(sample_log)
        for seq in ["ABCD", "ACBD", "AED"]:
            assert replay(net, tuple(seq)).fits

    def test_two_activity_sequence(self):
        net, intermediates = alpha(log_from_sequences(["AB"]))
        assert net.places == {SOURCE_PLACE, SINK_PLACE, "p({A},{B})"}
        assert net.transitions == {"A", "B"}
        assert net.arcs == {
            (SOURCE_PLACE, "A"),
            ("A", "p({A},{B})"),
            ("p({A},{B})", "B"),
            ("B", SINK_PLACE),
        }

    def test_single_activity(self):
        net, intermediates = alpha(log_from_sequences(["A"]))
        assert net.places == {SOURCE_PLACE, SINK_PLACE}
        assert net.arcs == {(SOURCE_PLACE, "A"), ("A", SINK_PLACE)}
        assert intermediates.y_w == frozenset()

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            alpha(EventLog(()))

    def test_alphabet_limit_propagates(self, sample_log):
        with pytest.raises(AlphabetLimitError):
            alpha(sample_log, alphabet_limit=4)

    def test_names_holding_place_syntax_get_places_of_their_own(self):
        # ({a,b},{c}) and ({"a,b"},{c}) are both maximal pairs.
        log = log_from_sequences([["a", "c"], ["b", "c"], ["a", "a,b", "b", "c"], ["x", "a,b", "c"]])
        net, intermediates = alpha(log)
        assert len(intermediates.y_w) == 4
        assert len(net.places) == len(intermediates.y_w) + 2
        assert place_name(frozenset(["a,b"]), frozenset("c")) == 'p({"a,b"},{c})'

    @given(st.lists(_PLACE_SIDE, unique=True, max_size=40), _PLACE_SIDE)
    @example([frozenset({"a", "b"}), frozenset({"a,b"})], frozenset())
    @example([frozenset({'"a', 'b"'}), frozenset({'"a,b"'})], frozenset({"a"}))
    def test_place_name_is_injective(self, sides, other):
        """Distinct sides give distinct names, on either side of a place."""
        assert len({place_name(side, other) for side in sides}) == len(sides)
        assert len({place_name(other, side) for side in sides}) == len(sides)

    @pytest.mark.parametrize(
        "sequences, renamed",
        [
            ([["a", "b"], ["p({a},{b})"]], {"p({a},{b})": "p({a},{b})~1"}),
            ([["a", "b"], ["i_W"]], {SOURCE_PLACE: "i_W~1"}),
            ([["o_W", "x"]], {SINK_PLACE: "o_W~1"}),
            ([["i_W", "o_W"], ["i_W~1"]], {SOURCE_PLACE: "i_W~2", SINK_PLACE: "o_W~1"}),
        ],
        ids=["pair-place", "source", "sink", "source-and-sink"],
    )
    def test_place_named_like_an_activity_is_renamed(self, sequences, renamed):
        log = log_from_sequences(sequences)
        net, intermediates = alpha(log)
        names = {SOURCE_PLACE, SINK_PLACE} | {place_name(a, b) for a, b in intermediates.y_w}
        assert net.places == {renamed.get(name, name) for name in names}
        assert net.source == renamed.get(SOURCE_PLACE, SOURCE_PLACE)
        assert net.sink == renamed.get(SINK_PLACE, SINK_PLACE)
        assert all(replay(net, trace).fits for trace in log.variants)

    @settings(deadline=None)
    @given(st.lists(st.lists(_NAMES_LIKE_PLACES, min_size=1, max_size=4), min_size=1, max_size=4))
    @example([["a", "b"], ["p({a},{b})"]])
    @example([["i_W", "o_W"], ["i_W~1"]])
    def test_names_like_places_never_break_mining(self, sequences):
        """No activity name makes alpha fail: its net is the net of the log
        with every activity renamed to a plain name, and a place keeps its
        own name unless an activity has it."""
        net, intermediates = _mine_quietly(log_from_sequences(sequences))
        alphabet = sorted({a for seq in sequences for a in seq})
        plain = {a: f"t{i}" for i, a in enumerate(alphabet)}
        expected, _ = _mine_quietly(log_from_sequences([[plain[a] for a in seq] for seq in sequences]))
        assert _place_signatures(net, plain.get) == _place_signatures(expected)
        names = {SOURCE_PLACE, SINK_PLACE} | {place_name(a, b) for a, b in intermediates.y_w}
        assert names - net.places <= set(alphabet)

    def test_dangling_activity_warns(self):
        # x only ever borders a and b in both orders: no causal partners,
        # not initial, not final, so its transition keeps no arcs.
        log = log_from_sequences(["axb", "bxa"])
        with pytest.warns(DanglingActivityWarning):
            net, _ = alpha(log)
        assert "x" in net.transitions
        assert not [arc for arc in net.arcs if "x" in arc]

    def test_deterministic_serialization(self, sample_log):
        first_net, first_inter = alpha(sample_log)
        second_net, second_inter = alpha(sample_log)
        assert to_json(first_net) == to_json(second_net)
        assert intermediates_to_json(first_inter) == intermediates_to_json(second_inter)

    @settings(deadline=None)
    @given(_small_logs)
    # Reaches a clique search state whose clique can still be extended.
    @example(log_from_sequences(["CEDBC", "CDF", "EDBAEF"]))
    def test_pair_sets_match_brute_force(self, log):
        _, intermediates = _mine_quietly(log)
        everything = brute_force_candidate_pairs(footprint(log))
        assert intermediates.x_w == everything
        assert intermediates.y_w == brute_force_maximal(everything)

    def test_x_w_is_built_on_first_access_only(self, sample_log):
        _, intermediates = alpha(sample_log)
        assert "x_w" not in vars(intermediates)
        assert intermediates.x_w == brute_force_candidate_pairs(footprint(sample_log))
        assert intermediates.x_w is vars(intermediates)["x_w"]

    def test_an_a_side_given_by_two_maximal_pairs(self):
        # {a} is the A side of ({a}, {c, d}) and a subset of ({a, b}, {c}).
        _, intermediates = alpha(log_from_sequences(["ac", "ad", "bc"]))
        assert intermediates.y_w == _pairs(("a", "cd"), ("ab", "c"))
        assert intermediates.x_w == _pairs(("a", "c"), ("a", "d"), ("a", "cd"), ("b", "c"), ("ab", "c"))
        x_w = json.loads(intermediates_to_json(intermediates))["X_W"]
        assert x_w == [
            [["a"], ["c"]],
            [["a"], ["c", "d"]],
            [["a"], ["d"]],
            [["a", "b"], ["c"]],
            [["b"], ["c"]],
        ]

    def test_complete_bipartite_pair_sets(self):
        _, intermediates = alpha(_complete_bipartite_log(8))
        assert len(intermediates.x_w) == (2**8 - 1) ** 2 == 65_025
        assert intermediates.y_w == _pairs(
            ({f"s{i}" for i in range(8)}, {f"t{i}" for i in range(8)})
        )

    @settings(deadline=None)
    @given(_small_logs)
    def test_mined_places_are_properly_wired(self, log):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DanglingActivityWarning)
            net, _ = alpha(log)
        for place in net.places - {SOURCE_PLACE, SINK_PLACE}:
            assert net.inputs(place) and net.outputs(place)
        assert not net.inputs(SOURCE_PLACE)
        assert not net.outputs(SINK_PLACE)

    def test_rediscovers_fixed_structured_nets(self):
        rng = random.Random(7)
        for _ in range(10):
            net = random_structured_net(rng)
            language = generate_traces(net, max_length=10, max_traces=50_000)
            assert language.complete
            mined, _ = alpha(log_from_sequences(sorted(language.traces)))
            assert isomorphic(mined, net)


class TestIntermediatesJson:
    def test_sample_log_bytes(self, sample_log):
        _, intermediates = alpha(sample_log)
        payload = json.loads(intermediates_to_json(intermediates))
        assert payload == {
            "T_W": ["A", "B", "C", "D", "E"],
            "T_I": ["A"],
            "T_O": ["D"],
            "X_W": [
                [["A"], ["B"]],
                [["A"], ["B", "E"]],
                [["A"], ["C"]],
                [["A"], ["C", "E"]],
                [["A"], ["E"]],
                [["B"], ["D"]],
                [["B", "E"], ["D"]],
                [["C"], ["D"]],
                [["C", "E"], ["D"]],
                [["E"], ["D"]],
            ],
            "Y_W": [
                [["A"], ["B", "E"]],
                [["A"], ["C", "E"]],
                [["B", "E"], ["D"]],
                [["C", "E"], ["D"]],
            ],
        }
        assert list(payload) == ["T_W", "T_I", "T_O", "X_W", "Y_W"]

    def test_ends_with_newline(self, sample_log):
        _, intermediates = alpha(sample_log)
        assert intermediates_to_json(intermediates).endswith("\n")

    @settings(deadline=None)
    @given(st.one_of(_small_logs, _odd_logs))
    def test_matches_indenting_encoder(self, log):
        _, intermediates = _mine_quietly(log)
        assert intermediates_to_json(intermediates) == _reference_json(intermediates)

    def test_matches_indenting_encoder_on_complete_bipartite_log(self):
        _, intermediates = alpha(_complete_bipartite_log(8))
        # Digests, so that a failure does not diff two 10 MB strings.
        got, want = intermediates_to_json(intermediates), _reference_json(intermediates)
        assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()

    @settings(deadline=None)
    @given(_pair_sets)
    @example(_pairs(("A", "B")))
    @example(_pairs(("A", "BC"), ("AB", "C"), ("C", "A")))
    def test_matches_indenting_encoder_on_any_pair_sets(self, y_w):
        names = frozenset(m for pair in y_w for side in pair for m in side)
        intermediates = AlphaIntermediates(names, names, names, y_w)
        assert intermediates_to_json(intermediates) == _reference_json(intermediates)

    def test_matches_indenting_encoder_on_empty_sets(self):
        empty = AlphaIntermediates(frozenset(), frozenset(), frozenset(), frozenset())
        assert intermediates_to_json(empty) == _reference_json(empty)

    def test_mine_writes_x_w_without_building_it(self, tmp_path, monkeypatch):
        log = _complete_bipartite_log(4)
        (tmp_path / "k44.csv").write_text(serialize_csv_log(log), encoding="utf-8")

        def refuse(y_w):
            raise AssertionError("X_W was built")

        # The package's name "alpha" is the function, so the module is looked up.
        monkeypatch.setattr(importlib.import_module("trailnet.alpha"), "_downward_closure", refuse)
        assert main(["mine", "--input", str(tmp_path / "k44.csv"), "--output", str(tmp_path / "m")]) == 0
        _, intermediates = alpha(log)
        assert (tmp_path / "m.alpha.json").read_text(encoding="utf-8") == _reference_json(intermediates)
