"""Sequences and labels hold their jumps as two columns and pair them only when ``jumps`` is read.

Every route that builds a sequence must give the same value, and the
projection and scoring paths must never ask for the pairs.
"""

import pickle

import numpy as np
import pytest

from stateseq import Labels, LtsParams, StateSequence, accuracy, lts_measure, project, project_labels
from stateseq.io import format_labels, read_labels, write_labels
from stateseq.sequence import _columns
from stateseq.simulate import NoiseModel, default_base_labels, generate_noisy_labels


def _built(obj) -> bool:
    """Whether the (time, state) pairs of ``obj`` have been built."""
    return "jumps" in obj.__dict__


def _random_jumps(rng, n_states=4):
    """An initial state and up to 12 valid pairs, the times multiples of 1/8 in (0, 10), so shifts are exact."""
    n = int(rng.integers(0, 13))
    times = (np.sort(rng.choice(np.arange(1, 80), size=n, replace=False)) / 8.0).tolist()
    states = [int(rng.integers(1, n_states + 1))]
    for _ in range(n):
        states.append(int(rng.choice([s for s in range(1, n_states + 1) if s != states[-1]])))
    return states[0], list(zip(times, states[1:]))


def _other(state, n_states=4):
    return state % n_states + 1


def _sequence_routes(s0, pairs):
    """The sequence (s0, pairs) built by every route there is."""
    times, states = [t for t, _ in pairs], [s for _, s in pairs]
    end = pairs[-1][1] if pairs else s0
    # The pairs with one jump before them and one after them.
    wider = StateSequence(_other(s0), ((-1.0, s0), *pairs, (11.0, _other(end))))
    back = StateSequence(s0, tuple((t - 0.25, s) for t, s in pairs))
    routes = {
        "constructor": StateSequence(s0, tuple(pairs)),
        "constructor from a list": StateSequence(s0, list(pairs)),
        "constructor from a generator": StateSequence(s0, (pair for pair in pairs)),
        "from_pairs": StateSequence.from_pairs(s0, pairs),
        "_from_columns": StateSequence._from_columns(s0, list(times), list(states)),
        "_slice": wider._slice(1, len(pairs) + 1),
        "shifted": back.shifted(0.25),
        "Labels to_anchored": Labels(10.0, 4, s0, pairs).to_anchored(),
        "Labels._within": Labels._within(10.0, 4, StateSequence(s0, pairs)).to_anchored(),
        "from_anchored": Labels.from_anchored(wider, 10.0, 4).to_anchored(),
        "pickle": pickle.loads(pickle.dumps(StateSequence(s0, pairs))),
    }
    built = StateSequence(s0, pairs)
    assert built.jumps == tuple(pairs)
    routes["pickle after jumps"] = pickle.loads(pickle.dumps(built))
    return routes


def _label_routes(s0, pairs):
    """The labels (10, 4, s0, pairs) built by every route there is."""
    wider = StateSequence(_other(s0), ((-1.0, s0), *pairs, (11.0, _other(pairs[-1][1] if pairs else s0))))
    routes = {
        "constructor": Labels(10.0, 4, s0, tuple(pairs)),
        "constructor from a list": Labels(10.0, 4, s0, list(pairs)),
        "from_pairs": Labels.from_pairs(10.0, 4, _other(s0), [(0.0, s0), *pairs, (10.0, 1)]),
        "_within": Labels._within(10.0, 4, StateSequence._from_columns(s0, [t for t, _ in pairs], [s for _, s in pairs])),
        "from_anchored": Labels.from_anchored(wider, 10.0, 4),
        "pickle": pickle.loads(pickle.dumps(Labels(10.0, 4, s0, pairs))),
    }
    built = Labels(10.0, 4, s0, pairs)
    assert built.jumps == tuple(pairs)
    routes["pickle after jumps"] = pickle.loads(pickle.dumps(built))
    return routes


PROBES = [-1.0, 0.0, 0.125, 1.0, 2.5, 5.0, 9.875, 10.0, 20.0]


def _state_at(s0, pairs, t):
    """The state after the last jump at or before t."""
    for time, state in pairs:
        if time <= t:
            s0 = state
    return s0


def test_every_sequence_route_gives_the_same_sequence():
    rng = np.random.default_rng(19)
    for _ in range(200):
        s0, pairs = _random_jumps(rng)
        want_repr = f"StateSequence(initial_state={s0!r}, jumps={tuple(pairs)!r})"
        routes = _sequence_routes(s0, pairs)
        first = routes["constructor"]
        for name, seq in routes.items():
            fresh = not _built(seq)
            # None of these reads builds the pairs.
            got = (
                seq.jump_times, seq.n_jumps, seq.final_state, seq.states_used, [seq.state_at(t) for t in PROBES],
                seq == first, hash(seq) == hash(first), repr(seq), _columns(seq)[1], seq.shifted(0.5).jump_times,
                seq._slice(min(1, seq.n_jumps), seq.n_jumps).jump_times, Labels.from_anchored(seq, 10.0, 4).n_jumps,
            )
            assert not (fresh and _built(seq)), name
            assert got == (
                tuple(t for t, _ in pairs), len(pairs), pairs[-1][1] if pairs else s0,
                tuple(sorted({s0, *(s for _, s in pairs)})), [_state_at(s0, pairs, t) for t in PROBES],
                True, True, want_repr, [s0, *(s for _, s in pairs)], tuple(t + 0.5 for t, _ in pairs),
                tuple(t for t, _ in pairs[1:]), len(pairs),
            ), name
            assert seq.jumps == tuple(pairs) and type(seq.jumps) is tuple, name
            assert all(type(pair) is tuple for pair in seq.jumps), name
            assert seq.jumps is seq.jumps and seq == first and hash(seq) == hash(first), name
        if pairs:  # a sequence differing in one state, or in one time, is another sequence
            k = int(rng.integers(0, len(pairs)))
            t, s = pairs[k]
            nxt = pairs[k + 1][1] if k + 1 < len(pairs) else None
            prev = pairs[k - 1][1] if k else s0
            s2 = next(x for x in range(1, 5) if x not in (s, nxt, prev))
            changed = [*pairs[:k], (t, s2), *pairs[k + 1 :]]
            moved = [*pairs[:k], (t - 1 / 16, s), *pairs[k + 1 :]]
            for other in (StateSequence(s0, changed), StateSequence(s0, moved)):
                assert first != other and other != first
            assert first != StateSequence(s0, pairs[:-1])
    assert StateSequence(1) != StateSequence(2) and StateSequence(1) == StateSequence(1, ())


def test_every_label_route_gives_the_same_labels():
    rng = np.random.default_rng(20)
    for _ in range(200):
        s0, pairs = _random_jumps(rng)
        want_repr = f"Labels(horizon=10.0, n_states=4, start_state={s0!r}, jumps={tuple(pairs)!r})"
        routes = _label_routes(s0, pairs)
        first = routes["constructor"]
        for name, labels in routes.items():
            fresh = not _built(labels)
            got = (labels.n_jumps, [labels.state_at(t) for t in PROBES], labels == first, hash(labels) == hash(first),
                   repr(labels), format_labels(labels), labels.to_anchored() == first.to_anchored())
            assert not (fresh and _built(labels)), name
            assert got == (len(pairs), [_state_at(s0, pairs, t) for t in PROBES], True, True,
                           want_repr, format_labels(Labels(10.0, 4, s0, tuple(pairs))), True), name
            assert labels.jumps == tuple(pairs) and labels == first and hash(labels) == hash(first), name
        assert first != Labels(20.0, 4, s0, pairs) and first != Labels(10.0, 5, s0, pairs)
    assert Labels(10.0, 4, 1) != Labels(10.0, 4, 2) and Labels(10.0, 4, 1) != StateSequence(1)


def test_sequences_and_labels_from_lists_equal_and_hash_like_tuples():
    for jumps in ([(1.0, 2)], [[1.0, 2]], iter([(1.0, 2)]), ((1.0, 2),)):
        seq = StateSequence(1, jumps)
        assert seq == StateSequence(1, ((1.0, 2),)) and hash(seq) == hash(StateSequence(1, ((1.0, 2),)))
        assert seq.jumps == ((1.0, 2),) and repr(seq) == "StateSequence(initial_state=1, jumps=((1.0, 2),))"
    for jumps in ([(1.0, 2)], [[1.0, 2]], iter([(1.0, 2)])):
        labels = Labels(5.0, 3, 1, jumps)
        assert labels == Labels(5.0, 3, 1, ((1.0, 2),)) and hash(labels) == hash(Labels(5.0, 3, 1, ((1.0, 2),)))
        assert labels.jumps == ((1.0, 2),) and labels.n_jumps == 1
    assert len({StateSequence(1, [(1.0, 2)]), StateSequence(1, ((1.0, 2),)), StateSequence(1)}) == 2


def test_sequences_and_labels_stay_immutable():
    seq, labels = StateSequence(1, ((1.0, 2),)), Labels(5.0, 3, 1, ((1.0, 2),))
    for obj, name in ((seq, "initial_state"), (seq, "jumps"), (seq, "_states"), (labels, "horizon")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 3)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert seq == StateSequence(1, ((1.0, 2),)) and labels == Labels(5.0, 3, 1, ((1.0, 2),))


def test_projecting_read_labels_never_builds_the_pairs(tmp_path):
    path = str(tmp_path / "noisy.csv")
    write_labels(path, generate_noisy_labels(default_base_labels(), NoiseModel(3.0, 1.0, seed=4)))
    labels = read_labels(path)
    out, result = project_labels(labels, 0.5)
    assert result.n_subproblems > 0 and 0 < out.n_jumps < labels.n_jumps
    text = format_labels(out)
    lts_measure(labels, out, LtsParams(0.6, 0.35))
    accuracy(labels, out)
    assert not _built(labels) and not _built(out) and not _built(result.projected)
    assert text == format_labels(Labels(out.horizon, out.n_states, out.start_state, out.jumps))


def test_projection_of_numpy_scalars_holds_python_floats_and_ints():
    # Long events outside the subproblems keep their own jumps; the short ones inside are solved.
    times = [1.0, 10.0, 10.2, 10.3, 20.0, 30.0, 30.1, 40.0]
    states = [2, 3, 1, 3, 1, 2, 3, 1]
    f = StateSequence(np.int64(1), tuple(zip(map(np.float64, times), map(np.int64, states))))
    assert all(type(t) is np.float64 and type(s) is np.int64 for t, s in f.jumps)
    for all_optimal in (False, True):
        result = project(f, 0.5, all_optimal=all_optimal)
        assert 0 < result.n_subproblems and result.projected.n_jumps < f.n_jumps
        for seq in (result.projected, *(result.optima or ())):
            assert seq.jumps and all(type(t) is float and type(s) is int for t, s in seq.jumps)
