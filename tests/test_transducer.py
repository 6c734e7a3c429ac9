import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asrlab.seeding import substream
from asrlab.transducer import (
    MaskSpec,
    NgramLm,
    RnntLattice,
    beam_decode,
    brute_force_logprob,
    build_lm,
    greedy_decode,
    log_softmax,
    make_stream_mask,
    random_lattice,
    receptive_field,
    rnnt_grad,
    rnnt_logprob,
)
from asrlab.transducer import lattice, loss
from asrlab.transducer.lattice import _check_normalized
from asrlab.transducer.loss import BATCH_CELLS, _oracle_pairs, finite_difference_grad
from asrlab.transducer.mask import FRAME_MS
from tests import transducer_oracles as oracles


def uniform_lattice(T, U, V, targets=None):
    logits = np.full((T, U + 1, V + 1), -math.log(V + 1))
    return RnntLattice(logits=logits, targets=targets if targets is not None else [0] * U)


# --- lattice ---------------------------------------------------------------

def test_lattice_validation():
    with pytest.raises(ValueError):
        RnntLattice(logits=np.zeros((2, 2, 3)), targets=[0])  # not normalized
    with pytest.raises(ValueError):
        RnntLattice(logits=log_softmax(np.zeros((2, 2, 3))), targets=[5])  # bad label
    with pytest.raises(ValueError):
        RnntLattice(logits=log_softmax(np.zeros((2, 3, 3))), targets=[0])  # U mismatch
    nan_cell = log_softmax(np.zeros((2, 2, 3)))
    nan_cell[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="not normalized"), np.errstate(invalid="ignore"):
        RnntLattice(logits=nan_cell, targets=[0])
    lat = uniform_lattice(3, 1, 2)
    assert (lat.T, lat.U, lat.V, lat.blank_id) == (3, 1, 2, 2)


@pytest.mark.parametrize("targets,position", [
    ([0.5], 0), ([1.0], 0), ([True], 0), (["1"], 0), ([0, np.float64(1.0)], 1), ([1, np.bool_(False)], 1),
])
def test_lattice_refuses_a_target_that_is_not_an_integer(targets, position):
    logits = log_softmax(np.zeros((2, len(targets) + 1, 3)))
    with pytest.raises(ValueError, match=f"target {position} is .*not an integer label"):
        RnntLattice(logits=logits, targets=targets)


def test_lattice_takes_numpy_integer_targets():
    lat = RnntLattice(logits=log_softmax(np.zeros((2, 3, 3))), targets=[np.int64(1), np.uint8(0)])
    assert brute_force_logprob(lat) == oracles.brute_force_logprob(lat)
    assert rnnt_logprob(lat) == oracles.rnnt_logprob(lat)


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 4), st.integers(1, 5)), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    block_cells=st.sampled_from([1, 50, 400, BATCH_CELLS]),
)
def test_batched_draws_match_random_lattice(shapes, seed, block_cells):
    # a repeated shape makes a batch of several lattices, whose draws interleave with other shapes';
    # a small BATCH_CELLS cuts the draws into several blocks, down to one lattice each
    rng = np.random.default_rng(seed)
    per_lattice = [random_lattice(rng, *shape) for shape in shapes]
    rng = np.random.default_rng(seed)
    with mock.patch.object(loss, "BATCH_CELLS", block_cells):
        pairs = list(_oracle_pairs(lattice._draw(rng, *shape) for shape in shapes))
    assert pairs == [(rnnt_logprob(lat), brute_force_logprob(lat)) for lat in per_lattice]


# --- forward / brute force ------------------------------------------------

def test_single_frame_no_labels():
    rng = np.random.default_rng(0)
    lat = random_lattice(rng, 1, 0, 2)
    assert rnnt_logprob(lat) == pytest.approx(float(lat.logits[0, 0, lat.blank_id]), abs=1e-12)
    assert brute_force_logprob(lat) == pytest.approx(rnnt_logprob(lat), abs=1e-12)


def test_uniform_two_alignments_hand_value():
    # T=2, U=1, V=1: exactly two monotone alignments, each of probability (1/2)^3
    lat = uniform_lattice(2, 1, 1)
    assert rnnt_logprob(lat) == pytest.approx(math.log(2 * 0.125), abs=1e-12)
    assert brute_force_logprob(lat) == pytest.approx(math.log(0.25), abs=1e-12)


def test_alignment_count_binomial():
    # uniform lattice probability = C(T-1+U, U) * p^(T+U) exposes the path count
    for T, U, V in [(2, 1, 1), (3, 2, 2), (4, 3, 1)]:
        lat = uniform_lattice(T, U, V)
        p = 1.0 / (V + 1)
        expected = math.comb(T - 1 + U, U) * p ** (T + U)
        assert brute_force_logprob(lat) == pytest.approx(math.log(expected), abs=1e-10)


def test_oracle_equivalence_random_lattices():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 5))
        U = int(rng.integers(0, 4))
        V = int(rng.integers(1, 4))
        lat = random_lattice(rng, T, U, V)
        lp = rnnt_logprob(lat)
        worst = max(worst, abs(lp - brute_force_logprob(lat)))
        assert lp <= 1e-12
    assert worst <= 1e-9


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_logprob(uniform_lattice(7, 1, 1))
    with pytest.raises(ValueError):
        brute_force_logprob(uniform_lattice(2, 5, 1, targets=[0] * 5))
    with pytest.raises(ValueError, match="brute force guard"):
        list(_oracle_pairs([(np.zeros((2, 2, 2)), [0]), (np.zeros((7, 2, 2)), [0])]))
    assert list(_oracle_pairs([])) == []


def test_logprob_zero_only_for_deterministic_single_path():
    # one-hot slices along the only alignment: log P == 0
    T, U, V = 3, 1, 1
    logits = np.full((T, U + 1, V + 1), -np.inf)
    # forced path: blank, blank, label, blank would be invalid; use emit-then-blanks
    logits[0, 0, 0] = 0.0      # emit label at t=0
    logits[0, 1, 1] = 0.0      # blank to t=1
    logits[1, 1, 1] = 0.0      # blank to t=2
    logits[2, 1, 1] = 0.0      # final blank
    logits[1, 0, 0] = 0.0      # normalize unreachable-row slices too
    logits[2, 0, 0] = 0.0
    lat = RnntLattice(logits=logits, targets=[0])
    assert rnnt_logprob(lat) == 0.0
    assert brute_force_logprob(lat) == 0.0


# --- array passes vs the cell-by-cell oracles --------------------------------

def draw_with_holes(seed, T, U, V, hole_rate):
    """Raw normals, -inf at about hole_rate of the cells but never at all of a slice, and U targets."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(T, U + 1, V + 1))
    holes = rng.random(raw.shape) < hole_rate
    np.put_along_axis(holes, rng.integers(V + 1, size=(T, U + 1, 1)), False, axis=2)
    raw[holes] = -np.inf
    return raw, [int(y) for y in rng.integers(V, size=U)]


def lattice_with_holes(seed, T, U, V, hole_rate):
    """Random lattice whose symbols are -inf at about hole_rate of the cells; every slice keeps one."""
    raw, targets = draw_with_holes(seed, T, U, V, hole_rate)
    return RnntLattice(logits=log_softmax(raw, axis=2), targets=targets)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 30),
    U=st.integers(0, 20),
    V=st.integers(1, 5),
    hole_rate=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_dp_matches_cell_by_cell_oracle(seed, T, U, V, hole_rate):
    lat = lattice_with_holes(seed, T, U, V, hole_rate)
    assert rnnt_logprob(lat) == oracles.rnnt_logprob(lat)
    try:
        want = oracles.rnnt_grad(lat)
    except ValueError:
        with pytest.raises(ValueError, match="zero probability"):
            rnnt_grad(lat)
        return
    np.testing.assert_array_equal(rnnt_grad(lat), want)


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 6), st.integers(0, 4), st.integers(1, 4), st.sampled_from([0.0, 0.3])),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_dp_matches_cell_by_cell_oracle(shapes, seed):
    # mixed shapes, repeated ones batched together; T = 1 and U = 0 included
    draws = [draw_with_holes(seed + i, T, U, V, holes) for i, (T, U, V, holes) in enumerate(shapes)]
    lattices = [RnntLattice(logits=log_softmax(raw, axis=2), targets=targets) for raw, targets in draws]
    assert [dp for dp, _ in _oracle_pairs(draws)] == [oracles.rnnt_logprob(lat) for lat in lattices]


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 6), st.integers(0, 4), st.integers(1, 5), st.sampled_from([0.0, 0.2, 0.5])),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_brute_force_matches_the_recursive_walk(shapes, seed):
    # -inf holes make paths, and whole lattices, of zero probability
    draws = [draw_with_holes(seed + i, T, U, V, holes) for i, (T, U, V, holes) in enumerate(shapes)]
    lattices = [RnntLattice(logits=log_softmax(raw, axis=2), targets=targets) for raw, targets in draws]
    assert [brute for _, brute in _oracle_pairs(draws)] == [oracles.brute_force_logprob(lat) for lat in lattices]


def test_dp_long_lattice_matches_oracle():
    lat = random_lattice(np.random.default_rng(2024), 1000, 200, 4)
    assert abs(rnnt_logprob(lat) - oracles.rnnt_logprob(lat)) <= 1e-9


# --- gradients -------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(12):
        T = int(rng.integers(2, 4))
        U = int(rng.integers(1, 3))
        V = int(rng.integers(2, 4))
        lat = random_lattice(rng, T, U, V)
        analytic = rnnt_grad(lat)
        fd = finite_difference_grad(lat)
        denom = max(float(np.max(np.abs(fd))), 1e-12)
        assert float(np.max(np.abs(analytic - fd))) / denom <= 1e-4


def test_batched_finite_differences_match_the_loop():
    rng = np.random.default_rng(41)
    shapes = rng.integers((1, 0, 1), (5, 4, 5), size=(8, 3))
    lattices = [random_lattice(rng, int(T), int(U), int(V)) for T, U, V in shapes]
    wide = random_lattice(rng, 2, 1, 99)  # 800 perturbations: more than one batch holds
    assert 2 * wide.logits.size > BATCH_CELLS // wide.logits.size
    for lat in [*lattices, wide]:
        np.testing.assert_array_equal(finite_difference_grad(lat), oracles.finite_difference_grad(lat))


def test_finite_differences_reject_a_lattice_that_stopped_being_normalized():
    lat = random_lattice(np.random.default_rng(2), 3, 2, 3)
    lat.logits[1, 2, 0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="not normalized"):
            oracles.finite_difference_grad(lat)
        with pytest.raises(ValueError, match="not normalized"):
            finite_difference_grad(lat)


def test_normalization_check_covers_every_slice_of_a_batch():
    batch = np.stack([random_lattice(np.random.default_rng(s), 3, 2, 3).logits for s in range(5)])
    _check_normalized(batch)
    batch[-1, 2, 1] += 2e-9  # one slice of the last lattice, just past the 1e-9 tolerance
    with pytest.raises(ValueError, match="not normalized"):
        _check_normalized(batch)


def test_normalization_check_verdicts_match_logaddexp_at_the_tolerance():
    # slices shifted off normalization by 1e-9 * (1 -/+ 1e-6), either sign: half sit just
    # inside the tolerance, half just outside, and each gets logaddexp.reduce's verdict
    rng = np.random.default_rng(5)
    shift = 1e-9 * (1.0 + rng.choice([-1e-6, 1e-6], size=400)) * rng.choice([-1.0, 1.0], size=400)
    slices = log_softmax(rng.normal(size=(400, 1, 4)), axis=2) + shift[:, None, None]
    verdicts = set()
    for one in slices:
        want = float(np.abs(np.logaddexp.reduce(one, axis=-1)).max()) <= 1e-9
        try:
            _check_normalized(one[None])
            got = True
        except ValueError:
            got = False
        assert got == want
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("value", [800.0, -800.0, -np.inf])
def test_normalization_check_refuses_overflow_and_underflow_quietly(value):
    logits = log_softmax(np.zeros((3, 2, 4)), axis=2)
    logits[1, 0] = value  # exp over- or underflows on every cell of this slice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not normalized"):
            _check_normalized(logits)


def test_normalization_check_spans_blocks_and_keeps_its_message():
    logits = log_softmax(np.zeros((3 * lattice._CHECK_CELLS // 12 + 5, 2, 6)), axis=2)
    _check_normalized(logits)
    logits[-1, 1, 2] += 6e-8  # one slice of the last block, its logsumexp now 1e-8
    worst = float(np.max(np.abs(np.logaddexp.reduce(logits, axis=-1))))
    with pytest.raises(ValueError) as err:
        _check_normalized(logits)
    assert str(err.value) == f"lattice slices not normalized: max |logsumexp| = {worst:.3g}"
    assert str(err.value).endswith("= 1e-08")


def test_finite_difference_memory_is_bounded_in_v():
    lat = random_lattice(np.random.default_rng(6), 6, 4, 100)  # one unbatched pass would take ~150 MB
    tracemalloc.start()
    try:
        finite_difference_grad(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 30),
    U=st.integers(0, 20),
    V=st.integers(1, 5),
    hole_rate=st.sampled_from([0.0, 0.2, 0.5]),
    block_cells=st.integers(1, 400),
)
def test_gradient_in_blocks_of_frames_matches_oracle(seed, T, U, V, hole_rate, block_cells):
    # a small BATCH_CELLS makes rnnt_grad turn the edge posteriors into the gradient over several blocks
    lat = lattice_with_holes(seed, T, U, V, hole_rate)
    try:
        want = oracles.rnnt_grad(lat)
    except ValueError:
        return
    with mock.patch.object(loss, "BATCH_CELLS", block_cells):
        np.testing.assert_array_equal(rnnt_grad(lat), want)


def test_gradient_memory_is_one_lattice_and_one_block():
    lat = random_lattice(np.random.default_rng(8), 200, 50, 100)
    assert 3 * BATCH_CELLS < lat.logits.size < 5 * BATCH_CELLS
    tracemalloc.start()
    try:
        rnnt_grad(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # edge posteriors that become the gradient, one BATCH_CELLS block, and (T, U+1) tables;
    # a second lattice-sized array for exp(logits) would read about 2.1
    assert peak < 1.6 * lat.logits.nbytes


def test_gradient_slice_sums_are_zero():
    rng = np.random.default_rng(3)
    lat = random_lattice(rng, 3, 2, 3)
    grad = rnnt_grad(lat)
    np.testing.assert_allclose(grad.sum(axis=2), 0.0, atol=1e-12)


def test_gradient_zero_on_unreachable_cells():
    # label edge out of (t, 0) is impossible: rows u>=1 are unreachable
    T, U, V = 3, 1, 2
    raw = np.zeros((T, U + 1, V + 1))
    raw[:, 0, 0] = -np.inf  # target label 0 gets zero probability at u=0
    logits = log_softmax(raw, axis=2)
    lat = RnntLattice(logits=logits, targets=[0])
    with pytest.raises(ValueError):
        rnnt_grad(lat)  # whole sequence has zero probability -> error
    # instead: block the label only after the first frame; (t<1, u=1) reachable only via t=0
    raw = np.zeros((T, U + 1, V + 1))
    raw[1:, :, 0] = -np.inf
    logits = log_softmax(raw, axis=2)
    lat = RnntLattice(logits=logits, targets=[0])
    grad = rnnt_grad(lat)
    assert np.all(np.isfinite(grad))


def test_gradient_hand_check_single_cell():
    # T=1, U=0: loss = -logit(0,0,blank); gradient wrt activations is softmax - onehot(blank)
    rng = np.random.default_rng(11)
    lat = random_lattice(rng, 1, 0, 2)
    grad = rnnt_grad(lat)
    softmax = np.exp(lat.logits[0, 0])
    expected = softmax.copy()
    expected[lat.blank_id] -= 1.0
    np.testing.assert_allclose(grad[0, 0], expected, atol=1e-12)


# --- greedy decoding ------------------------------------------------------

def blank_preferring_scorer(V):
    vec = log_softmax(np.array([0.0] * V + [5.0]))
    return lambda t, prefix: vec


def test_greedy_blank_scorer_emits_nothing():
    labels, confs = greedy_decode(blank_preferring_scorer(3), n_frames=4)
    assert labels == [] and confs == []


def test_greedy_spells_from_table():
    V = 3  # labels 0..2, blank=3
    def vec(label):
        raw = np.full(V + 1, -4.0)
        raw[label] = 3.0
        return log_softmax(raw)
    blank_vec = log_softmax(np.array([-4.0, -4.0, -4.0, 3.0]))
    table = {
        (0, ()): vec(2),
        (0, (2,)): blank_vec,
        (1, (2,)): vec(0),
        (1, (2, 0)): blank_vec,
        (2, (2, 0)): vec(1),
        (2, (2, 0, 1)): blank_vec,
    }
    scorer = lambda t, prefix: table.get((t, prefix), blank_vec)
    labels, confs = greedy_decode(scorer, n_frames=3)
    assert labels == [2, 0, 1]
    assert all(c == pytest.approx(float(np.exp(vec(0)[0])), abs=1e-9) for c in confs)


def test_greedy_max_symbols_bound():
    # never-blank scorer emits exactly one label per frame when capped at 1
    vec = log_softmax(np.array([2.0, 0.0, -5.0]))
    labels, _ = greedy_decode(lambda t, p: vec, n_frames=5, max_symbols_per_frame=1)
    assert labels == [0] * 5


# --- beam decoding ----------------------------------------------------------

def random_scorer(master_seed, V):
    """Deterministic random table scorer: vector depends only on (t, prefix)."""

    def score(t, prefix):
        rng = substream(master_seed, "scorer", t, prefix)
        return log_softmax(rng.normal(size=V + 1))

    return score


def test_beam_reduces_to_greedy():
    for seed in range(100):
        V = 2 + seed % 3
        scorer = random_scorer(seed, V)
        T = 2 + seed % 4
        greedy_labels, _ = greedy_decode(scorer, T, max_symbols_per_frame=3)
        beam_labels, _ = beam_decode(scorer, T, beam_size=1, max_symbols_per_frame=3)
        assert beam_labels == greedy_labels, f"seed {seed}"


def exhaustive_best(scorer, n_frames, max_symbols, lm=None, lm_weight=0.0):
    """DFS over every decode path; the max-score alignment is the oracle optimum."""
    best_score = -np.inf
    best_labels = ()

    def go(t, labels, score, emitted):
        nonlocal best_score, best_labels
        if t == n_frames:
            if score > best_score or (score == best_score and labels > best_labels):
                best_score, best_labels = score, labels
            return
        vec = scorer(t, labels)
        blank = len(vec) - 1
        go(t + 1, labels, score + float(vec[blank]), 0)
        if emitted < max_symbols:
            for v in range(blank):
                inc = lm_weight * lm.cond_logprob(labels, v) if lm is not None else 0.0
                go(t, labels + (v,), score + float(vec[v]) + inc, emitted + 1)

    go(0, (), 0.0, 0)
    return list(best_labels), best_score


def test_full_width_beam_matches_exhaustive_single_frame():
    # T=1, max one symbol: micro-step pools never exceed V+1 entries, so a
    # beam of V+1 provably explores every hypothesis
    for seed in range(50):
        V = 2
        scorer = random_scorer(1000 + seed, V)
        want, want_score = exhaustive_best(scorer, 1, 1)
        got, got_score = beam_decode(scorer, 1, beam_size=V + 1, max_symbols_per_frame=1)
        assert got == want and got_score == pytest.approx(want_score, abs=1e-12)


def test_lossless_beam_matches_exhaustive_two_frames():
    # pools over two frames hold at most (V+1)^2 entries; that beam width is
    # exhaustive (V+1 alone is not: greedy-compatible within-frame pruning may
    # drop a completed hypothesis that only later turns out optimal)
    for seed in range(300):
        V = 2
        scorer = random_scorer(2000 + seed, V)
        want, _ = exhaustive_best(scorer, 2, 1)
        got, _ = beam_decode(scorer, 2, beam_size=(V + 1) ** 2, max_symbols_per_frame=1)
        assert got == want, f"seed {seed}"


def test_lm_flips_ranking_above_crossover():
    # model prefers label 0, LM prefers label 1; crossover solved by hand
    V = 2
    first = log_softmax(np.log(np.array([0.5, 0.3, 0.2])))
    after = log_softmax(np.log(np.array([0.05, 0.05, 0.9])))
    table = {(0, ()): first}
    scorer = lambda t, prefix: table.get((t, prefix), after)
    lm = build_lm([[1] * 9 + [0]], n=1, k_smoothing=0.01)
    # score(0) = log .45 + w log P(0); score(1) = log .27 + w log P(1)
    p0 = math.exp(lm.cond_logprob((), 0))
    p1 = math.exp(lm.cond_logprob((), 1))
    crossover = math.log(0.45 / 0.27) / math.log(p1 / p0)
    assert crossover == pytest.approx(0.2334, abs=0.01)
    below, _ = beam_decode(scorer, 1, lm=lm, lm_weight=crossover * 0.5, beam_size=3, max_symbols_per_frame=1)
    above, _ = beam_decode(scorer, 1, lm=lm, lm_weight=crossover * 2.0, beam_size=3, max_symbols_per_frame=1)
    assert below == [0]
    assert above == [1]


def tie_heavy_scorer(master_seed, V):
    """Scorer over whole-number scores, so that labels and hypotheses often tie."""

    def score(t, prefix):
        rng = substream(master_seed, "ties", t, prefix)
        return np.round(2.0 * rng.normal(size=V + 1)) - 3.0

    return score


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    V=st.integers(1, 4),
    n_frames=st.integers(1, 4),
    beam=st.integers(1, 5),
    max_symbols=st.integers(1, 3),
    lm_order=st.integers(1, 3),
    lm_weight=st.sampled_from([None, 0.5, 1.0]),
)
def test_beam_matches_full_expansion_oracle(seed, V, n_frames, beam, max_symbols, lm_order, lm_weight):
    scorer = tie_heavy_scorer(seed, V)
    lm = None
    if lm_weight is not None:
        corpus = np.random.default_rng(seed).integers(V, size=(4, 5)).tolist()
        lm = build_lm(corpus, lm_order, vocabulary=range(V))
    kw = dict(lm=lm, lm_weight=lm_weight or 0.0, beam_size=beam, max_symbols_per_frame=max_symbols)
    assert beam_decode(scorer, n_frames, **kw) == oracles.beam_decode(scorer, n_frames, **kw)


class RecordingTable:
    """Whole-number scorer rows keyed by (t, prefix length mod k, last label), logging each call."""

    def __init__(self, seed, n_frames, V, k=3):
        rng = np.random.default_rng(seed)
        self.table = np.round(2.0 * rng.normal(size=(n_frames, k, V + 1, V + 1))) - 3.0
        self.table[..., -1] -= rng.integers(0, 4)  # a blank handicap makes the prefixes long
        self.calls = []

    def __call__(self, t, prefix):
        self.calls.append((t, prefix))
        k, last = self.table.shape[1], prefix[-1] if prefix else -1
        return self.table[t, len(prefix) % k, last]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    V=st.integers(1, 6),
    n_frames=st.integers(20, 40),
    beam=st.integers(1, 8),
    max_symbols=st.integers(1, 3),
    lm_weight=st.sampled_from([None, 0.5]),
)
def test_long_beam_decode_calls_the_scorer_as_the_oracle_does(seed, V, n_frames, beam, max_symbols, lm_weight):
    lm = None
    if lm_weight is not None:
        corpus = np.random.default_rng(seed).integers(V, size=(6, 8)).tolist()
        lm = build_lm(corpus, 3, vocabulary=range(V))
    kw = dict(lm=lm, lm_weight=lm_weight or 0.0, beam_size=beam, max_symbols_per_frame=max_symbols)
    got_scorer, want_scorer = RecordingTable(seed, n_frames, V), RecordingTable(seed, n_frames, V)
    assert beam_decode(got_scorer, n_frames, **kw) == oracles.beam_decode(want_scorer, n_frames, **kw)
    assert got_scorer.calls == want_scorer.calls


def test_beam_decode_memory_holds_only_live_hypotheses():
    # the bench's decoding shape: 200 frames, beam 8, 12 labels, a trigram LM; the
    # output runs to hundreds of labels, so a label tuple cached per search node
    # (thousands of them) would take several MiB
    rng = np.random.default_rng(0)
    table = log_softmax(2.0 * rng.normal(size=(200, 5, 13)), axis=2)
    lm = build_lm(rng.integers(0, 12, size=(200, 12)).tolist(), 3, vocabulary=range(12))
    scorer = lambda t, prefix: table[t, len(prefix) % 5]
    tracemalloc.start()
    try:
        labels, _ = beam_decode(scorer, 200, lm=lm, lm_weight=0.3, beam_size=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) > 300
    assert peak < 1 << 20


def test_decoders_refuse_a_nan_score_naming_its_frame():
    row = np.log([0.2, 0.3, 0.5])
    nan_blank = row.copy()
    nan_blank[-1] = np.nan
    with pytest.raises(ValueError, match="frame 1 holds NaN"):
        beam_decode(lambda t, prefix: nan_blank if t == 1 else row, 3)
    nan_label = row.copy()
    nan_label[0] = np.nan
    with pytest.raises(ValueError, match="frame 0 holds NaN"):
        greedy_decode(lambda t, prefix: nan_label, 2)
    plus_inf = row.copy()
    plus_inf[1] = np.inf  # -inf + inf would rank a later hypothesis as NaN
    for decode in (greedy_decode, beam_decode):
        with pytest.raises(ValueError, match="frame 0 holds NaN or \\+inf"):
            decode(lambda t, prefix: plus_inf, 2)


def test_beam_validation():
    scorer = random_scorer(0, 2)
    with pytest.raises(ValueError):
        beam_decode(scorer, 1, beam_size=0)
    with pytest.raises(ValueError):
        beam_decode(scorer, 1, lm_weight=-0.1)
    lm = build_lm([[0, 1, 1]], n=2)
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            beam_decode(scorer, 1, lm=lm, lm_weight=weight)


# --- streaming masks ---------------------------------------------------------

def test_mask_exhaustive_causality():
    for n_frames in range(1, 65):
        for chunk in (1, 2, 3, 5, 8, 11):
            for left in (0, 1, 3):
                spec = MaskSpec(n_frames=n_frames, chunk_frames=chunk, n_layers=2, left_context=left)
                masks = make_stream_mask(spec)
                assert len(masks) == 2
                for mask in masks:
                    for i in range(n_frames):
                        chunk_start = (i // chunk) * chunk
                        chunk_end = min(n_frames, chunk_start + chunk)
                        # never beyond the chunk's right edge
                        assert not mask[i, chunk_end:].any()
                        # full own chunk plus clamped left context, nothing more
                        lo = max(0, chunk_start - left)
                        assert mask[i, lo:chunk_end].all()
                        assert not mask[i, :lo].any()


def test_mask_is_one_read_only_array_per_layer():
    spec = MaskSpec(n_frames=10, chunk_frames=3, n_layers=4, left_context=2)
    masks = make_stream_mask(spec)
    assert len(masks) == 4 and all(m.shape == (10, 10) and m.dtype == bool for m in masks)
    assert all(np.array_equal(m, masks[0]) for m in masks)
    for mask in masks:
        assert not mask.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 9] = True
    assert not masks[0][0, 9]


def test_receptive_field_paper_configuration():
    # 11 subsampled frames at 10 ms stride, 8x subsampling: exactly 880 ms
    spec = MaskSpec(n_frames=32, chunk_frames=6, n_layers=5, left_context=1)
    assert receptive_field(spec) == 11
    assert receptive_field(spec) * FRAME_MS == 880.0


def test_receptive_field_strictly_increasing_in_depth():
    values = [
        receptive_field(MaskSpec(n_frames=16, chunk_frames=4, n_layers=layers, left_context=1))
        for layers in range(1, 18)
    ]
    assert values == sorted(values) and len(set(values)) == len(values)
    assert values[-1] == 4 + 17


def test_mask_spec_validation():
    with pytest.raises(ValueError):
        MaskSpec(n_frames=4, chunk_frames=0, n_layers=1, left_context=0)
    with pytest.raises(ValueError):
        MaskSpec(n_frames=4, chunk_frames=1, n_layers=0, left_context=0)


# --- n-gram LM ---------------------------------------------------------------

def test_lm_hand_counts():
    lm = build_lm([["a", "b", "a", "b"]], n=2, k_smoothing=0.01)
    # history ("a",) seen twice, both followed by "b"
    assert lm.cond_logprob(("a",), "b") == pytest.approx(math.log((2 + 0.01) / (2 + 0.02)))
    assert lm.cond_logprob(("a",), "a") == pytest.approx(math.log(0.01 / 2.02))


def test_lm_conditionals_sum_to_one():
    corpus = [["a", "b", "c", "a"], ["b", "b", "a"]]
    lm = build_lm(corpus, n=3, k_smoothing=0.5)
    histories = list(lm.ngram_counts) + [("z", "z")]
    for h in histories:
        total = sum(math.exp(lm.cond_logprob(h, w)) for w in lm.vocabulary)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_lm_empty_corpus_uniform():
    lm = build_lm([], n=2, vocabulary=["x", "y", "z", "w"])
    assert lm.cond_logprob(("x",), "y") == pytest.approx(math.log(0.25))
    with pytest.raises(ValueError):
        build_lm([], n=2)


def test_lm_oov_rejected():
    lm = build_lm([["a", "b"]], n=1)
    with pytest.raises(ValueError):
        lm.cond_logprob((), "zzz")


def test_lm_validation():
    with pytest.raises(ValueError):
        build_lm([["a"]], n=0)
    with pytest.raises(ValueError):
        NgramLm(order=2, k=0.0, vocabulary=("a",))
