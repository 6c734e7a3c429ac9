import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asrlab.seeding import substream
from asrlab.transducer import (
    EmaState,
    MaskSpec,
    NgramLm,
    RnntLattice,
    beam_decode,
    brute_force_logprob,
    build_lm,
    ema_update,
    greedy_decode,
    log_softmax,
    make_stream_mask,
    random_lattice,
    receptive_field,
    rnnt_grad,
    rnnt_logprob,
)
from asrlab.transducer.lattice import _check_normalized
from asrlab.transducer.loss import BATCH_CELLS, finite_difference_grad, rnnt_logprobs
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

def lattice_with_holes(seed, T, U, V, hole_rate):
    """Random lattice whose symbols are -inf at about hole_rate of the cells; every slice keeps one."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(T, U + 1, V + 1))
    holes = rng.random(raw.shape) < hole_rate
    np.put_along_axis(holes, rng.integers(V + 1, size=(T, U + 1, 1)), False, axis=2)
    raw[holes] = -np.inf
    return RnntLattice(logits=log_softmax(raw, axis=2), targets=[int(y) for y in rng.integers(V, size=U)])


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
    lattices = [lattice_with_holes(seed + i, T, U, V, holes) for i, (T, U, V, holes) in enumerate(shapes)]
    assert rnnt_logprobs(lattices) == [oracles.rnnt_logprob(lat) for lat in lattices]


def test_batched_dp_splits_a_group_larger_than_one_batch():
    rng = np.random.default_rng(9)
    T, U, V = 6, 4, 1
    n = BATCH_CELLS // (T * (U + 1)) + 5  # one (T, U) group that fills more than one batch
    logits = log_softmax(rng.normal(size=(n, T, U + 1, V + 1)))
    lattices = [RnntLattice(logits=x, targets=[0] * U) for x in logits] + [random_lattice(rng, 1, 0, 2)]
    assert rnnt_logprobs(lattices) == [rnnt_logprob(lat) for lat in lattices]
    assert rnnt_logprobs([]) == []


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


def test_finite_difference_memory_is_bounded_in_v():
    lat = random_lattice(np.random.default_rng(6), 6, 4, 100)  # one unbatched pass would take ~150 MB
    tracemalloc.start()
    try:
        finite_difference_grad(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


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


# --- EMA ---------------------------------------------------------------------

def test_ema_decay_zero_copies_params():
    state = EmaState(shadow=np.zeros(4), decay=0.0)
    params = np.array([1.0, -2.0, 3.0, 4.0])
    assert np.array_equal(ema_update(state, params).shadow, params)


def test_ema_decay_one_freezes_shadow():
    state = EmaState(shadow=np.array([1.0, 2.0]), decay=1.0)
    out = ema_update(state, np.array([9.0, 9.0]))
    assert np.array_equal(out.shadow, np.array([1.0, 2.0]))


def test_ema_geometric_convergence():
    decay = 0.9
    params = np.array([1.0, 1.0, 1.0])
    state = EmaState(shadow=np.zeros(3), decay=decay)
    for k in range(1, 30):
        state = ema_update(state, params)
        # closed form: error ratio decays as decay^k
        np.testing.assert_allclose(params - state.shadow, decay**k * params, atol=1e-12)


def test_ema_dimension_mismatch():
    state = EmaState(shadow=np.zeros(3), decay=0.5)
    with pytest.raises(ValueError):
        ema_update(state, np.zeros(4))


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
