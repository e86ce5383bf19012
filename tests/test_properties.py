"""Property tests: ranks and rank cuts under tied scores, set sizes and hits of query rows shared by several pairs
against brute-force sets on each pair's own mask and nonconformity row and, on softmax rows, against predict_set
over rank_of, APS and RAPS nonconformity down the descending-score order, the calibration rank cutoff, the
tuning cut of the calibration pairs, the conformal quantile, the leave-one-out coverage of kgcp and mcp, the predicate partition under tied distances, the stored per-part counts
and score-only thresholds against their refit, the calibrated-model and predicate-vector files (round trip and
truncation), the negative sampler against its per-candidate loop, the flat scatter and the plane steps against the
2-D scatter, the columnar queries, filter masks and score export against their per-pair versions, the one masked
row the pairs of a query share, each pair's answer facts that the block pass yields, score-file rows read on demand
against the matrix, and the synthetic generator against its ``rng.choice`` loop."""

import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgconformal import experiment, models
from kgconformal.conformal import (CalibratedModel, PartCalibration, PredicatePartition, build_partition,
                                   fit_condkgcp, fit_part_mcp, predict_set, quantile, query_filters, rank_threshold,
                                   score_only, set_outcomes)
from kgconformal.kg import (DIRECTIONS, KGError, Query, QueryAnswerSet, SplitConfig, filter_masks, make_queries,
                            rank_cuts, rank_of, split_triples)
from kgconformal.models import (ScoreFile, ScoreMatrix, _sample_negatives, _triple_keys, export_predicate_vectors,
                                export_scores, import_predicate_vectors, import_scores)
from kgconformal.scores import ScorerConfig, log_sum_exp, nonconformity, softmax_at, softmax_scores
from kgconformal.synth import SyntheticKGSpec, generate_triples
from kgconformal.verify import leave_one_out_hits

import query_oracle
import split_oracle
import synth_oracle
import train_oracle
from rank_oracle import candidate_ranks
from score_rows import sorted_form


SCALES = [1e-17, 1.0, 40.0, 800.0]  # raw-score scales: p ties from rounding, 1, p below 1e-17, p underflowing to 0


@st.composite
def tied_scores_and_mask(draw):
    """Small integer scores, so ties are common, and a random mask of entity indices."""
    scores = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
    mask = draw(st.sets(st.integers(0, len(scores) - 1)))
    return np.array(scores, dtype=np.float64), mask


@given(tied_scores_and_mask())
def test_candidate_ranks_match_rank_of_and_brute_force_under_ties(case):
    scores, mask = case
    ranks = candidate_ranks(scores, mask)
    kept = [e for e in range(scores.size) if e not in mask]
    for e in range(scores.size):
        if e in mask:
            assert ranks[e] == 0
        else:
            assert ranks[e] == rank_of(scores, e, mask) == sum(scores[c] >= scores[e] for c in kept)


@st.composite
def shared_rows(draw, scores):
    """Query rows of ``scores`` (one per row) that 1 to 4 pairs share, and each row's mask: its known
    answers (its drawn mask plus every pair's answer) when filtered, nothing when raw (both forms drawn).  Returns
    ``(rows, answers, masks)``: rows and answers in pair order, one mask per row.  A pair's own mask is its row's but
    its answer."""
    filtered = draw(st.booleans())
    rows, answers, masks = [], [], []
    for row, (values, extra) in enumerate(scores):
        own = draw(st.lists(st.integers(0, values.size - 1), min_size=1, max_size=min(4, values.size),
                            unique=True))
        rows += [row] * len(own)
        answers += own
        masks.append(set(extra) | set(own) if filtered else set())
    return rows, answers, masks


def block_pass_inputs(case, data):
    """A :func:`shared_rows` case as the block pass takes it: ``(source, rows, answers, indptr, indices)``.  The
    drawn rows are padded to one width with scores below every drawn one, the pairs come in a drawn order, and each
    score row has one CSR mask."""
    cases, (rows, answers, masks) = case
    n, width = len(cases), max(scores.size for scores, _ in cases)
    raw = np.full((n, width), -5.0)
    for i, (scores, _) in enumerate(cases):
        raw[i, : scores.size] = scores
    order = data.draw(st.permutations(range(len(rows))))
    indptr = np.cumsum([0] + [len(m) for m in masks])
    indices = np.array([e for m in masks for e in sorted(m)], dtype=np.int64)
    queries = np.column_stack((np.zeros(n, dtype=np.int64), np.arange(n), np.zeros(n, dtype=np.int64)))
    return ScoreMatrix(queries=queries, scores=raw), np.array(rows)[order], np.array(answers)[order], indptr, indices


@given(st.lists(tied_scores_and_mask(), min_size=1, max_size=9).flatmap(
    lambda cases: st.tuples(st.just(cases), shared_rows(cases))), st.data())
def test_block_answer_ranks_match_rank_of_and_brute_force_under_ties(case, data):
    """The calibration ranks of ``prepare_run`` and ``verify``: query rows shared by 1-4 pairs, pairs in shuffled
    order over blocks of 2, so a query's pairs straddle blocks; each pair is checked on its own mask."""
    source, rows, answers, indptr, indices = block_pass_inputs(case, data)
    raw, masks = source.scores, case[1][2]
    with mock.patch.object(experiment, "EVAL_BLOCK_ROWS", 2):  # several blocks
        nonconf, ranks = experiment.answer_nonconf_and_ranks(ScorerConfig(), source, rows, answers, indptr, indices)
    for j, (row, a) in enumerate(zip(rows.tolist(), answers.tolist())):
        mask = masks[row] - {a}
        kept = [e for e in range(raw.shape[1]) if e not in mask]
        assert ranks[j] == rank_of(raw[row], a, mask) == sum(raw[row, c] >= raw[row, a] for c in kept)
        assert nonconf[j] == softmax_scores(raw[row])[a]


@given(st.lists(tied_scores_and_mask(), min_size=1, max_size=6).flatmap(
    lambda cases: st.tuples(st.just(cases), shared_rows(cases))), st.sampled_from(["softmax", "aps", "raps"]),
    st.sampled_from(SCALES), st.data())
def test_score_blocks_yield_each_pairs_answer_facts(case, kind, scale, data):
    """The block pass yields, per pair, its answer's raw score, its answer's nonconformity under its own draw bit
    for bit, and ``e_j`` as "its row's CSR mask holds the answer"; each row's owner is its first pair in the block.
    Every scorer yields one masked row per distinct query of the block.  Once the block is sorted, every unmasked
    position of a pair's row reads, bit for bit, the pair's own ``nonconformity`` of the entity there: by ascending
    score, ties by descending index.  Query rows are shared by 1-4 pairs, filtered or raw, in shuffled order over
    blocks of 1-3 pairs, so queries straddle blocks.  Scale 1e-17 rounds distinct scores to one p, at 40 the tail
    probabilities fall below 1e-17, and at 800 they underflow to 0."""
    source, rows, answers, indptr, indices = block_pass_inputs(case, data)
    raw = scale * source.scores
    source = ScoreMatrix(queries=source.queries, scores=raw)
    draws = 3 + np.array(data.draw(st.permutations(range(rows.size))))
    scorer = ScorerConfig(kind=kind, raps_lambda=data.draw(st.sampled_from([0.01, 0.2])),
                          raps_k_reg=data.draw(st.integers(1, 3)), rng_seed=data.draw(st.integers(0, 3)))
    width = raw.shape[1]
    seen = np.zeros(rows.size, dtype=int)
    with mock.patch.object(experiment, "EVAL_BLOCK_ROWS", data.draw(st.integers(1, 3))):
        for block, unit, owner, nonconf_at, masked, answer_raw, answer_nonconf, added in experiment._score_blocks(
                scorer, source, rows, answers, indptr, indices, draws):
            assert len(masked) == len(owner) == np.unique(rows[block]).size
            masked.sort(axis=1)
            read = nonconf_at(np.broadcast_to(np.arange(width)[:, None], (width, block.size)))
            for i, (j, u) in enumerate(zip(block.tolist(), unit.tolist())):
                row, a = rows[j], answers[j]
                own = nonconformity(raw[row], scorer, query_index=int(draws[j]))
                assert answer_raw[i] == raw[row, a]
                assert answer_nonconf[i] == own[a]
                known = indices[indptr[row] : indptr[row + 1]]
                assert added[i] == (a in known)
                assert owner[u] == block[np.flatnonzero(unit == u)[0]]
                kept = np.setdiff1d(np.arange(width), known)
                there = kept[np.lexsort((-kept, raw[row, kept]))]  # the entity at each unmasked position
                assert np.array_equal(masked[u, width - kept.size :], raw[row, there])
                assert np.array_equal(read[width - kept.size :, i], own[there])
            seen[block] += 1
    assert np.all(seen == 1)


@given(tied_scores_and_mask())
def test_rank_cut_selects_exactly_the_ranks_within_the_cutoff_under_ties(case):
    scores, mask = case
    ranks = candidate_ranks(scores, mask)
    masked = scores.copy()
    masked[list(mask)] = -np.inf
    n = scores.size
    cuts = rank_cuts(np.sort(masked)[None, :], np.arange(n + 2)[None, :])[0]
    for k in range(n + 2):
        within = {e for e in range(n) if e not in mask and ranks[e] <= k}
        assert {e for e in range(n) if masked[e] > cuts[k]} == within


@given(hnp.arrays(np.float64, st.integers(1, 12), elements=st.integers(-2, 2)), st.sampled_from([1.0, 40.0, 800.0]))
def test_softmax_scores_do_not_decrease_as_raw_falls(grid, scale):
    """-log p is ``lse - raw``, so it does not fall where raw falls, ties with raw and stays finite: also where p
    lies below 1e-17 (scale 40) or underflows to 0 (scale 800)."""
    raw = scale * grid
    nonconf = softmax_scores(raw)
    order = np.argsort(-raw, kind="stable")
    assert np.all(np.diff(nonconf[order]) >= 0)
    assert np.all((np.diff(nonconf[order]) == 0) == (np.diff(raw[order]) == 0))
    assert np.all(np.isfinite(nonconf))


@given(hnp.arrays(np.float64, st.integers(1, 12), elements=st.integers(-8, 8)), st.sampled_from(SCALES),
       st.sampled_from(["aps", "raps"]), st.sampled_from([0.0, 0.01, 0.2]), st.integers(1, 4), st.integers(0, 50))
def test_aps_and_raps_do_not_decrease_down_the_descending_score_order(grid, scale, kind, lam, k_reg, query):
    """Along the stable descending-score order (ties by index) APS and RAPS nonconformity never falls, also where
    distinct scores round to one p (scale 1e-17), p lies below 1e-17 (40) or underflows to 0 (800), so a set
    ``nonconf <= t`` is a top of the row's scores: the invariant the bisection in ``set_outcomes`` rests on."""
    raw = scale / 4 * grid
    nonconf = nonconformity(raw, ScorerConfig(kind=kind, raps_lambda=lam, raps_k_reg=k_reg), query_index=query)
    assert np.all(np.diff(nonconf[np.argsort(-raw, kind="stable")]) >= 0)


def softmax_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each raw row's ``softmax_scores`` and its ``log_sum_exp``, from which ``softmax_at`` reads a sorted row."""
    return np.array([softmax_scores(row) for row in raw]), np.array([log_sum_exp(row) for row in raw])


def scored(scorer: ScorerConfig, raw: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each pair's own ``nonconformity`` row: pair ``j`` draws as query ``j`` over its row ``raw[rows[j]]``."""
    return np.array([nonconformity(raw[r], scorer, query_index=j) for j, r in enumerate(rows.tolist())])


@st.composite
def set_outcome_cases(draw):
    """Query rows of rounded raw scores (a grid of quarters times a scale of :data:`SCALES`), masked once and shared
    by 1-4 pairs each (:func:`shared_rows`; some rows know every entity), and several filters per call, one per
    row.  Each pair has a nonconformity row of its own, drawn through ``nonconformity``: softmax (given as each
    row's log-sum-exp), or APS or RAPS with a u per pair.  Thresholds are at 0, 0.25, 0.5, 1, at one of the row's
    pairs' own values, +inf or NaN; cutoffs of a filter without a rank cut are all at least the row width, those of
    a ranked filter anywhere in 0..width+1."""
    n_rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    scale = draw(st.sampled_from(SCALES))
    raw = scale / 4 * draw(hnp.arrays(np.float64, (n_rows, width), elements=st.integers(-8, 8)))
    known = [set(range(width)) if draw(st.booleans()) else draw(st.sets(st.integers(0, width - 1)))
             for _ in range(n_rows)]
    rows, answers, masks = draw(shared_rows(list(zip(raw, known))))
    rows, answers = np.array(rows), np.array(answers)
    scorer = ScorerConfig(kind=draw(st.sampled_from(["softmax", "aps", "raps"])),
                          raps_lambda=draw(st.sampled_from([0.01, 0.2])), raps_k_reg=draw(st.integers(1, 3)),
                          rng_seed=draw(st.integers(0, 3)))
    nonconf = scored(scorer, raw, rows)
    lse = softmax_rows(raw)[1] if scorer.kind == "softmax" else None
    thresholds, cutoffs = [], []
    for _ in range(draw(st.integers(1, 8))):
        thresholds.append([draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.inf, math.nan,
                                                 *nonconf[rows == r].ravel().tolist()]))
                           for r in range(n_rows)])
        low = 0 if draw(st.booleans()) else width
        cutoffs.append(draw(st.lists(st.integers(low, width + 1), min_size=n_rows, max_size=n_rows)))
    return nonconf, raw, rows, answers, masks, np.array(thresholds), np.array(cutoffs, dtype=np.int64), lse


TIED = np.array([[1.0, 1.0, 0.0]])
SPREAD = np.array([[1.0, 2.0, 0.0]])
SPREAD_APS = scored(ScorerConfig(kind="aps"), SPREAD, np.array([0]))


@given(set_outcome_cases())
# a tie at the threshold, a NaN threshold beside a finite one, a masked entity under the threshold, a ranked filter
@example((SPREAD_APS, SPREAD, np.array([0]), np.array([0]), [{1}],
          SPREAD_APS[0, [[0], [0], [0]]] + np.array([[0.0], [math.nan], [0.0]]), np.array([[3], [3], [1]]), None))
# two pairs whose answers the row masks: the first scores exactly b_1, the only unmasked score, the second below it
@example((softmax_rows(TIED)[0][[0, 0]], TIED, np.array([0, 0]), np.array([0, 2]), [{0, 2}],
          np.array([[math.inf], [math.inf]]), np.array([[1], [2]]), softmax_rows(TIED)[1]))
def test_set_outcomes_match_brute_force_sets_with_many_filters_per_call(case):
    """Each (filter, pair) size and hit equals the brute-force set on the pair's own mask and nonconformity row:
    candidates with ``nonconf <= threshold`` and a pessimistic filtered rank within the cutoff: its row's mask but
    its answer.  Rows go in sorted; softmax rows are read through their log-sum-exp (``softmax_at``), APS and RAPS
    rows through each pair's own row at the entity in each position.  The inputs come back unchanged."""
    nonconf, raw, rows, answers, masks, thresholds, cutoffs, lse = case
    masked, ordered, nonconf_at = sorted_form(raw, masks, rows, nonconf)
    if lse is not None:
        nonconf_at = softmax_at(lse, ordered, rows)
    inputs = (ordered, thresholds, cutoffs, rows, nonconf[np.arange(rows.size), answers], raw[rows, answers],
              masked[rows, answers] == -np.inf)
    before = [x.copy() for x in (nonconf, *inputs)]
    sizes, hits = set_outcomes(inputs[0], nonconf_at, *inputs[1:])
    for got, was in zip((nonconf, *inputs), before):
        assert np.array_equal(got, was, equal_nan=got.dtype.kind == "f")
    for f, j in np.ndindex(sizes.shape):
        row = rows[j]
        kept = [e for e in range(raw.shape[1]) if e not in masks[row] - {answers[j]}]
        members = {e for e in kept if nonconf[j, e] <= thresholds[f, row]
                   and sum(raw[row, c] >= raw[row, e] for c in kept) <= cutoffs[f, row]}
        assert sizes[f, j] == len(members)
        assert hits[f, j] == (answers[j] in members)


@st.composite
def softmax_cases(draw):
    """Softmax query rows on an integer grid times a scale, each shared by 1-4 pairs and masked once
    (:func:`shared_rows`), and 1-4 models with one part per row.  Scale 1 ties raw scores; at 40 the tail
    probabilities fall below 5.5e-17, where 1 - p would round to exactly 1.0; at 800 they underflow to p = 0.  A
    part's threshold is one of its row's own -log p values, the float below one, 0, +inf or NaN; its rank cutoff
    is none (a -inf cut) or 0..width."""
    n_rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1.0, 40.0, 800.0]))
    raw = scale * draw(hnp.arrays(np.float64, (n_rows, width), elements=st.integers(-2, 2)))
    nonconf, lse = softmax_rows(raw)
    known = [draw(st.sets(st.integers(0, width - 1))) for _ in range(n_rows)]
    rows, answers, masks = draw(shared_rows(list(zip(raw, known))))
    partition = PredicatePartition(parts=[[r] for r in range(n_rows)], phi=1)
    fitted = []
    for _ in range(draw(st.integers(1, 4))):
        per_part = {}
        for r in range(n_rows):
            t = draw(st.sampled_from([*nonconf[r].tolist(), *np.nextafter(nonconf[r], -np.inf).tolist(), 0.0,
                                      math.inf, math.nan]))
            per_part[r] = PartCalibration(draw(st.none() | st.integers(0, width)), 0.0, 0.1, t, 1, t)
        fitted.append(CalibratedModel("condkgcp", 0.1, per_part, partition))
    return raw, nonconf, lse, np.array(rows), np.array(answers), masks, fitted


def two_cut_row():
    """One filtered row, 40 * (3, 2, 1, 0), whose two pairs' answers (entities 0 and 2) it masks: at cutoff 1 the
    first answer beats b_1 and cuts there, the second cuts at b_2.  Below the top entity every p is below 1e-17, so
    1 - p would be 1.0 there; the thresholds are entity 2's -log p and the float below it."""
    raw = 40.0 * np.array([[3.0, 2.0, 1.0, 0.0]])
    nonconf, lse = softmax_rows(raw)
    fitted = [CalibratedModel("condkgcp", 0.1, {0: PartCalibration(1, 0.0, 0.1, t, 1, t)})
              for t in (nonconf[0, 2], math.nextafter(nonconf[0, 2], 0.0))]
    return raw, nonconf, lse, np.array([0, 0]), np.array([0, 2]), [{0, 2}], fitted


@given(softmax_cases())
@example(two_cut_row())
def test_softmax_sizes_match_predict_set_over_rank_of(case):
    """The softmax path (``set_outcomes`` given the sorted rows, read through their log-sum-exp) sizes each
    (model, pair) as ``predict_set`` does, given every candidate's ``rank_of`` on the pair's own mask: its row's
    mask but its answer.  Distinct raw scores of a row get distinct -log p, also where p lies below 1e-17 or
    underflows."""
    raw, nonconf, lse, rows, answers, masks, fitted = case
    n_rows, width = raw.shape
    for r in range(n_rows):
        assert np.unique(nonconf[r]).size == np.unique(raw[r]).size
    masked = raw.copy()
    for r, mask in enumerate(masks):
        masked[r, sorted(mask)] = -np.inf
    ordered = np.sort(masked, axis=1)
    filters = [query_filters(model, np.arange(n_rows), width) for model in fitted]
    sizes, hits = set_outcomes(ordered, softmax_at(lse, ordered, rows), np.stack([t for t, _ in filters]),
                               np.stack([k for _, k in filters]), rows, nonconf[rows, answers], raw[rows, answers],
                               masked[rows, answers] == -np.inf)
    for j, (r, a) in enumerate(zip(rows.tolist(), answers.tolist())):
        mask = masks[r] - {a}
        ranks = np.array([0 if e in mask else rank_of(raw[r], e, mask) for e in range(width)])
        for f, model in enumerate(fitted):
            members = predict_set(model, r, nonconf[r], ranks, mask)
            assert sizes[f, j] == members.size
            assert hits[f, j] == (a in members)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=60), st.integers(1, 999))
def test_rank_threshold_is_smallest_cutoff_below_epsilon(ranks, per_mille):
    epsilon = per_mille / 1000
    ranks = np.array(ranks)

    def miscoverage(k):
        return np.count_nonzero(ranks > k) / ranks.size

    k_hat, misc = rank_threshold(ranks, epsilon)
    assert k_hat == min(k for k in range(int(ranks.max()) + 1) if miscoverage(k) < epsilon)
    assert misc == miscoverage(k_hat)


def _pairs_with_directions(directions) -> QueryAnswerSet:
    d = np.array(directions, dtype=np.int64)
    return QueryAnswerSet(direction=d, anchor=np.zeros_like(d), predicate=np.zeros_like(d), answer=np.zeros_like(d))


@given(st.lists(st.integers(0, 1), max_size=300), st.lists(st.integers(0, 1), min_size=1, max_size=4),
       st.integers(0, 2**31), st.booleans())
def test_tuning_split_cuts_each_direction_group_into_disjoint_sets_fixed_by_the_seed(calib, test, seed,
                                                                                      split_directions):
    """Each group's fitting, scored and calibrating indices are disjoint, sorted, sized a quarter, a quarter and the
    rest, and cover the group exactly; the same seed cuts the same way."""
    data = SimpleNamespace(calib=_pairs_with_directions(calib), test=_pairs_with_directions(test))
    groups = list(experiment._direction_groups(data, split_directions))
    cuts = experiment._tuning_split(groups, seed)
    assert len(cuts) == len(groups)
    for (_, idx, _), (fit, scored, cal) in zip(groups, cuts):
        n = idx.size
        assert (fit.size, scored.size, cal.size) == (n // 4, n // 2 - n // 4, n - n // 2)
        assert all(np.all(np.diff(part) > 0) for part in (fit, scored, cal))
        assert np.array_equal(np.sort(np.concatenate([fit, scored, cal])), idx)
    again = experiment._tuning_split(groups, seed)
    assert all(np.array_equal(a, b) for cut, other in zip(cuts, again) for a, b in zip(cut, other))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=60), st.integers(0, 999))
@example([1, 2], 0)  # epsilon 0, the limit an adjusted rate reaches when gamma * miscoverage = epsilon
@example(list(range(9)), 700)  # in floats (n+1)(1-eps) = 10 * 0.30000000000000004, just above 3
def test_quantile_matches_exact_order_statistic(values, per_mille):
    epsilon = per_mille / 1000
    n = len(values)
    k = math.ceil((n + 1) * (1 - Fraction(per_mille, 1000)))
    expected = math.inf if k > n else sorted(values)[k - 1]
    assert quantile(np.array(values, dtype=np.float64), epsilon) == expected


def _assert_exact_coverage(hits: np.ndarray, scores: np.ndarray, per_mille: int) -> None:
    """Split-conformal coverage over the n + 1 held-out choices: exactly k = ceil((n+1)(1-eps)) of them on
    distinct scores, at least k with ties.  k = n + 1 (coverage 1) is the case k > n, a threshold of +inf."""
    k = math.ceil(scores.size * (1 - Fraction(per_mille, 1000)))
    covered = int(np.count_nonzero(hits))
    assert covered == k if np.unique(scores).size == scores.size else covered >= k


@st.composite
def scores_with_or_without_ties(draw, size: int):
    if draw(st.booleans()):
        return np.array(draw(st.permutations(range(size))), dtype=np.float64)
    return np.array(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)), dtype=np.float64)


@given(st.integers(1, 200).flatmap(lambda n: scores_with_or_without_ties(n + 1)), st.integers(1, 999))
@example(np.arange(2.0), 1)  # n = 1: k = 2 > n, so every held-out score is covered by +inf
@example(np.arange(100.0), 100)  # n = 99, eps 0.1: exactly 90 of 100
def test_kgcp_leave_one_out_coverage_is_exact(scores, per_mille):
    hits = leave_one_out_hits("kgcp", np.zeros(scores.size, dtype=np.int64), scores, per_mille / 1000)
    _assert_exact_coverage(hits, scores, per_mille)


@st.composite
def predicates_and_scores(draw):
    n_pred = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 60), min_size=n_pred, max_size=n_pred).filter(lambda c: 2 <= sum(c) <= 201))
    predicates = np.repeat(np.arange(n_pred), counts)
    scores = np.concatenate([draw(scores_with_or_without_ties(c)) for c in counts])
    order = draw(st.permutations(range(predicates.size)))
    return predicates[order], scores[order]


@given(predicates_and_scores(), st.integers(1, 999))
def test_mcp_leave_one_out_coverage_is_exact_per_predicate(case, per_mille):
    predicates, scores = case
    hits = leave_one_out_hits("mcp", predicates, scores, per_mille / 1000)
    for r in np.unique(predicates):
        _assert_exact_coverage(hits[predicates == r], scores[predicates == r], per_mille)


@st.composite
def partition_case(draw):
    """Per-predicate calibration counts, small integer predicate vectors (so distances tie) and phi."""
    n_pred = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 6), min_size=n_pred, max_size=n_pred).filter(lambda c: max(c) > 0))
    dim = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=n_pred, max_size=n_pred))
    return np.array(counts), np.array(vectors, dtype=np.float64), draw(st.integers(1, max(counts) + 2))


@given(partition_case())
def test_partition_merges_each_poor_predicate_into_its_nearest_rich_one(case):
    counts, vectors, phi = case
    calib = np.repeat(np.arange(counts.size), counts)
    if phi > counts.max():
        with pytest.raises(ValueError, match="phi exceeds"):
            build_partition(calib, vectors, phi)
        return
    partition = build_partition(calib, vectors, phi)
    partition.validate(counts.size)  # every predicate in exactly one part
    rich = [r for r in range(counts.size) if counts[r] >= phi]
    for part in partition.parts:
        assert len([r for r in part if counts[r] >= phi]) == 1
        assert counts[part].sum() >= phi
    for r in range(counts.size):
        nearest = min(rich, key=lambda q: (np.abs(vectors[q] - vectors[r]).sum(), q))
        assert partition.part_of[r] == partition.part_of[r if counts[r] >= phi else nearest]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def shuffled_partitions(draw, n_pred: int):
    """A partition of predicates ``0..n_pred-1`` into consecutive runs of a shuffled order."""
    order = draw(st.permutations(range(n_pred)))
    splits = draw(st.lists(st.booleans(), min_size=n_pred - 1, max_size=n_pred - 1))
    cuts = [i for i, split in enumerate(splits, start=1) if split]
    parts = [sorted(order[a:b]) for a, b in zip([0] + cuts, cuts + [n_pred])]
    return PredicatePartition(parts=parts, phi=draw(st.integers(1, 500)))


@st.composite
def calibrated_models(draw):
    """A kgcp, mcp or condkgcp model: a shuffled partition, +inf thresholds, None cutoffs, warnings and a
    direction group or None."""
    method = draw(st.sampled_from(["kgcp", "mcp", "condkgcp"]))
    n_pred = draw(st.integers(1, 8))
    if method == "kgcp":
        partition = None
    elif method == "mcp":
        partition = PredicatePartition(parts=[[r] for r in range(n_pred)], phi=0)
    else:
        partition = draw(shuffled_partitions(n_pred))
    per_part = {
        g: PartCalibration(
            rank_cutoff=None if method != "condkgcp" else draw(st.none() | st.integers(1, 10**6)),
            rank_miscoverage=draw(_finite),
            adjusted_epsilon=draw(_finite),
            score_threshold=draw(_finite | st.just(math.inf)),
            n_cal=draw(st.integers(0, 10**9)),
            score_only_threshold=draw(_finite | st.just(math.inf)),
        )
        for g in range(1 if partition is None else len(partition.parts))
    }
    return CalibratedModel(method=method, epsilon=draw(_finite), per_part=per_part, partition=partition,
                           gamma=draw(_finite), warnings=draw(st.lists(st.text(max_size=20), max_size=3)),
                           direction=draw(st.sampled_from([None, "head", "tail"])),
                           scorer=draw(st.none() | st.fixed_dictionaries({
                               "kind": st.sampled_from(["softmax", "aps", "raps"]), "raps_lambda": _finite,
                               "raps_k_reg": st.integers(1, 10**6)})))


@given(calibrated_models())
def test_calibrated_model_json_round_trip(model):
    restored = CalibratedModel.from_json(model.to_json())
    assert restored == model
    if model.partition is not None:
        for g, part in enumerate(model.partition.parts):
            assert restored.part_ids(part).tolist() == [g] * len(part)


@st.composite
def calibration_case(draw):
    """Calibration predicates (some predicates with no pair, so parts can be empty), tied nonconformity values,
    ranks, a partition of the predicates, epsilon and gamma."""
    n_pred = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    predicates = np.array(draw(st.lists(st.integers(0, n_pred - 1), min_size=n, max_size=n)), dtype=np.int64)
    nonconf = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.float64) / 4
    ranks = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)), dtype=np.int64)
    epsilon = draw(st.integers(1, 999)) / 1000
    gamma = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return predicates, nonconf, ranks, draw(shuffled_partitions(n_pred)), epsilon, gamma


@given(calibration_case())
def test_stored_part_counts_and_score_only_thresholds_equal_the_part_mcp_refit(case):
    """What evaluation reads from a condkgcp model, ``n_cal`` and the score-only filter, equals what it used to
    recount and refit: each part's calibration pairs and ``fit_part_mcp`` on the same partition."""
    predicates, nonconf, ranks, partition, epsilon, gamma = case
    n_entities = 12
    cond = fit_condkgcp(predicates, nonconf, ranks, partition, epsilon, gamma)
    star = fit_part_mcp(predicates, nonconf, partition, epsilon, n_entities)
    counts = np.bincount(partition.part_of[predicates], minlength=len(partition.parts))
    for g, pc in cond.per_part.items():
        assert pc.n_cal == counts[g]
        assert pc.score_only_threshold == star.per_part[g].score_threshold
    every = np.arange(partition.part_of.size)
    for ours, reference in zip(query_filters(score_only(cond), every, n_entities),
                               query_filters(star, every, n_entities)):
        assert np.array_equal(ours, reference)


def test_every_truncation_of_a_calibrated_file_names_it(tmp_path):
    rng = np.random.default_rng(0)
    predicates = np.repeat(np.arange(4), [30, 12, 0, 5])
    partition = PredicatePartition(parts=[[0, 2], [1, 3]], phi=12)
    model = fit_condkgcp(predicates, rng.random(predicates.size), rng.integers(1, 40, predicates.size),
                         partition, 0.1, 0.5)
    model.warnings.append("part 9 has no calibration pairs; threshold +inf")
    path = tmp_path / "calibrated_condkgcp_e0.1_s0.json"
    model.save(path)
    text = path.read_bytes()
    assert CalibratedModel.load(path) == model
    for cut in range(len(text)):
        path.write_bytes(text[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            CalibratedModel.load(path)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(width=64)))
def test_predicate_vector_sidecar_round_trip(vectors):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predvecs_s0.bin"
        export_predicate_vectors(vectors, path)
        restored = import_predicate_vectors(path)
    assert restored.shape == vectors.shape and restored.tobytes() == vectors.tobytes()


def test_every_truncation_of_a_predicate_vector_file_names_it(tmp_path):
    path = tmp_path / "predvecs_s0.bin"
    export_predicate_vectors(np.random.default_rng(0).normal(size=(5, 3)), path)
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(KGError, match=re.escape(str(path))):
            import_predicate_vectors(path)


@st.composite
def small_kg_batch(draw):
    """A random small KG, sometimes complete (every candidate a known positive), a batch of it, k and a seed."""
    n_ent, n_pred = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    every = [(h, r, t) for h in range(n_ent) for r in range(n_pred) for t in range(n_ent)]
    known = every if draw(st.booleans()) else draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
    batch = draw(st.lists(st.sampled_from(known), min_size=1, max_size=12))
    return n_ent, n_pred, known, batch, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


@given(small_kg_batch())
@example((3, 1, [(h, 0, t) for h in range(3) for t in range(3)], [(0, 0, 1), (2, 0, 2)], 3, 7))  # all known
def test_sample_negatives_matches_per_candidate_loop(case):
    n_ent, n_pred, known, batch, k, seed = case
    h, r, t = (np.array(col, dtype=np.int64) for col in zip(*batch))
    keys = np.unique(_triple_keys(*(np.array(col, dtype=np.int64) for col in zip(*known)), n_ent, n_pred))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_negatives(rng, h, r, t, n_ent, n_pred, keys, k)
    want = train_oracle._sample_negatives(oracle_rng, h, r, t, n_ent, set(known), k)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def scatter_case(draw):
    """A matrix, an index array (any, all one row, two rows, or empty), gradients, rows and a config."""
    n_rows, width, m = draw(st.integers(1, 50)), draw(st.integers(1, 70)), draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["any", "one row", "two rows", "empty"]))
    if kind == "any":
        idx = rng.integers(0, n_rows, size=m)
    elif kind == "one row":
        idx = np.full(m, rng.integers(0, n_rows), dtype=np.int64)
    elif kind == "two rows":
        idx = rng.choice(rng.integers(0, n_rows, size=2), size=m)
    else:
        idx = np.zeros(0, dtype=np.int64)
    scale = 10.0 ** draw(st.integers(-3, 3))  # terms of different magnitudes, so the order of sums shows
    mat = rng.normal(size=(n_rows, width))
    grad, rows = rng.normal(scale=scale, size=(2, idx.size, width))
    cfg = models.TrainConfig(lr=draw(st.sampled_from([0.05, 0.3, 1.0])), l2=draw(st.sampled_from([0.0, 1e-6, 0.1])))
    return mat, idx, grad, rows, cfg


@given(scatter_case())
def test_flat_scatter_equals_the_2d_subtract_at(case):
    mat, idx, grad, rows, cfg = case
    want = mat.copy()
    train_oracle._scatter_update(want, idx, grad.copy(), rows.copy(), cfg)
    models._scatter_update(mat, models._flat_index(idx, mat.shape[1], models._Workspace()), grad, rows, cfg)
    assert mat.tobytes() == want.tobytes()


@st.composite
def plane_steps(draw):
    """Entity and predicate rows of one or two planes, and two steps, a batch of ``m`` and then a smaller one (as the
    last partial batch is), whose indices repeat a few rows many times; each step carries row gradients of both
    matrices, ``2m`` entity rows and ``m`` predicate rows."""
    n_planes, width = draw(st.sampled_from([1, 2])), draw(st.integers(1, 9))
    n_ent, n_pred = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    m = draw(st.integers(2, 40))
    sizes = (m, draw(st.integers(1, m - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))  # terms of different magnitudes, so the order of sums shows

    def indices(n_rows, size):
        return rng.choice(rng.integers(0, n_rows, size=draw(st.integers(1, 3))), size=size)

    steps = [(indices(n_ent, 2 * size), indices(n_pred, size),
              rng.normal(scale=scale, size=(2 * size, n_planes * width)),
              rng.normal(scale=scale, size=(size, n_planes * width))) for size in sizes]
    cfg = models.TrainConfig(lr=draw(st.sampled_from([0.05, 0.3, 1.0])), l2=draw(st.sampled_from([0.0, 1e-6, 0.1])))
    return (n_planes, rng.normal(size=(n_ent, n_planes * width)), rng.normal(size=(n_pred, n_planes * width)), steps,
            cfg)


@given(plane_steps())
def test_plane_steps_equal_the_row_scatter(case):
    """``_batch_step`` over the planes of ``[real | imag]`` rows (or of one plane), through one workspace, updates them
    as the oracle's 2-D scatter updates the rows: each matrix's planes share one flat index, rebuilt for the smaller
    batch, and each L2 term reads its rows as they were before the step."""
    n_planes, ent_rows, pred_rows, steps, cfg = case

    def planes(rows):  # C-contiguous copies, never views that share memory with the oracle's rows
        return tuple(part.copy(order="C") for part in np.split(rows, n_planes, axis=1))

    ent, pred, ws = planes(ent_rows), planes(pred_rows), models._Workspace()
    for ent_idx, pred_idx, g_ent, g_pred in steps:

        def loss_grad(E, R):
            assert np.concatenate(E, axis=1).tobytes() == ent_rows[ent_idx].tobytes()
            assert np.concatenate(R, axis=1).tobytes() == pred_rows[pred_idx].tobytes()
            return 0.0, planes(g_ent), planes(g_pred)

        assert models._batch_step(ent, pred, cfg, ent_idx, pred_idx, loss_grad, ws) == 0.0
        train_oracle._scatter_update(ent_rows, ent_idx, g_ent, ent_rows[ent_idx], cfg)
        train_oracle._scatter_update(pred_rows, pred_idx, g_pred, pred_rows[pred_idx], cfg)
        assert np.concatenate(ent, axis=1).tobytes() == ent_rows.tobytes()
        assert np.concatenate(pred, axis=1).tobytes() == pred_rows.tobytes()


# few entities and predicates, so triples repeat within and across splits
triple_lists = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), max_size=30)


@given(triple_lists, st.booleans())
def test_make_queries_matches_per_pair_oracle(rows, both_directions):
    qa = make_queries(np.array(rows, dtype=np.int64).reshape(-1, 3), both_directions)
    oracle = query_oracle.make_queries(rows, both_directions)
    assert qa.pairs == oracle.pairs
    assert len(qa) == len(oracle) and np.array_equal(qa.predicates(), oracle.predicates())


@given(st.lists(triple_lists, min_size=3, max_size=3), st.booleans())
def test_filter_masks_match_answer_index(splits, both_directions):
    """Each query row masks its query's known answers across the splits, a pair's own included; raw, nothing."""
    known = np.array([row for rows in splits for row in rows], dtype=np.int64).reshape(-1, 3)
    index = query_oracle.build_answer_index([query_oracle.make_queries(rows, both_directions) for rows in splits])
    for rows in splits:
        qa = make_queries(np.array(rows, dtype=np.int64).reshape(-1, 3), both_directions)
        indptr, indices = filter_masks(qa.queries(), known)
        assert indptr.shape == (len(qa) + 1,)
        for i, (q, a) in enumerate(qa.pairs):
            assert indices[indptr[i] : indptr[i + 1]].tolist() == sorted(index[q.key()])
        indptr, indices = filter_masks(qa.queries(), known[:0])
        assert indptr.tolist() == [0] * (len(qa) + 1) and indices.size == 0


@given(st.lists(triple_lists, min_size=3, max_size=3), st.booleans(), st.booleans())
def test_pairs_of_a_query_share_one_filtered_row(splits, both_directions, filtered):
    """What a shared query row rests on: every pair of query ``q`` reads one score row, which masks ``K(q)``, the
    pair's own answer included, when filtered, so each pair adds its answer back; raw, the row masks nothing."""
    triples = [np.array(rows, dtype=np.int64).reshape(-1, 3) for rows in splits]
    sets = [make_queries(rows, both_directions) for rows in triples]
    known_answers: dict = {}
    for qa in sets:
        for q, a in qa.pairs:
            known_answers.setdefault(q.key(), set()).add(a)
    queries = np.unique(np.concatenate([qa.queries() for qa in sets]), axis=0)
    source = ScoreMatrix(queries=queries, scores=np.zeros((len(queries), 6)))
    known = np.concatenate(triples)
    indptr, indices = filter_masks(source.queries, known if filtered else known[:0])
    for qa, rows in zip(sets, source.rows(*sets)):
        for (q, a), row in zip(qa.pairs, rows.tolist()):
            mask = set(indices[indptr[row] : indptr[row + 1]].tolist())
            assert (a in mask and mask == known_answers[q.key()]) if filtered else not mask


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), max_size=300),
       st.integers(0, 2**32 - 1), st.sampled_from([(0.6, 0.2, 0.2), (0.8, 0.1, 0.1), (0.5, 0.3, 0.2)]))
def test_split_triples_keeps_the_list_shuffle_order(rows, seed, fractions):
    """Splitting ``(n, 3)`` rows puts every row, repeats included, where the list shuffle put it."""
    cfg = SplitConfig(*fractions, seed=seed)
    got = split_triples(np.array(rows, dtype=np.int64).reshape(-1, 3), cfg)
    want = split_oracle.split_triples(rows, cfg)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].shape == (len(want[name]), 3)
        assert list(map(tuple, got[name].tolist())) == want[name]


@st.composite
def synthetic_specs(draw):
    """The fields of small specs: with so few entities, attempts repeat rows, rules name empty clusters and some
    counts exceed the distinct triples the entities can hold."""
    n_predicates = draw(st.integers(1, 3))
    n_clusters = draw(st.integers(1, 4))
    per_predicate = lambda elements: st.lists(elements, min_size=n_predicates, max_size=n_predicates)
    rate = st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
    cluster = st.integers(0, n_clusters - 1)
    return dict(
        n_entities=draw(st.integers(1, 10)), n_predicates=n_predicates,
        triple_counts=draw(per_predicate(st.integers(1, 5))), noise_rates=draw(rate | per_predicate(rate)),
        n_clusters=n_clusters, rules=draw(st.none() | per_predicate(st.tuples(cluster, cluster))),
        seed=draw(st.integers(0, 2**32 - 1)))


@given(synthetic_specs())
@example(dict(n_entities=2, n_predicates=1, triple_counts=[5], noise_rates=0.5, n_clusters=1, seed=0))
@example(dict(n_entities=2, n_predicates=1, triple_counts=[4], noise_rates=0.1, n_clusters=8, seed=0))
@example(dict(n_entities=2, n_predicates=2, triple_counts=[2, 2], n_clusters=8, rules=[(5, 6), (5, 0)]))
def test_generate_triples_draws_what_the_choice_loop_drew(fields):
    """The same bytes as the ``rng.choice`` loop, or the same ``ValueError``: per attempt one head, one noise coin and
    one tail, each ``choice`` over a cluster's members drawn as ``integers(0, size)``.  A count above
    ``n_entities ** 2``, which no draw can place, is refused when the spec is made."""
    too_many = [r for r, count in enumerate(fields["triple_counts"]) if count > fields["n_entities"] ** 2]
    if too_many:
        r = too_many[0]
        message = (f"predicate {r}: triple_counts[{r}] = {fields['triple_counts'][r]} exceeds n_entities ** 2 = "
                   f"{fields['n_entities'] ** 2}, the distinct triples a predicate can hold")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticKGSpec(**fields)
        return
    spec = SyntheticKGSpec(**fields)
    try:
        want = synth_oracle.generate_triples(spec)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            generate_triples(spec)
        return
    got = generate_triples(spec)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def score_rows(draw):
    """Distinct queries with finite score rows, and an order to list them in."""
    n_ent = draw(st.integers(1, 4))
    queries = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2**20), st.integers(0, 2**20)),
                            unique=True, max_size=10))
    rows = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n_ent, max_size=n_ent),
                         min_size=len(queries), max_size=len(queries)))
    order = draw(st.permutations(range(len(queries))))
    return (np.array(queries, dtype=np.int64).reshape(-1, 3), np.array(rows, dtype=np.float64).reshape(-1, n_ent),
            np.array(order, dtype=np.int64))


@given(score_rows())
def test_export_matches_per_record_oracle(case):
    queries, scores, order = case
    vectors = {Query(DIRECTIONS[d], a, p).key(): row for (d, a, p), row in zip(queries.tolist(), scores)}
    oracle = query_oracle.ScoreMatrix(n_entities=scores.shape[1], vectors=vectors)
    matrix = ScoreMatrix(queries=queries[order], scores=scores[order])
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(models, "EXPORT_BLOCK_ROWS", 3):  # several blocks
        got, want = Path(tmp) / "got.bin", Path(tmp) / "want.bin"
        export_scores(matrix, got)
        query_oracle.export_scores(oracle, want)
        assert got.read_bytes() == want.read_bytes()


@given(score_rows(), st.data())
def test_score_file_fills_rows_equal_to_the_matrix(case, data):
    """Records written out of key order (raw bytes) fill every asked row, repeats included, bit for bit."""
    queries, scores, order = case
    n, n_ent = order.size, scores.shape[1]
    record = np.dtype([("direction", "u1"), ("anchor", "<u4"), ("predicate", "<u4"), ("scores", "<f8", (n_ent,))])
    records = np.empty(n, dtype=record)
    for col, name in enumerate(("direction", "anchor", "predicate")):
        records[name] = queries[order, col]
    records["scores"] = scores[order]
    matrix = ScoreMatrix(queries=queries, scores=scores)
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=12) if n else st.just([]))
    if data.draw(st.booleans()):
        rows.sort()  # the order a block asks in: runs of equal rows
    rows = np.array(rows, dtype=np.int64)
    got, want = np.empty((rows.size, n_ent)), np.empty((rows.size, n_ent))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(models, "EXPORT_BLOCK_ROWS", 3):  # several blocks
        path = Path(tmp) / "scores.bin"
        path.write_bytes(b"KGSC" + n_ent.to_bytes(4, "little") + n.to_bytes(4, "little") + records.tobytes())
        source = import_scores(path)
        assert isinstance(source, ScoreFile) and np.array_equal(source.queries, matrix.queries)
        source.fill(rows, got)
    matrix.fill(rows, want)
    assert got.tobytes() == want.tobytes()
