import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shotline import corpus
from shotline.cli import _world_config, load_config
from shotline.corpus import (TRAILER_LEN, CorpusSplit, SyntheticWorld, TagVocabulary,
                             VideoManifestEntry, _restrict_transition, generate_world,
                             load_manifest, make_prototypes, make_splits, make_transition,
                             sample_topic_chain, save_manifest, write_ground_truth)
from shotline.rng import derive_rng

from _util import default_config, read_ground_truth, stepwise_topic_chain

TINY = str(Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg")


# -- manifest -------------------------------------------------------------------

def entry(vid, kind="movie", genres=("genre00",), keywords=(), linked=None):
    return VideoManifestEntry(vid, kind, "", list(genres), list(keywords), linked)


def test_empty_manifest(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("")
    assert load_manifest(path) == []


def test_manifest_round_trip_bit_exact(tmp_path):
    entries = [
        entry("m1", genres=("genre01", "genre00"), keywords=("kw00",)),
        entry("t1", kind="trailer", linked="m1"),
        entry("m2", genres=("genre03",)),
    ]
    path = tmp_path / "m.jsonl"
    save_manifest(path, entries)
    loaded = load_manifest(path)
    save_manifest(tmp_path / "m2.jsonl", loaded)
    assert path.read_bytes() == (tmp_path / "m2.jsonl").read_bytes()
    assert loaded[0].genres == ["genre00", "genre01"]


def test_manifest_duplicate_id(tmp_path):
    path = tmp_path / "m.jsonl"
    save_manifest(path, [entry("m1"), entry("m1")][:1])
    path.write_text(path.read_text() * 2)
    with pytest.raises(ValueError, match="duplicate video id 'm1'"):
        load_manifest(path)


def test_manifest_unknown_label(tmp_path):
    vocab = TagVocabulary(["genre00"], [])
    path = tmp_path / "m.jsonl"
    save_manifest(path, [entry("m1", genres=("mystery",))])
    with pytest.raises(ValueError, match="mystery"):
        load_manifest(path, vocab)


def test_manifest_parse_error_has_line_number(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "a", "kind": "movie", "path": ""}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_manifest(path)


def test_manifest_bad_kind(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        VideoManifestEntry("x", "short", "")


# -- world structure --------------------------------------------------------------

def test_prototypes_unit_norm_and_spread():
    protos = make_prototypes(8, 32, 0.3, np.random.default_rng(0))
    norms = np.linalg.norm(protos, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    gram = protos @ protos.T - np.eye(8)
    assert gram.max() < 0.3


def test_transition_rows_and_stationarity_structure():
    matrix, successor = make_transition(8, 0.6, 0.3, np.random.default_rng(1))
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(np.diag(matrix), 0.6)
    # doubly stochastic by construction: uniform stationary distribution
    assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-9)
    assert sorted(successor.tolist()) == list(range(8))


def test_chain_self_transition_frequency():
    matrix, _ = make_transition(8, 0.6, 0.3, np.random.default_rng(2))
    chain = sample_topic_chain(matrix, 10_000, np.random.default_rng(3))
    freq = float((chain[1:] == chain[:-1]).mean())
    assert abs(freq - 0.6) <= 0.02


def test_chain_marginals_match_stationary_chi_square():
    matrix, _ = make_transition(8, 0.6, 0.3, np.random.default_rng(4))
    chain = sample_topic_chain(matrix, 50_000, np.random.default_rng(5))
    # thin by 10 steps so the chi-square iid assumption holds; lag-10
    # autocorrelation of this chain is below 1e-3
    thinned = chain[::10]
    counts = np.bincount(thinned, minlength=8)
    expected = np.full(8, thinned.size / 8)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # not rejected at alpha = 0.01
    assert chi2 < stats.chi2.ppf(0.99, df=7)


@st.composite
def transition_matrices(draw):
    """Row-stochastic matrices of 1-9 topics: normalised random rows with
    zeros among them, or a _restrict_transition of a make_transition."""
    topics = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        full = draw(st.integers(topics, 9))
        self_mass = draw(st.floats(0.05, 0.95))
        successor_mass = (1.0 - self_mass) * draw(st.floats(0.0, 1.0))
        matrix, _ = make_transition(full, self_mass, successor_mass, rng)
        return _restrict_transition(matrix, np.sort(rng.choice(full, size=topics, replace=False)))
    raw = rng.random((topics, topics)) * (rng.random((topics, topics)) < 0.7)
    raw[np.arange(topics), rng.integers(topics, size=topics)] += 0.1  # no all-zero row
    return raw / raw.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(transition_matrices(), st.integers(0, 500), st.integers(0, 2**32 - 1))
def test_topic_chain_equals_the_stepwise_choice_walk(matrix, length, seed):
    rng_bulk, rng_step = np.random.default_rng(seed), np.random.default_rng(seed)
    chain = sample_topic_chain(matrix, length, rng_bulk)
    expected = stepwise_topic_chain(matrix, length, rng_step)
    assert chain.dtype == expected.dtype and np.array_equal(chain, expected)
    assert rng_bulk.random() == rng_step.random()


@pytest.mark.parametrize("row, message", [
    ([0.5, np.nan, 0.5], "probabilities contain NaN"),
    ([1.2, -0.2, 0.0], "probabilities are not non-negative"),
    ([0.5, 0.4, 0.0], "probabilities sum to 0.9, not 1"),
    ([0.5, np.inf, 0.0], "probabilities sum to inf, not 1"),
])
def test_topic_chain_names_a_bad_transition_row(row, message):
    matrix = np.full((3, 3), 1 / 3)
    matrix[2] = row
    with pytest.raises(ValueError, match=rf"^transition row 2: {message}"):
        sample_topic_chain(matrix, 5, np.random.default_rng(0))


@pytest.mark.parametrize("overrides", [
    [], ["movie_topic_count=0"],
    ["topics=8", "movie_topic_count=3", "movie_style_sigma=0.3", "movies=6", "trailers=12"]])
def test_generate_world_equals_the_stepwise_walk(monkeypatch, overrides):
    cfg = _world_config(load_config(TINY, overrides))
    _, videos, store, entries = generate_world(cfg)
    monkeypatch.setattr(corpus, "sample_topic_chain", stepwise_topic_chain)
    _, ref_videos, ref_store, ref_entries = generate_world(cfg)
    assert any(v.kind == "trailer" for v in videos)
    assert store.keys() == ref_store.keys()
    assert store.matrix.tobytes() == ref_store.matrix.tobytes()
    assert [v.topics.tolist() for v in videos] == [v.topics.tolist() for v in ref_videos]
    assert entries == ref_entries


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", -0.5), ("movie_style_sigma", -0.1), ("n_trailers", -4),
    ("movie_topic_count", -2), ("n_movies", 0), ("n_movies", -2), ("keyword_prob", -1.0),
    ("keyword_prob", 1.5)])
def test_world_config_rejects_a_negative_sigma_or_trailer_count(field, value):
    bound = {"n_movies": "be at least 1", "keyword_prob": "be in [0, 1]"}.get(
        field, "not be negative")
    with pytest.raises(ValueError) as caught:
        default_config(_world_config, **{field: value})
    assert str(caught.value) == f"{field} must {bound}, got {value}"


def test_movie_sigma_zero_single_topic_equals_prototype():
    cfg = default_config(_world_config, topics=1, feature_dim=16, noise_sigma=0.0,
                         movie_len=(30, 30), seed=0)
    world = SyntheticWorld(cfg)
    movie = world.synthesize_movie("m0", derive_rng(0, "t"))
    proto = world.prototypes[0].astype(np.float32)
    assert np.array_equal(movie.features, np.tile(proto, (30, 1)))
    assert movie.genres == {"genre00"}


def test_single_topic_movie_tags_exact():
    cfg = default_config(_world_config, topics=4, feature_dim=8, keyword_prob=1.0, seed=1)
    world = SyntheticWorld(cfg)
    chain = np.zeros(100, dtype=np.int64)
    genres, keywords = world._tags_for_chain(chain)
    assert genres == {"genre00"}
    assert keywords == {"kw00"}


def test_movie_features_unit_norm():
    cfg = default_config(_world_config, seed=2, n_movies=1, n_trailers=0)
    world = SyntheticWorld(cfg)
    movie = world.synthesize_movie("m0", derive_rng(2, "m"))
    assert np.allclose(np.linalg.norm(movie.features, axis=1), 1.0, atol=1e-5)


def test_restricted_movies_visit_only_active_topics():
    cfg = default_config(_world_config, movie_topic_count=3, seed=3, n_movies=1, n_trailers=0)
    world = SyntheticWorld(cfg)
    movie = world.synthesize_movie("m0", derive_rng(3, "m"))
    assert len(set(movie.topics.tolist())) <= 3


# -- trailers ----------------------------------------------------------------------

def test_trailer_rare_topic_ranks_distinctive():
    cfg = default_config(_world_config, topics=2, feature_dim=16, noise_sigma=0.0,
                         trailer_fraction=0.1, seed=4)
    world = SyntheticWorld(cfg)
    # as many rare-topic shots as the longest trailer takes
    topics = np.array([0] * 360 + [1] * TRAILER_LEN[1])
    features = world.prototypes[topics].astype(np.float32)
    # every rare-topic shot sits farther from the movie mean than any common one
    mean = features.astype(np.float64).mean(axis=0)
    dist = np.linalg.norm(features - mean, axis=1)
    assert dist[topics == 1].min() > dist[topics == 0].max()
    movie = type("M", (), {})()
    movie.video_id = "m0"
    movie.features = features
    movie.topics = topics
    movie.genres, movie.keywords = {"genre00"}, set()
    trailer = world.synthesize_trailer("t0", movie, derive_rng(4, "t"))
    # with the pool capped at the top 10% the trailer is pure rare topic
    assert (trailer.topics == 1).all()


def test_trailer_inherits_tags_and_is_reproducible():
    cfg = default_config(_world_config, seed=5, n_movies=2, n_trailers=2)
    world = SyntheticWorld(cfg)
    movie = world.synthesize_movie("m0", derive_rng(5, "m", 0))
    t1 = world.synthesize_trailer("t0", movie, derive_rng(5, "t", 0))
    t2 = world.synthesize_trailer("t0", movie, derive_rng(5, "t", 0))
    assert t1.genres == movie.genres and t1.keywords == movie.keywords
    assert np.array_equal(t1.features, t2.features)
    assert np.array_equal(t1.source_shots, t2.source_shots)


def test_trailer_shuffle_destroys_order_but_not_content():
    cfg = default_config(_world_config, seed=6, n_movies=1, n_trailers=1)
    world = SyntheticWorld(cfg)
    movie = world.synthesize_movie("m0", derive_rng(6, "m"))
    trailer = world.synthesize_trailer("t0", movie, derive_rng(6, "t"))
    assert not np.array_equal(trailer.source_shots, np.sort(trailer.source_shots))
    length = len(trailer.source_shots)
    assert TRAILER_LEN[0] <= length <= TRAILER_LEN[1]
    assert len(set(trailer.source_shots.tolist())) == length


def test_trailer_requires_long_movie():
    cfg = default_config(_world_config, seed=7, movie_len=(120, 120))
    world = SyntheticWorld(cfg)
    movie = world.synthesize_movie("m0", derive_rng(7, "m"))
    # no longer than the shortest trailer
    movie.features = movie.features[:TRAILER_LEN[0]]
    movie.topics = movie.topics[:TRAILER_LEN[0]]
    with pytest.raises(ValueError, match="too short"):
        world.synthesize_trailer("t0", movie, derive_rng(7, "t"))


def test_generate_world_deterministic():
    cfg = default_config(_world_config, n_movies=3, n_trailers=4, movie_len=(60, 80), seed=8)
    _, videos_a, store_a, entries_a = generate_world(cfg)
    _, videos_b, store_b, entries_b = generate_world(cfg)
    assert [e.video_id for e in entries_a] == [e.video_id for e in entries_b]
    assert store_a.keys() == store_b.keys()
    assert np.array_equal(store_a.matrix, store_b.matrix)


def test_ground_truth_round_trip(tmp_path):
    cfg = default_config(_world_config, n_movies=2, n_trailers=1, movie_len=(50, 60), seed=9)
    _, videos, _, _ = generate_world(cfg)
    path = tmp_path / "truth.jsonl"
    write_ground_truth(path, videos)
    truth = read_ground_truth(path)
    assert set(truth) == {v.video_id for v in videos}
    assert truth["m0000"]["topics"] == videos[0].topics.tolist()


# -- splits ------------------------------------------------------------------------

def make_entries(n_movies, n_trailers):
    entries = [entry(f"m{i:03d}") for i in range(n_movies)]
    entries += [entry(f"t{j:03d}", kind="trailer", linked=f"m{j % n_movies:03d}")
                for j in range(n_trailers)]
    return entries


def test_split_all_train():
    split = make_splits(make_entries(10, 5), (1.0, 0.0, 0.0), seed=0, subset_sizes=())
    assert len(split.train_movies) == 10
    assert split.val_movies == [] and split.test_movies == []
    assert len(split.trailer_pool) == 5


def test_split_no_trailer_leak():
    split = make_splits(make_entries(20, 60), (0.5, 0.2, 0.3), seed=1, subset_sizes=())
    held_out = set(split.val_movies) | set(split.test_movies)
    linked = {f"t{j:03d}": f"m{j % 20:03d}" for j in range(60)}
    for tid in split.trailer_pool:
        assert linked[tid] not in held_out


def test_split_paper_ratio_sizes():
    entries = make_entries(508, 0)
    split = make_splits(entries, (361 / 508, 41 / 508, 106 / 508), seed=2,
                        subset_sizes=())
    assert (len(split.train_movies), len(split.val_movies), len(split.test_movies)) == (361, 41, 106)


def test_split_ratios_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        make_splits(make_entries(10, 0), (0.5, 0.2, 0.2), seed=0, subset_sizes=())


def test_split_subsets_are_nested_prefixes():
    split = make_splits(make_entries(10, 50), (0.8, 0.1, 0.1), seed=3, subset_sizes=(5, 20))
    assert split.trailer_subsets[5] == split.trailer_subsets[20][:5]
    assert len(split.trailer_subsets[20]) == 20


def test_split_round_trip(tmp_path):
    split = make_splits(make_entries(12, 30), (0.5, 0.25, 0.25), seed=4, subset_sizes=(4,))
    path = tmp_path / "split.json"
    split.save(path)
    loaded = CorpusSplit.load(path)
    assert loaded == split
