"""Corpus handling: manifests, splits, and the synthetic movie world.

The synthetic generator stands in for a real movie/trailer collection at
desk scale. Movies are Markov chains over a small set of visual topics;
each shot feature is its topic prototype plus noise. Trailers are built
from a movie's most distinctive shots with their temporal order
destroyed, so visual content survives while sequence structure does not.
Every video inherits tags from the topics it spends enough time on,
giving weak video-level supervision with known shot-level ground truth.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .features import FeatureStore
from .rng import derive_rng


# -- vocabulary and manifest ----------------------------------------------


class TagVocabulary:
    """Ordered genre and keyword label sets with name/index maps."""

    def __init__(self, genres: list[str], keywords: list[str]):
        if len(set(genres)) != len(genres):
            raise ValueError("duplicate genre names")
        if len(set(keywords)) != len(keywords):
            raise ValueError("duplicate keyword names")
        self.genres = list(genres)
        self.keywords = list(keywords)
        self.genre_index = {name: i for i, name in enumerate(self.genres)}
        self.keyword_index = {name: i for i, name in enumerate(self.keywords)}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"genres": self.genres, "keywords": self.keywords}, fh, indent=0)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TagVocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        return cls(blob["genres"], blob["keywords"])


@dataclass
class VideoManifestEntry:
    video_id: str
    kind: str
    path: str
    genres: list[str] = field(default_factory=list)
    keywords: list[str] = field(default_factory=list)
    linked_movie_id: str | None = None

    def __post_init__(self):
        if self.kind not in ("movie", "trailer"):
            raise ValueError(f"unknown video kind {self.kind!r} for {self.video_id!r}")


def save_manifest(path, entries: list[VideoManifestEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            row = {
                "id": e.video_id,
                "kind": e.kind,
                "path": e.path,
                "genres": sorted(e.genres),
                "keywords": sorted(e.keywords),
                "linked_movie_id": e.linked_movie_id,
            }
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def load_manifest(path, vocabulary: TagVocabulary | None = None) -> list[VideoManifestEntry]:
    entries: list[VideoManifestEntry] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            entry = VideoManifestEntry(
                video_id=row["id"], kind=row["kind"], path=row.get("path", ""),
                genres=list(row.get("genres", [])), keywords=list(row.get("keywords", [])),
                linked_movie_id=row.get("linked_movie_id"),
            )
            if entry.video_id in seen:
                raise ValueError(f"{path}: line {line_no}: duplicate video id {entry.video_id!r}")
            seen.add(entry.video_id)
            if vocabulary is not None:
                for name in entry.genres:
                    if name not in vocabulary.genre_index:
                        raise ValueError(f"{path}: line {line_no}: unknown genre {name!r}")
                for name in entry.keywords:
                    if name not in vocabulary.keyword_index:
                        raise ValueError(f"{path}: line {line_no}: unknown keyword {name!r}")
            entries.append(entry)
    return entries


# -- synthetic world -------------------------------------------------------

PROTOTYPE_MAX_COS = 0.3     # pairwise cosine bound between topic prototypes
TAG_THRESHOLD = 0.10        # share of a video's shots a topic needs to tag it
TRAILER_LEN = (15, 40)      # shots per trailer, drawn uniformly from this closed range


@dataclass
class SyntheticWorldConfig:
    topics: int
    feature_dim: int
    n_movies: int
    n_trailers: int
    self_transition: float
    successor_mass: float
    noise_sigma: float
    movie_len: tuple[int, int]
    movie_topic_count: int              # 0 means every movie may visit all topics
    movie_style_sigma: float            # per-movie additive style offset
    keyword_prob: float
    trailer_fraction: float             # share of most-distinctive shots eligible
    seed: int

    def __post_init__(self):
        if self.topics < 1 or self.feature_dim < 1:
            raise ValueError("topics and feature_dim must be positive")
        if self.n_movies < 1:
            raise ValueError(f"n_movies must be at least 1, got {self.n_movies}")
        if not 0.0 < self.self_transition < 1.0:
            raise ValueError("self_transition must be in (0, 1)")
        if self.self_transition + self.successor_mass > 1.0:
            raise ValueError("self_transition + successor_mass must not exceed 1")
        if self.movie_len[0] > self.movie_len[1]:
            raise ValueError("movie_len must be (low <= high)")
        if not 0.0 < self.trailer_fraction <= 1.0:
            raise ValueError("trailer_fraction must be in (0, 1]")
        if not 0.0 <= self.keyword_prob <= 1.0:
            raise ValueError(f"keyword_prob must be in [0, 1], got {self.keyword_prob}")
        for name in ("n_trailers", "successor_mass", "noise_sigma", "movie_style_sigma",
                     "movie_topic_count"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.movie_topic_count > self.topics:
            raise ValueError(f"movie_topic_count must not exceed topics ({self.topics}), "
                             f"got {self.movie_topic_count}")


def make_prototypes(count: int, dim: int, max_cos: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm topic prototypes with pairwise cosine below max_cos."""
    accepted: list[np.ndarray] = []
    for _ in range(100_000):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if all(float(np.dot(v, u)) < max_cos for u in accepted):
            accepted.append(v)
            if len(accepted) == count:
                return np.stack(accepted)
    raise RuntimeError(f"could not place {count} prototypes below cosine {max_cos} in {dim} dims")


def make_transition(topics: int, self_mass: float, successor_mass: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic topic transitions: a self mass, a boosted successor
    along a random topic cycle, and the remainder spread uniformly.

    The matrix is doubly stochastic, so its stationary distribution is
    uniform over topics.
    """
    if topics == 1:
        return np.array([[1.0]]), np.array([0])
    perm = rng.permutation(topics)
    successor = np.empty(topics, dtype=np.int64)
    for i in range(topics):
        successor[perm[i]] = perm[(i + 1) % topics]
    matrix = np.zeros((topics, topics))
    rest = 1.0 - self_mass - successor_mass
    if topics == 2:
        successor_mass, rest = successor_mass + rest, 0.0
    for t in range(topics):
        matrix[t, t] = self_mass
        matrix[t, successor[t]] += successor_mass
        others = [j for j in range(topics) if j != t and j != successor[t]]
        for j in others:
            matrix[t, j] += rest / len(others)
    return matrix, successor


def _check_transition(matrix: np.ndarray) -> None:
    """The checks Generator.choice makes of its ``p``, once per row: a NaN,
    a negative entry, or a sum off 1 by more than sqrt(eps) raises ValueError
    naming the first such row."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {matrix.shape}")
    sums = matrix.sum(axis=1, dtype=np.float64)
    nan, negative = np.isnan(sums), (matrix < 0).any(axis=1)
    bad = nan | negative | (np.abs(sums - 1.0) > np.sqrt(np.finfo(np.float64).eps))
    if bad.any():
        row = int(np.argmax(bad))
        if nan[row]:
            raise ValueError(f"transition row {row}: probabilities contain NaN")
        if negative[row]:
            raise ValueError(f"transition row {row}: probabilities are not non-negative")
        raise ValueError(f"transition row {row}: probabilities sum to {float(sums[row])!r}, not 1")


def sample_topic_chain(matrix: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """Walk a Markov chain for ``length`` steps from a uniform start.

    Each step takes the next state from one uniform double as
    ``Generator.choice(topics, p=row)`` does: the first index of the row's
    normalised cumulative sum above it. All ``length`` doubles come from one
    ``rng.random(length)``, so the chain and the generator's final state
    equal those of one ``choice`` call per step.
    """
    matrix = np.asarray(matrix)
    _check_transition(matrix)
    state = int(rng.integers(matrix.shape[0]))
    cdf = matrix.cumsum(axis=1, dtype=np.float64)
    cdf /= cdf[:, -1:]
    uniforms = rng.random(length)
    # next_state[t][i]: the state after step i when step i is in state t
    next_state = [np.searchsorted(row, uniforms, side="right").tolist() for row in cdf]
    chain = []
    for step in range(length):
        chain.append(state)
        state = next_state[state][step]
    return np.array(chain, dtype=np.int64)


def _restrict_transition(matrix: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Renormalize the off-diagonal mass of each row onto the active topics."""
    sub = matrix[np.ix_(active, active)].copy()
    for i in range(sub.shape[0]):
        self_mass = sub[i, i]
        off = sub[i].copy()
        off[i] = 0.0
        total = off.sum()
        if total == 0:
            sub[i] = 0.0
            sub[i, i] = 1.0
        else:
            sub[i] = off / total * (1.0 - self_mass)
            sub[i, i] = self_mass
    return sub


@dataclass
class SyntheticVideo:
    video_id: str
    kind: str
    features: np.ndarray       # (shots, dim) float32, unit rows
    topics: np.ndarray         # (shots,) generator ground truth
    genres: set
    keywords: set
    linked_movie_id: str | None = None
    source_shots: np.ndarray | None = None   # trailer: movie shot ordinals used


class SyntheticWorld:
    """Shared structure (prototypes, transitions, tags) of one generated corpus."""

    def __init__(self, config: SyntheticWorldConfig):
        self.config = config
        rng = derive_rng(config.seed, "world")
        self.prototypes = make_prototypes(config.topics, config.feature_dim,
                                          PROTOTYPE_MAX_COS, rng)
        self.transition, self.successor = make_transition(
            config.topics, config.self_transition, config.successor_mass, rng)
        genres = [f"genre{t:02d}" for t in range(config.topics)]
        keyword_flags = rng.random(config.topics) < config.keyword_prob
        self.topic_keywords = [f"kw{t:02d}" if keyword_flags[t] else None
                               for t in range(config.topics)]
        keywords = [k for k in self.topic_keywords if k is not None]
        self.vocabulary = TagVocabulary(genres, keywords)

    def topic_tags(self, topic: int) -> tuple[str, str | None]:
        return self.vocabulary.genres[topic], self.topic_keywords[topic]

    def _tags_for_chain(self, chain: np.ndarray) -> tuple[set, set]:
        counts = np.bincount(chain, minlength=self.config.topics)
        share = counts / chain.size
        genres, keywords = set(), set()
        for t in range(self.config.topics):
            if share[t] >= TAG_THRESHOLD:
                genre, keyword = self.topic_tags(t)
                genres.add(genre)
                if keyword is not None:
                    keywords.add(keyword)
        return genres, keywords

    def synthesize_movie(self, video_id: str, rng: np.random.Generator) -> SyntheticVideo:
        cfg = self.config
        length = int(rng.integers(cfg.movie_len[0], cfg.movie_len[1] + 1))
        if 0 < cfg.movie_topic_count < cfg.topics:
            active = np.sort(rng.choice(cfg.topics, size=cfg.movie_topic_count, replace=False))
            matrix = _restrict_transition(self.transition, active)
            local = sample_topic_chain(matrix, length, rng)
            chain = active[local]
        else:
            chain = sample_topic_chain(self.transition, length, rng)
        style = (rng.normal(0.0, cfg.movie_style_sigma, cfg.feature_dim)
                 if cfg.movie_style_sigma > 0 else np.zeros(cfg.feature_dim))
        noise = (rng.normal(0.0, cfg.noise_sigma, (length, cfg.feature_dim))
                 if cfg.noise_sigma > 0 else np.zeros((length, cfg.feature_dim)))
        raw = self.prototypes[chain] + style + noise
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        features = (raw / norms).astype(np.float32)
        genres, keywords = self._tags_for_chain(chain)
        return SyntheticVideo(video_id, "movie", features, chain, genres, keywords)

    def synthesize_trailer(self, video_id: str, movie: SyntheticVideo,
                           rng: np.random.Generator) -> SyntheticVideo:
        """Compile a trailer from the movie's most distinctive shots.

        Distinctiveness is distance from the movie's mean feature. The
        sampled shots are shuffled, destroying the source
        ordering while keeping the movie's tags.
        """
        cfg = self.config
        length = int(rng.integers(TRAILER_LEN[0], TRAILER_LEN[1] + 1))
        n = movie.features.shape[0]
        if n <= length:
            raise ValueError(f"movie {movie.video_id!r} too short to cut a {length}-shot trailer")
        distance = np.linalg.norm(movie.features.astype(np.float64)
                                  - movie.features.mean(axis=0, dtype=np.float64), axis=1)
        order = np.lexsort((np.arange(n), -distance))
        pool = order[:max(length, math.ceil(n * cfg.trailer_fraction))]
        chosen = np.sort(rng.choice(pool, size=length, replace=False))
        chosen = chosen[rng.permutation(length)]
        return SyntheticVideo(
            video_id, "trailer", movie.features[chosen].copy(), movie.topics[chosen].copy(),
            set(movie.genres), set(movie.keywords),
            linked_movie_id=movie.video_id, source_shots=chosen,
        )


def generate_world(config: SyntheticWorldConfig):
    """Build a full synthetic corpus: world, videos, feature store, manifest.

    Each video draws from its own derived random stream, so generation
    order (or parallelism) cannot change any video's content.
    """
    world = SyntheticWorld(config)
    movies = [world.synthesize_movie(f"m{i:04d}", derive_rng(config.seed, "synth.movie", i))
              for i in range(config.n_movies)]
    trailers = []
    for j in range(config.n_trailers):
        movie = movies[j % config.n_movies]
        trailers.append(world.synthesize_trailer(
            f"t{j:05d}", movie, derive_rng(config.seed, "synth.trailer", j)))

    store = FeatureStore(config.feature_dim)
    entries = []
    for video in movies + trailers:
        store.add_rows(video.video_id, range(video.features.shape[0]), video.features)
        entries.append(VideoManifestEntry(
            video_id=video.video_id, kind=video.kind, path="",
            genres=sorted(video.genres), keywords=sorted(video.keywords),
            linked_movie_id=video.linked_movie_id,
        ))
    return world, movies + trailers, store, entries


def write_ground_truth(path, videos: list[SyntheticVideo]) -> None:
    """Generator-side shot topics, for evaluation only; models never read this."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in videos:
            row = {"id": v.video_id, "kind": v.kind, "topics": v.topics.tolist()}
            if v.source_shots is not None:
                row["source_shots"] = v.source_shots.tolist()
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


# -- splits ----------------------------------------------------------------


@dataclass
class CorpusSplit:
    train_movies: list[str]
    val_movies: list[str]
    test_movies: list[str]
    trailer_pool: list[str]
    trailer_subsets: dict[int, list[str]] = field(default_factory=dict)

    def save(self, path) -> None:
        blob = asdict(self)
        blob["trailer_subsets"] = {str(k): v for k, v in self.trailer_subsets.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, indent=0, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CorpusSplit":
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        return cls(
            train_movies=blob["train_movies"], val_movies=blob["val_movies"],
            test_movies=blob["test_movies"], trailer_pool=blob["trailer_pool"],
            trailer_subsets={int(k): v for k, v in blob["trailer_subsets"].items()},
        )


def make_splits(entries: list[VideoManifestEntry], ratios: tuple[float, float, float],
                seed: int, subset_sizes: tuple[int, ...]) -> CorpusSplit:
    """Shuffle movies into train/val/test and build leak-free trailer pools.

    A trailer whose movie landed in val or test is excluded from every
    training subset. Subsets of the requested sizes are nested prefixes
    of one shuffled pool, so a larger subset strictly extends a smaller
    one.
    """
    if len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"split_ratios must be three values in [0, 1], got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split_ratios must sum to 1, got {ratios}")
    movie_ids = [e.video_id for e in entries if e.kind == "movie"]
    if not movie_ids:
        raise ValueError("make_splits: manifest has no movies")
    rng = derive_rng(seed, "split.movies")
    shuffled = [movie_ids[i] for i in rng.permutation(len(movie_ids))]
    n = len(shuffled)
    n_train = round(ratios[0] * n)
    n_val = round(ratios[1] * n)
    if n_train + n_val > n:
        raise ValueError(f"ratios {ratios} overfill {n} movies")
    train = shuffled[:n_train]
    val = shuffled[n_train:n_train + n_val]
    test = shuffled[n_train + n_val:]

    held_out = set(val) | set(test)
    eligible = [e.video_id for e in entries
                if e.kind == "trailer"
                and (e.linked_movie_id is None or e.linked_movie_id not in held_out)]
    pool_rng = derive_rng(seed, "split.trailers")
    pool = [eligible[i] for i in pool_rng.permutation(len(eligible))]

    subsets = {}
    for size in subset_sizes:
        if size > len(pool):
            raise ValueError(f"requested trailer subset of {size} but only {len(pool)} eligible")
        subsets[size] = pool[:size]
    return CorpusSplit(train, val, test, pool, subsets)
