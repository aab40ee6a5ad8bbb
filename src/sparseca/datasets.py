"""Bundled example tables.

Two datasets ship with the package: a small color-by-music survey table
used throughout the docs, and a deterministic synthetic document-term
table sized like a small historical speech corpus, for exercising the
pipeline at realistic scale without network access.
"""

import numpy as np

from .ca import ContingencyTable
from .errors import DegenerateInputError, InputError, SparseCAError

MUSIC_ROWS = ["Red", "Orange", "Yellow", "Green", "Blue",
              "Purple", "White", "Black", "Pink", "Brown"]
MUSIC_COLS = ["Low F", "Middle F", "High F", "Opera", "Jazz",
              "Pop", "Rap", "Rock", "Video"]

# 22 respondents heard each excerpt and named one color; columns sum to 22.
_MUSIC_COUNTS = [
    [2, 2, 2, 3, 2, 2, 2, 2, 3],
    [2, 2, 2, 2, 2, 2, 2, 2, 2],
    [1, 2, 4, 2, 2, 2, 1, 2, 2],
    [2, 3, 2, 2, 2, 3, 0, 2, 2],
    [2, 2, 2, 3, 2, 2, 2, 2, 2],
    [2, 2, 2, 3, 2, 1, 2, 2, 3],
    [1, 2, 4, 2, 2, 2, 1, 2, 3],
    [6, 2, 1, 2, 3, 2, 8, 3, 2],
    [2, 2, 2, 1, 2, 2, 2, 2, 2],
    [2, 3, 1, 2, 3, 4, 2, 3, 1],
]


def colors_of_music() -> ContingencyTable:
    """Color choices (rows) cross-tabulated with musical excerpts (columns).

    Twenty-two listeners heard each of nine excerpts (three pure tones and
    six short genre pieces) and picked the color that fit it best, so every
    column sums to 22 and the grand total is 198.
    """
    counts = np.array(_MUSIC_COUNTS, dtype=float)
    if counts.shape != (10, 9):
        raise SparseCAError(f"bundled music table has shape {counts.shape}, not (10, 9)")
    if np.any(counts.sum(axis=0) != 22):
        raise SparseCAError("bundled music table has a column not summing to 22")
    return ContingencyTable.from_counts(counts, list(MUSIC_ROWS), list(MUSIC_COLS))


_SYLLABLES = ["ba", "be", "bo", "da", "de", "di", "ga", "go", "ka", "ke",
              "la", "le", "li", "lo", "ma", "me", "mi", "mo", "na", "ne",
              "no", "pa", "pe", "po", "ra", "re", "ri", "ro", "sa", "se",
              "si", "so", "ta", "te", "ti", "to", "va", "ve", "vi", "vo"]
# distinct two- and three-syllable stems
_N_STEMS = len(_SYLLABLES) ** 2 + len(_SYLLABLES) ** 3


def _stem_labels(n: int, rng) -> list:
    """Pronounceable, unique pseudo-stems in a deterministic order."""
    seen = set()
    labels = []
    while len(labels) < n:
        k = 2 + int(rng.integers(2))
        word = "".join(_SYLLABLES[int(rng.integers(len(_SYLLABLES)))]
                       for _ in range(k))
        if word not in seen:
            seen.add(word)
            labels.append(word)
    return labels


def presidents_scale_corpus(n_docs: int = 43, vocab_size: int = 900,
                            seed: int = 17, min_total: int = 5) -> ContingencyTable:
    """Synthetic document-term counts shaped like a corpus of 43 speeches.

    Documents sit on a smooth temporal gradient (factor 1) crossed with a
    slower stylistic cycle (factor 2); both act on dedicated word blocks
    over a Zipf background, so the spectrum has two dominant dimensions.
    Terms whose corpus-wide count is <= min_total are dropped, which
    leaves roughly 700-800 of the initial vocab_size terms. Deterministic
    for a given seed.
    """
    if n_docs < 1:
        raise InputError(f"n_docs must be at least 1, got {n_docs}")
    # the factor word blocks sit at vocabulary positions 15..319
    if not 320 <= vocab_size <= _N_STEMS:
        raise InputError(f"vocab_size must be in [320, {_N_STEMS}], got {vocab_size}")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_docs)
    x = 2.0 * t - 1.0
    y = np.cos(3.0 * np.pi * t)

    base = 1.0 / (np.arange(vocab_size) + 6.0) ** 1.5
    # factor-1 words drawn from the frequent half so a ~50-term support
    # carries most of the dimension; factor 2 is weaker and broader
    frequent = rng.permutation(np.arange(15, 320))
    block1 = frequent[:90]
    block2 = frequent[90:170]
    a = np.zeros(vocab_size)
    b = np.zeros(vocab_size)
    a[block1[:45]] = rng.uniform(0.9, 1.6, 45)
    a[block1[45:]] = -rng.uniform(0.9, 1.6, 45)
    b[block2[:40]] = rng.uniform(0.6, 1.1, 40)
    b[block2[40:]] = -rng.uniform(0.6, 1.1, 40)

    lengths = (1500 + 420.0 * np.sin(2.2 * np.pi * t) ** 2
               + rng.integers(0, 240, n_docs)).astype(int)
    counts = np.zeros((n_docs, vocab_size))
    for i in range(n_docs):
        mu = base * np.exp(1.55 * a * x[i] + 0.95 * b * y[i])
        mu = mu / mu.sum() * lengths[i]
        counts[i] = rng.poisson(mu)

    keep = counts.sum(axis=0) > min_total
    counts = counts[:, keep]
    if counts.shape[1] < 300:
        raise DegenerateInputError(
            f"only {counts.shape[1]} terms occur more than min_total={min_total}"
            " times; the corpus needs at least 300"
        )

    doc_labels = [f"speech_{i + 1:02d}" for i in range(n_docs)]
    term_labels = _stem_labels(vocab_size, np.random.default_rng(seed + 1))
    term_labels = [lab for lab, k in zip(term_labels, keep) if k]
    return ContingencyTable.from_counts(counts, doc_labels, term_labels)
