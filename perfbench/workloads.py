"""Workload inputs and the argument list of every pipeline step.

Each round of a workload starts from a document-term table written out
as seeded token triples (doc_id, token, count). The pipeline turns the
triples into a table with ``dtm`` and runs the five analysis
subcommands on that table. The expected table -- the counts with
columns in ``dtm``'s documented order -- is kept beside the inputs so
the checks need nothing from the program's outputs to know what they
should be.

``music`` uses the bundled table in every round. ``large`` draws a
fresh table for every round from the run's seed and the round number:
how many iterations the rank-1 fits need varies from table to table by
a third, so a run's median over several tables varies from seed to seed
far less than a single table's figures would.
"""

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

STEPS = ("dtm", "ca", "tune", "sca", "paths", "cluster")

# per-workload flags; the table path and --out-dir are added per step
WORKLOADS = {
    # 10x9 bundled survey table; cross-validated tuning on the four
    # coupled budgets 0.4, 0.6, 0.8 and 1.0
    "music": {
        "tune": ["--criterion", "cv", "--step", "0.2"],
        "sca": ["--nnz", "4"],
        "cluster": ["--k", "3"],
    },
    # seeded table from large_table(); BIC on a coarse grid
    "large": {
        "tune": ["--criterion", "bic", "--step", "0.1"],
        "sca": ["--variant", "column", "--nnz", "40"],
        "cluster": ["--k", "5"],
    },
}

LARGE_DOCS = 120
LARGE_VOCAB = 800


@dataclass
class Table:
    """Counts with labels: documents are rows, tokens are columns."""

    counts: np.ndarray
    row_labels: list
    col_labels: list


@dataclass
class Workload:
    """Inputs of one run: each round's token triples on disk plus the
    table ``dtm`` should make of them.

    Each round writes into a directory of its own, so no step overwrites
    a file an earlier round wrote.
    """

    name: str
    seed: int
    work_dir: Path
    table_of: Callable[[int], Table]
    flags: dict
    round: int = 0
    expected: Table = None
    state: dict = field(default_factory=dict)

    def start_round(self) -> None:
        """Write the current round's token triples and expected table."""
        self.round_dir.mkdir(parents=True)
        table = self.table_of(self.round)
        write_triples(table, self.tokens_path, np.random.default_rng([self.seed, self.round, 1]))
        self.expected = dtm_order(table)

    def next_round(self) -> None:
        self.round += 1
        self.start_round()

    def tune_seed(self) -> int:
        """Cross-validation seed of the current round. Rounds come in
        pairs sharing a seed, so every second round repeats the one
        before it; successive pairs draw fresh folds."""
        return self.seed * 1000 + self.round // 2

    def argv(self, step: str) -> list:
        """Arguments of ``sparseca`` for one step, without the program name."""
        if step == "dtm":
            return ["dtm", str(self.tokens_path), "--out", str(self.table_path)]
        if step == "tune":
            extra = list(self.flags["tune"])
            if "cv" in extra:
                extra += ["--seed", str(self.tune_seed())]
        else:
            extra = list(self.flags.get(step, []))
        return [step, str(self.table_path), *extra, "--out-dir", str(self.out_dir(step))]

    @property
    def round_dir(self) -> Path:
        return self.work_dir / f"round{self.round}"

    @property
    def tokens_path(self) -> Path:
        return self.round_dir / "tokens.csv"

    @property
    def table_path(self) -> Path:
        return self.round_dir / "dtm.csv"

    def out_dir(self, step: str) -> Path:
        return self.round_dir / step


def _syllable_words(n: int, rng) -> list:
    """``n`` unique pronounceable tokens; their sort order is unrelated
    to their column index, so ``dtm``'s token tie-break is exercised."""
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    words, seen = [], set()
    while len(words) < n:
        k = 2 + int(rng.integers(3))
        word = "".join(
            consonants[int(rng.integers(len(consonants)))] + vowels[int(rng.integers(len(vowels)))]
            for _ in range(k)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def large_table(seed: int, round_: int = 0, n_docs: int = LARGE_DOCS,
                vocab: int = LARGE_VOCAB) -> Table:
    """Seeded document-term counts: a Zipf background plus three planted
    contrasts, Poisson-sampled.

    The structure -- term blocks, their weights and the documents'
    positions on a gradient and two cycles -- is fixed; the seed and the
    round draw the counts and the token spellings. So the work the
    pipeline does stays about the same from table to table while the
    data change. Every token occurs at least twice in the corpus and
    every document is nonempty, so ``dtm`` with its default filters
    keeps the table.
    """
    rng = np.random.default_rng([seed, round_, 7331])
    t = np.linspace(0.0, 1.0, n_docs)
    scores = np.column_stack([2.0 * t - 1.0, np.cos(3.0 * np.pi * t), np.sin(5.0 * np.pi * t)])
    loadings = np.zeros((3, vocab))
    for k, (first, size, weight) in enumerate(((10, 120, 1.4), (130, 200, 0.9), (330, 300, 0.7))):
        block = np.arange(first, first + size)
        loadings[k, block] = weight * np.where(block % 2 == 0, 1.0, -1.0)
    base = 1.0 / (np.arange(vocab) + 8.0) ** 1.1
    lengths = 900 + (400 * np.sin(2.2 * np.pi * t) ** 2).astype(int)
    rates = base * np.exp(scores @ loadings)
    rates *= (lengths / rates.sum(axis=1))[:, None]
    counts = rng.poisson(rates).astype(float)
    counts = counts[:, counts.sum(axis=0) > 1]
    words = _syllable_words(counts.shape[1], rng)
    docs = [f"doc{i + 1:04d}" for i in range(n_docs)]
    return Table(counts, docs, words)


def music_table() -> Table:
    """The program's bundled survey table, read through its public datasets."""
    from sparseca import colors_of_music

    table = colors_of_music()
    return Table(np.array(table.counts), list(table.row_labels), list(table.col_labels))


def dtm_order(table: Table) -> Table:
    """Columns by descending total, ties by token; rows unchanged."""
    totals = table.counts.sum(axis=0)
    order = sorted(range(len(table.col_labels)), key=lambda j: (-totals[j], table.col_labels[j]))
    return Table(table.counts[:, order], list(table.row_labels), [table.col_labels[j] for j in order])


def write_triples(table: Table, path: Path, rng) -> None:
    """One document after another, tokens shuffled within each document;
    a tenth of the counts above one are split over two triples."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["doc_id", "token", "count"])
        for i, doc in enumerate(table.row_labels):
            row = table.counts[i]
            for j in rng.permutation(np.flatnonzero(row)):
                count = int(row[j])
                token = table.col_labels[j]
                if count > 1 and rng.random() < 0.1:
                    first = int(rng.integers(1, count))
                    writer.writerow([doc, token, first])
                    writer.writerow([doc, token, count - first])
                else:
                    writer.writerow([doc, token, count])


def prepare(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the first round's token triples into ``work_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name == "large":
        def table_of(round_):
            return large_table(seed, round_)
    else:
        music = music_table()

        def table_of(round_):
            return music
    workload = Workload(name=name, seed=seed, work_dir=work_dir, table_of=table_of,
                        flags=WORKLOADS[name])
    workload.start_round()
    return workload
