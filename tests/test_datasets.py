"""Bundled datasets: self-checks of the music literal and corpus parameters."""

import pytest

from sparseca import datasets
from sparseca.datasets import colors_of_music, presidents_scale_corpus
from sparseca.errors import DegenerateInputError, InputError, SparseCAError


class TestColorsOfMusic:
    def test_missing_row_detected(self, monkeypatch):
        monkeypatch.setattr(datasets, "_MUSIC_COUNTS", datasets._MUSIC_COUNTS[:-1])
        with pytest.raises(SparseCAError, match="shape"):
            colors_of_music()

    def test_wrong_column_total_detected(self, monkeypatch):
        counts = [list(row) for row in datasets._MUSIC_COUNTS]
        counts[0][0] += 1
        monkeypatch.setattr(datasets, "_MUSIC_COUNTS", counts)
        with pytest.raises(SparseCAError, match="summing to 22"):
            colors_of_music()


class TestPresidentsScaleCorpus:
    def test_smallest_vocabulary_builds(self):
        table = presidents_scale_corpus(vocab_size=320)
        assert table.counts.shape[0] == 43
        assert table.counts.shape[1] >= 300

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vocab_size": 100},
            {"vocab_size": 319},
            # more terms than the 40**2 + 40**3 distinct two- and
            # three-syllable stems: the label generator would never end
            {"vocab_size": 65601},
            {"n_docs": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(InputError, match="must be"):
            presidents_scale_corpus(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"n_docs": 4}, {"min_total": 50}])
    def test_too_few_surviving_terms_rejected(self, kwargs):
        with pytest.raises(DegenerateInputError, match="at least 300"):
            presidents_scale_corpus(**kwargs)
