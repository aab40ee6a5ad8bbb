"""Run the same command forms on two source trees and compare every output.

Usage: python tools/output_sweep.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold a ``sparseca``
package, such as the ``src`` of two checkouts. Each tree first writes its
own inputs: the bundled music table, the synthetic speech corpus at its
default 43 documents and at 120 documents, and two token files of the
43-document corpus, and the two trees' inputs are compared. One token
file lists the triples document by document; the other shuffles them
across documents, splits some counts over two triples with fractional
parts, holds blank lines, and starts with a stoplisted triple of a
document. Then every form in ``TABLE_FORMS`` runs on each table, and
every form in ``DTM_FORMS`` on each token file, each in a fresh
interpreter through ``python -m sparseca.cli``, the two trees side by
side.

A run pair differs when the exit codes, the standard output, the standard
error or the bytes of any output file differ. The work directory and the
tree's own path are replaced by placeholders before the streams are
compared, and so are the line numbers of warnings raised inside the
package, which move whenever code does. The script prints each
difference, then ``runs R files F differ D`` (run pairs, input and output
files compared, differences found), and exits 1 when D is not 0.

It needs only the standard library and the two trees, writes only under
a temporary directory that it removes at the end, and sets
``PYTHONDONTWRITEBYTECODE=1`` so that neither tree gains a cache.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TABLES = ("music", "corpus", "corpus120")
TOKEN_FILES = ("tokens", "tokens_mixed")

# together they draw all seven plot kinds and pass every option the
# sparse fits, searches and clustering read
TABLE_FORMS = [
    ["ca"],
    ["ca", "--dims", "1"],
    ["sca", "--sumabs", "0.9"],
    ["sca", "--sumabs", "0.5", "--nonzero-only"],
    ["sca", "--sumabsu", "2", "--sumabsv", "2", "--dims", "3"],
    ["sca", "--variant", "column", "--nnz", "5"],
    ["sca", "--variant", "column", "--sumabsv", "1.5", "--dims", "1",
     "--col-scale", "barycentric"],
    ["tune", "--step", "0.1"],
    ["tune", "--step", "0.1", "--orientation", "printed"],
    ["tune", "--criterion", "bic", "--step", "0.1"],
    ["tune", "--criterion", "cv", "--step", "0.2", "--seed", "1"],
    ["tune", "--grid-2d", "--points", "4"],
    ["tune", "--step", "0.1", "--after", "0.8"],
    # on the 43-document corpus two of its fits stop at the iteration cap and warn
    ["tune", "--criterion", "cv", "--step", "0.2", "--seed", "1", "--after", "0.8"],
    ["paths"],
    ["paths", "--after", "0.8"],
    ["cluster", "--k", "3"],
    ["cluster", "--k", "2", "--dims", "1"],
    ["cluster", "--k", "2", "--sumabs", "0.6", "--ward-variant", "D"],
]
DTM_FORMS = [
    [],
    ["--stoplist", "stoplist.txt", "--min-count", "5", "--max-vocab", "200"],
]

# writes the inputs into the directory given as its argument
WRITE_INPUTS = """
import random
import sys
from pathlib import Path

from sparseca.datasets import colors_of_music, presidents_scale_corpus
from sparseca.io import write_contingency_csv

out = Path(sys.argv[1])
corpus = presidents_scale_corpus()
tables = {
    "music": colors_of_music(),
    "corpus": corpus,
    "corpus120": presidents_scale_corpus(n_docs=120),
}
for name, table in tables.items():
    write_contingency_csv(table, out / f"{name}.csv")
triples = [
    (doc, token, int(n))
    for doc, row in zip(corpus.row_labels, corpus.counts)
    for token, n in zip(corpus.col_labels, row) if n
]
lines = ["doc_id,token,count", *(f"{doc},{token},{n}" for doc, token, n in triples)]
(out / "tokens.csv").write_text("\\n".join(lines) + "\\n", encoding="utf-8")
stoplist = corpus.col_labels[:5]
(out / "stoplist.txt").write_text("\\n".join(stoplist) + "\\n", encoding="utf-8")

# shuffled, blank lines, a stoplisted first triple for the document that
# comes last otherwise, and some counts split over two triples of
# fractional parts that sum to 1.05 times the count
rng = random.Random(0)
mixed = []
for doc, token, n in triples:
    if rng.random() < 0.3:
        mixed += [f"{doc},{token},{n * 0.6!r}", f"{doc},{token},{n * 0.45!r}"]
    else:
        mixed.append(f"{doc},{token},{n}")
rng.shuffle(mixed)
last = list(dict.fromkeys(line.split(",")[0] for line in mixed))[-1]
for k in sorted(rng.sample(range(len(mixed)), 20), reverse=True):
    mixed.insert(k, "")
lines = ["doc_id,token,count", f"{last},{stoplist[0]},4", *mixed]
(out / "tokens_mixed.csv").write_text("\\n".join(lines) + "\\n", encoding="utf-8")
"""


def start(src: Path, argv: list, cwd: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def normalized(text: bytes, work: Path, src: Path) -> str:
    out = text.decode("utf-8", errors="replace")
    out = out.replace(str(work), "<work>").replace(str(src), "<src>")
    # a warning's location inside the package: its file stays, its line goes
    return re.sub(r"(<src>[^\s:]*\.py):\d+:", r"\1:<line>:", out)


def outputs(run_dir: Path) -> dict:
    """The bytes of every file under ``run_dir``, by relative path."""
    return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}


def run_pair(trees, label, argv, differences) -> int:
    """Run one form on both trees, each in its work directory; record its
    differences; return the number of output files compared."""
    procs = [start(src, argv, work) for src, work in trees]
    (out_a, err_a, code_a), (out_b, err_b, code_b) = [
        proc.communicate() + (proc.returncode,) for proc in procs
    ]
    (src_a, work_a), (src_b, work_b) = trees
    print(f"{label}: exit {code_a}, {code_b}: {' '.join(argv[2:])}", file=sys.stderr, flush=True)
    if code_a != code_b:
        differences.append(f"{label}: exit {code_a} != {code_b}")
    for name, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if normalized(a, work_a, src_a) != normalized(b, work_b, src_b):
            differences.append(f"{label}: {name} differs")
    files_a, files_b = outputs(work_a / label), outputs(work_b / label)
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            differences.append(f"{label}: {name} written by one tree only")
        elif files_a[name] != files_b[name]:
            differences.append(f"{label}: {name} differs")
    return len(files_a.keys() | files_b.keys())


def sweep(parent: Path, change: Path, root: Path) -> tuple:
    trees = [(parent, root / "parent"), (change, root / "change")]
    differences = []
    for src, work in trees:
        work.mkdir()
    procs = [start(src, ["-c", WRITE_INPUTS, str(work)], work) for src, work in trees]
    for proc in procs:
        _, err = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"writing the inputs failed:\n{err.decode()}")
    n_files = 0
    for name in [f"{n}.csv" for n in TABLES + TOKEN_FILES] + ["stoplist.txt"]:
        n_files += 1
        if (root / "parent" / name).read_bytes() != (root / "change" / name).read_bytes():
            differences.append(f"input {name} differs")
    jobs = []
    for table in TABLES:
        for i, form in enumerate(TABLE_FORMS):
            label = f"{table}-{i:02d}-{form[0]}"
            jobs.append((label, ["-m", "sparseca.cli", form[0], f"{table}.csv", *form[1:],
                                 "--out-dir", label]))
    for tokens in TOKEN_FILES:
        for i, form in enumerate(DTM_FORMS):
            label = f"{tokens}-{i:02d}-dtm"
            jobs.append((label, ["-m", "sparseca.cli", "dtm", f"{tokens}.csv", *form,
                                 "--out", f"{label}/dtm.csv"]))
            for _, work in trees:
                (work / label).mkdir()
    for label, argv in jobs:
        n_files += run_pair(trees, label, argv, differences)
    return len(jobs), n_files, differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "sparseca" / "__init__.py").is_file():
            parser.error(f"{src} holds no sparseca package")
    root = Path(tempfile.mkdtemp(prefix="output_sweep_"))
    try:
        n_runs, n_files, differences = sweep(
            args.parent_src.resolve(), args.change_src.resolve(), root
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in differences:
        print(line)
    print(f"runs {n_runs} files {n_files} differ {len(differences)}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
