"""Quick self-test of the benchmark.

Runs one round of every workload at minimal length (music's tune step
twice, so the repeated-seed check sees a repetition), requires every
step to pass its check, and then shows that each check rejects a
deliberately corrupted output: a corruption that passes is a vacuous
check. Finishes with one short traced run. Exits 0 when all is well.

    python3 perfbench/selftest.py
"""

import csv
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _edit_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _scale_cell(path, row, col, factor):
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) * factor)
    _edit_csv(path, edit)


def _first_nonzero(path, col):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return next(i for i, row in enumerate(rows) if i and float(row[col]) != 0.0)


def _bump_count(wl, stdout):
    def edit(rows):
        rows[1][1] = str(int(rows[1][1]) + 1)
    _edit_csv(wl.table_path, edit)
    return stdout


def _swap_columns(wl, stdout):
    def edit(rows):
        for row in rows:
            row[1], row[2] = row[2], row[1]
    _edit_csv(wl.table_path, edit)
    return stdout


def _scale_eigenvalue(wl, stdout):
    _scale_cell(wl.out_dir("ca") / "eigenvalues.csv", 1, 1, 1.01)
    return stdout


def _drop_eigenvalue(wl, stdout):
    _edit_csv(wl.out_dir("ca") / "eigenvalues.csv", lambda rows: rows.pop())
    return stdout


def _move_selection(wl, stdout):
    def edit(rows):
        sel = next(i for i, row in enumerate(rows) if row[-1] == "1")
        other = 1 if sel != 1 else 2
        rows[sel][-1], rows[other][-1] = "0", "1"
    _edit_csv(wl.out_dir("tune") / "tuning_grid.csv", edit)
    return stdout


def _perturb_criterion(wl, stdout):
    # a non-selected cell of a minimized criterion, moved up so the
    # optimum stays where it was
    def edit(rows):
        i = next(i for i, row in enumerate(rows) if i and row[-1] == "0")
        rows[i][1] = repr(float(rows[i][1]) * 1.01)
    _edit_csv(wl.out_dir("tune") / "tuning_grid.csv", edit)
    return stdout


def _misreport_optimum(wl, stdout):
    return stdout.replace(" row / ", "1 row / ", 1)


def _zero_weight(wl, stdout):
    path = wl.out_dir("sca") / "cols.csv"
    _scale_cell(path, _first_nonzero(path, 1), 1, 0.0)
    return stdout


def _stretch_weights(wl, stdout):
    def edit(rows):
        for row in rows[1:]:
            row[1] = repr(float(row[1]) * 1.01)
    _edit_csv(wl.out_dir("sca") / "cols.csv", edit)
    return stdout


def _shrink_budget(wl, stdout):
    lines = stdout.splitlines()
    first = next(i for i, line in enumerate(lines) if "sumabsv" in line)
    head, budget = lines[first].rsplit("sumabsv ", 1)
    lines[first] = f"{head}sumabsv {float(budget) * 0.9:.6g}"
    return "\n".join(lines)


def _scale_pseudo_eigenvalue(wl, stdout):
    _scale_cell(wl.out_dir("sca") / "eigenvalues.csv", 1, 1, 1.01)
    return stdout


def _edit_svg(wl, edit):
    path = wl.out_dir("paths") / "weight_paths.svg"
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def _drop_path(wl, stdout):
    def edit(text):
        start = text.index('<polyline')
        return text[:start] + text[text.index("/>", start) + 2:]
    _edit_svg(wl, edit)
    return stdout


def _drop_point(wl, stdout):
    def edit(text):
        start = text.index('points="') + len('points="')
        first_end = text.index(" ", start)
        return text[:start] + text[first_end + 1:]
    _edit_svg(wl, edit)
    return stdout


def _move_row(wl, stdout):
    def edit(rows):
        rows[1][1] = str((int(rows[1][1]) + 1) % int(wl.flags["cluster"][1]))
    _edit_csv(wl.out_dir("cluster") / "clusters.csv", edit)
    return stdout


def _shift_typicality(wl, stdout):
    def edit(rows):
        rows[1][3] = repr(float(rows[1][3]) + 0.5)
    _edit_csv(wl.out_dir("cluster") / "typicality.csv", edit)
    return stdout


CORRUPTIONS = {
    "dtm": [("a count off by one", _bump_count), ("two columns swapped", _swap_columns)],
    "ca": [("an eigenvalue 1% high", _scale_eigenvalue), ("an eigenvalue missing", _drop_eigenvalue)],
    "tune": [("selection moved to another cell", _move_selection),
             ("optimum misreported on stdout", _misreport_optimum)],
    "sca": [("a kept weight zeroed", _zero_weight), ("weights stretched 1%", _stretch_weights),
            ("budget reported 10% lower", _shrink_budget),
            ("pseudo-eigenvalue 1% high", _scale_pseudo_eigenvalue)],
    "paths": [("one path removed", _drop_path), ("one point removed", _drop_point)],
    "cluster": [("a row moved to another cluster", _move_row),
                ("a typicality score shifted", _shift_typicality)],
}
EXTRA = {"cv": [("a criterion value changed between repetitions", _perturb_criterion)]}


def _snapshot(wl, step):
    """Copy the files a step's check reads, to restore after a corruption."""
    keep = wl.work_dir / "keep"
    shutil.rmtree(keep, ignore_errors=True)
    target = wl.table_path if step == "dtm" else wl.out_dir(step)
    if target.is_dir():
        shutil.copytree(target, keep)
    else:
        keep.mkdir()
        shutil.copy2(target, keep / target.name)
    return target, keep


def _restore(target, keep):
    if target.is_dir():
        shutil.rmtree(target)
        shutil.copytree(keep, target)
    else:
        shutil.copy2(keep / target.name, target)


def selftest_workload(name, seed, say):
    problems = []
    work_dir = run.WORK / f"selftest-{name}-seed{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        wl = workloads.prepare(name, seed, work_dir)
        env, code = run.child_env(), run.launcher()
        outputs = {}
        steps = list(workloads.STEPS)
        if name == "music":
            steps.append("tune")
        for step in steps:
            _seconds, _mb, rc, stdout = run.run_step(wl, step, env, code)
            outputs[step] = stdout
            problem = run.check_step(wl, step, rc, stdout)
            say(f"{'FAIL' if problem else 'ok  '} {name} {step} passes its check"
                + (f": {problem}" if problem else ""))
            if problem:
                problems.append(problem)
        criterion = wl.flags["tune"][wl.flags["tune"].index("--criterion") + 1]
        for step in workloads.STEPS:
            cases = CORRUPTIONS[step] + (EXTRA.get(criterion, []) if step == "tune" else [])
            for what, corrupt in cases:
                target, keep = _snapshot(wl, step)
                try:
                    caught = run.check_step(wl, step, 0, corrupt(wl, outputs[step]))
                finally:
                    _restore(target, keep)
                say(f"{'ok  ' if caught else 'FAIL'} {name} {step} rejects {what}"
                    + (f": {caught}" if caught else " (check is vacuous)"))
                if not caught:
                    problems.append(f"{name} {step}: {what} not caught")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return problems


def main():
    def say(line):
        print(line, flush=True)

    try:
        run.entry_point()
    except run.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name in workloads.WORKLOADS:
        problems += selftest_workload(name, 1, say)
    traced = run.run_workload("music", 1, 0.0, True, lambda line: None)
    ok = traced["correct"] and traced["metrics"]["sparse.pmd_rank1.calls"]["value"] > 0
    say(f"{'ok  ' if ok else 'FAIL'} music traced run reports per-layer metrics")
    if not ok:
        problems.append("traced run")
    say(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
