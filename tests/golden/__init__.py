"""Golden CLI outputs: a pinned command list and the files it writes.

Each command in ``RUNS`` ran with ``--out`` and left ``NAME.json`` (and,
for solve and band, ``NAME.csv``) in this directory; ``cases`` takes no
``--out`` and left its stdout.  ``refusals.json`` holds the exit code and
stderr of each command in ``REFUSALS``.  ``python -m tests.golden.update``
reruns the list and rewrites every file; a change that moves a golden
says which files and fields moved, and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from mcie.cli import run

HERE = Path(__file__).resolve().parent

_CASES = ("fred-lin-const", "fred-smooth", "volt-exp", "volt-smooth")

# Command name -> argv, without --out.
RUNS: "dict[str, list[str]]" = {
    f"{command}-{case}-s{seed}": [command, "--case", case, "--seed", str(seed)]
    for case in _CASES
    for command in ("solve", "band")
    for seed in (0, 1)
}
RUNS.update({
    f"{command}-{name}": [command, *args.split()]
    for command in ("solve", "band")
    for name, args in (
        ("volt-exp-tau5", "--case volt-exp --tau-grid 5"),
        ("volt-smooth-g9-tau17", "--case volt-smooth --grid 9 --tau-grid 17"),
        ("volt-smooth-N2000-m2", "--case volt-smooth --N 2000 --m 2"),
        ("fred-smooth-uniform", "--case fred-smooth --N 5000 --schedule uniform"),
    )
})
RUNS.update({name: argv.split() for name, argv in {
    "solve-volt-smooth-m1": "solve --case volt-smooth --N 2000 --m 1",
    "solve-volt-exp-N20000-m4": "solve --case volt-exp --N 20000 --m 4 --seed 1",
    "solve-fred-smooth-N200000-m2": "solve --case fred-smooth --N 200000 --m 2",
    "solve-fred-smooth-grid300": "solve --case fred-smooth --N 100000 --grid 300",
    "band-fred-lin-const-m8": "band --case fred-lin-const --N 1000 --m 8",
    "band-volt-smooth-asymptotic":
        "band --case volt-smooth --N 5000 --schedule asymptotic --level 0.9",
    "coverage-fred-smooth": "coverage --case fred-smooth --N 2000 --m 2 --reps 3 --level 0.9",
    "coverage-fred-lin-const": "coverage --case fred-lin-const --N 400 --m 2 --reps 5",
    "coverage-volt-exp": "coverage --case volt-exp --N 2000 --m 2 --reps 3",
    "coverage-volt-smooth": "coverage --case volt-smooth --N 2000 --m 2 --reps 2",
    "rate-fred-smooth": "rate --case fred-smooth --N 1000,4000 --m 2 --reps 3",
    "rate-volt-exp": "rate --case volt-exp --N 500,2000 --reps 3 --seed 2",
    "rate-volt-smooth": "rate --case volt-smooth --N 1000,4000 --m 2 --reps 2",
    "partition-N1000-m3": "partition --N 1000 --m 3",
    "partition-uniform": "partition --N 1000 --m 4 --schedule uniform",
    "partition-asymptotic": "partition --N 1000000 --m 3 --schedule asymptotic",
    "cases": "cases",
}.items()})

# Command name -> argv of a command the CLI refuses.
REFUSALS: "dict[str, list[str]]" = {name: argv.split() for name, argv in {
    "unknown-case": "solve --case no-such-case",
    "missing-case": "band",
    "unknown-flag": "solve --case fred-smooth --bogus 1",
    "bad-level": "band --case fred-smooth --level 1.5",
    "bad-budget": "solve --case fred-smooth --N x",
    "budget-list-outside-rate": "band --case volt-smooth --N 1000,5000",
    "rate-one-budget": "rate --case fred-smooth --N 1000",
    "coverage-asymptotic": "coverage --case fred-smooth --N 400 --m 2 --schedule asymptotic",
    "tau-grid-on-fredholm": "solve --case fred-smooth --tau-grid 5",
    "volt-exp-grid": "solve --case volt-exp --grid 7",
    "budget-below-stages": "solve --case volt-smooth --N 4 --m 3",
    "asymptotic-collapses": "solve --case fred-smooth --N 10 --schedule asymptotic",
    "unwritable-out": "solve --case fred-lin-const --out no-such-dir/run",
}.items()}


def _call(argv: "list[str]") -> "tuple[int, str, str]":
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_command(name: str, argv: "list[str]", workdir: Path) -> "dict[str, str]":
    """Output files of one command of ``RUNS``, by suffix, as text.

    Raises ``AssertionError`` if it fails or its stdout differs from the
    JSON it writes.
    """
    if argv == ["cases"]:
        code, out, err = _call(argv)
        assert code == 0, err
        return {".json": out}
    prefix = workdir / name
    code, out, err = _call([*argv, "--out", str(prefix)])
    assert code == 0, f"{name}: exit {code}: {err}"
    files = {suffix: Path(f"{prefix}{suffix}") for suffix in (".json", ".csv")}
    texts = {suffix: path.read_text() for suffix, path in files.items() if path.exists()}
    assert texts[".json"] == out, f"{name}: stdout differs from {prefix}.json"
    return texts


def refusal(argv: "list[str]") -> dict:
    """Exit code and stderr of a refused command; it must write no stdout."""
    code, out, err = _call(argv)
    assert out == "", f"{argv}: refused command wrote {out!r}"
    return {"exit": code, "stderr": err}


# numpy's float64 sin and cos take different SIMD paths on different CPUs,
# so another machine may move outputs in the last bits; a relative 1e-12
# allows that and still catches any change to an algorithm or its summing
# order that moves a value by more than roundoff.
REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def diff_json(got, want, where: str = "") -> "list[str]":
    """Places where two JSON values differ: floats beyond ``REL_TOL``, anything else at all."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)} != {list(want)}"]
        return [d for key in want for d in diff_json(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in diff_json(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if math.isnan(want) and math.isnan(got) or _close(got, want):
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def diff_csv(got: str, want: str, where: str = "") -> "list[str]":
    """``diff_json`` over the cells of two CSV texts, read as int, float or string."""
    def table(text: str):
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]

    return diff_json(table(got), table(want), where)


def load(name: str, suffix: str) -> str:
    return (HERE / f"{name}{suffix}").read_text()


def load_refusals() -> dict:
    return json.loads((HERE / "refusals.json").read_text())
