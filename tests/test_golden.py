"""Golden outputs of the lcsim commands: one sha256 per part of each
in-process `lcsim` invocation (its exit code, stdout, stderr and every file
it writes), frozen in golden.json. A change of output then names the parts
it moved, and every other part stays pinned. An invocation of commands
joined by ` && ` runs them in turn in one directory, so a later one can read
what an earlier one wrote; it runs them all, whatever their exit codes.

Each invocation runs in a fresh directory with relative output paths, so the
digests do not depend on where the suite runs. A token of an invocation that
names a file under tests/fixtures/ has that file copied into the directory
before the first command runs, so an invocation can read checked-in inputs,
and their bytes are pinned parts like the files it writes. To add the
digests of new invocations to golden.json, run

    PYTHONPATH=src python tests/test_golden.py

It keeps every digest already there, adds the invocations that have none and
drops the entries no longer listed, so adding an invocation never freezes a
change of another's output. After an intended change of output, delete the
entries it moves from golden.json by hand first.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
from pathlib import Path

import pytest

from lcsim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
FIXTURES = Path(__file__).with_name("fixtures")

# Small runs, together well under a second: every experiment mode on both
# weight sides with the full event log, settings outside [0, 2π) and on the
# edges of the spin kernel's phase range, runs of
# more than one block with and without their logs, a run without
# coincidences, the scan on both sides, the CHSH command and a refused input;
# then a random trivial sweep, a cosine measure file read back by `trivial
# --measure`, and a missing measure file; the closed-form table as text and
# JSON, in degrees, and a refused angle; builtin uniqueness reports on both
# weight sides, with and without reconstruction, a grid too coarse to verify
# and a missing model file; and a scan on a grid whose analytic column
# differs between libm `pow` and `x*x`. Two invocations read fixtures: a
# cosine measure file in the dense form that `cosine-measure --grid 16` wrote
# before sources were stored as their support, and the benchmark's
# 256-sample |cos| model (`rho` and `p2` uniform, no `scale`). Two cosine
# files off the defaults pin the measure builder for widths other than 8,
# weight side 2, an odd grid and settings outside [0, 2π); the second reads
# CHSH 2.8375, the known excess of a grid off the multiples of 8. A random
# nontrivial 4 × 3 measure, written by `save_measure` without meta, takes
# `trivial --measure` through its observable sweep, and a logged `simulate`
# sets every actor's seed by its own flag.
INVOCATIONS = [
    *(
        f"simulate --pairs 3001 --a 0.3 --b 2.2 --mode {mode} --weight-side {side} --offset 5 "
        f"--events-csv events.csv --debug-hidden --out summary.json"
        for mode in ("coincidence", "weighted", "standard")
        for side in (1, 2)
    ),
    "simulate --pairs 2000 --a 0.3 --b 2.2 --events-csv events.csv",
    "simulate --pairs 2000 --a 40 --b -7 --weight-side 2 --events-csv events.csv",
    "simulate --pairs 2000 --a 1000 --b 0.5 --mode weighted --events-csv events.csv --debug-hidden",
    "simulate --pairs 70000 --a 1000 --b -7 --seed 9",
    "simulate --pairs 70000 --a 1000 --b -7 --seed 9 --events-csv events.csv",
    "simulate --pairs 70000 --a 0.3 --b 2.2 --mode weighted --weight-side 2 --offset 5 "
    "--events-csv events.csv --debug-hidden",
    # Settings whose spin breakpoints sit on the edges of the phase range:
    # a = π/2 makes the phase s itself, b = 3π/2 puts it at s - π, and the
    # last setting is the float just below 2π.
    *(
        f"simulate --pairs 3001 --a 1.5707963267948966 --b 4.71238898038469 --mode {mode} --events-csv events.csv"
        for mode in ("coincidence", "weighted", "standard")
    ),
    "simulate --pairs 3001 --a 6.283185307179585 --b 0.3 --weight-side 2 --events-csv events.csv --debug-hidden",
    # A quarter turn from seed 101's hidden angle: no coincidence, exit 4, a header and one row.
    "simulate --pairs 1 --a 2.1129123801808496 --b 0 --events-csv events.csv",
    "simulate --pairs 10 --a nan --b 0",
    *(f"scan --grid 4 --pairs 2000 --weight-side {side} --out scan.csv" for side in (1, 2)),
    "scan --grid 4 --pairs 500 --seed 3",
    "chsh --pairs 20000",
    "trivial --random 50 --seed 5",
    "cosine-measure --grid 64 --out cosine.json && trivial --measure cosine.json",
    "trivial --measure missing.json",
    "analytic --a 0.3 --b 2.2",
    "analytic --a 0.3 --b 2.2 --json --out analytic.json",
    "analytic --a 30 --b 135 --degrees --json",
    "analytic --a nan --b 0",
    "uniqueness --builtin abs-cos --grid 8 --out report.json",
    "uniqueness --builtin cos-squared --grid 8 --weight-side 2",
    "uniqueness --builtin uniform --grid 8 --no-reconstruction",
    "uniqueness --builtin abs-cos --grid 4",
    "uniqueness --model missing.json",
    "scan --grid 39 --pairs 20 --out scan.csv",
    "trivial --measure cosine-grid16-dense.json",
    "uniqueness --model abs-cos-256.json --grid 8",
    "cosine-measure --grid 16 --a 0.3 --b 2.1 --m1 3 --m2 5 --weight-side 2 --out cosine.json "
    "&& trivial --measure cosine.json",
    "cosine-measure --grid 9 --a -1 --b 7 --m1 1 --m2 1 --out cosine.json && trivial --measure cosine.json",
    "trivial --measure random-nontrivial-4x3.json --sweep 20 --seed 4",
    "simulate --pairs 3001 --a 0.3 --b 2.2 --seed 9 --source-seed 11 --station1-seed 12 --station2-seed 13 "
    "--events-csv events.csv",
    # Sources beyond lcmeasure.TRIVIAL_BLOCK entries, read in two row blocks:
    # a grid-300 cosine file (90,000 entries) and a lone random family of
    # 75,000.
    "cosine-measure --grid 300 --out cosine.json && trivial --measure cosine.json",
    "trivial --random 3 --n1 300 --n2 250 --m1 3 --m2 5 --seed 4",
]


def run(argv: str, directory: Path) -> dict[str, bytes]:
    """Exit code, stdout and stderr of each command of `lcsim argv` run in
    `directory`, which must be empty, and each file there afterwards, by
    name: the fixtures that argv names and the files it writes. The parts of
    the second and later commands carry the command's number."""
    for token in shlex.split(argv):
        if (FIXTURES / token).is_file():
            shutil.copy(FIXTURES / token, directory / token)
    parts = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for i, command in enumerate(argv.split(" && ")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(shlex.split(command))
            prefix = f"command {i} " if i else ""
            parts[f"{prefix}exit code"] = str(code).encode()
            parts[f"{prefix}stdout"] = out.getvalue().encode()
            parts[f"{prefix}stderr"] = err.getvalue().encode()
    finally:
        os.chdir(cwd)
    for path in sorted(directory.iterdir()):
        parts[f"file {path.name}"] = path.read_bytes()
    return parts


def digests(parts: dict[str, bytes]) -> dict[str, str]:
    """The sha256 of each part, by part name."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in parts.items()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def test_every_invocation_has_a_digest(golden):
    assert sorted(golden) == sorted(INVOCATIONS)


def test_every_fixture_is_read_and_pinned(golden):
    tokens = {token: argv for argv in INVOCATIONS for token in shlex.split(argv)}
    for path in FIXTURES.iterdir():
        assert f"file {path.name}" in golden[tokens[path.name]]


@pytest.mark.parametrize("argv", INVOCATIONS)
def test_outputs_match_golden(argv, golden, tmp_path):
    assert digests(run(argv, tmp_path)) == golden[argv], f"output of `lcsim {argv}` changed"


def test_a_swapped_event_log_row_changes_the_digest(golden, tmp_path):
    argv = INVOCATIONS[0]
    parts = run(argv, tmp_path)
    assert digests(parts) == golden[argv]
    header, first, second, *rest = parts["file events.csv"].split(b"\r\n")
    assert first != second
    parts["file events.csv"] = b"\r\n".join([header, second, first, *rest])
    changed = {name for name, sha in digests(parts).items() if sha != golden[argv][name]}
    assert changed == {"file events.csv"}


if __name__ == "__main__":
    import tempfile

    kept = json.loads(GOLDEN.read_text())
    frozen = {}
    for argv in INVOCATIONS:
        if argv in kept:
            frozen[argv] = kept[argv]
            continue
        with tempfile.TemporaryDirectory() as directory:
            frozen[argv] = digests(run(argv, Path(directory)))
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
