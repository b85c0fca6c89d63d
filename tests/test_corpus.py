"""The CLI's exit codes and output bytes over a seeded corpus of instance files.

Each file is drawn from `harness.SplitMix64` (not Hypothesis, whose draws
change between versions): d <= 6, m <= 3, lambda from 1e-323 to 1e308 with
ties, and vector entries over the double range with zeros.  Every file runs
in process through `cli.main` as `bounds F --csv C` and `eig F`, and at m = 1
also as `eig F --method secular`.  `tests/golden/cli_corpus.txt` holds one
line per (file, command): the file number, the command, the exit code and a
short hash of stdout, stderr and the CSV, with the temporary directory
replaced by a placeholder.

A change meant to keep behaviour leaves the golden alone.  One that changes
bytes on purpose regenerates it with

    PYTHONPATH=src python tests/test_corpus.py

and names each line that moved.
"""

import contextlib
import functools
import hashlib
import io
import math
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from eigenpert import cli, harness

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_corpus.txt"
N_FILES = 400
CORPUS_SEED = 0xC0DE
# exit code -> runs, per command, over the whole corpus
TALLIES = {
    "bounds": {0: 305, 1: 3, 3: 92},
    "eig": {0: 313, 3: 87},
    "eig-secular": {0: 68, 3: 11},
}


def _magnitude(rng: harness.SplitMix64, lo: int, hi: int) -> float:
    """A positive double (1 + u) * 2^e with e uniform in lo..hi."""
    return math.ldexp(1.0 + rng.next_unit(), lo + int(rng.next_raw() % (hi - lo + 1)))


def corpus_text(k: int) -> tuple:
    """The text of corpus file k and its m.

    Half the files draw lambda from 2^-1074 (about 1e-323) to about 1e308,
    the other half from 1e-3 to 1e3; the d values come from a pool of at most
    d, so ties are common.  A vector entry is 0 one time in five, and
    otherwise of either sign with its magnitude from 2^-1075 to about 1e308
    one time in four and from 1e-3 to 10 otherwise.
    """
    rng = harness.SplitMix64(harness.derive_seed(CORPUS_SEED, k))
    d = 1 + int(rng.next_raw() % 6)
    m = int(rng.next_raw() % 4)
    lo, hi = (-1074, 1022) if rng.next_unit() < 0.5 else (-10, 9)
    pool = [_magnitude(rng, lo, hi) for _ in range(1 + int(rng.next_raw() % d))]
    lambdas = sorted((pool[rng.next_raw() % len(pool)] for _ in range(d)), reverse=True)

    def entry() -> float:
        if rng.next_unit() < 0.2:
            return 0.0
        sign = -1.0 if rng.next_unit() < 0.5 else 1.0
        wide = rng.next_unit() < 0.25
        return sign * _magnitude(rng, *((-1075, 1022) if wide else (-10, 3)))

    vectors = [[entry() for _ in range(d)] for _ in range(m)]
    text = f"lambdas = {lambdas!r}\n" + "".join(f"vector = {v!r}\n" for v in vectors)
    return text, m


def _run(argv: list, tmp: str, csv) -> str:
    """Exit code and hash of one in-process `cli.main` run; `csv` is the
    path it writes its CSV to, or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    parts = [out.getvalue(), err.getvalue()]
    if csv is not None:
        parts.append(csv.read_text() if csv.exists() else "")
        csv.unlink(missing_ok=True)
    data = "\0".join(parts).replace(tmp, "TMP").encode()
    return f"{code} {hashlib.sha256(data).hexdigest()[:16]}"


def corpus_lines() -> list:
    """One line per (file, command): `k command exit hash`."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        f, csv = Path(tmp) / "instance.txt", Path(tmp) / "entries.csv"
        for k in range(N_FILES):
            text, m = corpus_text(k)
            f.write_text(text)
            runs = [("bounds", ["bounds", str(f), "--csv", str(csv)], csv),
                    ("eig", ["eig", str(f)], None)]
            if m == 1:
                runs.append(("eig-secular", ["eig", str(f), "--method", "secular"], None))
            for name, argv, csv_path in runs:
                lines.append(f"{k:04d} {name} {_run(argv, tmp, csv_path)}")
    return lines


def tallies(lines) -> dict:
    counts = Counter((line.split()[1], int(line.split()[2])) for line in lines)
    out: dict = {}
    for (name, code), n in sorted(counts.items()):
        out.setdefault(name, {})[code] = n
    return out


@functools.cache
def _lines() -> tuple:
    return tuple(corpus_lines())


def _golden() -> list:
    return [line for line in GOLDEN.read_text().splitlines() if not line.startswith("#")]


class TestCliCorpus:
    def test_lines_match_golden(self):
        lines, golden = list(_lines()), _golden()
        moved = [f"{a!r} != golden {b!r}" for a, b in zip(lines, golden) if a != b]
        assert len(lines) == len(golden) and not moved, "\n".join(moved[:20])

    def test_exit_code_tallies_pinned(self):
        assert tallies(_lines()) == TALLIES


if __name__ == "__main__":
    lines = corpus_lines()
    header = [
        "# eigenpert CLI corpus: file command exit sha256(stdout\\0stderr\\0csv)[:16]",
        "# regenerate: PYTHONPATH=src python tests/test_corpus.py",
    ]
    GOLDEN.write_text("\n".join(header + lines) + "\n")
    print(tallies(lines))
