"""Golden CSV: every subcommand's output against committed reference files.

Each case runs one subcommand through ``cli.run`` on a small fixed config and
compares the CSV with ``tests/golden/<case>.csv``.  The comment line, the
header, text and integer fields must match exactly; floats must agree to
1e-12 relative (1e-300 absolute at zeros), so that a different BLAS does not
trip the comparison.

Rewrite the golden files (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden_csv.py [CASE ...]

which rewrites the named cases, or every case when none is named.  With
``--digest`` it writes no file and prints ``<sha256>  <case>  same`` (or
``differs``) for each named case (or every case) instead: the hash shows
two checkouts byte-identical, and the mark whether the output is the
bytes of the committed file.  It exits 1 when any case differs and 0 when
all are the same, so "byte-identical to the committed golden files" is one
command's exit status:

    PYTHONPATH=src python tests/test_golden_csv.py --digest [CASE ...]

With ``--delta`` it writes no file either and prints, for each named case
(or every case) and each column whose committed fields are all numbers,
``<case>  <column>  <change>``: the largest relative change of the column's
fields against the committed file (the absolute change where a committed
field is 0).  It exits 0, so a regeneration can be sized before it is made:

    PYTHONPATH=src python tests/test_golden_csv.py --delta [CASE ...]
"""

import hashlib
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from casimir_stability import translation
from casimir_stability.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

PEC = {"type": "pec"}
PAIR = {
    "objects": [
        {"label": "a", "center": [0, 0, 0], "radius": 1.0, "eps": PEC},
        {"label": "b", "center": [0, 0, 4.0], "radius": 1.0, "eps": PEC},
    ],
    "l_max": 3,
    "n_nodes": 8,
}
# a dielectric medium, an explicit object mu and an explicit plate mu
MIXED = {
    "length_unit": "1 um",
    "medium": {"eps": {"type": "constant", "value": 2.0}},
    "objects": [
        {"label": "a", "center": [0, 0, 0], "radius": 1.0,
         "eps": {"type": "constant", "value": 6.0},
         "mu": {"type": "constant", "value": 1.5}},
        {"label": "b", "center": [0.4, 0.3, 3.6], "radius": 0.8, "eps": PEC},
        {"label": "c", "center": [2.9, 0.0, 1.8], "radius": 0.5,
         "eps": {"type": "drude", "omega_p": 4.0, "gamma": 0.2}},
    ],
    "l_max": 2,
    "n_nodes": 8,
    "stability": {"object": "a", "h": 0.05},
    "plates": {
        "material1": {"eps": {"type": "constant", "value": 3.0},
                      "mu": {"type": "constant", "value": 2.0}},
        "material2": {"eps": PEC},
        "gap": 1.0,
    },
}
CLASSICAL = {
    "classical": {
        "label": "a",
        "beta": 2.0,
        "steps": 2000,
        "step_size": 0.25,
        "containers": [
            {"label": label, "shape": "sphere", "center": [0, 0, z], "size": 0.3,
             "mobile_charges": [{"charge": q, "tether": {"k": 5.0}}]}
            for label, z, q in (("a", 0.0, 1.0), ("b", 1.2, -1.0))
        ],
    }
}

CASES = {
    "classify": ("classify", MIXED, ()),
    "energy_T0": ("energy", PAIR, ()),
    "energy_tau": ("energy", dict(PAIR, tau=0.5), ()),
    "force": ("force", PAIR, ()),
    "stability": ("stability", MIXED, ()),
    "sweep": (
        "sweep",
        dict(PAIR, l_max=2, sweep={"object": "b", "axis": 2, "values": [0.0, 0.5],
                                   "quantity": "both"}),
        (),
    ),
    "plates": ("plates", MIXED, ("--tol", "1e-6")),
    "plates_tau": (
        "plates",
        {"plates": {"material1": {"eps": PEC}, "material2": {"eps": PEC},
                    "gap": 1.0, "tau": 2.0}},
        (),
    ),
    "mc": ("mc", CLASSICAL, ("--seed", "1")),
}


def _argv(name, tmp_dir):
    """The case's command line, its config written under ``tmp_dir``."""
    command, cfg, args = CASES[name]
    cfg_path = Path(tmp_dir) / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return [command, str(cfg_path), *args, "--output", str(Path(tmp_dir) / f"{name}.csv")]


def _output(name, tmp_dir):
    code = run(_argv(name, tmp_dir))
    assert code == 0
    return (Path(tmp_dir) / f"{name}.csv").read_text(encoding="utf-8")


def _field_matches(want, got):
    for kind in (int, float):
        try:
            w, g = kind(want), kind(got)
        except ValueError:
            continue
        if kind is int:
            return w == g
        return math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-300)
    return want == got


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(name, tmp_path):
    want = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8").split("\n")
    got = _output(name, tmp_path).split("\n")
    # comment line and header exactly, then every field
    assert got[:2] == want[:2]
    assert len(got) == len(want)
    for want_line, got_line in zip(want[2:], got[2:]):
        want_fields, got_fields = want_line.split(","), got_line.split(",")
        assert len(got_fields) == len(want_fields), got_line
        for w, g in zip(want_fields, got_fields):
            assert _field_matches(w, g), f"{name}: {g!r} != {w!r}"


# runs one command line and prints its exit status and the modules it
# loaded beyond those of ``import casimir_stability.cli``
_NEW_MODULES = """\
import sys
import casimir_stability.cli as cli
loaded = set(sys.modules)
status = cli.run(sys.argv[1:])
print(status, sorted(set(sys.modules) - loaded))
"""


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_loads_no_module_beyond_the_cli_import(name, tmp_path):
    # every start-up cost is paid by the import: a module first loaded
    # inside an op would move its import into the op's time
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES, *_argv(name, tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def _fields(text, names):
    """The named float fields of a CSV output, row after row."""
    lines = text.split("\n")[1:]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return [float(row[header.index(n)]) for row in rows for n in names]


# the finite-difference fields of the golden cases
DIFFERENCES = {
    "force": ("fx", "fy", "fz"),
    "stability": ("fx", "fy", "fz", "laplacian"),
    "sweep": ("force_axis",),
}


@pytest.mark.parametrize("seed", range(4))
def test_differences_hold_under_one_ulp_translation_coefficients(seed, tmp_path, monkeypatch):
    # every nonzero coefficient of the translation tables moved one ulp up or
    # down at random: the force and Laplacian fields, differences of
    # ln det(I - N), move by less than the golden comparison's 1e-12
    want = {name: _fields(_output(name, tmp_path), DIFFERENCES[name]) for name in DIFFERENCES}
    rng, tables, original = np.random.default_rng(seed), {}, translation._coeff_tables

    def perturbed(l_max, spin):
        if (l_max, spin) not in tables:
            table = original(l_max, spin)
            c = table.term_coeff
            toward = np.where(rng.random(c.size) < 0.5, -np.inf, np.inf)
            moved = np.where(c == 0.0, 0.0, np.nextafter(c, toward))
            tables[l_max, spin] = replace(table, term_coeff=moved)
        return tables[l_max, spin]

    monkeypatch.setattr(translation, "_coeff_tables", perturbed)
    got = {name: _fields(_output(name, tmp_path), DIFFERENCES[name]) for name in DIFFERENCES}
    assert got != want  # the perturbation reaches the output
    for name in DIFFERENCES:
        for g, w in zip(got[name], want[name]):
            assert abs(g - w) <= 1e-12 * abs(w), (name, g, w)


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def _deltas(committed, text):
    """(column, largest change) of each all-number column of ``committed``
    (a golden CSV) against ``text``: relative, absolute at a committed 0."""
    want, got = ([line.split(",") for line in t.split("\n")[1:] if line] for t in (committed, text))
    if len(want) != len(got) or want[0] != got[0]:
        raise ValueError("the header or the number of rows differs")
    out = []
    for col, name in enumerate(want[0]):
        pairs = [(_number(w[col]), _number(g[col])) for w, g in zip(want[1:], got[1:])]
        if not pairs or any(w is None or g is None for w, g in pairs):
            continue
        out.append((name, max(abs(g - w) / (abs(w) if w else 1.0) for w, g in pairs)))
    return out


def main(argv, golden=GOLDEN):
    """The command line of this file (see the module docstring) on ``golden``.

    Returns the exit status: 1 when ``--digest`` finds a case that differs.
    """
    digest, delta = "--digest" in argv, "--delta" in argv
    cases = [a for a in argv if a not in ("--digest", "--delta")] or sorted(CASES)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            text = _output(case, tmp)
            if delta:
                committed = (golden / f"{case}.csv").read_text(encoding="utf-8")
                for name, change in _deltas(committed, text):
                    print(f"{case}  {name}  {change:.2g}")
            elif digest:
                committed = golden / f"{case}.csv"
                same = committed.is_file() and committed.read_text(encoding="utf-8") == text
                status = status if same else 1
                mark = "same" if same else "differs"
                print(f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {case}  {mark}")
            else:
                golden.mkdir(exist_ok=True)
                (golden / f"{case}.csv").write_text(text, encoding="utf-8")
                print(f"wrote {golden / case}.csv", file=sys.stderr)
    return status


def test_digest_exit_status_is_the_byte_identity_gate(tmp_path, capsys):
    # one cheap case against a copy of the golden files: unchanged, then
    # with one byte appended
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    assert main(["--digest", "classify"], golden) == 0
    assert capsys.readouterr().out.endswith("  classify  same\n")
    path = golden / "classify.csv"
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert main(["--digest", "classify"], golden) == 1
    assert capsys.readouterr().out.endswith("  classify  differs\n")


def test_delta_of_an_unchanged_tree_is_zero(capsys):
    # every number column of every case, against the committed files
    assert main(["--delta"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cases = {line.split("  ")[0] for line in lines}
    assert cases == set(CASES) - {"classify"}  # classify has no number column
    assert all(line.endswith("  0") for line in lines), lines


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
