"""CLI: schema validation, exit codes, CSV determinism and round-trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from casimir_stability.cli import emit_csv, run

PAIR_CFG = {
    "objects": [
        {"label": "a", "center": [0, 0, 0], "radius": 1.0, "eps": {"type": "pec"}},
        {"label": "b", "center": [0, 0, 4.0], "radius": 1.0, "eps": {"type": "pec"}},
    ],
    "l_max": 4,
    "n_nodes": 16,
}


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.split("\n")
    assert lines[0].startswith("# length_unit:")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return rows[0], rows[1:]


def test_classify_two_pec_spheres(tmp_path, capsys):
    path = write_cfg(tmp_path, PAIR_CFG)
    code, out, err = run_cli(["classify", path], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["record", "label", "value"]
    table = {(r[0], r[1]): r[2] for r in rows if r}
    assert table[("class", "a")] == "class_i"
    assert table[("class", "b")] == "class_i"
    assert table[("sign_product", "a|b")] == "1"


def test_energy_and_force(tmp_path, capsys):
    path = write_cfg(tmp_path, PAIR_CFG)
    code, out, _ = run_cli(["energy", path], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["tau", "energy"]
    assert float(rows[0][1]) < 0.0
    code, out, _ = run_cli(["force", path], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert float(rows[0][3]) > 0.0  # attraction along +z


def test_plates_closed_form(tmp_path, capsys):
    cfg = {
        "plates": {
            "material1": {"eps": {"type": "pec"}},
            "material2": {"eps": {"type": "pec"}},
            "gap": 1.0,
        }
    }
    path = write_cfg(tmp_path, cfg)
    code, out, _ = run_cli(["plates", path], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(-math.pi**2 / 720.0, rel=1e-6)


PLATES_YAML = """\
plates:
  material1: {eps: {type: pec}}
  material2: {eps: {type: pec}}
  gap: 1.0
tolerance: %s
"""


def test_plain_exponent_without_a_dot_is_a_number(tmp_path, capsys):
    # YAML 1.1 reads 1e-6 as a string; the config loader reads it as the
    # float 1.0e-6 does, while a quoted "1e-6" stays a string and fails the
    # schema
    outputs = []
    for text in ("1e-6", "1.0e-6"):
        path = tmp_path / "cfg.yaml"
        path.write_text(PLATES_YAML % text, encoding="utf-8")
        code, out, _ = run_cli(["plates", str(path)], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    path.write_text(PLATES_YAML % '"1e-6"', encoding="utf-8")
    code, out, err = run_cli(["plates", str(path)], capsys)
    assert code == 2
    assert "'1e-6' is not of type 'number'" in err
    assert out == ""


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = dict(PAIR_CFG)
    cfg["bogus"] = 1
    path = write_cfg(tmp_path, cfg)
    code, out, err = run_cli(["energy", path], capsys)
    assert code == 2
    assert "validation" in err
    assert out == ""


def test_overlap_rejected_before_compute(tmp_path, capsys):
    cfg = {
        "objects": [
            {"label": "a", "center": [0, 0, 0], "radius": 1.0, "eps": {"type": "pec"}},
            {"label": "b", "center": [0, 0, 1.5], "radius": 1.0, "eps": {"type": "pec"}},
        ]
    }
    path = write_cfg(tmp_path, cfg)
    code, _, err = run_cli(["energy", path], capsys)
    assert code == 2
    assert "overlap" in err


@pytest.mark.parametrize(
    "args, extra",
    [
        (["force"], {"stability": {"object": "a", "h": 1.0}}),  # h >= 0.1 * gap
        (["energy", "--lmax", "250"], {}),  # beyond the special functions
    ],
    ids=["force_step", "energy_lmax"],
)
def test_step_and_order_limits_are_validation_errors(tmp_path, capsys, args, extra):
    path = write_cfg(tmp_path, dict(PAIR_CFG, **extra))
    code, out, err = run_cli([args[0], path, *args[1:]], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("command", ["force", "stability"])
def test_underflowing_step_is_a_validation_error(tmp_path, capsys, command):
    # h <= 1e-8 * gap: the differences of ln det would be rounding noise
    cfg = dict(PAIR_CFG, stability={"object": "a", "h": 1e-12})
    path = write_cfg(tmp_path, cfg)
    code, out, err = run_cli([command, path], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "validation"


CLASSICAL_SECTION = {
    "label": "a",
    "steps": 100,
    "containers": [
        {"label": label, "shape": "sphere", "center": [0, 0, z], "size": 0.3,
         "mobile_charges": [{"charge": q, "tether": {"k": 5.0}}]}
        for label, z, q in (("a", 0.0, 1.0), ("b", 1.2, -1.0))
    ],
}
# sphere a's tether anchor lies outside a, where the chain would start
ANCHOR_OUTSIDE = dict(
    CLASSICAL_SECTION,
    containers=[
        dict(CLASSICAL_SECTION["containers"][0],
             mobile_charges=[{"charge": 1.0,
                              "tether": {"k": 5.0, "anchor": [2.0, 0, 0]}}]),
        CLASSICAL_SECTION["containers"][1],
    ],
)
NAN_CENTER = [
    dict(PAIR_CFG["objects"][0], center=[0, 0, math.nan]),
    PAIR_CFG["objects"][1],
]
PEC = {"eps": {"type": "pec"}}


@pytest.mark.parametrize(
    "args, extra, where",
    [
        (["energy", "--lmax", "0"], {}, "--lmax"),
        (["energy", "--lmax", "-2"], {}, "--lmax"),
        (["mc", "--seed", "-1"], {"classical": CLASSICAL_SECTION}, "--seed"),
        (["mc"], {"classical": ANCHOR_OUTSIDE}, "container 'a'"),
        (["energy", "--tol", "-1", "--lmax", "1"], {}, "--tol"),
        (["energy", "--tol", "nan", "--lmax", "1"], {}, "--tol"),
        (["energy"], {"tau": math.nan}, "tau"),
        (["energy"], {"objects": NAN_CENTER}, "objects/0/center/2"),
        (
            ["plates"],
            {"plates": {"material1": PEC, "material2": PEC, "gap": math.inf}},
            "plates/gap",
        ),
    ],
    ids=["lmax_0", "lmax_neg", "seed_neg", "anchor_outside", "tol_neg", "tol_nan",
         "tau_nan", "center_nan", "gap_inf"],
)
def test_out_of_bounds_input_is_a_validation_error(
    tmp_path, capsys, args, extra, where
):
    # flags get their config key's bounds, and no number may be NaN or inf
    path = write_cfg(tmp_path, dict(PAIR_CFG, **extra))
    code, out, err = run_cli([args[0], path, *args[1:]], capsys)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert where in diagnostic["message"]


def _with_models(eps_b=None, mu_b=None, medium=None):
    """PAIR_CFG with sphere b's eps or mu, or the medium, replaced."""
    b = dict(PAIR_CFG["objects"][1])
    if eps_b is not None:
        b["eps"] = eps_b
    if mu_b is not None:
        b["mu"] = mu_b
    cfg = dict(PAIR_CFG, objects=[PAIR_CFG["objects"][0], b])
    if medium is not None:
        cfg["medium"] = medium
    return cfg


def _lorentz(*triple):
    return {"type": "lorentz", "oscillators": [list(triple)]}


@pytest.mark.parametrize(
    "command, cfg, where",
    [
        ("energy", _with_models(eps_b={"type": "constant"}), "objects/1/eps"),
        ("energy", _with_models(eps_b={"type": "plasma"}), "objects/1/eps"),
        ("energy", _with_models(eps_b={"type": "drude", "gamma": 0.1}), "objects/1/eps"),
        ("energy", _with_models(eps_b={"type": "drude", "omega_p": 3.0}), "objects/1/eps"),
        (
            "energy",
            _with_models(eps_b={"type": "drude", "omega_p": 3.0, "gamma": 0}),
            "objects/1/eps/gamma",
        ),
        ("energy", _with_models(eps_b={"type": "lorentz"}), "objects/1/eps"),
        ("energy", _with_models(eps_b=_lorentz(-2.0, 1.0, 0.1)), "objects/1/eps/oscillators/0/0"),
        ("energy", _with_models(eps_b=_lorentz(1.0, 0.0, 0.1)), "objects/1/eps/oscillators/0/1"),
        ("energy", _with_models(eps_b=_lorentz(1.0, 1.0, -0.1)), "objects/1/eps/oscillators/0/2"),
        ("energy", _with_models(medium={"eps": PEC["eps"]}), "medium/eps"),
        (
            "energy",
            _with_models(eps_b={"type": "constant", "value": 4.0}, mu_b=PEC["eps"]),
            "objects/1/mu",
        ),
        (
            "plates",
            {"plates": {"material1": PEC, "gap": 1.0, "material2": {
                "eps": {"type": "constant", "value": 2.5}, "mu": PEC["eps"]}}},
            "plates/material2/mu",
        ),
    ],
    ids=["constant_no_value", "plasma_no_omega_p", "drude_no_omega_p", "drude_no_gamma",
         "drude_gamma_0", "lorentz_no_oscillators", "lorentz_negative_strength",
         "lorentz_zero_resonance", "lorentz_negative_damping", "pec_medium_eps",
         "pec_object_mu", "pec_plate_mu"],
)
def test_unsupported_material_is_a_validation_error(tmp_path, capsys, command, cfg, where):
    # every model carries its parameters, and eps(i kappa) and mu(i kappa)
    # are finite and positive except the eps of an object or a plate
    path = write_cfg(tmp_path, cfg)
    code, out, err = run_cli([command, path], capsys)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert where in diagnostic["message"]


def test_threads_flag_removed(tmp_path):
    path = write_cfg(tmp_path, PAIR_CFG)
    with pytest.raises(SystemExit) as info:
        run(["classify", path, "--threads", "2"])
    assert info.value.code == 2


def test_empty_sweep_rejected(tmp_path, capsys):
    cfg = dict(PAIR_CFG)
    cfg["sweep"] = {"object": "a", "axis": 2, "values": []}
    path = write_cfg(tmp_path, cfg)
    code, _, err = run_cli(["sweep", path], capsys)
    assert code == 2


def test_unknown_sweep_object_is_a_validation_error(tmp_path, capsys):
    # the sweep moves its object through the one label lookup, so a typo
    # is rejected instead of printing the undisplaced energy at every point
    cfg = dict(PAIR_CFG, sweep={"object": "typo", "axis": 2, "values": [0.0, 0.5]})
    path = write_cfg(tmp_path, cfg)
    code, out, err = run_cli(["sweep", path], capsys)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert "'typo'" in diagnostic["message"]


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(["energy", str(tmp_path / "missing.yaml")], capsys)
    assert code == 2


def test_unwritable_output(tmp_path, capsys):
    path = write_cfg(tmp_path, PAIR_CFG)
    code, _, err = run_cli(
        ["classify", path, "--output", str(tmp_path / "no" / "dir" / "x.csv")],
        capsys,
    )
    assert code == 2


def test_emit_csv_round_trip(tmp_path):
    header = ["name", "value"]
    rows = [["x", 1.2345678901234567e-05], ["y", -3.0]]
    path = tmp_path / "out.csv"
    emit_csv(header, rows, str(path))
    text = path.read_text(encoding="utf-8")
    got_header, got_rows = parse_csv(text)
    assert got_header == header
    assert [[r[0], float(r[1])] for r in got_rows] == [
        [r[0], float(r[1])] for r in rows
    ]
    # 17 significant digits: value survives exactly
    assert float(got_rows[0][1]) == rows[0][1]


def test_emit_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(["a", "b"], [], str(path))
    text = path.read_text(encoding="utf-8")
    assert text.split("\n")[1] == "a,b"


def test_byte_determinism(tmp_path, capsys):
    cfg = {
        "classical": {
            "label": "a",
            "beta": 2.0,
            "steps": 20000,
            "step_size": 0.25,
            "containers": [
                {
                    "label": "a",
                    "shape": "sphere",
                    "center": [0, 0, 0],
                    "size": 0.3,
                    "mobile_charges": [{"charge": 1.0, "tether": {"k": 5.0}}],
                },
                {
                    "label": "b",
                    "shape": "sphere",
                    "center": [0, 0, 1.2],
                    "size": 0.3,
                    "mobile_charges": [{"charge": -1.0, "tether": {"k": 5.0}}],
                },
            ],
        }
    }
    path = write_cfg(tmp_path, cfg)
    outputs = []
    for rep in range(2):
        out_path = tmp_path / f"mc{rep}.csv"
        code, _, _ = run_cli(
            ["mc", path, "--seed", "7", "--output", str(out_path)], capsys
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    # different seed changes the result
    out_path = tmp_path / "mc_other.csv"
    code, _, _ = run_cli(["mc", path, "--seed", "8", "--output", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes() != outputs[0]


def test_sweep_output(tmp_path, capsys):
    cfg = dict(PAIR_CFG)
    cfg["sweep"] = {
        "object": "a",
        "axis": 2,
        "values": [-0.5, 0.0, 0.5],
        "quantity": "energy",
    }
    path = write_cfg(tmp_path, cfg)
    code, out, _ = run_cli(["sweep", path], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["displacement", "energy"]
    energies = [float(r[1]) for r in rows]
    # moving a toward b deepens the energy
    assert energies[2] < energies[1] < energies[0] < 0


def test_force_sweep_differences_only_the_swept_axis(tmp_path, capsys, monkeypatch):
    # per point: one frozen grid, and the moving pair's translations at the
    # two displacements +-h along the swept axis, one kappa row per node
    from casimir_stability import casimir
    from test_stability import _count_calls

    translations = _count_calls(monkeypatch, casimir, "translation_matrix")
    values = [-0.5, 0.0, 0.5]
    cfg = dict(
        PAIR_CFG, sweep={"object": "a", "axis": 2, "values": values, "quantity": "force"}
    )
    code, out, _ = run_cli(["sweep", write_cfg(tmp_path, cfg)], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["displacement", "force_axis"]
    moving_pairs = 1
    kappa_rows = sum(np.size(kappa) for _, kappa, *_ in translations)
    assert kappa_rows == len(values) * 2 * PAIR_CFG["n_nodes"] * moving_pairs


def _modules_loaded_by_cli_import(prefixes):
    """Names of the modules, starting with one of ``prefixes``, that a fresh
    interpreter has loaded after ``import casimir_stability.cli``."""
    import casimir_stability

    src = str(Path(casimir_stability.__file__).resolve().parents[1])
    code = (
        "import sys, casimir_stability.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # the equilibrium search imports scipy.optimize on use and the test
    # oracles scipy.special; loading either with the CLI would lengthen
    # every command's start-up
    assert _modules_loaded_by_cli_import(["scipy"]) == "[]"


def test_cli_import_leaves_jsonschema_unloaded():
    # the config checker is the CLI's own; jsonschema and what it imports
    # took a quarter of the CLI import, and are a test-only oracle now
    prefixes = ["jsonschema", "referencing", "rpds", "attr"]
    assert _modules_loaded_by_cli_import(prefixes) == "[]"


def test_invalid_yaml_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("objects: [{label: a, center: [0, 0, 0]\n", encoding="utf-8")
    code, out, err = run_cli(["energy", str(path)], capsys)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert diagnostic["message"].startswith("config file is not valid YAML: ")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_stability.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # argparse usage error


def test_flag_overrides_applied(tmp_path, capsys):
    path = write_cfg(tmp_path, PAIR_CFG)
    code, out, _ = run_cli(["energy", path, "--lmax", "2", "--tol", "1e-4"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert int(rows[0][2]) <= 8  # l_max stayed near the override
