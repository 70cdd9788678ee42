"""Command-line interface: declarative configs in, deterministic CSV out.

Subcommands
-----------
classify    material class of every object and pairwise sign products
energy      interaction energy at tau = 0 or finite tau
force       force vector on one object
stability   full stability report (force, Laplacian, decomposition)
sweep       energy/force along a displacement sweep of one object
plates      parallel half-space (Lifshitz) energy per area
mc          classical fluctuating-charge Laplacian estimator

Exit codes: 0 success, 2 validation error, 3 convergence-budget or
precision error, 4 unphysical truncation.  All errors are also written as
one JSON diagnostic object per line on stderr.

Outputs are CSV (UTF-8, '\\n' newlines, header row, 17 significant digits)
preceded by a comment line echoing the length unit; identical config and
seed give byte-identical output.
"""

import argparse
import csv
import io
import json
# argparse's parse_args loads locale (through gettext); loaded here, it is
# paid for by the import and not by the first command
import locale  # noqa: F401
import math
import operator
import re
import sys

import numpy as np
import yaml

from . import classical as cl
from .casimir import Configuration, energy_T0, free_energy_T, lifshitz_plates
from .errors import (
    ConvergenceBudgetError,
    PrecisionError,
    UnphysicalTruncationError,
    ValidationError,
)
from .materials import DispersionModel, Medium
from .scattering import SphereObject
from .stability import force as force_on
from .stability import _axial_force, _CommonGridEngine, _displaced, _step
from .stability import _sign_classes, stability_report

__all__ = ["main", "run", "emit_csv"]

# length unit of the CSV comment line when the config names none
_DEFAULT_LENGTH_UNIT = "1 (hbar = c = 1)"

# each dispersion model type: its constructor and the parameters it requires,
# passed in this order
_MODELS = {
    "constant": (DispersionModel.constant, ["value"]),
    "plasma": (DispersionModel.plasma, ["omega_p"]),
    "drude": (DispersionModel.drude, ["omega_p", "gamma"]),
    "lorentz": (DispersionModel.lorentz, ["oscillators"]),
    "pec": (DispersionModel.perfect_conductor, []),
}


def _model_schema(types):
    """A dispersion model of one of ``types``, with that type's parameters."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["type"],
        "properties": {
            "type": {"enum": types},
            "value": {"type": "number", "exclusiveMinimum": 0},
            "omega_p": {"type": "number", "exclusiveMinimum": 0},
            "gamma": {"type": "number", "exclusiveMinimum": 0},
            # (f, omega, g): strength, resonance and damping; with f >= 0,
            # omega > 0 and g >= 0 every term is >= 0, so eps(i kappa) >= 1
            "oscillators": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "array",
                    "minItems": 3,
                    "maxItems": 3,
                    "prefixItems": [
                        {"type": "number", "minimum": 0},
                        {"type": "number", "exclusiveMinimum": 0},
                        {"type": "number", "minimum": 0},
                    ],
                },
            },
        },
        "allOf": [
            {"if": {"properties": {"type": {"const": kind}}}, "then": {"required": params}}
            for kind, (_, params) in _MODELS.items()
            if params
        ],
    }


# a perfect conductor is the eps of an object or a plate only: no medium and
# no mu has an infinite response
_MODEL_SCHEMA = _model_schema(list(_MODELS))
_FINITE_MODEL_SCHEMA = _model_schema([t for t in _MODELS if t != "pec"])

_VEC3 = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "items": {"type": "number"},
}

# the eps and mu of a medium; absent means the constant 1
_MEDIUM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"eps": _FINITE_MODEL_SCHEMA, "mu": _FINITE_MODEL_SCHEMA},
}

_OBJECT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["label", "center", "radius", "eps"],
    "properties": {
        "label": {"type": "string", "minLength": 1},
        "center": _VEC3,
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "eps": _MODEL_SCHEMA,
        "mu": _FINITE_MODEL_SCHEMA,
    },
}

_CHARGE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["charge"],
    "properties": {
        "charge": {"type": "number"},
        "position": _VEC3,
        "tether": {
            "type": "object",
            "additionalProperties": False,
            "required": ["k"],
            "properties": {"k": {"type": "number", "minimum": 0}, "anchor": _VEC3},
        },
    },
}

_CONTAINER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["label", "shape", "center", "size"],
    "properties": {
        "label": {"type": "string", "minLength": 1},
        "shape": {"enum": ["sphere", "box"]},
        "center": _VEC3,
        "size": {
            "anyOf": [{"type": "number", "exclusiveMinimum": 0}, _VEC3]
        },
        "fixed_charges": {"type": "array", "items": _CHARGE_SCHEMA},
        "mobile_charges": {"type": "array", "items": _CHARGE_SCHEMA},
        "include_intra": {"type": "boolean"},
    },
}

# the eps and mu of a plate; absent mu means the constant 1
_HALF_SPACE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["eps"],
    "properties": {"eps": _MODEL_SCHEMA, "mu": _FINITE_MODEL_SCHEMA},
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "length_unit": {"type": "string"},
        "medium": _MEDIUM_SCHEMA,
        "tau": {"type": "number", "minimum": 0},
        "objects": {"type": "array", "minItems": 1, "items": _OBJECT_SCHEMA},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "l_max": {"type": "integer", "minimum": 1},
        "n_nodes": {"type": "integer", "minimum": 4},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
        "stability": {
            "type": "object",
            "additionalProperties": False,
            "required": ["object"],
            "properties": {
                "object": {"type": "string"},
                "h": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["object", "axis", "values"],
            "properties": {
                "object": {"type": "string"},
                "axis": {"type": "integer", "minimum": 0, "maximum": 2},
                "values": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number"},
                },
                "quantity": {"enum": ["energy", "force", "both"]},
            },
        },
        "plates": {
            "type": "object",
            "additionalProperties": False,
            "required": ["material1", "material2", "gap"],
            "properties": {
                "material1": _HALF_SPACE_SCHEMA,
                "material2": _HALF_SPACE_SCHEMA,
                "gap": {"type": "number", "exclusiveMinimum": 0},
                "tau": {"type": "number", "minimum": 0},
            },
        },
        "classical": {
            "type": "object",
            "additionalProperties": False,
            "required": ["containers", "label"],
            "properties": {
                "containers": {
                    "type": "array",
                    "minItems": 2,
                    "items": _CONTAINER_SCHEMA,
                },
                "eps_M": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "label": {"type": "string"},
                "steps": {"type": "integer", "minimum": 2},
                "step_size": {"type": "number", "exclusiveMinimum": 0},
                "burn_in": {"type": "integer", "minimum": 1},
            },
        },
    },
}


def _build_model(node):
    build, params = _MODELS[node["type"]]
    return build(*(node[p] for p in params))


def _model_or_one(node, key):
    """The dispersion model under ``key``, or the constant 1 when it is absent."""
    return _build_model(node[key]) if key in node else DispersionModel.constant(1.0)


def _build_medium(cfg):
    node = cfg.get("medium", {})
    return Medium(_model_or_one(node, "eps"), _model_or_one(node, "mu"))


def _build_configuration(cfg):
    if "objects" not in cfg or len(cfg["objects"]) < 2:
        raise ValidationError("at least two objects are required")
    objects = tuple(
        SphereObject(
            center=tuple(node["center"]),
            radius=node["radius"],
            eps=_build_model(node["eps"]),
            mu=_model_or_one(node, "mu"),
            label=node["label"],
        )
        for node in cfg["objects"]
    )
    return Configuration(objects, _build_medium(cfg), cfg.get("tau", 0.0))


def _build_classical(cfg):
    node = cfg.get("classical")
    if node is None:
        raise ValidationError("the 'mc' subcommand requires a 'classical' section")
    containers = []
    for c in node["containers"]:
        fixed = tuple(
            (ch["charge"], tuple(ch.get("position", (0, 0, 0))))
            for ch in c.get("fixed_charges", [])
        )
        mobiles = []
        for ch in c.get("mobile_charges", []):
            tether = None
            if "tether" in ch:
                tether = (
                    "harmonic",
                    ch["tether"]["k"],
                    tuple(ch["tether"].get("anchor", (0, 0, 0))),
                )
            mobiles.append((ch["charge"], tether))
        containers.append(
            cl.Container(
                label=c["label"],
                shape=c["shape"],
                center=tuple(c["center"]),
                size=c["size"],
                fixed_charges=fixed,
                mobile_charges=tuple(mobiles),
                include_intra=c.get("include_intra", False),
            )
        )
    config = cl.ClassicalConfig(
        tuple(containers), node.get("eps_M", 1.0), node.get("beta", 1.0)
    )
    return config, node


def _fmt(value):
    if isinstance(value, float) or isinstance(value, np.floating):
        v = float(value)
        if v == 0.0:
            v = 0.0  # normalize negative zero
        return format(v, ".17g")
    if value is None:
        return ""
    return str(value)


def emit_csv(header, rows, path, length_unit=_DEFAULT_LENGTH_UNIT):
    """Write deterministic CSV: comment with the length unit, header, rows."""
    buf = io.StringIO()
    buf.write(f"# length_unit: {length_unit}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = buf.getvalue()
    if path is None:
        sys.stdout.write(data)
        sys.stdout.flush()
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path!r}: {exc}") from exc


def _l_max(cfg, args):
    """Multipole order: ``--lmax``, else the config's ``l_max`` (None: default)."""
    return args.lmax if args.lmax is not None else cfg.get("l_max")


def _tol(cfg, args, default=1e-6):
    """Tolerance: ``--tol``, else the config's ``tolerance``, else ``default``."""
    return args.tol if args.tol is not None else cfg.get("tolerance", default)


def _frozen_grid(cfg, args):
    """Keyword arguments of the frozen-grid force and stability calculations."""
    return {"l_max": _l_max(cfg, args), "n_nodes": cfg.get("n_nodes", 32)}


def _energy(config, tol, l_max):
    """Energy at the configuration's temperature: T = 0 or Matsubara sum."""
    solve = energy_T0 if config.tau == 0.0 else free_energy_T
    return solve(config, tol=tol, l_max=l_max)


# Each command returns its CSV rows as records: one dict per row, with the
# columns as keys in output order.


def _cmd_classify(cfg, args):
    classes, products = _sign_classes(_build_configuration(cfg))
    facts = []
    for label, c in classes.items():
        facts += [("class", label, c.variant), ("sign", label, c.sign)]
    facts += [("sign_product", f"{a}|{b}", p) for (a, b), p in products.items()]
    return [dict(zip(("record", "label", "value"), fact)) for fact in facts]


def _cmd_energy(cfg, args):
    config = _build_configuration(cfg)
    result = _energy(config, _tol(cfg, args), _l_max(cfg, args))
    return [
        {
            "tau": config.tau,
            "energy": result.value,
            "l_max": result.l_max_used,
            "nodes": result.node_count,
            "est_rel_error": result.est_rel_error,
            "kappa_floor_used": int(result.kappa_floor_used),
        }
    ]


def _stability_target(cfg, config):
    node = cfg.get("stability")
    if node is not None:
        return node["object"], node.get("h")
    return config.objects[0].label, None


def _force_record(label, f):
    return {"object": label, "fx": f[0], "fy": f[1], "fz": f[2]}


def _cmd_force(cfg, args):
    config = _build_configuration(cfg)
    label, h = _stability_target(cfg, config)
    f = force_on(config, label, h=h, **_frozen_grid(cfg, args))
    return [_force_record(label, f)]


def _cmd_stability(cfg, args):
    config = _build_configuration(cfg)
    label, h = _stability_target(cfg, config)
    rep = stability_report(config, label, h=h, **_frozen_grid(cfg, args))
    return [
        {
            **_force_record(rep.object_label, rep.force),
            "laplacian": rep.laplacian,
            "term1": rep.term1,
            "term2": rep.term2,
            "term3": rep.term3,
            "predicted_sign_product": rep.predicted_sign_product,
            "h_used": rep.h_used,
            "est_error": rep.est_error,
        }
    ]


def _cmd_sweep(cfg, args):
    config = _build_configuration(cfg)
    node = cfg.get("sweep")
    if node is None:
        raise ValidationError("the 'sweep' subcommand requires a 'sweep' section")
    label, axis = node["object"], node["axis"]
    quantity = node.get("quantity", "energy")
    tol, grid = _tol(cfg, args), _frozen_grid(cfg, args)

    records = []
    for value in node["values"]:
        moved = _displaced(config, label, value * np.eye(3)[axis])
        record = {"displacement": value}
        if quantity in ("energy", "both"):
            record["energy"] = _energy(moved, tol, grid["l_max"]).value
        if quantity in ("force", "both"):
            eng = _CommonGridEngine(moved, label, **grid)
            record["force_axis"] = _axial_force(eng, _step(moved, label, None), axis)
        records.append(record)
    return records


def _cmd_plates(cfg, args):
    node = cfg.get("plates")
    if node is None:
        raise ValidationError("the 'plates' subcommand requires a 'plates' section")
    mat1, mat2 = (
        (_build_model(node[key]["eps"]), _model_or_one(node[key], "mu"))
        for key in ("material1", "material2")
    )
    tau = node.get("tau", 0.0)
    value = lifshitz_plates(
        mat1, mat2, _build_medium(cfg), node["gap"], tau=tau, tol=_tol(cfg, args, 1e-8)
    )
    return [{"gap": node["gap"], "tau": tau, "energy_per_area": value}]


def _cmd_mc(cfg, args):
    config, node = _build_classical(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    stream = cl.metropolis_run(
        config,
        node.get("steps", 200000),
        node.get("step_size", 0.2),
        seed,
        burn_in=node.get("burn_in"),
    )
    est = cl.laplacian_F_estimator(config, node["label"], stream)
    return [
        {
            "label": node["label"],
            "mean": est.mean,
            "stderr": est.stderr,
            "n_samples": est.n_samples,
            "autocorrelation_time": est.autocorrelation_time,
            "acceptance_rate": stream.acceptance_rate,
            "seed": seed,
        }
    ]


_COMMANDS = {
    "classify": _cmd_classify,
    "energy": _cmd_energy,
    "force": _cmd_force,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "plates": _cmd_plates,
    "mc": _cmd_mc,
}


def _is_number(node):
    return isinstance(node, (int, float)) and not isinstance(node, bool)


# JSON Schema's types: a bool is no number, and a float without a fraction
# is an integer
_TYPES = {
    "object": lambda node: isinstance(node, dict),
    "array": lambda node: isinstance(node, list),
    "string": lambda node: isinstance(node, str),
    "boolean": lambda node: isinstance(node, bool),
    "number": _is_number,
    "integer": lambda node: _is_number(node)
    and (isinstance(node, int) or node.is_integer()),
}

# each bound on a number: the test that breaks it, and its message
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}


def _schema_errors(schema, node, path=()):
    """(path, message) of each way ``node`` breaks the JSON Schema ``schema``.

    Implements the keywords CONFIG_SCHEMA uses, with Draft 2020-12's rules
    and jsonschema's messages, so that the schema cannot outgrow it quietly:
    any other keyword raises ValueError, and any other type KeyError.
    """
    errors = []
    for key, want in schema.items():
        if key == "type":
            if not _TYPES[want](node):
                errors.append((path, f"{node!r} is not of type {want!r}"))
        elif key == "enum":
            if node not in want:
                errors.append((path, f"{node!r} is not one of {want!r}"))
        elif key == "const":
            if node != want:
                errors.append((path, f"{want!r} was expected"))
        elif key in _BOUNDS:
            broken, words = _BOUNDS[key]
            if _is_number(node) and broken(node, want):
                errors.append((path, f"{node!r} is {words} {want!r}"))
        elif key in ("minLength", "minItems"):
            if isinstance(node, str if key == "minLength" else list) and len(node) < want:
                words = "should be non-empty" if want == 1 else "is too short"
                errors.append((path, f"{node!r} {words}"))
        elif key == "maxItems":
            if isinstance(node, list) and len(node) > want:
                words = "is expected to be empty" if want == 0 else "is too long"
                errors.append((path, f"{node!r} {words}"))
        elif key == "items":  # the items after those of prefixItems
            if isinstance(node, list):
                for i in range(len(schema.get("prefixItems", ())), len(node)):
                    errors += _schema_errors(want, node[i], (*path, i))
        elif key == "prefixItems":
            if isinstance(node, list):
                for i, (sub, item) in enumerate(zip(want, node)):
                    errors += _schema_errors(sub, item, (*path, i))
        elif key == "required":
            if isinstance(node, dict):
                errors += [(path, f"{k!r} is a required property") for k in want if k not in node]
        elif key == "properties":
            if isinstance(node, dict):
                for k, sub in want.items():
                    if k in node:
                        errors += _schema_errors(sub, node[k], (*path, k))
        elif key == "additionalProperties" and want is False:
            known = schema.get("properties", {})
            extras = [k for k in node if k not in known] if isinstance(node, dict) else []
            if extras:
                names = ", ".join(repr(k) for k in sorted(extras, key=str))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                errors.append((path, message))
        elif key == "anyOf":
            if all(_schema_errors(sub, node, path) for sub in want):
                message = f"{node!r} is not valid under any of the given schemas"
                errors.append((path, message))
        elif key == "allOf":
            for sub in want:
                errors += _schema_errors(sub, node, path)
        elif key == "if":
            if not _schema_errors(want, node, path):
                errors += _schema_errors(schema.get("then", {}), node, path)
        elif key != "then":  # "then" is read with its "if"
            raise ValueError(f"the config checker does not implement {key!r}: {want!r}")
    return errors


def _non_finite_path(node, path=()):
    """Path to the first NaN or infinity in ``node``, or None.

    JSON Schema bounds do not reject them: every comparison with NaN is
    false, and infinity passes a lower bound.
    """
    if isinstance(node, float) and not math.isfinite(node):
        return path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, value in children:
        found = _non_finite_path(value, (*path, key))
        if found is not None:
            return found
    return None


def _validate(data, what):
    """Check ``data`` against CONFIG_SCHEMA and for non-finite numbers."""
    errors = sorted(_schema_errors(CONFIG_SCHEMA, data))
    if errors:
        details = "; ".join(
            f"{'/'.join(str(p) for p in path) or '<root>'}: {message}"
            for path, message in errors[:5]
        )
        raise ValidationError(f"{what} failed schema validation: {details}")
    bad = _non_finite_path(data)
    if bad is not None:
        where = "/".join(str(p) for p in bad)
        raise ValidationError(f"{what} has a non-finite number at {where}")


class _ConfigLoader(yaml.CSafeLoader):
    """yaml.CSafeLoader (libyaml's parser) that also reads a plain exponent
    without a dot, such as ``1e-6``, as a float, as YAML 1.2 does; a quoted
    one stays a string.  The resolver is Python's in either loader."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9]+[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_ConfigLoader)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config file must contain a mapping at top level")
    _validate(data, "config")
    return data


def _validate_flags(args):
    """Hold each flag to the bounds of the config key it overrides."""
    for flag, key in (("lmax", "l_max"), ("tol", "tolerance"), ("seed", "seed")):
        value = getattr(args, flag)
        if value is not None:
            _validate({key: value}, f"--{flag}")


def _diagnostic(kind, exc):
    sys.stderr.write(
        json.dumps({"error": kind, "message": str(exc)}, sort_keys=True) + "\n"
    )


def run(argv):
    parser = argparse.ArgumentParser(
        prog="casimir-stability",
        description="Casimir energies, forces and stability of sphere collections",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="YAML configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--lmax", type=int, default=None)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    try:
        _validate_flags(args)
        cfg = _load_config(args.config)
        records = _COMMANDS[args.subcommand](cfg, args)
        path = args.output if args.output is not None else cfg.get("output")
        emit_csv(
            list(records[0]),
            [list(record.values()) for record in records],
            path,
            length_unit=cfg.get("length_unit", _DEFAULT_LENGTH_UNIT),
        )
    except ValidationError as exc:
        _diagnostic("validation", exc)
        return 2
    except (ConvergenceBudgetError, PrecisionError) as exc:
        _diagnostic("convergence_budget", exc)
        return 3
    except UnphysicalTruncationError as exc:
        _diagnostic("unphysical_truncation", exc)
        return 4
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
