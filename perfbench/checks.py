"""Output checks for the CSV files the CLI writes, one function per op kind.

Every check takes the parsed rows (a list of dicts of strings) plus the
parameters of its op and returns a list of problems; an empty list means the
output is correct.  The bounds are the physics the package certifies, so they
hold for every workload seed.
"""

import csv
import math

# acceptance criterion 4: the trace decomposition reproduces the Laplacian
DECOMPOSITION_RTOL = 0.01
# a Metropolis estimate may sit this many standard errors from the reference
MC_SIGMAS = 5.0


class CheckError(ValueError):
    """The output file is missing, malformed or holds a non-finite number."""


def read_csv(path):
    """Rows of a CLI CSV file: a length-unit comment, a header, then rows."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline()
            if not first.startswith("# length_unit:"):
                raise CheckError(f"{path}: missing '# length_unit:' comment line")
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CheckError(f"{path}: no data rows")
    return rows


def number(row, key):
    try:
        value = float(row[key])
    except KeyError as exc:
        raise CheckError(f"column {key!r} is missing") from exc
    except (TypeError, ValueError) as exc:
        raise CheckError(f"column {key!r} is not a number: {row[key]!r}") from exc
    if not math.isfinite(value):
        raise CheckError(f"column {key!r} is not finite: {value}")
    return value


def check_energy(rows, tol):
    """One attractive energy whose estimated error meets the requested tol."""
    problems = []
    if len(rows) != 1:
        problems.append(f"expected 1 row, got {len(rows)}")
    energy, err = number(rows[0], "energy"), number(rows[0], "est_rel_error")
    if not energy < 0.0:
        problems.append(f"energy {energy} is not negative")
    if not err <= tol:
        problems.append(f"est_rel_error {err} exceeds tol {tol}")
    return problems


def check_sweep(rows, n_points):
    """Attractive energies that rise toward zero as the separation grows.

    The swept object moves away from the other one, so the displacement
    column orders the points by separation.
    """
    problems = []
    if len(rows) != n_points:
        problems.append(f"expected {n_points} rows, got {len(rows)}")
    points = sorted((number(r, "displacement"), number(r, "energy")) for r in rows)
    energies = [e for _, e in points]
    if not all(e < 0.0 for e in energies):
        problems.append(f"energies {energies} are not all negative")
    if not all(a < b for a, b in zip(energies, energies[1:])):
        problems.append(f"energies {energies} are not increasing with separation")
    return problems


def check_stability(rows, toward):
    """Non-positive Laplacian, decomposition identity, attraction, term3 sign.

    ``toward`` points from the displaced object to the nearest other one;
    for same-class spheres the force has a positive component along it.
    """
    row = rows[0]
    lap = number(row, "laplacian")
    terms = [number(row, k) for k in ("term1", "term2", "term3")]
    force = [number(row, k) for k in ("fx", "fy", "fz")]
    problems = []
    if len(rows) != 1:
        problems.append(f"expected 1 row, got {len(rows)}")
    if not lap <= 0.0:
        problems.append(f"laplacian {lap} is positive")
    if not abs(sum(terms) - lap) <= DECOMPOSITION_RTOL * abs(lap):
        problems.append(
            f"term1 + term2 + term3 = {sum(terms)} differs from laplacian {lap} "
            f"by more than {DECOMPOSITION_RTOL:.0%}"
        )
    if not sum(f * t for f, t in zip(force, toward)) > 0.0:
        problems.append(f"force {force} is not attractive along {list(toward)}")
    if not -terms[2] >= 0.0:
        problems.append(f"-term3 = {-terms[2]} is negative")
    return problems


def check_plates(rows):
    """Identical half-spaces attract: a negative energy per area."""
    value = number(rows[0], "energy_per_area")
    return [] if value < 0.0 else [f"energy_per_area {value} is not negative"]


def check_mc(rows, reference):
    """Non-positive estimate within MC_SIGMAS standard errors of the reference."""
    row = rows[0]
    mean, stderr = number(row, "mean"), number(row, "stderr")
    problems = []
    if not mean <= 0.0:
        problems.append(f"estimate {mean} is positive")
    if not abs(mean - reference) <= MC_SIGMAS * stderr:
        problems.append(
            f"estimate {mean} +- {stderr} is more than {MC_SIGMAS} standard "
            f"errors from the reference {reference}"
        )
    return problems


def check_output(path, check):
    """Problems with the CSV at ``path`` according to ``check``."""
    try:
        return check(read_csv(path))
    except CheckError as exc:
        return [str(exc)]
