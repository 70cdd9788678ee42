"""Layer spans recorded from outside the package, and the per-layer metrics.

A :class:`Tracer` replaces, for the length of one traced job, the names each
module of ``casimir_stability`` looks up from the layer below (for example
``translation_matrix`` in the ``casimir`` module's namespace) with wrappers
that record a span: name, start, end, parent and an optional detail taken
from the arguments.  The package itself is not modified; ``restore``
puts every original object back.

Spans are kept in flat arrays because the cold coefficient tables alone make
tens of thousands of ``wigner3j`` calls per job.
"""

import functools
import importlib
import statistics
import time
from array import array

RUN = "cli.run"

# (module, attribute, span name, detail) for every wrapped call site.  The
# detail is the argument the per-layer metrics need: l_max for translations,
# the number of matrix builds for a gradient, the matrix order for a
# determinant and the step count for a Metropolis chain.
CALL_SITES = (
    ("casimir_stability.cli", "run", RUN, None),
    ("casimir_stability.cli", "energy_T0", "cli.energy_T0", None),
    ("casimir_stability.cli", "free_energy_T", "cli.free_energy_T", None),
    ("casimir_stability.cli", "lifshitz_plates", "cli.lifshitz_plates", None),
    ("casimir_stability.cli", "force_on", "cli.force_on", None),
    ("casimir_stability.cli", "stability_report", "cli.stability_report", None),
    ("casimir_stability.classical", "metropolis_run", "classical.metropolis_run", "steps"),
    ("casimir_stability.classical", "laplacian_F_estimator", "classical.laplacian_F_estimator", None),
    ("casimir_stability.stability", "force", "stability.force", None),
    ("casimir_stability.stability", "laplacian_fd", "stability.laplacian_fd", None),
    ("casimir_stability.stability", "laplacian_decomposition", "stability.laplacian_decomposition", None),
    ("casimir_stability.casimir", "log_det_integrand", "casimir.log_det_integrand", None),
    ("casimir_stability.casimir", "assemble_block_matrix", "casimir.assemble_block_matrix", None),
    ("casimir_stability.casimir", "fresnel_reflection", "casimir.fresnel_reflection", None),
    ("casimir_stability.casimir", "translation_matrix", "casimir.translation_matrix", "l_max"),
    ("casimir_stability.stability", "translation_matrix", "stability.translation_matrix", "l_max"),
    ("casimir_stability.stability", "translation_gradient", "stability.translation_gradient", "gradient"),
    ("casimir_stability.casimir", "mie_tmatrix", "casimir.mie_tmatrix", None),
    ("casimir_stability.stability", "mie_tmatrix", "stability.mie_tmatrix", None),
    ("casimir_stability.translation", "wigner3j", "translation.wigner3j", None),
    ("casimir_stability.translation", "log_bessel_k_array", "translation.log_bessel_k_array", None),
    ("numpy.linalg", "slogdet", "numpy.linalg.slogdet", "order"),
    ("numpy.linalg", "solve", "numpy.linalg.solve", None),
    ("numpy.linalg", "inv", "numpy.linalg.inv", None),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gradient(args, kwargs):
    """(l_max, matrix builds): central differences on three axes, twice
    with Richardson refinement."""
    richardson = kwargs.get("richardson", len(args) > 5 and args[5])
    return int(_arg(args, kwargs, 3, "l_max")), 6 * (2 if richardson else 1)


DETAILS = {
    "l_max": lambda a, k: int(_arg(a, k, 3, "l_max")),
    "gradient": _gradient,
    "order": lambda a, k: int(a[0].shape[-1]),
    "steps": lambda a, k: int(_arg(a, k, 1, "steps")),
}


class Tracer:
    """Span recorder; ``install`` wraps call sites, ``restore`` undoes it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.detail = {}
        self._stack = [-1]
        self._patched = []

    def __len__(self):
        return len(self.start)

    def open(self, name, detail=None):
        """Start a span under the innermost open one; returns its index."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1])
        if detail is not None:
            self.detail[idx] = detail
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr, name, detail=None):
        original = getattr(owner, attr)
        get_detail = DETAILS[detail] if detail else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(name, get_detail(args, kwargs) if get_detail else None)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self):
        for module, attr, name, detail in CALL_SITES:
            self.wrap(importlib.import_module(module), attr, name, detail)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def span_name(self, i):
        return self.names[self.name_id[i]]

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Span duration minus the time its direct child spans cover."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own


def _dim(l_max):
    """Order of a vector translation matrix: two polarizations of l = 1..l_max."""
    return 2 * ((l_max + 1) ** 2 - 1)


def op_breakdown(tracer):
    """Per ``cli.run`` span: (duration, share of it no layer span covers).

    Layer spans are every span outside the ``cli`` module; a layer span whose
    parent is a ``cli`` span is the top of the work it covers.
    """
    dur = tracer.durations()
    op_of = [-1] * len(tracer)
    covered = {}
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        p = tracer.parent[i]
        op_of[i] = i if name == RUN else (op_of[p] if p >= 0 else -1)
        if name == RUN:
            covered[i] = 0.0
        elif not name.startswith("cli.") and p >= 0 and op_of[i] >= 0:
            if tracer.span_name(p).startswith("cli."):
                covered[op_of[i]] += dur[i]
    return [
        (dur[i], (dur[i] - c) / dur[i] if dur[i] > 0 else 0.0)
        for i, c in covered.items()
    ]


def layer_metrics(tracer):
    """Per-layer metrics from one traced job (times in s unless named)."""
    dur = tracer.durations()
    own = tracer.self_times()
    by_name = {}
    for i in range(len(tracer)):
        by_name.setdefault(tracer.span_name(i), []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(*names):
        return sum(dur[i] for i in idx(*names))

    matrices = idx("casimir.translation_matrix", "stability.translation_matrix")
    gradients = idx("stability.translation_gradient")
    # (l_max, builds) per translation span; the first at each l_max pays
    # for the coefficient tables
    builds = {i: (tracer.detail[i], 1) for i in matrices}
    builds.update({i: tracer.detail[i] for i in gradients})
    first = {}
    for i in sorted(builds):
        first.setdefault(builds[i][0], i)
    cold = set(first.values())
    warm = [dur[i] for i in matrices if i not in cold]
    entries = sum(_dim(l_max) ** 2 * n for l_max, n in builds.values())
    slogdets = idx("numpy.linalg.slogdet")
    runs = idx(RUN)
    library = [
        i for i in range(len(tracer))
        if tracer.parent[i] >= 0 and tracer.span_name(tracer.parent[i]) == RUN
    ]
    steps = sum(tracer.detail[i] for i in idx("classical.metropolis_run"))
    metropolis_s = total("classical.metropolis_run")
    return {
        "translation.first_call_s": sum(dur[i] for i in cold),
        "translation.matrix_calls": len(matrices),
        "translation.matrix_s": sum(dur[i] for i in matrices),
        "translation.matrix_warm_ms": 1e3 * statistics.median(warm) if warm else 0.0,
        "translation.entries_built": entries,
        "translation.gradient_calls": len(gradients),
        "translation.gradient_s": sum(dur[i] for i in gradients),
        "specfun.wigner3j_calls": len(idx("translation.wigner3j")),
        "specfun.wigner3j_s": total("translation.wigner3j"),
        "specfun.log_bessel_k_calls": len(idx("translation.log_bessel_k_array")),
        "scattering.tmatrix_calls": len(idx("casimir.mie_tmatrix", "stability.mie_tmatrix")),
        "scattering.tmatrix_s": total("casimir.mie_tmatrix", "stability.mie_tmatrix"),
        "scattering.fresnel_calls": len(idx("casimir.fresnel_reflection")),
        "casimir.plates_s": total("cli.lifshitz_plates"),
        "casimir.integrand_calls": len(idx("casimir.log_det_integrand")),
        "casimir.integrand_s": total("casimir.log_det_integrand"),
        "casimir.assemble_self_s": sum(own[i] for i in idx("casimir.assemble_block_matrix")),
        "linalg.slogdet_calls": len(slogdets),
        "linalg.slogdet_s": sum(dur[i] for i in slogdets),
        "linalg.slogdet_flops": sum(2 * tracer.detail[i] ** 3 // 3 for i in slogdets),
        "linalg.solve_s": total("numpy.linalg.solve"),
        "linalg.inv_s": total("numpy.linalg.inv"),
        "stability.force_s": total("stability.force"),
        "stability.laplacian_fd_s": total("stability.laplacian_fd"),
        "stability.decomposition_s": total("stability.laplacian_decomposition"),
        "classical.metropolis_s": metropolis_s,
        "classical.step_us": 1e6 * metropolis_s / steps if steps else 0.0,
        "classical.estimator_s": total("classical.laplacian_F_estimator"),
        "cli.overhead_s": sum(dur[i] for i in runs) - sum(dur[i] for i in library),
    }
