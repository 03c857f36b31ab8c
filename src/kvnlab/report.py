"""The claims registry and report emission.

Every suite check carries an anchor naming the claim it exercises;
:meth:`kvnlab.suites.SuiteContext.check` resolves it against the registry
below before the check runs, so a report can't silently test nothing, and
appends the check's report entry. :func:`write_report` writes a run's
entries once, atomically and deterministically: the only field that varies
between identical runs is ``wall_time_s``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import numbers
import os
import tempfile

#: Claims the suites are allowed to cite. Keys are anchors; values state the
#: claim in one line. "plumbing" marks consistency checks of the toolkit
#: itself rather than of any modeled behavior.
CLAIMS = {
    "plumbing": "internal consistency of the toolkit, not a modeled claim",
    "extended-eom": "the auxiliary pair rides the linearized flow alongside the (q, p) motion",
    "energy-conservation": "the classical energy is constant along every trajectory",
    "tangent-pairing": "the auxiliary sector stays dual to tangent vectors of the (q, p) flow",
    "similarity-charge-conserved": "the similarity charge is conserved for every admissible exponent",
    "harmonic-charge-conserved": "the harmonic variant of the charge is conserved at n = 2",
    "charge-generates-rescale": "the charge's time-free part reproduces the generator under the extended bracket",
    "charge-tower": "the whole tower built over the charge is conserved along the flow",
    "tower-endpoints": "the tower's first two members coincide with the generator and the charge",
    "solution-mapping": "the rescaling maps solutions to solutions with rescaled time",
    "action-rescale": "the classical action rescales with the predicted power of the scale factor",
    "auxiliary-action-invariant": "the auxiliary-sector action is exactly invariant under the rescaling",
    "lagrangian-homogeneity": "the Lagrangian is pointwise homogeneous under the rescaling",
    "bracket-dichotomy": "the canonical bracket rescales while the extended bracket is untouched",
    "embedded-heisenberg-pair": "the doubled variables assemble into two independent canonical pairs",
    "harmonic-evolution-generator": "at n = 2 the operator generator matches the classical one and commutes with its rescaling charge",
    "derivative-series-terminates": "the operator generator's derivative expansion terminates for polynomial potentials",
    "similarity-generator-hermitian": "the operator rescaling charge is self-adjoint",
    "position-adjoint-leaks": "conjugating position by the rescaling pulls in the second canonical pair",
    "harmonic-adjoint-hyperbolic": "at n = 2 the finite conjugation mixes the pairs through hyperbolic functions",
    "no-unitary-rescaling": "no unitary implements the rescaling on a single pair except at n = -2",
    "split-evolution-unitary": "the split-step evolution preserves the grid norm",
    "product-states-preserved": "the doubled evolution keeps product states product",
    "similarity-breaks-products": "the finite rescaling unitary entangles the two factors",
    "half-integer-levels": "quantized actions sit at half-integer multiples of the quantum",
    "action-shift": "the rescaling shifts the orbit action by the closed-form amount",
    "inverse-square-exception": "at n = -2 the reduced action between mapped endpoints is invariant",
    "same-orbits": "the rescaled-mass system traces identical position histories",
    "spectra-rescale": "spectra of the rescaled-mass family follow the predicted power law",
    "harmonic-spectrum-gamma-free": "the harmonic spectrum ignores the mass rescaling while the states do not",
}


def digest(obj) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def _plain(value):
    """Coerce numpy scalars, arrays and sequences into JSON-friendly values."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str, suite: str, seed: int, potential: dict, scenario_digest: str,
                 checks: list, wall_time_s: float):
    """Write one run's report atomically. ``checks`` are the entries
    :meth:`SuiteContext.check` appended, in the order they appear."""
    # Imported here: the package imports this module before it sets
    # __version__.
    from . import __version__

    passed = sum(c["verdict"] == "pass" for c in checks)
    document = {
        "version": __version__,
        "suite": suite,
        "seed": seed,
        "potential": potential,
        "scenario_digest": scenario_digest,
        "wall_time_s": wall_time_s,
        "summary": {"total": len(checks), "passed": passed, "failed": len(checks) - passed},
        "checks": checks,
    }
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, text + "\n")


def format_float(x) -> str:
    return f"{float(x):.17g}"


def _csv_cell(v):
    if isinstance(v, numbers.Real) and not isinstance(v, (bool, int)):
        return format_float(v)
    return v


def write_csv(path: str, header, rows):
    """RFC-4180 table with floats at full precision."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    _atomic_write(path, buf.getvalue())
