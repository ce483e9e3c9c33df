"""Machine-readable result documents: JSON reports and CSV sweep tables.

Reports are plain dicts built from the computed objects and serialized with
full float precision (repr round-trip for JSON, 17 significant digits for
CSV), so a dense-mode rerun with the same seed reproduces every byte.  The
builders are pure; the CLI owns file handles and timing measurements.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import GeometrySummary
from .eigensolve import SpectrumResult

#: sign/normalization choices a reader needs to compare numbers elsewhere
CONVENTION_NOTE = (
    "Q normalized so Q(S^n(1)) = n(n^2-4)/8; Laplacian in the "
    "trace-of-Hessian convention (nonpositive spectrum), operator "
    "eigenvalues reported for the fourth-order operator itself"
)


#: value types json.dumps writes as they are
_LEAVES = (str, int, float, bool)


def _plain(x):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them;
    a dataclass instance becomes a dict of its fields in declaration order."""
    if x is None or type(x) in _LEAVES:
        return x
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    return x


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spectrum_block(result: SpectrumResult) -> dict:
    block = {
        "values": list(result.eigenvalues),
        "multiplicities": [{"value": v, "count": c} for v, c in result.clusters],
        "residuals": list(result.residuals),
        "method": result.method,
    }
    if result.defect is not None:
        block["defect"] = result.defect
    if result.iterations is not None:
        block["iterations"] = result.iterations
        block["block"] = result.block
        block["applied_columns"] = result.applied_columns
    if result.penalty is not None:
        block["penalty"] = result.penalty
    return block


def constants_block(geo: GeometrySummary) -> dict:
    def stats(f):
        return {"integral": geo.integrate(f), "min": float(np.min(f)), "max": float(np.max(f))}

    return {
        "label": geo.label,
        "n": geo.n,
        "volume": geo.volume,
        "ambient_unit_sphere": geo.ambient_unit_sphere,
        "numerical": geo.numerical,
        "mean_curvature_sq": stats(geo.mean_sq),
        "second_form_sq": stats(geo.s_norm),
        "scalar_curvature": stats(geo.scalar),
        "q_curvature": stats(geo.q),
    }


def build_report(*, command: str, spec_text: str, source: str,
                 timings: dict[str, float], **sections) -> dict:
    doc = {
        "tool": "paneitz-lab",
        "version": __version__,
        "command": command,
        "input": {"source": source, "sha256": input_digest(spec_text)},
        "conventions": CONVENTION_NOTE,
    }
    doc.update(sections)
    doc["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return _plain(doc)


def dump_report(doc: dict, path: str | Path | None = None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=False)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


# --------------------------------------------------------------------------
# sweep tables
# --------------------------------------------------------------------------

def _g17(x) -> str:
    return f"{float(x):.17g}"


def sweep_csv(rows: list[dict], eigen_count: int,
              path: str | Path | None = None) -> str:
    """Fixed-order CSV: param, lhs, rhs, slack, relative_slack, equality,
    then lambda_1..lambda_{eigen_count}; floats at 17 significant digits."""
    header = ["param", "lhs", "rhs", "slack", "relative_slack", "equality"]
    header += [f"lambda_{j}" for j in range(1, eigen_count + 1)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        out = [_g17(row["param"]), _g17(row["lhs"]), _g17(row["rhs"]),
               _g17(row["slack"]), _g17(row["relative_slack"]),
               "true" if row["equality"] else "false"]
        lams = list(row["eigenvalues"])[:eigen_count]
        out += [_g17(v) for v in lams]
        out += [""] * (eigen_count - len(lams))
        writer.writerow(out)
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
