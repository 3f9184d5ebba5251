"""Report assembly: one JSON-serializable dict per command, plus the
text rendering derived from it.

The JSON layout is versioned with a top-level ``"schema": 1`` and
described by :data:`REPORT_SCHEMA`.  The text form is generated from the
same dict, so the two never disagree.
"""

from __future__ import annotations

from .bordism import SpinBordismClass
from .errors import ValidationError
from .lattice import determinant, signature
from .manifolds import ManifoldData
from .spinc import SpinCStructure, index_chern_form

SCHEMA_VERSION = 1

# The largest b1 whose dense b1 x b1 cup-pairing and index Chern matrices
# a JSON report writes.  `fourfold analyze --json` as a subprocess takes
# 2.4 s of CPU and 650 MB at b1 = 3000 (SP(1499,1)), and 4.0 s and 1.05 GB
# at b1 = 4000 (peak RSS, 2-vCPU machine, Python 3.11).
MAX_MATRIX_B1 = 3000

CAVEATS = (
    "torsion in H^1 and H^2 is ignored; all results concern the free parts",
    "the bordism verdict is a theorem lookup for the covered family "
    "(connected sums of K3 and odd-genus surface products with canonical "
    "spin^c), not a computation of spin structures",
    "the bordism verdict is treated as independent of the choice of square "
    "root of the index determinant",
    "negative definiteness refers to the intersection form on free H^2; "
    "b1 may be positive",
    "metric hypotheses (nonnegative scalar curvature on N1) are "
    "user-supplied assertions, recorded but not checked",
)


def manifold_summary(m: ManifoldData) -> dict:
    return {
        "b1": m.b1,
        "euler": m.euler,
        "signature": signature(m.h2),
        "h2_rank": m.h2.rank,
        "form_determinant": determinant(m.h2),
        "summands": [str(s) for s in m.summands],
    }


def spinc_summary(m: ManifoldData, s: SpinCStructure, source: str, matrices: bool = False) -> dict:
    """The spin^c section, read off the facts ``s`` carries.

    ``matrices`` adds the dense b1 x b1 cup-pairing and index Chern
    matrices of the JSON report, up to b1 = :data:`MAX_MATRIX_B1`; the
    text report never shows them, so it never builds them.  ``w2`` is the
    mod-2 data of the approximation bundles for an even approximation
    dimension (``m_parity`` 0): torus part = index Chern matrix mod 2, h
    coefficient = Dirac index mod 2, e*h coefficient 0.  An odd cup
    pairing is refused first, by :func:`index_chern_form`.
    """
    chern = index_chern_form(m, s)
    if matrices and m.b1 > MAX_MATRIX_B1:
        raise ValidationError(f"JSON report too large: its b1 x b1 matrices have b1 = {m.b1}, "
                              f"over the budget of MAX_MATRIX_B1 = {MAX_MATRIX_B1}; the text "
                              "report builds neither")
    condition = s.condition
    section = {"c1": list(s.c1), "source": source, "dirac_index": s.dirac_index}
    if matrices:
        # The cup pairings are twice the index Chern entries.
        section["cup_pairing_matrix"] = [list(r) for r in chern.dense(2)]
        section["index_chern_matrix"] = [list(r) for r in chern.dense()]
    section["condition"] = {
        "index_even": condition.index_even,
        "chern_even": condition.chern_even,
        "holds": condition.holds,
    }
    section["moduli_dimension"] = s.moduli_dimension
    section["w2"] = {
        "m_parity": 0,
        "torus_part_zero": condition.chern_even,
        "h_coefficient": s.dirac_index % 2,
        "e_h_coefficient": 0,
    }
    return section


def bordism_fields(klass: SpinBordismClass) -> dict:
    """The bordism section of an established verdict."""
    return {
        "applicable": True,
        "dimension": klass.dimension,
        "group": klass.group,
        "value": klass.value,
    }


def base_report(command: str, input_echo: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "input": input_echo,
        "caveats": list(CAVEATS),
    }


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "fourfold report",
    "type": "object",
    "required": ["schema", "command", "input", "caveats"],
    "properties": {
        "schema": {"const": 1},
        "command": {
            "enum": ["analyze", "star", "sigma0", "genus", "yamabe", "einstein", "scan"]
        },
        "input": {"type": "object"},
        "caveats": {"type": "array", "items": {"type": "string"}},
        "manifold": {
            "type": "object",
            "required": [
                "b1",
                "euler",
                "signature",
                "h2_rank",
                "form_determinant",
                "summands",
            ],
            "properties": {
                "b1": {"type": "integer", "minimum": 0},
                "euler": {"type": "integer"},
                "signature": {"type": "integer"},
                "h2_rank": {"type": "integer", "minimum": 0},
                "form_determinant": {"type": "integer"},
                "summands": {"type": "array", "items": {"type": "string"}},
            },
        },
        "spinc": {
            "type": ["object", "null"],
            "properties": {
                "c1": {"type": "array", "items": {"type": "integer"}},
                "source": {"enum": ["canonical", "explicit"]},
                "dirac_index": {"type": "integer"},
                "cup_pairing_matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                },
                "index_chern_matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                },
                "condition": {
                    "type": "object",
                    "required": ["index_even", "chern_even", "holds"],
                },
                "moduli_dimension": {"type": "integer"},
                "w2": {"type": "object"},
            },
        },
        "spinc_skipped": {"type": "string"},
        "bordism": {
            "type": "object",
            "required": ["applicable"],
            "properties": {
                "applicable": {"type": "boolean"},
                "dimension": {"type": "integer"},
                "group": {"type": "string"},
                "value": {"enum": ["trivial", "nontrivial"]},
                "reason": {"type": "string"},
            },
        },
        "hitchin_thorpe": {"type": "boolean"},
        "result": {"type": "object"},
    },
}


def to_json(report: dict) -> str:
    """The text of ``json.dumps(report, indent=2)``, written directly:
    with an indent, ``json`` falls back to its pure-Python encoder.
    A list whose items are all exactly ``int`` is written in one pass
    over its types and one ``join``; an all-zero one, the common row of
    the dense spin^c matrices, by string repetition.  Dictionary keys
    must be strings (a TypeError otherwise)."""
    from json.encoder import encode_basestring_ascii

    out: list[str] = []
    _write_json(report, "\n", out, encode_basestring_ascii)
    return "".join(out)


_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_INT = {int}


def _write_json(value, newline: str, out: list[str], quote) -> None:
    """Append the JSON text of ``value``; ``newline`` is a line break plus
    the indent of the line the value starts on, and ``quote`` writes a
    string literal."""
    if isinstance(value, str):
        out.append(quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_FLOAT_SPECIALS.get(text, text))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if type(value[0]) is int and {*map(type, value)} == _INT:
            if any(value):
                out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
            else:
                out.append(f"[{inner}{('0,' + inner) * (len(value) - 1)}0{newline}]")
            return
        out.append("[" + inner)
        for k, item in enumerate(value):
            if k:
                out.append("," + inner)
            _write_json(item, inner, out, quote)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key, item in value.items():
            out.append(f"{head}{quote(key)}: ")
            _write_json(item, inner, out, quote)
            head = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_manifold(out: list[str], m: dict) -> None:
    out.append(
        f"manifold: b1={m['b1']}  chi={m['euler']}  tau={m['signature']}  "
        f"rank(H2)={m['h2_rank']}  det(Q)={m['form_determinant']}"
    )
    out.append("summands: " + " # ".join(m["summands"]))


def _render_spinc(out: list[str], sp: dict) -> None:
    c1 = sp["c1"]
    c1_text = "0" if not any(c1) else ",".join(str(x) for x in c1)
    out.append(f"spin^c ({sp['source']}): c1 = {c1_text}")
    out.append(f"dirac index a = {sp['dirac_index']}")
    cond = sp["condition"]
    out.append(
        f"condition: index even: {_yesno(cond['index_even'])}; "
        f"index Chern class even: {_yesno(cond['chern_even'])}; "
        f"holds: {_yesno(cond['holds'])}"
    )
    out.append(f"moduli dimension d = {sp['moduli_dimension']}")


def _render_bordism(out: list[str], b: dict) -> None:
    if b["applicable"]:
        out.append(
            f"bordism class: dimension {b['dimension']}, group {b['group']}, "
            f"value {b['value']}"
        )
    else:
        out.append(f"bordism class: not applicable ({b['reason']})")


def _render_scan(out: list[str], res: dict) -> None:
    lb = res["einstein_lower_bound"]
    out.append(
        f"G = {res['G']}, s = {res['s']}: einstein bound r >= "
        f"{lb['numerator']}/{lb['denominator']}, hitchin-thorpe bound r <= "
        f"{res['hitchin_thorpe_upper_bound']}"
    )
    window = res["integer_window"]
    if window:
        out.append(f"integer window: {window[0]} <= r <= {window[1]}")
    else:
        out.append("integer window: empty")
    out.append("    r  einstein_obstructed  hitchin_thorpe")
    for row in res["rows"]:
        out.append(
            f"{row['r']:>5}  {_yesno(row['einstein_obstructed']):>19}  "
            f"{_yesno(row['hitchin_thorpe']):>14}"
        )


def render_text(report: dict) -> str:
    out = [f"fourfold {report['command']}"]
    echo = report["input"]
    if "expression" in echo:
        out[0] += f" -- {echo['expression']}"
    if "manifold" in report:
        _render_manifold(out, report["manifold"])
    if report.get("spinc"):
        _render_spinc(out, report["spinc"])
    elif "spinc_skipped" in report:
        out.append(f"spin^c: skipped ({report['spinc_skipped']})")
    if "bordism" in report:
        _render_bordism(out, report["bordism"])
    if "hitchin_thorpe" in report:
        out.append(f"hitchin-thorpe inequality: {_yesno(report['hitchin_thorpe'])}")
    result = report.get("result")
    if result:
        if report["command"] == "scan":
            _render_scan(out, result)
        elif report["command"] == "yamabe":
            out.append(f"yamabe invariant: {result['text']} ({result['approx']:.6g})")
        elif report["command"] == "einstein":
            out.append(f"einstein metric obstructed: {_yesno(result['einstein_obstructed'])}")
        elif report["command"] == "genus":
            if "min_genus" in result:
                out.append(f"minimal genus bound: {result['min_genus']}")
            else:
                out.append(
                    f"embedding obstructed: {_yesno(result['embedding_obstructed'])}"
                )
    out.append("caveats:")
    for caveat in report["caveats"]:
        out.append(f"  - {caveat}")
    return "\n".join(out)
